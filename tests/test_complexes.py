import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st
from helpers import complex_to_json_dict, cone, dense, f_vector
from reference_kernels import facets_reference, is_shifted_all_pairs, vertex_sign

from simtree.complexes import (
    FACE_CAP,
    SimplicialComplex,
    complex_from_json_dict,
    face,
    face_label,
    is_shifted,
    shifted_from_generators,
)
from simtree.corpus import enumerate_shifted_complexes, random_apc_2_complexes
from simtree.errors import InputError, ResourceLimitError
from simtree.fixtures import (
    bipyramid,
    bipyramid_subcomplex,
    rp2_six_vertices,
    simplex_skeleton,
    tetrahedron_boundary,
)


def test_face_normalization():
    assert face([3, 1, 2]) == (1, 2, 3)
    assert face([]) == ()
    with pytest.raises(InputError):
        face([1, 1, 2])
    with pytest.raises(InputError):
        face([0, 1])


def test_face_label():
    assert face_label((2, 3, 5)) == "235"
    assert face_label((2, 11)) == "2,11"


def test_face_label_edge_cases():
    labels = [face_label(F) for F in ((), (9,), (1, 9), (1, 10), (10, 11))]
    assert labels == ["-", "9", "19", "1,10", "10,11"]


def test_vertex_sign():
    assert vertex_sign(1, (1, 2, 3)) == 1
    assert vertex_sign(2, (1, 2, 3)) == -1
    assert vertex_sign(3, (1, 2, 3)) == 1
    assert vertex_sign(4, (1, 2, 3)) == 0


def test_from_facets_closure_of_two_edges():
    cx = SimplicialComplex.from_facets([[1, 2], [2, 3]])
    assert cx.all_faces() == {(), (1,), (2,), (3,), (1, 2), (2, 3)}


def test_from_facets_full_triangle():
    cx = SimplicialComplex.from_facets([[1, 2, 3]])
    assert len(cx.all_faces()) == 8


def test_from_facets_absorbs_subsets():
    cx = SimplicialComplex.from_facets([[1, 2, 3], [1, 2]])
    assert cx.facets() == ((1, 2, 3),)


def test_from_facets_rejects_duplicates():
    with pytest.raises(InputError):
        SimplicialComplex.from_facets([[1, 1, 2]])


def test_bipyramid_f_vector():
    assert f_vector(bipyramid()) == (1, 5, 9, 7)


def test_downward_closure_validated():
    with pytest.raises(InputError):
        SimplicialComplex([(1, 2), (1,)])  # missing vertex 2


def test_skeleton():
    tri = SimplicialComplex.from_facets([[1, 2, 3]])
    hollow = tri.skeleton(1)
    assert hollow.facets() == ((1, 2), (1, 3), (2, 3))
    assert tri.skeleton(2) == tri
    with pytest.raises(InputError):
        tri.skeleton(3)


def test_bipyramid_one_skeleton_misses_edge_45():
    # every pair except {4,5} lies in a facet; {4,5} lies in none
    B = bipyramid()
    skel = B.skeleton(1)
    facets = B.faces_of_dim(2)
    for pair in itertools.combinations(range(1, 6), 2):
        in_some_facet = any(set(pair) <= set(F) for F in facets)
        assert (pair in skel) == in_some_facet
    assert (4, 5) not in skel
    assert skel.f(1) == 9


def test_skeleton_face_sets_match():
    for cx in (bipyramid(), rp2_six_vertices()):
        for i in range(-1, cx.dim):
            expect = {F for F in cx.all_faces() if len(F) - 1 <= i}
            assert cx.skeleton(i).all_faces() == expect


def test_pure_skeleton():
    mixed = SimplicialComplex.from_facets([[1, 2, 3], [4, 5]])
    assert mixed.pure_skeleton(2) == SimplicialComplex.from_facets([[1, 2, 3]])
    B = bipyramid()
    assert B.pure_skeleton(2) == B
    assert mixed.pure_skeleton(1).facets() == ((1, 2), (1, 3), (2, 3), (4, 5))
    assert mixed.pure_skeleton(3) == SimplicialComplex.empty()


def test_link_and_deletion_of_bipyramid_at_1():
    B = bipyramid()
    link1 = B.link(1)
    assert link1 == bipyramid_subcomplex(3)
    assert set(link1.faces_of_dim(1)) == {(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)}
    del1 = B.deletion(1)
    assert del1 == bipyramid_subcomplex(2)
    assert del1 == cone(bipyramid_subcomplex(4), 2)
    with pytest.raises(InputError):
        B.link(9)


def test_link_of_triangle():
    tri = SimplicialComplex.from_facets([[1, 2, 3]])
    assert tri.link(1) == SimplicialComplex.from_facets([[2, 3]])


def test_cone():
    edge = SimplicialComplex.from_facets([[2, 3]])
    assert cone(edge, 1) == SimplicialComplex.from_facets([[1, 2, 3]])
    assert cone(bipyramid_subcomplex(4), 2) == bipyramid_subcomplex(2)
    assert cone(SimplicialComplex.empty(), 5) == bipyramid_subcomplex(7)
    with pytest.raises(InputError):
        cone(edge, 2)


def test_boundary_matrix_edge():
    edge = SimplicialComplex.from_facets([[1, 2]])
    bd = edge.boundary_matrix(1)
    assert bd.rows == ((1,), (2,))
    assert [row[0] for row in dense(bd)] == [-1, 1]


def test_boundary_matrix_triangle():
    tri = SimplicialComplex.from_facets([[1, 2, 3]])
    bd = tri.boundary_matrix(2)
    assert bd.rows == ((1, 2), (1, 3), (2, 3))
    assert [row[0] for row in dense(bd)] == [1, -1, 1]
    assert bd.supports == (((2, 1), (1, -1), (0, 1)),)  # (row, sign) by deleted position


def test_boundary_composition_zero():
    for cx in (bipyramid(), rp2_six_vertices(), tetrahedron_boundary()):
        for k in range(1, cx.dim + 1):
            a = dense(cx.boundary_matrix(k - 1))
            b = dense(cx.boundary_matrix(k))
            for col in zip(*b):
                assert not any(sum(r * c for r, c in zip(row, col)) for row in a)


def test_boundary_k0_maps_to_empty_face():
    cx = SimplicialComplex.from_facets([[1, 2]])
    bd = cx.boundary_matrix(0)
    assert bd.rows == ((),)
    assert dense(bd) == [[1, 1]]


def test_boundary_dimension_range():
    points = SimplicialComplex.from_facets([[1], [2], [3]])
    assert dense(points.boundary_matrix(1)) == [[], [], []]  # k = dim + 1
    for k in (-1, 2):
        with pytest.raises(InputError, match=r"out of range \[0, 1\]"):
            points.boundary_matrix(k)


def test_shifted_from_generators_bipyramid():
    assert shifted_from_generators([(2, 3, 5)], 1) == bipyramid()
    assert len(bipyramid().faces_of_dim(2)) == 7


@pytest.mark.parametrize("p", [0, -2])
def test_shifted_from_generators_rejects_a_min_vertex_below_1(p):
    with pytest.raises(InputError, match=f"^min_vertex must be a positive integer, got {p}$"):
        shifted_from_generators([(2, 3)], p)


def test_facets_match_the_all_pairs_reference():
    fixtures = [bipyramid(), bipyramid_subcomplex(3), rp2_six_vertices(), tetrahedron_boundary(),
                simplex_skeleton(6, 2), SimplicialComplex.empty(),
                SimplicialComplex.from_facets([(1, 2, 3), (3, 4), (5,)])]
    for cx in [*enumerate_shifted_complexes(6, 2), *fixtures]:
        assert cx.facets() == facets_reference(cx)


def test_facets_of_a_large_star_in_linear_time():
    star = shifted_from_generators([(1, 8001)], 1)  # K_{1,8000}
    start = time.perf_counter()
    facets = star.facets()
    assert time.perf_counter() - start < 1.0
    assert facets == tuple((1, v) for v in range(2, 8002))


@pytest.mark.parametrize("generators", [
    [(200, 400)],  # O(t^2) edges below (t/2, t)
    [(10 ** 9,)],
    [(2, 3), (2, 3), (300, 301)],
])
def test_shifted_from_generators_face_cap(generators):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"more than {FACE_CAP} faces"):
        shifted_from_generators(generators, 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("build", [SimplicialComplex.from_facets,
                                   lambda facets: complex_from_json_dict({"facets": facets})])
def test_closure_face_budget(build):
    # one facet on 30 vertices would build 2^30 faces: refused before any is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"more than {FACE_CAP} faces"):
        build([list(range(1, 31))])
    assert time.perf_counter() - start < 1.0


def test_closure_face_budget_counts_the_faces_built_so_far():
    assert SimplicialComplex.closure([range(1, 16)]).f(14) == 1  # 2^15 faces
    with pytest.raises(ResourceLimitError, match="face budget"):
        SimplicialComplex.closure([range(1, 16), range(16, 31)])
    assert f_vector(simplex_skeleton(16, 4)) == (1, 16, 120, 560, 1820, 4368)


def test_closure_face_budget_counts_each_face_once():
    # the star K_{1,24999} has 1 + 25000 + 24999 faces, exactly the budget;
    # its edges share the vertex 1, which an edge-by-edge sum of 2^2 counts again
    leaves = range(2, 2 + 24_999)
    star = SimplicialComplex.from_facets([(1, v) for v in leaves])
    assert len(star.all_faces()) == FACE_CAP == 50_000
    assert star.f(1) == 24_999
    with pytest.raises(ResourceLimitError, match="face budget"):
        SimplicialComplex.from_facets([(1, v) for v in leaves] + [(1, 25_001)])
    # generators already built add nothing
    assert SimplicialComplex.closure([range(1, 16)] * 3 + [(1, 2)]).f(14) == 1


def test_is_shifted():
    assert is_shifted(bipyramid())
    assert not is_shifted(SimplicialComplex.from_facets([[1, 3], [2, 4]]))


def test_is_shifted_matches_all_pairs_reference_on_corpus():
    corpus = enumerate_shifted_complexes(6, 2)
    complexes = list(corpus) + list(random_apc_2_complexes(100))
    complexes += [cx.deletion(v) for cx in corpus[::5] for v in cx.vertices]
    complexes += [cx.link(v) for cx in corpus[::5] for v in cx.vertices]
    results = [is_shifted(cx) for cx in complexes]
    assert results == [is_shifted_all_pairs(cx) for cx in complexes]
    assert True in results and False in results


_faces = st.lists(st.sets(st.integers(1, 7), min_size=1, max_size=4), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_faces, st.integers(1, 3), st.booleans())
def test_is_shifted_matches_all_pairs_reference(faces, stretch, as_generators):
    """Closures of random faces, and shifted complexes with gaps between their
    vertices (shiftedness is relative to the complex's own vertex order)."""
    faces = [sorted(F) for F in faces]
    cx = shifted_from_generators(faces, 1) if as_generators \
        else SimplicialComplex.from_facets(faces)
    cx = SimplicialComplex([tuple(stretch * v for v in F) for F in cx.all_faces()])
    assert is_shifted(cx) == is_shifted_all_pairs(cx)


def test_link_deletion_of_shifted_is_shifted():
    B = bipyramid()
    assert is_shifted(B.link(1))
    assert is_shifted(B.deletion(1))


def test_shifted_is_near_cone():
    # every face F of del_1 and v in F give the face F - v + 1
    B = bipyramid()
    dele = B.deletion(1)
    for F in dele.all_faces():
        for v in F:
            assert tuple(sorted(set(F) - {v} | {1})) in B


def test_simplex_skeleton_is_shifted():
    assert is_shifted(simplex_skeleton(5, 2))


def test_json_round_trip(tmp_path):
    B = bipyramid()
    data = complex_to_json_dict(B)
    assert complex_from_json_dict(data) == B
    gen = complex_from_json_dict({"shifted_generators": [[2, 3, 5]], "min_vertex": 1})
    assert gen == B
    with pytest.raises(InputError):
        complex_from_json_dict({"nope": 1})
