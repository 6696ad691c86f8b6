from simtree.complexes import SimplicialComplex, is_shifted
from simtree.corpus import (
    componentwise_ideals,
    enumerate_shifted_complexes,
    find_coarse_hearing_witness,
    random_apc_2_complexes,
)
from simtree.exactlinalg import is_apc
from simtree.fixtures import bipyramid
from simtree.shifted import lsg_direct


def test_componentwise_ideals_are_ideals():
    ideals = list(componentwise_ideals(4, 2))
    assert frozenset() in ideals
    assert len(set(ideals)) == len(ideals)
    for ideal in ideals:
        for A in ideal:
            for idx in range(2):
                b = A[idx] - 1
                if b >= 1 and (idx == 0 or b > A[idx - 1]):
                    assert A[:idx] + (b,) + A[idx + 1:] in ideal


def test_threshold_graph_count():
    # shifted graphs on exactly [1,q] <-> pair ideals; 2^(q-1) of them
    for q in (3, 4, 5, 6):
        assert sum(1 for _ in componentwise_ideals(q, 2)) == 2 ** (q - 1)


def test_corpus_contents():
    corpus = enumerate_shifted_complexes(6, 2)
    assert len(corpus) == 442
    assert bipyramid() in corpus
    assert len(set(corpus)) == len(corpus)
    for cx in corpus[::9]:
        assert is_shifted(cx)
        assert cx.dim <= 2
        assert cx.vertices == tuple(range(1, cx.vertices[-1] + 1))


def test_random_apc_complexes_deterministic():
    a = random_apc_2_complexes(10)
    b = random_apc_2_complexes(10)
    assert a == b
    for cx in a:
        assert cx.dim == 2 and is_apc(cx)


def test_witness_pair():
    rep = find_coarse_hearing_witness(7, 9)
    assert rep["primary_range_exhausted"]  # nothing on <= 7 vertices
    assert rep["found"] and rep["vertices"] == 9
    fam_a, fam_b = rep["facets_a"], rep["facets_b"]
    assert set(fam_a) != set(fam_b)
    # equal facet-degree sequences, all distinct -> non-isomorphic is forced
    assert len(set(rep["facet_degrees"])) == 9
    ca = SimplicialComplex.closure(fam_a)
    cb = SimplicialComplex.closure(fam_b)
    assert ca.degree_sequence(2) == cb.degree_sequence(2) == rep["facet_degrees"]
    assert lsg_direct(fam_a, 1) != lsg_direct(fam_b, 1)
    # coarse parts (the E_t multiset) coincide
    pa = sorted((len(T) for _, T in lsg_direct(fam_a, 1)), reverse=True)
    pb = sorted((len(T) for _, T in lsg_direct(fam_b, 1)), reverse=True)
    assert pa == pb == list(rep["coarse_spectrum_parts"])


def test_witness_search_exhausts_small_range():
    rep = find_coarse_hearing_witness(5, 5)
    assert not rep["found"]
    assert rep["searched_max_vertices"] == 5
