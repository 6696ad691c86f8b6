import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from helpers import X_facet, dense, x_coarse
from reference_kernels import (
    char_poly_fraction,
    is_symmetric,
    poly_pow,
    substitute,
    symbolic_det_reference,
    weighted_boundary,
    weighted_laplacian_product,
    weighted_tau_at_points_reference,
)

from simtree.complexes import SimplicialComplex
from simtree.corpus import enumerate_shifted_complexes, random_apc_2_complexes
from simtree.errors import ExactnessError, InputError, ResourceLimitError
from simtree.exactlinalg import homology, is_apc
from simtree.fixtures import (
    bipyramid,
    complete_bipartite,
    complete_graph,
    rp2_six_vertices,
    simplex_skeleton,
    tetrahedron_boundary,
)
from simtree.laurent import (
    LaurentPoly,
    X_coarse,
    X_fine,
    canonical_string,
    monomial_for_face,
    poly_sum,
)
from simtree.shifted import (
    ferrers_tau,
    fine_laplacian_factors,
    shifted_tau_coarse,
    shifted_tau_fine,
    threshold_tau,
)
from simtree.trees import (
    LaplacianFactors,
    enumerate_ssts,
    find_sst,
    star_ridges,
    tau_via_reduced_laplacian,
)
from simtree import weighted
from simtree.weighted import (
    SCHEMES,
    SymbolicMatrix,
    symbolic_det,
    weighted_laplacian_factors,
    weighted_oracle,
    weighted_tau,
    weighted_tau_at_points,
    weighted_up_down_laplacian,
)

SEED = 20080814


def coarse_vars(cx):
    return [("c", v) for v in cx.vertices]


def test_weighted_boundary_single_edge_coarse():
    edge = SimplicialComplex.from_facets([[1, 2]])
    wb = weighted_boundary(edge, 1, "coarse")
    col = [wb.entries[i][0] for i in range(2)]
    x1x2 = monomial_for_face((1, 2), "coarse", squared=False)
    assert col == [-x1x2, x1x2]
    L = weighted_up_down_laplacian(edge, "coarse")
    assert L.entries[0][0] == monomial_for_face((1, 2), "coarse", squared=True)


def test_weighted_boundary_fine_column():
    B = bipyramid()
    wb = weighted_boundary(B, 2, "fine")
    j = wb.cols.index((1, 2, 3))
    x123 = monomial_for_face((1, 2, 3), "fine", squared=False)
    for i, row_face in enumerate(wb.rows):
        e = wb.entries[i][j]
        if row_face in ((2, 3), (1, 2)):
            assert e == x123
        elif row_face == (1, 3):
            assert e == -x123
        else:
            assert e.is_zero()


def test_weighted_boundary_specializes_to_signed_boundary():
    B = bipyramid()
    wb = weighted_boundary(B, 2, "facet")
    ones = {("e", F): 1 for F in B.faces_of_dim(2)}
    numeric = [[e.evaluate(ones) if e else Fraction(0) for e in row] for row in wb.entries]
    assert numeric == [[Fraction(x) for x in row] for row in dense(B.boundary_matrix(2))]


def test_weighted_boundary_scheme_restrictions():
    B = bipyramid()
    with pytest.raises(InputError):
        weighted_boundary(B, 1, "coarse")
    weighted_boundary(B, 1, "fine")  # allowed: raising covers lower dimensions


def test_weighted_boundary_fine_lower_dimension_raises_positions():
    # at k < d the fine column weight is the raised monomial
    from reference_kernels import raise_op

    B = bipyramid()
    wb = weighted_boundary(B, 1, "fine")
    j = wb.cols.index((1, 2))
    lifted = raise_op(monomial_for_face((1, 2), "fine", squared=False), 1, B.dim)
    col = {wb.rows[i]: wb.entries[i][j] for i in range(wb.n_rows)}
    assert col[(2,)] == lifted and col[(1,)] == -lifted
    assert all(col[F].is_zero() for F in wb.rows if F not in ((1,), (2,)))


def test_weighted_laplacian_matches_dense_product():
    fixtures = [bipyramid(), tetrahedron_boundary(), complete_graph(4),
                SimplicialComplex.from_facets([[1], [2], [3]])]
    for cx in [*fixtures, *random_apc_2_complexes(5), *enumerate_shifted_complexes(5, 2)]:
        for scheme in ("fine", "coarse", "facet"):
            L = weighted_up_down_laplacian(cx, scheme)
            ref = weighted_laplacian_product(cx, scheme)
            assert (L.rows, L.cols, L.entries) == (ref.rows, ref.cols, ref.entries)
    with pytest.raises(InputError):
        weighted_up_down_laplacian(bipyramid(), "nope")


def test_weighted_tau_on_the_empty_complex_names_its_dimension():
    for route in (lambda cx: weighted_tau(cx, "coarse"),
                  lambda cx: weighted_tau_at_points(cx, "coarse", [{}])):
        with pytest.raises(InputError, match=r"tree dimension -1 out of range \[0, -1\]"):
            route(SimplicialComplex.empty())


def test_weighted_tau_zero_dimensional():
    points = SimplicialComplex.from_facets([[1], [2], [3]])
    for scheme in ("fine", "coarse", "facet"):
        tau = weighted_tau(points, scheme)
        assert tau == weighted_oracle(points, scheme)
        assert tau.all_ones() == tau_via_reduced_laplacian(points, 0) == 3
    assert weighted_tau(points, "coarse") == poly_sum(X_coarse(v) for v in (1, 2, 3))


def test_laplacian_symmetric():
    for scheme in ("fine", "coarse", "facet"):
        assert is_symmetric(weighted_up_down_laplacian(bipyramid(), scheme))


def test_weighted_tau_bipyramid_coarse():
    got = weighted_tau(bipyramid(), "coarse")
    expected = LaurentPoly.one()
    for v, e in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2)):
        expected = expected * X_coarse(v, e)
    e3 = poly_sum(X_coarse(v) for v in (1, 2, 3))
    e5 = poly_sum(X_coarse(v) for v in (1, 2, 3, 4, 5))
    assert got == expected * e3 * e5
    assert got.all_ones() == 15


def test_weighted_tau_k3_facet_generic():
    got = weighted_tau(complete_graph(3), "facet")
    e = {F: X_facet(F) for F in complete_graph(3).faces_of_dim(1)}
    expected = (e[(1, 2)] * e[(1, 3)] + e[(1, 2)] * e[(2, 3)] + e[(1, 3)] * e[(2, 3)])
    assert got == expected


def test_weighted_tau_cayley_prufer():
    for n in (3, 4, 5):
        got = weighted_tau(complete_graph(n), "coarse")
        prod = LaurentPoly.one()
        for v in range(1, n + 1):
            prod = prod * X_coarse(v)
        s = poly_sum(X_coarse(v) for v in range(1, n + 1))
        assert got == prod * poly_pow(s, n - 2)


def test_weighted_oracle_matches_tau():
    B = bipyramid()
    for scheme in ("fine", "coarse", "facet"):
        assert weighted_oracle(B, scheme) == weighted_tau(B, scheme)


def test_an_unknown_scheme_raises_input_error():
    for enumerator in (weighted_tau, weighted_oracle):
        with pytest.raises(InputError, match="^unknown weighting scheme 'bogus'$"):
            enumerator(bipyramid(), "bogus")


def test_weighted_oracle_triangle_fine():
    tri = SimplicialComplex.from_facets([[1, 2, 3]])
    assert weighted_oracle(tri, "fine") == X_fine(1, 1) * X_fine(2, 2) * X_fine(3, 3)


def test_weighted_oracle_tetrahedron_facet():
    T = tetrahedron_boundary()
    facets = T.faces_of_dim(2)
    terms = []
    for drop in facets:
        mono = LaurentPoly.one()
        for F in facets:
            if F != drop:
                mono = mono * X_facet(F)
        terms.append(mono)
    assert weighted_oracle(T, "facet") == poly_sum(terms)


def test_symbolic_det_examples(monkeypatch):
    diag = SymbolicMatrix(rows=(1, 2), cols=(1, 2), entries=(
        (X_coarse(1), LaurentPoly.zero()), (LaurentPoly.zero(), X_coarse(2))))
    assert symbolic_det(diag) == X_coarse(1) * X_coarse(2)
    repeated = SymbolicMatrix(rows=(1, 2), cols=(1, 2), entries=(
        (X_coarse(1), X_coarse(2)), (X_coarse(1), X_coarse(2))))
    assert symbolic_det(repeated).is_zero()
    big = SymbolicMatrix(rows=tuple(range(13)), cols=tuple(range(13)),
                         entries=tuple(tuple(LaurentPoly.one() for _ in range(13))
                                       for _ in range(13)))
    with pytest.raises(ResourceLimitError,
                       match="^symbolic determinant of size 13 exceeds the size budget 12$"):
        symbolic_det(big)
    assert symbolic_det(SymbolicMatrix(rows=(), cols=(), entries=())) == LaurentPoly.one()
    # the budget is read at call time; the bipyramid's reduced Laplacian is 5 x 5
    expected = weighted_tau(bipyramid(), "coarse")
    monkeypatch.setattr(weighted, "DET_SIZE_CAP", 4)
    with pytest.raises(ResourceLimitError, match="size 5 exceeds the size budget 4$"):
        weighted_tau(bipyramid(), "coarse")
    monkeypatch.setattr(weighted, "DET_SIZE_CAP", 5)
    assert weighted_tau(bipyramid(), "coarse") == expected


def test_weighted_tau_refuses_past_the_size_budget_before_building_entries(monkeypatch):
    # the 3-skeleton of the 20-vertex simplex: 6,196 faces, inside the face
    # budget, and a 969 x 969 reduced Laplacian
    cx = simplex_skeleton(20, 3)

    def build_entries(*args):
        raise AssertionError("a Laplacian entry was built")

    monkeypatch.setattr(LaplacianFactors, "symbolic_entries", build_entries)
    with pytest.raises(AssertionError, match="entry was built"):  # inside the budget
        weighted_tau(bipyramid(), "fine")
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match="^symbolic determinant of size 969 exceeds the size budget 12$"):
        weighted_tau(cx, "fine")
    assert time.perf_counter() - start < 1.0


def test_weighted_tau_builds_no_full_weighted_laplacian(monkeypatch):
    # weighted_tau reads the factors at the kept rows, never the full L-hat
    monkeypatch.setattr(weighted, "weighted_up_down_laplacian", None)
    for cx in (bipyramid(), *random_apc_2_complexes(3)):
        for scheme in SCHEMES:
            assert weighted_tau(cx, scheme) == weighted_oracle(cx, scheme)


_DET_VARS = {"f": (("f", 1, 1), ("f", 2, 1)), "c": (("c", 1), ("c", 2)),
             "e": (("e", (1, 2)), ("e", (2, 3)))}


def _det_entries(kind):
    """Monomials and binomials over two variables of one kind, with negative
    and large exponents (fields past one byte) and Fraction coefficients, so
    that their products collide and cancel; a quarter of them zero."""
    a, b = _DET_VARS[kind]
    keys = [(), ((a, 1),), ((a, -2),), ((b, 1),), ((a, 1), (b, -1)), ((b, 100),), ((a, -100),)]
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    nonzero = ([LaurentPoly({k: c}) for k in keys for c in coeffs]
               + [LaurentPoly({k: c, m: -c}) for k, m in zip(keys, keys[1:]) for c in (1, 2)])
    return [LaurentPoly.zero()] * (len(nonzero) // 3) + nonzero


_DET_ENTRIES = {kind: _det_entries(kind) for kind in _DET_VARS}


@st.composite
def symbolic_matrices(draw):
    """Square matrices of size 0-7 over one variable kind; sometimes a
    repeated row, or one entry of another kind."""
    kind = draw(st.sampled_from("fce"))
    n = draw(st.integers(0, 7))
    flat = draw(st.lists(st.sampled_from(_DET_ENTRIES[kind]), min_size=n * n, max_size=n * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if n > 1 and draw(st.integers(0, 3)) == 0:  # every term cancels
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    if n and draw(st.integers(0, 5)) == 0:
        other = draw(st.sampled_from(sorted(set("fce") - {kind})))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = LaurentPoly(
            {((_DET_VARS[other][0], 1),): 1})
    return SymbolicMatrix(rows=tuple(range(n)), cols=tuple(range(n)),
                          entries=tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(symbolic_matrices())
def test_symbolic_det_matches_the_reference(M):
    # the packed expansion equals the LaurentPoly one; a matrix that mixes
    # kinds raises the text the reference raises
    try:
        ref = symbolic_det_reference(M)
    except InputError as exc:
        ref = str(exc)
    if len({e.kind for row in M.entries for e in row} - {None}) > 1:
        with pytest.raises(InputError, match="^polynomial mixes variable kinds$"):
            symbolic_det(M)
        assert not isinstance(ref, str) or ref == "polynomial mixes variable kinds"
        return
    got = symbolic_det(M)
    assert got.terms == ref.terms and got.kind == ref.kind
    assert canonical_string(got) == canonical_string(ref)


def test_symbolic_det_refuses_exponent_ranges_past_64_bits():
    def diag(*entries):
        n = len(entries)
        return SymbolicMatrix(rows=tuple(range(n)), cols=tuple(range(n)), entries=tuple(
            tuple(e if i == j else LaurentPoly.zero() for j, e in enumerate(entries))
            for i, e in enumerate(entries)))

    # each column's range counts: two of 2^62 fit 64 bits, two of 2^63 do not
    assert symbolic_det(diag(x_coarse(1, 2 ** 62), x_coarse(1, 2 ** 62) - 1)) == \
        x_coarse(1, 2 ** 63) - x_coarse(1, 2 ** 62)
    with pytest.raises(ResourceLimitError, match="64 bits"):
        symbolic_det(diag(x_coarse(1, 2 ** 63), x_coarse(1, 2 ** 63)))
    with pytest.raises(ResourceLimitError, match="64 bits"):
        symbolic_det(diag(x_coarse(1, 2 ** 64)))


def test_weighted_tau_u_independence():
    B = bipyramid()
    trees = [star_ridges(B, 1, 1), find_sst(B, 1),
             ((1, 2), (2, 3), (3, 4), (3, 5)), ((1, 5), (2, 5), (3, 5), (3, 4))]
    polys = {weighted_tau(B, "coarse", U) for U in trees}
    assert len(polys) == 1


def test_specialization_chain():
    B = bipyramid()
    fine = weighted_tau(B, "fine")
    assert fine.coarse_collapse() == weighted_tau(B, "coarse")
    assert fine.all_ones() == tau_via_reduced_laplacian(B, 2) == 15


def test_monomial_degrees():
    B = bipyramid()
    d = B.dim
    n_facets = B.f(d) - 2  # five facets per tree
    for key in weighted_tau(B, "coarse").terms:
        assert sum(e for _, e in key) // 2 == (d + 1) * n_facets
    for key in weighted_tau(B, "facet").terms:
        assert sum(e for _, e in key) // 2 == n_facets


def _product_of_nonzero_eigenvalues(M):
    cp = char_poly_fraction(M)
    j = next(i for i, c in enumerate(cp) if c != 0)
    r = len(M) - j
    return cp[j] * (-1) ** r


def test_weighted_smtt_eigenvalue_form():
    # pi-hat_d = tau-hat_d * tau_{d-1} / |H~_{d-2}|^2 at random substitutions
    rng = random.Random(SEED)
    for cx in (bipyramid(), tetrahedron_boundary()):
        d = cx.dim
        tau_hat = weighted_tau(cx, "coarse")
        tau_below = enumerate_ssts(cx, d - 1, include_trees=False).tau
        h = homology(cx, d - 2).group_order()
        L = weighted_up_down_laplacian(cx, "coarse")
        for _ in range(5):
            assignment = {("c", v): rng.randint(1, 10_000) for v in cx.vertices}
            pi_hat = _product_of_nonzero_eigenvalues(substitute(L, assignment))
            assert pi_hat == Fraction(tau_hat.evaluate(assignment) * tau_below, h * h)


def test_weighted_tau_at_points():
    B = bipyramid()
    rng = random.Random(SEED)
    assignments = [{("c", v): rng.randint(1, 10_000) for v in B.vertices}
                   for _ in range(3)]
    values = weighted_tau_at_points(B, "coarse", assignments)
    tau = weighted_tau(B, "coarse")
    assert values == [tau.evaluate(a) for a in assignments]


def test_weighted_tau_at_points_matches_the_substitution_route():
    # one integer Bareiss determinant per point == the symbolic reduced
    # Laplacian substituted entry by entry, then a determinant over Q
    fixtures = [bipyramid(), rp2_six_vertices(), complete_graph(4), complete_bipartite(2, 3),
                simplex_skeleton(5, 2), SimplicialComplex.from_facets([[1], [2], [3]])]
    assert all(is_apc(cx) for cx in fixtures)
    corpus = [cx for cx in enumerate_shifted_complexes(5, 2) if cx.dim >= 0 and is_apc(cx)]
    rng = random.Random(SEED)
    for cx in [*fixtures, *corpus, *random_apc_2_complexes(5)]:
        for scheme in SCHEMES:
            variables = sorted({v for F in cx.faces_of_dim(cx.dim)
                                for v in monomial_for_face(F, scheme).variables()})
            points = [{v: rng.randint(1, 10_000) for v in variables} for _ in range(2)]
            points.append({v: Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                           for v in variables})
            points.append({v: 0 if n == 0 else rng.randint(1, 10_000)
                           for n, v in enumerate(variables)})
            got = weighted_tau_at_points(cx, scheme, points)
            assert got == weighted_tau_at_points_reference(cx, scheme, points)
    assert len(corpus) > 20


def test_a_missing_variable_raises_input_error():
    B = bipyramid()
    point = {("c", v): 2 for v in B.vertices[1:]}
    message = r"no value for the variable \('c', 1\)"
    with pytest.raises(InputError, match=message):
        weighted_tau_at_points(B, "coarse", [point])
    with pytest.raises(InputError, match=message):
        weighted_laplacian_factors(B, "coarse").at_point(point)
    with pytest.raises(InputError, match="no value for the variable"):
        fine_laplacian_factors(B, 1).at_point({})
    with pytest.raises(InputError, match=message):
        weighted_tau_at_points_reference(B, "coarse", [point])


def _scaled_correction(monkeypatch, factor):
    """Make ridge_tree_reduction report its correction times factor."""
    real = weighted.ridge_tree_reduction

    def scaled(cx, k, ridge_tree=None):
        U, correction = real(cx, k, ridge_tree)
        return U, correction * factor
    monkeypatch.setattr(weighted, "ridge_tree_reduction", scaled)


def test_weighted_tau_raises_when_the_correction_does_not_divide(monkeypatch):
    B = bipyramid()
    expected = weighted_tau(B, "coarse")
    _scaled_correction(monkeypatch, Fraction(1, 7))
    with pytest.raises(ExactnessError):
        weighted_tau(B, "coarse")
    real_det = weighted.symbolic_det
    monkeypatch.setattr(weighted, "symbolic_det", lambda M: real_det(M) * 7)
    assert weighted_tau(B, "coarse") == expected


def test_enumerator_coefficients_are_ints():
    B = bipyramid()
    G = B.skeleton(1)  # a connected threshold graph on [1, 5]
    polys = [f(cx, s) for f in (weighted_tau, weighted_oracle) for s in SCHEMES
             for cx in (B, G)]
    polys += [shifted_tau_fine(B), shifted_tau_coarse(B), shifted_tau_fine(G),
              shifted_tau_coarse(G), threshold_tau(G), ferrers_tau((3, 2, 2))]
    for p in polys:
        assert p.terms and all(type(c) is int for c in p.terms.values())
