import ast
import itertools
import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from helpers import dense
from reference_kernels import (
    char_poly_fraction,
    integer_spectrum_check_reference,
    mat_mul,
    nonzero_eigenvalue_product,
    pivot_columns_dense,
    row_swap_det,
    smith_normal_form_dense,
)

import simtree
from simtree import exactlinalg
from simtree.complexes import SimplicialComplex
from simtree.errors import ExactnessError, InputError, _require
from simtree.corpus import enumerate_shifted_complexes
from simtree.exactlinalg import (
    ColumnReduction,
    HomologySummary,
    bareiss_det,
    betti,
    char_poly,
    columns_of,
    definite_det,
    fraction_det,
    gram_pseudodeterminant,
    homology,
    integer_spectrum_check,
    is_apc,
    pivot_columns,
    rank,
    smith_normal_form,
)
from simtree.fixtures import (
    bipyramid,
    complete_bipartite,
    complete_graph,
    rp2_six_vertices,
    simplex_skeleton,
    tetrahedron_boundary,
    two_disjoint_edges,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


# Integer matrices with non-unit entries, forced zero columns and empty shapes.
kernel_matrices = st.tuples(
    st.integers(0, 6).flatmap(
        lambda m: st.integers(0, 7).flatmap(
            lambda n: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -4, 6)),
                                        min_size=n, max_size=n), min_size=m, max_size=m))),
    st.sets(st.integers(0, 6))).map(
        lambda mz: [[0 if j in mz[1] else x for j, x in enumerate(row)] for row in mz[0]])

# Random 2-complexes on 7 vertices: a set of triangles and a set of edges.
TRIANGLES_7 = list(itertools.combinations(range(1, 8), 3))
EDGES_7 = list(itertools.combinations(range(1, 8), 2))
complexes_7 = st.tuples(st.sets(st.sampled_from(TRIANGLES_7), min_size=1, max_size=18),
                        st.sets(st.sampled_from(EDGES_7), max_size=6)).map(
    lambda te: SimplicialComplex.from_facets(sorted(te[0]) + sorted(te[1])))


def _kernel_matches_dense(columns, n_rows):
    """The kernel on column supports against the dense references."""
    dense = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, x in col:
            dense[i][j] = x
    reduction = ColumnReduction(columns)
    assert list(reduction.pivots) == pivot_columns_dense(dense)
    assert reduction.invariant_factors() == smith_normal_form_dense(dense)


@settings(max_examples=300, deadline=None)
@given(kernel_matrices)
def test_column_kernel_matches_dense_references(M):
    assert pivot_columns(M) == pivot_columns_dense(M)
    assert smith_normal_form(M) == smith_normal_form_dense(M)


def test_column_kernel_on_corpus_and_fixture_boundaries():
    fixtures = [bipyramid(), rp2_six_vertices(), tetrahedron_boundary(), two_disjoint_edges(),
                simplex_skeleton(6, 3), complete_graph(5), complete_bipartite(3, 3)]
    count = 0
    for cx in fixtures + list(enumerate_shifted_complexes(6, 2)):
        for k in range(cx.dim + 1):
            bd = cx.boundary_matrix(k)
            _kernel_matches_dense(bd.supports, bd.n_rows)
            count += 1
    assert count > 1000


@settings(max_examples=60, deadline=None)
@given(complexes_7, st.sampled_from((1, 2)), st.randoms(use_true_random=False))
def test_column_kernel_on_random_complexes(cx, k, rnd):
    bd = cx.boundary_matrix(k)
    _kernel_matches_dense(bd.supports, bd.n_rows)
    # a random set of the k-faces, as is_sst and the oracle take them
    cols = sorted(rnd.sample(range(bd.n_cols), rnd.randint(0, bd.n_cols)))
    _kernel_matches_dense([bd.supports[j] for j in cols], bd.n_rows)


def test_snf_examples():
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_snf_rp2_torsion():
    bd2 = dense(rp2_six_vertices().boundary_matrix(2))
    facs = smith_normal_form(bd2)
    assert [d for d in facs if d > 1] == [2]
    assert homology(rp2_six_vertices(), 1).torsion_order == 2


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_divisibility_and_rank(M):
    facs = smith_normal_form(M)
    assert all(d > 0 for d in facs)
    assert all(b % a == 0 for a, b in zip(facs, facs[1:]))
    assert len(facs) == rank(M)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_matches_gcd_of_minors(M):
    facs = smith_normal_form(M)
    m, n = len(M), len(M[0])
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = gcd(g, bareiss_det(sub))
        if g == 0:
            assert len(facs) < k
            break
        assert facs[k - 1] == g // prev
        prev = g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_vs_snf_product(M):
    det = bareiss_det(M)
    if det != 0:
        prod = 1
        for d in smith_normal_form(M):
            prod *= d
        assert abs(det) == prod


def test_det_examples():
    assert bareiss_det([[2, -1], [-1, 2]]) == 3
    assert bareiss_det([]) == 1
    with pytest.raises(InputError):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def test_char_poly_k2_laplacian():
    L = [[1, -1], [-1, 1]]
    assert char_poly(L) == [0, -2, 1]  # y^2 - 2y


def test_char_poly_constant_term_is_det():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        cp = char_poly(M)
        assert cp[0] == (-1) ** n * bareiss_det(M)
        assert cp[n] == 1


def test_char_poly_laplacian_signs_alternate():
    # chi(L; y) for PSD L has coefficients alternating in sign (or zero)
    from simtree.trees import up_down_laplacian

    for cx, k in ((bipyramid(), 2), (bipyramid(), 1), (rp2_six_vertices(), 2)):
        cp = char_poly(up_down_laplacian(cx, k))
        n = len(cp) - 1
        for j, c in enumerate(cp):
            if c:
                assert (c > 0) == ((n - j) % 2 == 0)


def test_char_poly_fraction_agrees():
    M = [[2, -1], [-1, 2]]
    assert char_poly_fraction(M) == [Fraction(c) for c in char_poly(M)]


def test_rank_of_bipyramid_boundary():
    B = bipyramid()
    assert rank(dense(B.boundary_matrix(2))) == 5
    assert betti(B, 2) == 2  # cross-check f_2 - rank = 2


def test_pivot_columns_examples():
    # column c is a pivot iff it is independent of the columns before it
    assert pivot_columns([[1, 1, 0], [0, 0, 1]]) == [0, 2]
    assert pivot_columns([[0, 2, 4], [0, 1, 2]]) == [1]
    assert pivot_columns([]) == pivot_columns([[], []]) == []
    assert rank([[1, 2], [2, 4], [0, 1]]) == len(pivot_columns([[1, 2], [2, 4], [0, 1]])) == 2


def test_require_raises_exactness_error():
    _require(True, "holds")
    with pytest.raises(ExactnessError, match="invariant broken"):
        _require(False, "invariant broken")


SOURCE_DIR = Path(simtree.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE_DIR.glob("*.py")))
def test_invariants_survive_optimize(module):
    """python -O strips assert statements, so invariants must use _require."""
    source = (SOURCE_DIR / module).read_text()
    asserts = [node.lineno for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_homology_examples():
    hollow = SimplicialComplex.from_facets([[1, 2], [1, 3], [2, 3]])
    h = homology(hollow, 1)
    assert (h.betti, h.torsion_order) == (1, 1)
    assert h.group_order() is None
    rp2 = rp2_six_vertices()
    assert (homology(rp2, 1).betti, homology(rp2, 1).torsion_order) == (0, 2)
    B = bipyramid()
    assert (homology(B, 1).betti, homology(B, 1).torsion_order) == (0, 1)
    assert (homology(B, 2).betti, homology(B, 2).torsion_order) == (2, 1)
    with pytest.raises(InputError):
        homology(B, 5)


def test_homology_of_a_large_skeleton():
    # bd_4 of the 4-skeleton of the simplex on 16 vertices is 1820 x 4368
    cx = simplex_skeleton(16, 4)
    assert homology(cx, 3) == HomologySummary(3, 0, 1)
    assert homology(cx, 4) == HomologySummary(4, comb(15, 5), 1)


def test_homology_of_empty_complex():
    empty = SimplicialComplex.empty()
    assert homology(empty, -1).betti == 1


def test_is_apc_examples():
    assert is_apc(bipyramid())
    assert not is_apc(two_disjoint_edges())
    assert is_apc(rp2_six_vertices())


def test_euler_characteristic_identity():
    for cx in (bipyramid(), rp2_six_vertices(), simplex_skeleton(5, 2),
               two_disjoint_edges()):
        lhs = sum((-1) ** i * cx.f(i) for i in range(-1, cx.dim + 1))
        rhs = sum((-1) ** i * betti(cx, i) for i in range(-1, cx.dim + 1))
        assert lhs == rhs


def test_definite_det_examples():
    assert definite_det([]) == 1
    assert definite_det([[7]]) == 7
    assert definite_det([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
    with pytest.raises(InputError):
        definite_det([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("M", [
    [[1, 2], [2, 1]],  # indefinite
    [[1, 1], [1, 1]],  # positive semidefinite but singular
    [[2, 1], [0, 2]],  # not symmetric
    [[0]],
    [[-3]],
])
def test_definite_det_refuses_what_is_not_positive_definite(M):
    with pytest.raises(ExactnessError):
        definite_det(M)


def test_nonzero_eigenvalue_product():
    # L for K2 on C_0 has eigenvalues {0, 2}
    assert nonzero_eigenvalue_product([[1, -1], [-1, 1]]) == 2
    assert nonzero_eigenvalue_product([]) == 1
    assert nonzero_eigenvalue_product([[0, 0], [0, 0]]) == 1
    # eigenvalues {0, 3, 3}: rank 2 with pivot columns 0 and 1
    assert nonzero_eigenvalue_product([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) == 9


@settings(max_examples=300, deadline=None)
@given(kernel_matrices)
def test_gram_pseudodeterminant_matches_dense_reference(M):
    # non-unit entries and zero columns take the Smith-form branch for B_PQ
    n_rows = len(M)
    BBt = mat_mul(M, [list(c) for c in zip(*M)]) if M and M[0] else [[0] * n_rows] * n_rows
    assert gram_pseudodeterminant(columns_of(M), n_rows) == nonzero_eigenvalue_product(BBt)


def test_gram_pseudodeterminant_examples():
    assert gram_pseudodeterminant([], 0) == gram_pseudodeterminant([[], []], 3) == 1
    assert gram_pseudodeterminant([[(0, 2)]], 1) == 4
    # B = [[2, 0], [1, 3]]: B B^T = [[4, 2], [2, 10]], det 36 = det(B)^2
    assert gram_pseudodeterminant(columns_of([[2, 0], [1, 3]]), 2) == 36
    # rank 1: B = [[1, 2], [2, 4]], B B^T = [[5, 10], [10, 20]], eigenvalues 25 and 0
    assert gram_pseudodeterminant(columns_of([[1, 2], [2, 4]]), 2) == 25


@pytest.mark.parametrize("M", [
    [[1, 2], [2, 1]],  # eigenvalues 3 and -1
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],  # rank 2, eigenvalues 1, -1, 0
    [[1, 2], [0, 0]],  # not symmetric; eigenvalues 1 and 0
])
def test_nonzero_eigenvalue_product_refuses_indefinite_or_asymmetric(M):
    with pytest.raises(ExactnessError):
        nonzero_eigenvalue_product(M)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size 0-8, some with a zero first pivot,
    a zero second leading minor, or two equal rows."""
    n = draw(st.integers(0, 8))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5)))
    shape = draw(st.sampled_from(("plain", "zero corner", "zero leading minor", "singular")))
    if shape == "zero corner" and n:
        M[0][0] = 0
    elif shape == "zero leading minor" and n > 1:
        a = M[0][0] or 1
        M[0][0] = M[0][1] = M[1][0] = M[1][1] = a
    elif shape == "singular" and n > 1:
        # row n-1 equals row 0
        M[0][n - 1] = M[n - 1][0] = M[n - 1][n - 1] = M[0][0]
        for j in range(1, n - 1):
            M[n - 1][j] = M[j][n - 1] = M[0][j]
    return M


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
def test_bareiss_det_on_symmetric_matrices_matches_the_row_swap_reference(M):
    assert bareiss_det(M) == row_swap_det(M)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from((0, 0, 1, -1, 2, -3, 7)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_bareiss_det_on_any_square_matrix_matches_the_row_swap_reference(M):
    assert bareiss_det(M) == row_swap_det(M)


def test_bareiss_det_takes_row_swaps_only_past_a_zero_leading_minor(monkeypatch):
    swapped = []
    real = exactlinalg._row_swap_det
    monkeypatch.setattr(exactlinalg, "_row_swap_det", lambda M: swapped.append(M) or real(M))
    assert bareiss_det([[0, 1], [1, 0]]) == -1  # zero first pivot
    assert bareiss_det([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1  # zero second minor
    assert bareiss_det([[2, 1], [0, 2]]) == 4  # not symmetric
    assert bareiss_det([[1, 2, 3], [2, 1, 0], [3, 1, 1]]) == -6  # asymmetric past row 0
    assert len(swapped) == 4
    # singular with only the last leading minor zero, and definite: no swaps
    assert bareiss_det([[1, 1], [1, 1]]) == 0
    assert bareiss_det([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
    assert bareiss_det([]) == 1
    assert len(swapped) == 4


def test_integer_spectrum_check_refuses_a_non_symmetric_matrix():
    with pytest.raises(InputError, match="symmetric"):
        integer_spectrum_check([[1, 2], [0, 1]], [1, 1])
    with pytest.raises(InputError, match="symmetric"):
        integer_spectrum_check([[1, 2, 3], [2, 1, 0], [3, 2, 1]], [0, 0, 0])
    with pytest.raises(InputError):
        integer_spectrum_check([[1, 2]], [1])


def test_integer_spectrum_check_ranks_what_the_traces_cannot_tell():
    # K_3's Laplacian has eigenvalues 0, 3, 3; 1, 1, 4 has the same trace and
    # the same sum of squares, and so has -1, 2, 2 with 0, 0, 3
    L = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert integer_spectrum_check(L, [3, 0, 3])
    assert not integer_spectrum_check(L, [1, 1, 4])
    D = [[0, 0, 0], [0, 0, 0], [0, 0, 3]]
    assert integer_spectrum_check(D, [0, 3, 0])
    assert not integer_spectrum_check(D, [2, -1, 2])
    assert integer_spectrum_check([], [])


def _perturbed_spectra(spectrum, rng):
    """The spectrum with one eigenvalue bumped, one lowered, one removed, a
    unit moved from a nonzero eigenvalue to a zero one, a unit moved between
    two others (the trace kept), and {c, c+3, c+3} turned into
    {c+1, c+1, c+4} where it occurs (the trace and tr M^2 kept)."""
    s = list(spectrum)
    n = len(s)
    out = []
    i = rng.randrange(n)
    out.append(s[:i] + [s[i] + 1] + s[i + 1:])
    out.append(s[:i] + [s[i] - 1] + s[i + 1:])
    out.append(s[:i] + s[i + 1:])
    nonzero = [i for i, lam in enumerate(s) if lam]
    zeros = [i for i, lam in enumerate(s) if not lam]
    if nonzero and zeros:
        t = s[:]
        a, b = rng.choice(nonzero), rng.choice(zeros)
        t[a], t[b] = t[a] - 1, 1
        out.append(t)
    if n > 1:
        t = s[:]
        a, b = rng.sample(range(n), 2)
        t[a], t[b] = t[a] + 1, t[b] - 1
        out.append(t)
    for c in sorted(set(s)):
        if s.count(c + 3) >= 2:
            t = s[:]
            t.remove(c)
            t.remove(c + 3)
            t.remove(c + 3)
            out.append(t + [c + 1, c + 1, c + 4])
            break
    return out


def test_integer_spectrum_check_matches_the_rank_reference_on_the_corpus():
    from simtree.shifted import unweighted_spectrum_duval_reiner
    from simtree.trees import up_down_laplacian

    rng = random.Random(23)
    cases = agree_true = 0
    for cx in enumerate_shifted_complexes(6, 2):
        L = up_down_laplacian(cx, cx.dim)
        spectrum = list(unweighted_spectrum_duval_reiner(cx))
        for expected in [spectrum, *_perturbed_spectra(spectrum, rng)]:
            verdict = integer_spectrum_check(L, expected)
            assert verdict == integer_spectrum_check_reference(L, expected), (cx, expected)
            cases += 1
            agree_true += verdict
    assert cases > 2500 and agree_true >= 442


def test_integer_spectrum_check():
    L = [[1, -1], [-1, 1]]
    assert integer_spectrum_check(L, [2, 0])
    assert not integer_spectrum_check(L, [1, 1])
    assert not integer_spectrum_check(L, [2])


def test_fraction_det():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert fraction_det(M) == Fraction(1, 14) - Fraction(1, 15)


def test_mat_mul():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
