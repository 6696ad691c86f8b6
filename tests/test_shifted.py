import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from helpers import cone, is_pure
from reference_kernels import (
    algebraic_fine_boundary,
    algebraic_fine_laplacian,
    delete_labels,
    expand_z_reference,
    poly_pow,
    raise_op,
    scale_row_col,
    substitute,
    symbolic_matmul,
)

from simtree import complexes, shifted
from simtree.complexes import SimplicialComplex, is_shifted, shifted_from_generators
from simtree.corpus import enumerate_shifted_complexes
from simtree.errors import DomainError, ExactnessError, InputError
from simtree.exactlinalg import betti, fraction_det, homology, integer_spectrum_check
from simtree.fixtures import (
    bipyramid,
    bipyramid_subcomplex,
    complete_graph,
    simplex_skeleton,
)
from simtree.laurent import (
    LaurentPoly,
    X_fine,
    canonical_string,
    monomial_for_face,
    poly_sum,
)
from simtree.shifted import (
    SpectrumMultiset,
    ZPolynomial,
    algebraic_fine_laplacian_entries,
    conjugate_partition,
    critical_pairs,
    fine_laplacian_factors,
    ferrers_bipartite_complex,
    ferrers_tau,
    ferrers_threshold_graph,
    ferrers_via_threshold_zero_substitution,
    hear_shape,
    lsg_direct,
    lsg_recursive,
    shifted_spectrum,
    shifted_tau_coarse,
    shifted_tau_fine,
    threshold_graph_from_degrees,
    threshold_tau,
    unweighted_spectrum_duval_reiner,
    z_poly,
)
from simtree.trees import tau_via_reduced_laplacian, up_down_laplacian
from simtree.verification import spectrum_theorem_holds
from simtree.weighted import weighted_oracle, weighted_tau

SEED = 20080814


def xs(*vertices):
    return monomial_for_face(tuple(vertices), "fine", squared=True)


# -- critical pairs -------------------------------------------------------


def test_bipyramid_critical_pairs():
    cps = critical_pairs(bipyramid().faces_of_dim(2), 1)
    assert {(cp.A, cp.B) for cp in cps} == {
        ((1, 2, 5), (1, 2, 6)), ((1, 3, 5), (1, 3, 6)), ((1, 3, 5), (1, 4, 5)),
        ((2, 3, 5), (2, 3, 6)), ((2, 3, 5), (2, 4, 5))}


def test_b4_critical_pairs():
    cps = critical_pairs(bipyramid_subcomplex(4).faces_of_dim(1), 3)
    rows = {(cp.A, cp.B, cp.signature, cp.long_signature) for cp in cps}
    assert rows == {
        ((3, 5), (4, 5), (3,), ((), (3,))),
        ((3, 5), (3, 6), (3, 5), ((3,), (3, 4, 5)))}


def test_simplex_skeleton_critical_pairs():
    # pairs of the d-skeleton family are (A u {n}, A u {n+1}) for A in C([n-1], d)
    n, d = 5, 2
    fam = simplex_skeleton(n, d).faces_of_dim(d)
    cps = critical_pairs(fam, 1)
    expect = {(tuple(sorted(A + (n,))), tuple(sorted(A + (n + 1,))))
              for A in itertools.combinations(range(1, n), d)}
    assert {(cp.A, cp.B) for cp in cps} == expect
    assert all(cp.long_signature[1] == tuple(range(1, n + 1)) for cp in cps)


def test_non_shifted_family_rejected():
    with pytest.raises(DomainError):
        critical_pairs([(1, 3), (2, 4)], 1)


def test_critical_pairs_checks_every_family():
    # the callers that know their complex is shifted skip the family check;
    # the public entry points keep it
    not_shifted = SimplicialComplex.from_facets([[1, 2], [1, 4]])  # (1, 3) is missing
    for family in (not_shifted.faces_of_dim(1), [(1, 2, 4)], [(2, 3)]):
        with pytest.raises(DomainError, match="family is not shifted"):
            critical_pairs(family, 1)
        with pytest.raises(DomainError, match="family is not shifted"):
            lsg_direct(family, 1)
    with pytest.raises(DomainError):
        shifted_spectrum(not_shifted, 1)
    assert critical_pairs([(1, 2), (1, 3)], 1) == critical_pairs([(1, 3), (1, 2)])


# -- z-polynomials ---------------------------------------------------------


def test_z_poly_paper_display():
    z = z_poly((1, 3), (1, 2, 3, 4, 5), 2)
    num = poly_sum([xs(1, 1, 3), xs(1, 2, 3), xs(1, 3, 3), xs(1, 3, 4), xs(1, 3, 5)])
    den = raise_op(xs(1, 3), 1, 2)
    assert z.poly == num.div_exact(den)


def test_z_poly_degenerate():
    assert z_poly((), (), 2).poly.is_zero()
    assert z_poly((), (4,), 2).poly == X_fine(1, 4)


def test_z_poly_multiset_support():
    z = z_poly((2, 2), (2, 3), 3)
    num = xs(2, 2, 2) + xs(2, 2, 3)
    den = raise_op(xs(2, 2), 1, 3)
    assert z.poly == num.div_exact(den)


def test_z_poly_matches_reference_expansion_on_corpus():
    for cx in enumerate_shifted_complexes(6, 2):
        for i in range(cx.dim + 1):
            for z in shifted_spectrum(cx, i).zpolys:
                assert z.poly == expand_z_reference(z.S, z.T, z.shift, z.cutoff)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ExactnessError, InputError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3), st.lists(st.integers(1, 5), max_size=3),
       st.integers(-1, 3), st.integers(-1, 3))
@example([], [1], 0, -1)  # no raise: nothing is killed, even past the cutoff
@example([], [1, 2], 1, 0)  # both terms killed
@example([1, 2], [3], 0, 1)  # raise(X_S) killed: division by zero
@example([1], [2], 1, 1)  # a negative exponent raised past the cutoff
@example([2, 2], [2, 2, 3], 1, 3)  # multisets and a repeated j
@example([1], [2], -1, 2)  # negative shift
def test_z_poly_matches_reference_expansion_past_the_cutoff(S, T, shift, cutoff):
    S, T = tuple(sorted(S)), tuple(sorted(T))
    assert _outcome(lambda: ZPolynomial(S, T, shift, cutoff).poly) \
        == _outcome(expand_z_reference, S, T, shift, cutoff)


# -- spectra -----------------------------------------------------------------


def test_bipyramid_spectrum_table():
    spec = shifted_spectrum(bipyramid(), 2)
    assert spec.pairs() == (
        ((1,), (1, 2, 3)), ((1, 2), (1, 2, 3, 4, 5)), ((1, 3), (1, 2, 3, 4, 5)),
        ((2,), (1, 2, 3)), ((2, 3), (1, 2, 3, 4, 5)))
    assert spec.zero_multiplicity == bipyramid().f(1) - 5
    assert spec.coarse_parts() == (5, 5, 5, 3, 3)


def test_b4_spectrum():
    spec = shifted_spectrum(bipyramid_subcomplex(4), 1)
    assert spec.pairs() == (((), (3,)), ((3,), (3, 4, 5)))


def test_recurrence_equals_direct():
    for idx in range(1, 8):
        cx = bipyramid_subcomplex(idx)
        if not cx.vertices:
            continue
        for i in range(0, cx.dim + 1):
            fam = cx.faces_of_dim(i)
            direct = lsg_direct(fam, cx.min_vertex) if fam else []
            assert lsg_recursive(cx, i) == direct


def test_spectrum_rejects_non_shifted():
    with pytest.raises(DomainError):
        shifted_spectrum(SimplicialComplex.from_facets([[1, 3], [2, 4]]), 1)
    with pytest.raises(InputError):
        shifted_spectrum(bipyramid(), 9)


def test_spectrum_is_computed_once_per_complex_and_dimension():
    cx = bipyramid()
    spec = shifted_spectrum(cx, 1)
    assert shifted_spectrum(cx, 1) is spec
    assert shifted_spectrum(cx, 2) is not spec
    with pytest.raises(InputError):  # the memo is read after the range check
        shifted_spectrum(cx, 3)
    with pytest.raises(InputError):
        shifted_spectrum(cx, -1)


def test_a_complex_built_from_shifted_generators_is_scanned_once(monkeypatch):
    scans = []

    def counting_is_shifted(cx):
        scans.append(cx)
        return is_shifted(cx)

    monkeypatch.setattr(complexes, "is_shifted", counting_is_shifted)
    monkeypatch.setattr(shifted, "is_shifted", counting_is_shifted)
    cx = shifted_from_generators([(2, 4, 6), (3, 5, 6)], 1)
    shifted_spectrum(cx, cx.dim)
    shifted_tau_fine(cx)
    assert scans == [cx]


def test_non_shifted_complex_is_refused_on_every_call():
    # its vertices form a shifted family, so only the complex check refuses i = 0
    cx = SimplicialComplex.from_facets([[1, 3], [2, 4]])
    for i in (0, 0, 1, 1):
        with pytest.raises(DomainError, match="^complex is not shifted$"):
            shifted_spectrum(cx, i)
    with pytest.raises(DomainError, match="^complex is not shifted$"):
        shifted_tau_fine(cx)


def test_spectrum_same_nonzero():
    a = shifted_spectrum(bipyramid(), 2)
    b = SpectrumMultiset(zpolys=a.zpolys, zero_multiplicity=99)
    assert a.pairs() == b.pairs()  # equal up to zero eigenvalues


def test_spectrum_theorem_at_random_points():
    for cx in (bipyramid(), bipyramid_subcomplex(2), bipyramid_subcomplex(3),
               shifted_from_generators([(2, 4), (1, 5)], 1)):
        for i in range(0, cx.dim + 1):
            assert spectrum_theorem_holds(cx, i, 5, SEED, "unit")


def test_duval_reiner_examples():
    assert unweighted_spectrum_duval_reiner(bipyramid()) == (5, 5, 5, 3, 3, 0, 0, 0, 0)
    k3 = complete_graph(3)
    assert unweighted_spectrum_duval_reiner(k3) == (3, 3, 0)
    k2 = complete_graph(2)
    assert unweighted_spectrum_duval_reiner(k2) == (2, 0)
    single = SimplicialComplex.from_facets([[1, 2, 3, 4]])
    assert unweighted_spectrum_duval_reiner(single) == (4, 0, 0, 0)


def test_duval_reiner_is_true_spectrum():
    for cx in (bipyramid(), complete_graph(4), simplex_skeleton(5, 2)):
        expected = list(unweighted_spectrum_duval_reiner(cx))
        assert integer_spectrum_check(up_down_laplacian(cx, cx.dim), expected)


def test_cone_spectrum_formula():
    # cone spectra from base spectra, checked numerically for shifted bases
    # on [2, q]: each eigenvalue gains X[d-i+1,1], link-type eigenvalues are
    # additionally scaled, and homology contributes bare apex eigenvalues.
    rng = random.Random(SEED)
    for gens in [[(3, 4)], [(3, 5)], [(2, 4)], [(3, 4), (2, 5)]]:
        delta = shifted_from_generators(gens, 2)
        sigma = cone(delta, 1)
        d = delta.dim
        D = sigma.dim
        for i in range(0, D):
            # lambda in S^ud_i(Delta): spectrum index i+1 of Delta
            lam_pairs = (shifted_spectrum(delta, i + 1).zpolys
                         if 0 <= i + 1 <= delta.dim else ())
            mu_pairs = (shifted_spectrum(delta, i).zpolys
                        if 0 <= i <= delta.dim else ())
            a_var = X_fine(d - i + 1, 1)
            b_var = X_fine(d - i + 2, 1)
            parts = []
            for z in lam_pairs:
                lifted = ZPolynomial(z.S, z.T, shift=z.shift + 1, cutoff=D).poly
                parts.append(a_var + lifted)
            for z in mu_pairs:
                lifted = ZPolynomial(z.S, z.T, shift=z.shift + 1, cutoff=D).poly
                parts.append(a_var + a_var * lifted.div_exact(b_var))
            parts.extend([a_var] * betti(delta, i))
            L = algebraic_fine_laplacian_entries(sigma, i)
            variables = sorted({v for row in L.entries for e in row
                                for v in e.variables()}
                               | {v for p in parts for v in p.variables()})
            n = L.n_rows
            zero_mult = n - len(parts)
            assert zero_mult >= 0
            for _ in range(4):
                assignment = {v: rng.randint(1, 10_000) for v in variables}
                y = Fraction(rng.randint(1, 10_000))
                M = substitute(L, assignment)
                shifted_M = [[(y if r == c else 0) - M[r][c] for c in range(n)]
                             for r in range(n)]
                lhs = fraction_det(shifted_M)
                rhs = y ** zero_mult
                for p in parts:
                    rhs *= y - p.evaluate(assignment)
                assert lhs == rhs


# -- hearing -----------------------------------------------------------------


def test_hear_shape_round_trip():
    B = bipyramid()
    spectra = {i: shifted_spectrum(B, i) for i in range(0, 3)}
    assert hear_shape(spectra) == B


def test_hear_shape_top_spectrum_pure():
    B = bipyramid()
    heard = hear_shape({2: shifted_spectrum(B, 2)})
    assert set(heard.faces_of_dim(2)) == set(B.faces_of_dim(2))


def test_hear_shape_empty():
    assert hear_shape({}) == SimplicialComplex.empty()


def test_hear_shape_rejects_inconsistent():
    z_bad = [ZPolynomial(S=(1, 2), T=(1, 2, 3, 4, 5), shift=0, cutoff=2)]
    with pytest.raises(DomainError):
        hear_shape({2: z_bad})


# -- enumerators ---------------------------------------------------------------


def test_shifted_tau_fine_bipyramid_display():
    B = bipyramid()
    pre = xs(1, 2, 3) * xs(1, 2, 4) * xs(1, 3, 4) * xs(1, 2, 5) * xs(1, 3, 5)
    f1 = (xs(1, 2) + xs(2, 2) + xs(2, 3)).div_exact(xs(1, 2))
    f2 = (xs(1, 2, 3) + xs(2, 2, 3) + xs(2, 3, 3) + xs(2, 3, 4)
          + xs(2, 3, 5)).div_exact(xs(1, 2, 3))
    assert shifted_tau_fine(B) == pre * f1 * f2


def test_shifted_tau_fine_simplex_and_star():
    full = SimplicialComplex.from_facets([[1, 2, 3, 4]])
    assert shifted_tau_fine(full) == xs(1, 2, 3, 4)
    star = shifted_from_generators([(1, 5)], 1)
    expected = LaurentPoly.one()
    for v in range(2, 6):
        expected = expected * xs(1, v)
    assert shifted_tau_fine(star) == expected


def test_shifted_tau_fine_equals_weighted_tau():
    for gens, p in ([[(2, 3, 5)], 1], [[(2, 4), (1, 5)], 1], [[(1, 3, 4)], 1]):
        cx = shifted_from_generators(gens, p)
        assert shifted_tau_fine(cx) == weighted_tau(cx, "fine")


def test_shifted_tau_fine_20_point_agreement_large():
    # above the symbolic comfort zone: simplex 2-skeleton on 6 vertices
    from simtree.weighted import weighted_tau_at_points

    cx = simplex_skeleton(6, 2)
    fine = shifted_tau_fine(cx)
    rng = random.Random(SEED)
    variables = fine.variables()
    assignments = [{v: rng.randint(1, 10_000) for v in variables} for _ in range(20)]
    vals = weighted_tau_at_points(cx, "fine", assignments)
    assert vals == [fine.evaluate(a) for a in assignments]


def test_shifted_tau_coarse_bipyramid():
    B = bipyramid()
    got = shifted_tau_coarse(B)
    assert got == weighted_tau(B, "coarse")
    assert got == shifted_tau_fine(B).coarse_collapse()


def test_shifted_tau_coarse_simplex_skeleton():
    n, d = 5, 2
    cx = simplex_skeleton(n, d)
    got = shifted_tau_coarse(cx)
    from math import comb
    from simtree.laurent import X_coarse

    prod = LaurentPoly.one()
    for v in range(1, n + 1):
        prod = prod * X_coarse(v, comb(n - 2, d - 1))
    s = poly_sum(X_coarse(v) for v in range(1, n + 1))
    assert got == prod * poly_pow(s, comb(n - 2, d))
    assert got.all_ones() == n ** comb(n - 2, d)


def test_shifted_tau_coarse_requires_vertex_one():
    with pytest.raises(DomainError):
        shifted_tau_coarse(bipyramid_subcomplex(2))


def test_shifted_tau_fine_non_pure_reduces_to_pure_skeleton():
    # <134, 25> is shifted but not pure (and not even APC: the edge 25 closes
    # an unfillable cycle); the enumerator is the pure 2-skeleton's.
    from simtree.complexes import shifted_from_generators
    from simtree.exactlinalg import is_apc

    cx = shifted_from_generators([(1, 3, 4), (2, 5)], 1)
    assert not is_pure(cx) and not is_apc(cx)
    pure = cx.pure_skeleton(2)
    assert shifted_tau_fine(cx) == shifted_tau_fine(pure) == weighted_tau(pure, "fine")
    assert shifted_tau_fine(cx) == xs(1, 2, 3) * xs(1, 2, 4) * xs(1, 3, 4)


# -- threshold graphs ------------------------------------------------------------


def test_threshold_k2():
    assert threshold_tau(complete_graph(2)) == xs(1, 2)


def test_threshold_k3_brute_force():
    k3 = complete_graph(3)
    assert threshold_tau(k3) == weighted_oracle(k3, "fine")
    assert len(threshold_tau(k3).terms) == 3


def test_threshold_k5_and_bipyramid_skeleton():
    assert threshold_tau(complete_graph(5)).all_ones() == 125
    assert threshold_tau(bipyramid().skeleton(1)).all_ones() == 75


def test_threshold_rejects_bad_input():
    with pytest.raises(DomainError):
        threshold_tau(SimplicialComplex.from_facets([[1, 2], [3, 4]]))
    with pytest.raises(DomainError):
        threshold_tau(bipyramid())
    with pytest.raises(DomainError):
        threshold_tau(bipyramid_subcomplex(4))  # vertices start at 3


def test_threshold_graph_from_degrees():
    star = threshold_graph_from_degrees((3, 1, 1, 1))
    assert star.facets() == ((1, 2), (1, 3), (1, 4))
    assert threshold_graph_from_degrees((2, 2, 2)) == complete_graph(3)
    with pytest.raises(InputError):
        threshold_graph_from_degrees((1, 1, 1, 1))  # not a threshold sequence


def test_threshold_graph_from_degrees_joins_each_vertex_to_the_first_others():
    # every sequence on at most 5 vertices, against the adjacency of the
    # definition; and every connected threshold graph on at most 7 vertices
    # is rebuilt from its degrees
    for n in range(2, 6):
        for degrees in itertools.product(range(1, n), repeat=n):
            edges = {tuple(sorted((j, v))) for j, d in enumerate(degrees, start=1)
                     for v in [v for v in range(1, n + 1) if v != j][:d]}
            try:
                got = threshold_graph_from_degrees(degrees)
            except InputError:
                got = None
            cx = SimplicialComplex.from_facets(edges)
            counts = tuple(sum(v in e for e in edges) for v in range(1, n + 1))
            expected = cx if counts == degrees and is_shifted(cx) else None
            assert got == expected
    graphs = [g for g in enumerate_shifted_complexes(7, 1) if g.dim == 1 and betti(g, 0) == 0]
    assert len(graphs) > 50
    for g in graphs:
        assert threshold_graph_from_degrees(g.degree_sequence(1)) == g


@given(st.lists(st.integers(-1, 9), max_size=10))
def test_conjugate_partition_counts_the_parts_at_least_t(parts):
    conj = conjugate_partition(parts)
    assert conj == tuple(sum(1 for p in parts if p >= t) for t in range(1, len(conj) + 1))
    assert len(conj) == max([0, *parts])


# -- Ferrers graphs ---------------------------------------------------------------


def test_ferrers_examples():
    assert ferrers_tau((1,)) == X_fine(1, 1) * X_fine(2, 1)
    f22 = ferrers_tau((2, 2))
    x1, x2 = X_fine(1, 1), X_fine(1, 2)
    y1, y2 = X_fine(2, 1), X_fine(2, 2)
    assert f22 == x1 * x2 * y1 * y2 * (y1 + y2) * (x1 + x2)
    assert f22.all_ones() == 4


def test_ferrers_zero_substitution_route():
    for lam in [(1,), (2, 1), (3, 2, 2), (4, 4, 4, 4), (2, 2, 1), (4, 3, 1)]:
        assert ferrers_tau(lam) == ferrers_via_threshold_zero_substitution(lam)


def test_ferrers_kirchhoff():
    for lam in [(2, 2), (3, 1), (3, 2, 2), (4, 4, 4)]:
        count = tau_via_reduced_laplacian(ferrers_bipartite_complex(lam), 1)
        assert ferrers_tau(lam).all_ones() == count


def test_ferrers_complete_bipartite():
    for n in range(1, 5):
        for m in range(1, 5):
            assert ferrers_tau((n,) * m).all_ones() == n ** (m - 1) * m ** (n - 1)


def test_ferrers_threshold_graph_structure():
    G = ferrers_threshold_graph((2, 2))
    # clique on [1,2] plus bipartite edges to 3,4
    assert set(G.faces_of_dim(1)) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}


def test_ferrers_rejects_bad_partition():
    with pytest.raises(InputError):
        ferrers_tau(())
    with pytest.raises(InputError):
        ferrers_tau((1, 2))
    with pytest.raises(InputError):
        ferrers_tau((2, 0))


# -- algebraic fine weighting ------------------------------------------------------


def test_algebraic_boundary_squares_to_zero():
    B2 = bipyramid_subcomplex(2)
    comp = symbolic_matmul(algebraic_fine_boundary(B2, 1), algebraic_fine_boundary(B2, 2))
    assert all(e.is_zero() for row in comp.entries for e in row)


def test_algebraic_laplacian_entry_formula_matches_product():
    for cx in (bipyramid(), bipyramid_subcomplex(3), *enumerate_shifted_complexes(5, 2)):
        for i in range(-1, cx.dim + 1):
            prod = algebraic_fine_laplacian(cx, i)
            fast = algebraic_fine_laplacian_entries(cx, i)
            assert prod.rows == fast.rows
            assert all(a == b for ra, rb in zip(prod.entries, fast.entries)
                       for a, b in zip(ra, rb))


def test_factor_variables_are_those_of_the_entries_on_the_corpus():
    # the variables read off the quotient keys are those of the symbolic
    # entries on every (complex, i) pair that criterion 8 checks
    pairs = 0
    for cx in enumerate_shifted_complexes(6, 2):
        for i in range(cx.dim + 1):
            fac = fine_laplacian_factors(cx, i - 1)
            assert fac.variables() == sorted({vid for row in fac.symbolic_entries()
                                              for e in row for vid in e.variables()})
            pairs += 1
    assert pairs == 1257


def test_scaled_char_matrix_is_d_times_shifted_laplacian_times_d():
    # y D^2 - B W B^T == D (yI - LL^ud_i) D entrywise, with D and W from
    # raise_op and B W B^T and D^2 from the integer reader, and the variable
    # list is that of the symbolic entries
    rng = random.Random(SEED)
    for cx in enumerate_shifted_complexes(5, 2):
        d = cx.dim
        for i in range(-1, d + 1):
            fac = fine_laplacian_factors(cx, i)
            L = algebraic_fine_laplacian_entries(cx, i)
            assert fac.variables() == sorted({v for row in L.entries for e in row
                                              for v in e.variables()})
            D = [raise_op(monomial_for_face(F, "fine", squared=False), d - i, d)
                 for F in L.rows]
            W = [raise_op(monomial_for_face(H, "fine", squared=True), d - i - 1, d)
                 for H in cx.faces_of_dim(i + 1)]
            variables = sorted({v for p in D + W for v in p.variables()})
            for _ in range(2):
                a = {v: rng.randint(1, 10_000) for v in variables}
                y = rng.randint(1, 10_000)
                BWBt, scale = fac.at_point(a)
                M = [[(y * x if r == c else 0) - v for c, v in enumerate(row)]
                     for r, (row, x) in enumerate(zip(BWBt, scale))]
                d2 = 1
                for x in scale:
                    d2 *= x
                Lv = substitute(L, a)
                Dv = [p.evaluate(a) for p in D]
                n = len(Dv)
                assert M == [[Dv[r] * ((y if r == c else 0) - Lv[r][c]) * Dv[c]
                              for c in range(n)] for r in range(n)]
                square = 1
                for x in Dv:
                    square *= x * x
                assert d2 == square


def test_single_vertex_laplacian():
    v = SimplicialComplex.from_facets([[7]])
    L = algebraic_fine_laplacian(v, -1)
    assert L.entries[0][0] == X_fine(1, 7)


def test_n_matrix_identity():
    # N(Sigma) = LL(del_p Sigma) + X[1,p] I  (the reduce-to-evals mechanism)
    from simtree.trees import star_ridges
    from simtree.weighted import weighted_up_down_laplacian

    B = bipyramid()
    U = star_ridges(B, 1, 1)
    LU = delete_labels(weighted_up_down_laplacian(B, "fine"), U)
    divisors = [raise_op(monomial_for_face(F, "fine", squared=False), 1, B.dim)
                for F in LU.rows]
    N = scale_row_col(LU, divisors, divisors)
    LL = algebraic_fine_laplacian(B.deletion(1), 1)
    assert N.rows == LL.rows
    x11 = X_fine(1, 1)
    for i in range(N.n_rows):
        for j in range(N.n_cols):
            expected = LL.entries[i][j] + (x11 if i == j else LaurentPoly.zero())
            assert N.entries[i][j] == expected


def test_degree_signature_count():
    for idx in (1, 2, 3):
        cx = bipyramid_subcomplex(idx)
        p = cx.min_vertex
        for i in range(0, cx.dim + 1):
            fam = cx.faces_of_dim(i)
            cps = critical_pairs(fam, p)
            degs = {v: sum(1 for F in fam if v in F) for v in cx.vertices}
            degs[cx.vertices[-1] + 1] = 0
            for v in cx.vertices:
                assert degs[v] - degs[v + 1] == sum(
                    1 for cp in cps if cp.signature[-1] == v)


def test_betti_count_identity():
    for idx in (1, 2, 3, 4):
        cx = bipyramid_subcomplex(idx)
        p = cx.min_vertex
        for i in range(-1, cx.dim + 1):
            fam = cx.faces_of_dim(i)
            count = sum(1 for F in fam
                        if p not in F and tuple(sorted(F + (p,))) not in cx)
            assert betti(cx, i) == count
