"""The acceptance suite: one callable per criterion, runnable from the CLI
(`sst verify`) and from pytest.

Every check is exact; random elements (substitution points, random complexes,
random facet subsets) come from a seeded PRNG whose seed is recorded in the
report detail. Substitution values are integers drawn from [1, 10^4].
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .complexes import SimplicialComplex
from .corpus import (
    DEFAULT_SEED,
    componentwise_ideals,
    enumerate_shifted_complexes,
    find_coarse_hearing_witness,
    random_apc_2_complexes,
)
from .errors import InputError
from .exactlinalg import (
    bareiss_det,
    betti,
    char_poly,
    gram_pseudodeterminant,
    homology,
    integer_spectrum_check,
    is_apc,
    rank,
    smith_normal_form,
    transpose,
)
from .fixtures import (
    bipyramid,
    bipyramid_subcomplex,
    complete_bipartite,
    complete_graph,
    rp2_six_vertices,
    simplex_skeleton,
)
from .laurent import LaurentPoly, X_coarse, monomial_for_face
from .shifted import (
    critical_pairs,
    ferrers_bipartite_complex,
    ferrers_tau,
    ferrers_via_threshold_zero_substitution,
    fine_laplacian_factors,
    hear_shape,
    lsg_recursive,
    shifted_spectrum,
    shifted_tau_coarse,
    shifted_tau_fine,
    threshold_tau,
    unweighted_spectrum_duval_reiner,
)
from .trees import (
    enumerate_ssts,
    find_sst,
    is_sst,
    pi,
    star_ridges,
    tau_via_alternating_product,
    tau_via_reduced_laplacian,
    up_down_laplacian,
)
from .weighted import weighted_oracle, weighted_tau


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] criterion {self.criterion:2d} {self.name}: {self.detail}"


def _rng(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _assignment(variables, rng) -> dict:
    return {v: rng.randint(1, 10_000) for v in variables}


def spectrum_theorem_holds(cx: SimplicialComplex, i: int, n_subs: int,
                           seed, tag) -> bool:
    """det(yI - LL^ud_{i-1}) == y^m * prod (y - raised z(S,T)) at seeded
    integer substitutions, compared as integers. With
    LL^ud_{i-1} = D^-1 B W B^T D^-1 the left side is det(y D^2 - B W B^T) over
    prod D_F^2, one integer Bareiss determinant, and each z(S,T) evaluates to
    num/den; both sides are multiplied by prod D_F^2 * prod den. A variable of
    D or W that cancels from every entry is set to 1. The spectrum is
    shifted_spectrum's, computed once per complex and dimension."""
    spec = shifted_spectrum(cx, i)
    fac = fine_laplacian_factors(cx, i - 1)
    zpolys = [z.poly for z in spec.zpolys]
    variables = set(fac.variables())
    for zp in zpolys:
        variables.update(zp.variables())
    ones = dict.fromkeys({vid for key in fac.row_keys + fac.col_keys for vid, _ in key}
                         - variables, 1)
    variables = sorted(variables)
    rng = _rng(seed, "spectrum", tag, i)
    for _ in range(n_subs):
        assignment = _assignment(variables, rng) | ones
        y = rng.randint(1, 10_000)
        M, scale = fac.at_point(assignment)  # det(y D^2 - BWB^T) = (-1)^n det(M - y D^2)
        for r, x in enumerate(scale):
            M[r][r] -= y * x
        lhs = (-1) ** len(M) * bareiss_det(M)
        rhs = prod(scale) * y ** spec.zero_multiplicity
        for zp in zpolys:
            z = zp.evaluate(assignment)
            lhs *= z.denominator
            rhs *= y * z.denominator - z.numerator
        if lhs != rhs:
            return False
    return True


# -- criteria -------------------------------------------------------------------


def check_01_bipyramid_tau_ladder(seed=DEFAULT_SEED, **_) -> CheckResult:
    B = bipyramid()
    expected = (5, 75, 15)
    rows = []
    ok = True
    for k in range(3):
        oracle = enumerate_ssts(B, k).tau
        lap = tau_via_reduced_laplacian(B, k, star_ridges(B, k - 1, 1) if k else ())
        alt = tau_via_alternating_product(B, k)
        ok &= oracle == lap == alt == expected[k]
        rows.append(f"tau_{k}={oracle}/{lap}/{alt}")
    return CheckResult(1, "bipyramid tau ladder (oracle/reduced-Laplacian/alternating)",
                       ok, "; ".join(rows) + f" expected {expected}")


def check_02_bipyramid_pi_ladder(seed=DEFAULT_SEED, **_) -> CheckResult:
    B = bipyramid()
    got = tuple(pi(B, k) for k in range(3))
    # the coboundary's reduction gives the same product: pdet(bd bd^T) = pdet(bd^T bd)
    via_coboundary = tuple(gram_pseudodeterminant(transpose(bd.supports, bd.n_rows), bd.n_cols)
                           for bd in map(B.boundary_matrix, range(3)))
    laplacians = [up_down_laplacian(B, k) for k in range(3)]
    via_char_poly = tuple(abs(char_poly(L)[len(L) - rank(L)]) for L in laplacians)
    return CheckResult(2, "bipyramid pi ladder via exact characteristic polynomials",
                       got == via_coboundary == via_char_poly == (5, 375, 1125),
                       f"pi={got} expected (5, 375, 1125)")


def check_03_classical(seed=DEFAULT_SEED, **_) -> CheckResult:
    ok = True
    for n in range(3, 8):
        ok &= tau_via_reduced_laplacian(complete_graph(n), 1) == n ** (n - 2)
    for n in range(1, 5):
        for m in range(1, 5):
            got = tau_via_reduced_laplacian(complete_bipartite(n, m), 1)
            ok &= got == n ** (m - 1) * m ** (n - 1)
    return CheckResult(3, "Cayley and complete-bipartite counts",
                       ok, "K_n for n=3..7 and K_{n,m} for n,m<=4, exact")


def check_04_kalai(seed=DEFAULT_SEED, **_) -> CheckResult:
    ok = True
    cases = 0
    for n in range(2, 8):
        for d in range(0, min(3, n - 1) + 1):
            got = tau_via_reduced_laplacian(simplex_skeleton(n, d), d)
            ok &= got == n ** comb(n - 2, d)
            cases += 1
    return CheckResult(4, "Kalai simplex-skeleton formula n<=7, d<=3",
                       ok, f"{cases} (n,d) cases, exact")


def check_05_torsion_tree(seed=DEFAULT_SEED, **_) -> CheckResult:
    rp2 = rp2_six_vertices()
    count = enumerate_ssts(rp2, 2)
    h1 = homology(rp2, 1)
    lap = tau_via_reduced_laplacian(rp2, 2)
    ok = (len(count.per_tree) == 1 and count.per_tree[0][1] == 2
          and count.tau == 4 == lap and h1.betti == 0 and h1.torsion_order == 2)
    return CheckResult(5, "RP^2 torsion tree",
                       ok, f"one 2-SST with |H~_1|=2, tau_2={count.tau} (oracle) = {lap} (Laplacian)")


def _expected_bipyramid_coarse() -> LaurentPoly:
    out = LaurentPoly.one()
    for v, e in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 2)):
        out = out * X_coarse(v, e)
    e3 = X_coarse(1) + X_coarse(2) + X_coarse(3)
    e5 = e3 + X_coarse(4) + X_coarse(5)
    return out * e3 * e5


def _expected_bipyramid_fine() -> LaurentPoly:
    def xf(face):
        return monomial_for_face(tuple(face), "fine", squared=True)

    pre = xf((1, 2, 3)) * xf((1, 2, 4)) * xf((1, 3, 4)) * xf((1, 2, 5)) * xf((1, 3, 5))
    f1 = (xf((1, 2)) + xf((2, 2)) + xf((2, 3))).div_exact(xf((1, 2)))
    f2 = (xf((1, 2, 3)) + xf((2, 2, 3)) + xf((2, 3, 3)) + xf((2, 3, 4))
          + xf((2, 3, 5))).div_exact(xf((1, 2, 3)))
    return pre * f1 * f2


def check_06_weighted_bipyramid(seed=DEFAULT_SEED, **_) -> CheckResult:
    B = bipyramid()
    coarse = weighted_tau(B, "coarse")
    fine = shifted_tau_fine(B)
    weighted_fine = weighted_tau(B, "fine")
    tau = tau_via_reduced_laplacian(B, 2)  # the same default ridge tree
    ok = (coarse == _expected_bipyramid_coarse()
          and fine == _expected_bipyramid_fine()
          and fine.coarse_collapse() == coarse == shifted_tau_coarse(B)
          and weighted_fine == fine
          and coarse.all_ones() == weighted_fine.all_ones() == tau)
    return CheckResult(6, "weighted bipyramid enumerators (coarse, fine, collapse)",
                       ok, "coarse matches the displayed product; fine matches the "
                           "displayed factorization; collapse agrees")


_B_TABLE = {
    7: [((), (5,))],
    6: [((), (4, 5))],
    5: [((), (3, 4, 5))],
    4: [((), (3,)), ((3,), (3, 4, 5))],
    3: [((2,), (2, 3, 4, 5)), ((3,), (2, 3, 4, 5)), ((), (2, 3))],
    2: [((2, 3), (2, 3, 4, 5)), ((2,), (2, 3))],
    1: [((1, 2), (1, 2, 3, 4, 5)), ((1, 3), (1, 2, 3, 4, 5)), ((1,), (1, 2, 3)),
        ((2, 3), (1, 2, 3, 4, 5)), ((2,), (1, 2, 3))],
}

_B_PAIRS = {
    7: {((5,), (6,))},
    6: {((5,), (6,))},
    5: {((5,), (6,))},
    4: {((3, 5), (4, 5)), ((3, 5), (3, 6))},
    3: {((2, 5), (2, 6)), ((3, 5), (3, 6)), ((3, 5), (4, 5))},
    2: {((2, 3, 5), (2, 3, 6)), ((2, 3, 5), (2, 4, 5))},
    1: {((1, 2, 5), (1, 2, 6)), ((1, 3, 5), (1, 3, 6)), ((1, 3, 5), (1, 4, 5)),
        ((2, 3, 5), (2, 3, 6)), ((2, 3, 5), (2, 4, 5))},
}


def check_07_critical_pair_table(seed=DEFAULT_SEED, **_) -> CheckResult:
    ok = True
    for idx in range(1, 8):
        cx = bipyramid_subcomplex(idx)
        spec = shifted_spectrum(cx, cx.dim)
        ok &= list(spec.pairs()) == sorted(_B_TABLE[idx])
        cps = critical_pairs(cx.faces_of_dim(cx.dim), cx.min_vertex)
        ok &= {(cp.A, cp.B) for cp in cps} == _B_PAIRS[idx]
        ok &= sorted(cp.long_signature for cp in cps) == sorted(_B_TABLE[idx])
    return CheckResult(7, "B1..B7 critical pairs, signatures, eigenvalues",
                       ok, "all seven table rows match as multisets")


def check_08_spectrum_theorem(seed=DEFAULT_SEED, max_vertices=6, n_subs=20, **_) -> CheckResult:
    corpus = enumerate_shifted_complexes(max_vertices, 2)
    failures = 0
    checks = 0
    for idx, cx in enumerate(corpus):
        for i in range(0, cx.dim + 1):
            checks += 1
            if not spectrum_theorem_holds(cx, i, n_subs, seed, idx):
                failures += 1
    return CheckResult(8, "spectrum theorem: char poly vs product of z-eigenvalues",
                       failures == 0,
                       f"{checks} (complex, dim) pairs x {n_subs} substitutions over "
                       f"{len(corpus)} shifted complexes (<= {max_vertices} vertices), "
                       f"seed {seed}, {failures} failures")


def check_09_oracle_equivalence(seed=DEFAULT_SEED, oracle_count=100, **_) -> CheckResult:
    complexes = random_apc_2_complexes(oracle_count, seed)
    failures = 0
    for cx in complexes:
        oracle2 = enumerate_ssts(cx, 2, include_trees=False).tau
        lap2 = tau_via_reduced_laplacian(cx, 2)
        tau1 = enumerate_ssts(cx, 1, include_trees=False).tau
        h0 = homology(cx, 0).group_order()
        quotient = Fraction(pi(cx, 2) * h0 * h0, tau1)
        if not (oracle2 == lap2 and quotient == oracle2):
            failures += 1
    return CheckResult(9, "oracle = reduced Laplacian = eigenvalue quotient",
                       failures == 0,
                       f"{len(complexes)} seeded random APC 2-complexes "
                       f"(seed {seed}), {failures} failures")


def check_10_duval_reiner(seed=DEFAULT_SEED, max_vertices=6, **_) -> CheckResult:
    corpus = enumerate_shifted_complexes(max_vertices, 2)
    failures = 0
    for cx in corpus:
        expected = unweighted_spectrum_duval_reiner(cx)
        L = up_down_laplacian(cx, cx.dim)
        if not integer_spectrum_check(L, list(expected)):
            failures += 1
    return CheckResult(10, "Duval-Reiner: top spectrum = conjugate facet-degree partition",
                       failures == 0,
                       f"{len(corpus)} complexes, exact integer multisets, {failures} failures")


def check_11_hearing(seed=DEFAULT_SEED, max_vertices=6, witness_max=7,
                     witness_extended=9, **_) -> CheckResult:
    corpus = enumerate_shifted_complexes(max_vertices, 2)
    failures = 0
    for cx in corpus:
        spectra = {i: shifted_spectrum(cx, i) for i in range(0, cx.dim + 1)}
        recurrence_ok = all(tuple(lsg_recursive(cx, i)) == spec.pairs()
                            for i, spec in spectra.items())
        if hear_shape(spectra) != cx or not recurrence_ok:
            failures += 1
    witness = find_coarse_hearing_witness(witness_max, witness_extended)
    if witness["found"]:
        wdetail = (f"primary range <= {witness_max} exhausted; witness found on "
                   f"{witness['vertices']} vertices: facets differ in "
                   f"{sorted(set(witness['facets_a']) - set(witness['facets_b']))} vs "
                   f"{sorted(set(witness['facets_b']) - set(witness['facets_a']))}, "
                   f"equal coarse top spectra, different fine spectra, non-isomorphic")
    else:
        wdetail = (f"witness search exhausted up to {witness['searched_max_vertices']} vertices")
    return CheckResult(11, "hearing the shape: reconstruction round trip + coarse witness",
                       failures == 0,
                       f"{len(corpus)} round trips, {failures} failures; {wdetail}")


def _connected_threshold_graphs(max_vertices: int):
    for q in range(2, max_vertices + 1):
        for ideal in componentwise_ideals(q, 2):
            if (1, q) not in ideal:
                continue
            yield SimplicialComplex.from_facets(ideal)


def check_12_threshold_ferrers(seed=DEFAULT_SEED, threshold_max=7, **_) -> CheckResult:
    graphs = 0
    failures = 0
    for g in _connected_threshold_graphs(threshold_max):
        graphs += 1
        if not threshold_tau(g) == shifted_tau_fine(g) == weighted_oracle(g, "fine"):
            failures += 1
    partitions = [lam for parts in range(1, 5)  # weakly decreasing, as drawn from 4..1
                  for lam in itertools.combinations_with_replacement(range(4, 0, -1), parts)]
    fcases = 0
    for lam in partitions:
        fcases += 1
        tau = ferrers_tau(lam)
        ok = tau == ferrers_via_threshold_zero_substitution(lam)
        ok &= tau.all_ones() == tau_via_reduced_laplacian(ferrers_bipartite_complex(lam), 1)
        if not ok:
            failures += 1
    for n in range(1, 5):
        for m in range(1, 5):
            if ferrers_tau((n,) * m).all_ones() != n ** (m - 1) * m ** (n - 1):
                failures += 1
    return CheckResult(12, "threshold and Ferrers enumerators vs oracles",
                       failures == 0,
                       f"{graphs} connected threshold graphs (<= {threshold_max} vertices), "
                       f"{fcases} partitions (<= 4 parts of size <= 4), {failures} failures")


def _euler_ok(cx: SimplicialComplex) -> bool:
    lhs = sum((-1) ** i * cx.f(i) for i in range(-1, cx.dim + 1))
    rhs = sum((-1) ** i * betti(cx, i) for i in range(-1, cx.dim + 1))
    return lhs == rhs


def _boundary_squares_to_zero(cx: SimplicialComplex) -> bool:
    """bd_{k-1} bd_k = 0 on the column supports: each column of bd_k, pushed
    through the columns of bd_{k-1} at its rows, sums to zero."""
    for k in range(1, cx.dim + 1):
        below = cx.boundary_matrix(k - 1).supports
        for col in cx.boundary_matrix(k).supports:
            image = {}
            for i, s in col:
                for r, t in below[i]:
                    image[r] = image.get(r, 0) + s * t
            if any(image.values()):
                return False
    return True


def check_13_property_suites(seed=DEFAULT_SEED, max_vertices=6, **_) -> CheckResult:
    corpus = enumerate_shifted_complexes(max_vertices, 2)
    fixtures = [bipyramid(), rp2_six_vertices(), simplex_skeleton(5, 2),
                complete_graph(5), complete_bipartite(3, 3)]
    problems = []

    for cx in fixtures + list(corpus[::7]):
        if not _boundary_squares_to_zero(cx):
            problems.append("boundary composition")
        if not _euler_ok(cx):
            problems.append("euler")
    for cx in corpus[::7]:
        if is_apc(cx) and shifted_tau_coarse(cx) != shifted_tau_fine(cx).coarse_collapse():
            problems.append("coarse collapse")

    rng = _rng(seed, "two-out-of-three")
    for cx in fixtures:
        k = cx.dim
        faces = cx.faces_of_dim(k)
        for _ in range(30):
            size = rng.randint(0, len(faces))
            T = rng.sample(faces, size)
            is_sst(cx, k, T)  # internally asserts the two-out-of-three property

    rng = _rng(seed, "snf")
    snf_ok = True
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        facs = smith_normal_form(M)
        snf_ok &= all(b % a == 0 for a, b in zip(facs, facs[1:]))
        snf_ok &= len(facs) == rank(M)
        if m == n:
            det = bareiss_det(M)
            if det != 0:
                snf_ok &= abs(det) == prod(facs)

    B = bipyramid()
    ridge_trees = [star_ridges(B, 1, 1), find_sst(B, 1),
                   ((1, 2), (2, 3), (3, 4), (3, 5)), ((1, 5), (2, 5), (3, 5), (3, 4))]
    taus = [tau_via_reduced_laplacian(B, 2, U) for U in ridge_trees]
    wtaus = [weighted_tau(B, "coarse", U) for U in ridge_trees]
    u_indep = (set(taus) == {15} and len(set(wtaus)) == 1
               and all(w.all_ones() == t for w, t in zip(wtaus, taus)))

    deg_sig_ok = True
    beta_ok = True
    for cx in corpus:
        p = cx.min_vertex
        for i in range(0, cx.dim + 1):
            fam = cx.faces_of_dim(i)
            if fam:
                cps = critical_pairs(fam, p)
                degs = cx.degree_sequence(i) + (0,)
                for v, deg, deg_next in zip(cx.vertices, degs, degs[1:]):
                    have = sum(1 for cp in cps if cp.signature[-1] == v)
                    if deg - deg_next != have:
                        deg_sig_ok = False
            count = sum(1 for F in fam
                        if p not in F and tuple(sorted(F + (p,))) not in cx)
            if betti(cx, i) != count:
                beta_ok = False

    ok = (not problems and snf_ok and u_indep and deg_sig_ok and beta_ok)
    detail = (f"boundary^2/Euler on {len(fixtures) + len(corpus[::7])} complexes; "
              f"two-out-of-three ok; SNF divisibility {'ok' if snf_ok else 'FAIL'}; "
              f"U-independence {'ok' if u_indep else 'FAIL'}; "
              f"degree-signature {'ok' if deg_sig_ok else 'FAIL'}; "
              f"Betti identity {'ok' if beta_ok else 'FAIL'}; seed {seed}")
    return CheckResult(13, "property suites", ok, detail)


ALL_CHECKS = [
    check_01_bipyramid_tau_ladder,
    check_02_bipyramid_pi_ladder,
    check_03_classical,
    check_04_kalai,
    check_05_torsion_tree,
    check_06_weighted_bipyramid,
    check_07_critical_pair_table,
    check_08_spectrum_theorem,
    check_09_oracle_equivalence,
    check_10_duval_reiner,
    check_11_hearing,
    check_12_threshold_ferrers,
    check_13_property_suites,
]


def run_acceptance(seed=DEFAULT_SEED, max_vertices=6, quick=False):
    """Run every acceptance criterion at the accepted scale, its defaults;
    `quick` shrinks the sweeps for smoke tests. Below one vertex, criteria 8,
    10 and 11 would check nothing, so that bound is refused."""
    if max_vertices < 1:
        raise InputError(f"max_vertices must be at least 1, got {max_vertices}")
    kwargs = dict(seed=seed, max_vertices=max_vertices)
    if quick:
        kwargs.update(max_vertices=min(max_vertices, 5), n_subs=3, oracle_count=10,
                      threshold_max=6)
    return [check(**kwargs) for check in ALL_CHECKS]
