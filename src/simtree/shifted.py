"""Shifted-complex spectral theory: critical pairs, z-polynomials, the spectrum
recurrence, spectral reconstruction, and the closed-form tree enumerators
(fine, coarse, threshold graphs, Ferrers graphs).

A critical pair of a shifted family is (A, B) with A a member, B a non-member,
and B covering A componentwise (one coordinate bumped by 1). Its long
signature (S, T) has S = the prefix strictly below the bumped coordinate and
T = the interval from the family's initial vertex up to the bumped value. The
z-polynomial z(S,T) = (1/raise(X_S)) * sum_{j in T} X_{S u j} attached to each
long signature is a Laplacian eigenvalue of the algebraic fine weighting,
whose Laplacian is the trees.LaplacianFactors of fine_laplacian_factors.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .complexes import FACE_CAP, SimplicialComplex, is_shifted, lower_covers, shifted_ideal_faces
from .errors import DomainError, ExactnessError, InputError, ResourceLimitError, _require
from .exactlinalg import betti
from .laurent import (
    FINE,
    LaurentPoly,
    X_fine,
    _poly,
    fine_face_key,
    monomial_for_face,
    poly_sum,
    product,
)
from .trees import LaplacianFactors
from .weighted import SymbolicMatrix


def _check_shifted(cx: SimplicialComplex):
    if not cx.vertices:
        return
    lo, hi = cx.vertices[0], cx.vertices[-1]
    if cx.vertices != tuple(range(lo, hi + 1)):
        raise DomainError("complex is not shifted (vertex set is not an interval)")
    if not cx.memo("shifted", lambda: is_shifted(cx)):
        raise DomainError("complex is not shifted")


# -- critical pairs -----------------------------------------------------------


@dataclass(frozen=True)
class CriticalPair:
    A: tuple
    B: tuple
    position: int  # index of the bumped coordinate
    initial_vertex: int

    @property
    def signature(self) -> tuple:
        return self.A[: self.position + 1]

    @property
    def long_signature(self) -> tuple:
        S = self.A[: self.position]
        T = tuple(range(self.initial_vertex, self.A[self.position] + 1))
        return (S, T)


def critical_pairs(family, initial_vertex: int | None = None) -> list:
    """All critical pairs of a shifted k-family, in lex order of members.
    Raises DomainError when the family is not shifted."""
    fam = sorted({tuple(F) for F in family})
    if not fam:
        return []
    p = initial_vertex if initial_vertex is not None else min(F[0] for F in fam)
    fam_set = set(fam)
    if not all(c in fam_set for A in fam for c in lower_covers(A, p)):
        raise DomainError("family is not shifted")
    return [CriticalPair(A=A, B=A[:idx] + (A[idx] + 1,) + A[idx + 1:], position=idx,
                         initial_vertex=p) for A, idx in _critical_pairs(fam, fam_set)]


def _critical_pairs(fam, fam_set):
    """The critical pairs of the sorted shifted family fam, with no check, as
    (A, position of the bumped coordinate)."""
    for A in fam:
        for idx in range(len(A)):
            b = A[idx] + 1
            if idx + 1 < len(A) and b == A[idx + 1]:
                continue  # not a k-set
            if A[:idx] + (b,) + A[idx + 1:] not in fam_set:
                yield A, idx


def lsg_direct(family, initial_vertex: int | None = None) -> list:
    """The multiset of long signatures, by direct critical-pair extraction."""
    return sorted(cp.long_signature for cp in critical_pairs(family, initial_vertex))


def _long_signatures(fam, p: int) -> list:
    """lsg_direct of a family known to be shifted with initial vertex p,
    which is not checked again."""
    return sorted((A[:idx], tuple(range(p, A[idx] + 1)))
                  for A, idx in _critical_pairs(fam, set(fam)))


def lsg_recursive(cx: SimplicialComplex, i: int) -> list:
    """The same multiset via the deletion/link recurrence on the pure i-skeleton
    (the paper's recurrence; the acceptance gate compares it with the pairs
    of shifted_spectrum(cx, i))."""
    if i < 0 or not cx.vertices:
        return []
    pure = cx.pure_skeleton(i)
    if pure.dim < i:
        return []
    p = pure.min_vertex
    dele = pure.deletion(p)
    link = pure.link(p)
    out = [(S, (p,) + T) for S, T in lsg_recursive(dele, i)]
    out += [(tuple(sorted(S + (p,))), (p,) + T) for S, T in lsg_recursive(link, i - 1)]
    out += [((), (p,))] * betti(dele, i - 1)
    return sorted(out)


# -- z-polynomials and spectra -------------------------------------------------


def _expand_z(S: tuple, T: tuple, shift: int, cutoff: int) -> LaurentPoly:
    """raise^shift of (sum over j in T of X_{S u j}) / raise(X_S), one
    monomial key per j, built in key order. With u the members of S up to j
    and then j, X_{S u j} / raise(X_S) is the product over positions m of
    X[m, u_m] / X[m, u_{m-1}] (the positions after j's cancel): equal
    vertices cancel, and otherwise the denominator's variable comes first.
    The first variable raised past cutoff + 1 decides: a numerator's kills
    the monomial, a denominator's is 1/0."""
    if not T:
        return LaurentPoly.zero()
    if S and len(S) > cutoff:
        raise ExactnessError("division by the zero polynomial")  # raise kills X_S
    if shift < 0:
        raise InputError("raising steps must be nonnegative")
    S = sorted(S)
    terms = {}
    for j in T:
        key = []
        prev = None
        for m, v in enumerate(S[:bisect_right(S, j)] + [j], start=1 + shift):
            if v == prev:
                continue
            if shift and m > cutoff + 1:
                if prev is not None:
                    raise ExactnessError("raising a negative power past the cutoff")
                break
            if prev is not None:
                key.append(((FINE, m, prev), -2))
            key.append(((FINE, m, v), 2))
            prev = v
        else:
            key = tuple(key)
            terms[key] = terms.get(key, 0) + 1
    return _poly(terms, FINE)


@dataclass(frozen=True, order=True)
class ZPolynomial:
    """z(S,T) carried by its defining pair, with a pending raise and its cutoff."""

    S: tuple
    T: tuple
    shift: int = 0
    cutoff: int = 10

    @property
    def poly(self) -> LaurentPoly:
        return _expand_z(self.S, self.T, self.shift, self.cutoff)

    @property
    def coarse_part(self) -> int:
        """Size t of the coarse specialization E_t = X_1 + ... + X_t."""
        return len(self.T)


def z_poly(S, T, d_cutoff: int) -> ZPolynomial:
    return ZPolynomial(S=tuple(sorted(S)), T=tuple(sorted(T)), shift=0, cutoff=d_cutoff)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Nonzero eigenvalues (as z-polynomials) plus the multiplicity of zero."""

    zpolys: tuple
    zero_multiplicity: int

    def pairs(self) -> tuple:
        return tuple(sorted((z.S, z.T) for z in self.zpolys))

    def coarse_parts(self) -> tuple:
        return tuple(sorted((z.coarse_part for z in self.zpolys), reverse=True))

    def __len__(self):
        return len(self.zpolys) + self.zero_multiplicity


def shifted_spectrum(cx: SimplicialComplex, i: int) -> SpectrumMultiset:
    """Eigenvalues of the algebraic finely weighted up-down Laplacian on C_{i-1},
    one z-polynomial per long signature of the critical pairs of the i-faces.
    Computed once per complex and dimension (SimplicialComplex.memo): later
    calls return the same SpectrumMultiset."""
    _check_shifted(cx)
    if i < 0 or i > cx.dim:
        raise InputError(f"spectrum dimension {i} out of range [0, {cx.dim}]")
    return cx.memo(("spectrum", i), lambda: _spectrum(cx, i))


def _spectrum(cx: SimplicialComplex, i: int) -> SpectrumMultiset:
    d = cx.dim
    zs = tuple(ZPolynomial(S=S, T=T, shift=d - i, cutoff=d)
               for S, T in _long_signatures(cx.faces_of_dim(i), cx.min_vertex))
    zero_mult = cx.f(i - 1) - len(zs)
    _require(zero_mult >= 0, "more nonzero eigenvalues than (i-1)-faces")
    return SpectrumMultiset(zpolys=zs, zero_multiplicity=zero_mult)


def conjugate_partition(parts) -> tuple:
    """The t-th part is the number of parts >= t."""
    counts = Counter(p for p in parts if p > 0)
    conj = []
    for t in range(max(counts, default=0), 0, -1):
        conj.append(counts[t] + (conj[-1] if conj else 0))
    return tuple(reversed(conj))


def unweighted_spectrum_duval_reiner(cx: SimplicialComplex) -> tuple:
    """Integer eigenvalues of L^ud_{d-1}: the conjugate of the facet-degree
    partition, padded with zeros to f_{d-1}."""
    _check_shifted(cx)
    degrees = cx.degree_sequence(cx.dim)
    conj = conjugate_partition(degrees)
    pad = cx.f(cx.dim - 1) - len(conj)
    _require(pad >= 0, "more nonzero eigenvalues than ridges")
    return conj + (0,) * pad


def hear_shape(spectra: dict) -> SimplicialComplex:
    """Reconstruct a shifted complex from its spectra.

    `spectra` maps dimension i to an iterable of ZPolynomial (or a
    SpectrumMultiset). Each z(S,T) yields the short signature S u {max T};
    the complex is the closure of the componentwise order ideals below all
    short signatures. The result's spectra are recomputed and must match the
    input multisets. Raises ResourceLimitError once the faces it would build
    pass complexes.FACE_CAP.
    """
    pairs_by_dim = {}
    for i, spec in spectra.items():
        zp = spec.zpolys if isinstance(spec, SpectrumMultiset) else tuple(spec)
        pairs_by_dim[i] = sorted((z.S, z.T) for z in zp)
    all_pairs = [pair for pairs in pairs_by_dim.values() for pair in pairs]
    if not all_pairs:
        return SimplicialComplex.empty()
    starts = {T[0] for _, T in all_pairs}
    if len(starts) != 1:
        raise DomainError("inconsistent spectra: mixed initial vertices")
    p = starts.pop()
    sigs = [tuple(sorted(S + (T[-1],))) for S, T in all_pairs]
    # the closure of componentwise order ideals is shifted
    cx = SimplicialComplex.closure(shifted_ideal_faces(sigs, p))
    for i, pairs in pairs_by_dim.items():
        if _long_signatures(cx.faces_of_dim(i), cx.min_vertex) != pairs:
            raise DomainError(f"spectra do not arise from a shifted complex (dim {i})")
    return cx


# -- closed-form enumerators ----------------------------------------------------


def shifted_tau_fine(cx: SimplicialComplex) -> LaurentPoly:
    """The finely weighted spanning-tree enumerator of a shifted complex:
    (prod over link ridges F of X_{F u p}) * prod over long signatures (S,T)
    of del_p's facets of (sum_{j in T u p} X_{S u j}) / X_{S u p}. The
    d-faces through p are the link ridges with p added; the others, del_p's
    facets, are shifted with initial vertex p + 1."""
    _check_shifted(cx)
    if not cx.vertices:
        raise InputError("enumerator needs at least one vertex")
    p = cx.min_vertex
    facets = cx.faces_of_dim(cx.dim)
    sigs = _long_signatures([F for F in facets if F[0] != p], p + 1)
    result = product([monomial_for_face(F) for F in facets if F[0] == p]
                     + [LaurentPoly({fine_face_key(S + (p,), 0, -2): 1}) for S, _ in sigs]
                     + [poly_sum(monomial_for_face(S + (j,)) for j in (p,) + T)
                        for S, T in sigs])
    _require(result.has_nonnegative_integer_coeffs()
             and all(e >= 0 for _, e in set().union(*result.terms)),
             "fine enumerator must be a genuine polynomial")
    return result


def coarse_E(t: int) -> LaurentPoly:
    return poly_sum(monomial_for_face((j,), "coarse", squared=True) for j in range(1, t + 1))


def shifted_tau_coarse(cx: SimplicialComplex) -> LaurentPoly:
    """Coarse enumerator X^{deg(1*link)_d} * prod over the parts t of the
    conjugate (deg(1*del)_{d+1})' of E_t/X_1; requires initial vertex 1. The
    cone 1*del has del's d-faces as its facets, all through vertex 1."""
    _check_shifted(cx)
    if not cx.vertices or cx.min_vertex != 1:
        raise DomainError("coarse enumerator requires initial vertex 1")
    d = cx.dim
    dele = cx.deletion(1)
    degs = (dele.f(d), *dele.degree_sequence(d))
    _require(all(a >= b for a, b in zip(degs, degs[1:])),
             "facet degrees of a shifted family must be weakly decreasing")
    x1 = monomial_for_face((1,), "coarse")
    return product([monomial_for_face(F + (1,), "coarse") for F in cx.link(1).faces_of_dim(d - 1)]
                   # smallest parts first: the product budget counts pairs in this order
                   + [coarse_E(t).div_exact(x1) for t in reversed(conjugate_partition(degs))])


# -- threshold graphs ------------------------------------------------------------


def threshold_tau(cx: SimplicialComplex) -> LaurentPoly:
    """Weighted spanning-tree enumerator of a connected threshold graph:
    X_{{1,n}} * prod_{v=2}^{n-1} sum_{j=1}^{(deg)'_v} X_{{v,j}}, with the
    fine X_{{a,b}} = X[1,min] * X[2,max] of monomial_for_face."""
    _check_shifted(cx)
    if cx.dim != 1:
        raise DomainError("threshold graphs are 1-dimensional shifted complexes")
    if cx.min_vertex != 1:
        raise DomainError("threshold graph must have vertex set [1, n]")
    if betti(cx, 0) != 0:
        raise DomainError("threshold graph is not connected")
    n = cx.vertices[-1]
    conj = conjugate_partition(cx.degree_sequence(1))
    return product([monomial_for_face((1, n))]
                   + [poly_sum(monomial_for_face((v, j)) for j in range(1, conj[v - 1] + 1))
                      for v in range(2, n)])


def threshold_graph_from_degrees(degrees) -> SimplicialComplex:
    """The threshold graph on [1, n] whose vertex v is adjacent to the first
    deg(v) vertices other than itself; validated against the requested degrees.
    Raises ResourceLimitError before building once its n + 1 + sum(deg)/2
    faces would pass complexes.FACE_CAP."""
    degrees = tuple(degrees)
    n = len(degrees)
    if n < 2 or any(d < 1 or d > n - 1 for d in degrees):
        raise InputError("degrees must be between 1 and n-1")
    if n + 1 + sum(degrees) / 2 > FACE_CAP:
        raise ResourceLimitError(
            f"the threshold graph would build more than {FACE_CAP} faces (the face budget)")
    edges = set()
    for j, dj in enumerate(degrees, start=1):
        # the first dj vertices other than j
        edges.update((v, j) for v in range(1, min(dj + 1, j)))
        edges.update((j, v) for v in range(j + 1, dj + 2))
    cx = SimplicialComplex.from_facets(edges)
    if cx.degree_sequence(1) != degrees or not is_shifted(cx):
        raise InputError("not a threshold degree sequence")
    return cx


# -- Ferrers graphs ----------------------------------------------------------------


def _validate_partition(partition) -> tuple:
    lam = tuple(partition)
    if not lam or any(not isinstance(x, int) or x < 1 for x in lam) \
            or any(a < b for a, b in zip(lam, lam[1:])):
        raise InputError("partition must be a weakly decreasing list of positive integers")
    return lam


def ferrers_bipartite_complex(partition) -> SimplicialComplex:
    """The Ferrers graph of the partition as a 1-complex: x-side vertices
    1..m = lambda_1, y-side vertices m+1..m+l, edges {r, m+s} iff r <= lambda_s."""
    lam = _validate_partition(partition)
    m = lam[0]
    edges = [(r, m + s) for s, part in enumerate(lam, start=1) for r in range(1, part + 1)]
    return SimplicialComplex.from_facets(edges)


def ferrers_tau(partition) -> LaurentPoly:
    """Weighted spanning-tree enumerator of the Ferrers graph of the partition:
    (x_1..x_m)(y_1..y_l) * prod_{i=2}^m (y_1+..+y_{lambda'_i})
                         * prod_{j=2}^l (x_1+..+x_{lambda_j}),
    with x_r = X[1,r] and y_s = X[2,s]."""
    lam = _validate_partition(partition)
    m = lam[0]
    ell = len(lam)
    conj = conjugate_partition(lam)
    return product([X_fine(1, r) for r in range(1, m + 1)]
                   + [X_fine(2, s) for s in range(1, ell + 1)]
                   + [poly_sum(X_fine(2, r) for r in range(1, conj[i - 1] + 1))
                      for i in range(2, m + 1)]
                   + [poly_sum(X_fine(1, r) for r in range(1, lam[j - 1] + 1))
                      for j in range(2, ell + 1)])


def ferrers_threshold_graph(partition) -> SimplicialComplex:
    """The connected threshold graph whose clique-edge deletion is the Ferrers graph."""
    lam = _validate_partition(partition)
    m = lam[0]
    edges = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    edges += [(a, m + s) for s, part in enumerate(lam, start=1) for a in range(1, part + 1)]
    cx = SimplicialComplex.from_facets(edges)
    _require(is_shifted(cx), "Ferrers threshold graph must be shifted")
    return cx


def ferrers_via_threshold_zero_substitution(partition) -> LaurentPoly:
    """Cross-check route: take the threshold-graph enumerator in factored form,
    set every clique-edge indeterminate (both endpoints <= m) to zero, and
    rename X[1,a] -> x_a, X[2,b] -> y_{b-m}."""
    lam = _validate_partition(partition)
    m = lam[0]
    G = ferrers_threshold_graph(lam)
    n = G.vertices[-1]
    conj = conjugate_partition(G.degree_sequence(1))
    factors = [[(1, n)]]
    for v in range(2, n):
        factors.append([tuple(sorted((v, j))) for j in range(1, conj[v - 1] + 1)])
    sums = []
    for terms in factors:
        kept = [(a, b) for a, b in terms if b > m]  # the zero substitution kills clique edges
        _require(all(a <= m for a, _ in kept), "a surviving edge must cross the bipartition")
        sums.append(poly_sum(LaurentPoly.monomial({(FINE, 1, a): 2, (FINE, 2, b - m): 2})
                             for a, b in kept))
    return product(sums)


# -- algebraic fine weighting ---------------------------------------------------


def fine_laplacian_factors(cx: SimplicialComplex, i: int) -> LaplacianFactors:
    """LL^ud_i = D^-1 B W B^T D^-1 on the i-faces of a d-complex: B = bd_{i+1},
    W_H = raise^{d-i-1}(X_H) and D_F = raise^{d-i}(x_F). Positions end at most
    at d+1 (an i-face has i+1 of them, raised by d-i; an (i+1)-face i+2,
    raised by d-i-1), so the raising kills no monomial."""
    d = cx.dim
    bd = cx.boundary_matrix(i + 1)
    return LaplacianFactors(bd, tuple(fine_face_key(F, d - i, 1) for F in bd.rows),
                            tuple(fine_face_key(H, d - i - 1, 2) for H in bd.cols))


def algebraic_fine_laplacian_entries(cx: SimplicialComplex, i: int) -> SymbolicMatrix:
    """LL^ud_i as a matrix of Laurent polynomials, the symbolic reader of
    fine_laplacian_factors (off-diagonal X_H over the raised x_F x_G, diagonal
    sum of X_{F u j} over raised X_F)."""
    fac = fine_laplacian_factors(cx, i)
    return SymbolicMatrix(fac.boundary.rows, fac.boundary.rows, fac.symbolic_entries())
