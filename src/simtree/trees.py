"""Simplicial spanning trees: predicate, oracle enumeration, the lexicographically
first tree, and both parts of the simplicial matrix-tree theorem.

A k-SST of an ambient complex is a set T of k-faces such that the subcomplex
T together with the full (k-1)-skeleton has vanishing top homology, finite
codimension-1 homology, and the forced facet count; any two of the three
conditions imply the third ("two out of three"). All counts here are exact:
tau_k weights each tree by the squared order of its codimension-1 torsion.

Every Laplacian is built from bd_k's supports at the rows it keeps: as integers
by exactlinalg._gram, or as Laurent polynomials by LaplacianFactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod

from .complexes import BoundaryMatrix, SimplicialComplex
from .errors import DomainError, ExactnessError, InputError, ResourceLimitError, _require
from .exactlinalg import (
    ColumnReduction,
    HomologySummary,
    _gram,
    _gram_pseudodeterminant,
    betti,
    boundary_pivots,
    boundary_rank,
    boundary_reduction,
    definite_det,
    file_pivot,
    homology,
    reduce_column,
)
from .laurent import _poly, key_quotient

SUBSET_CAP = 2_000_000  # the oracle's budget on comb(f_k, size) candidate subsets


@dataclass(frozen=True)
class SstCertificate:
    facet_set: tuple
    homology_below: HomologySummary


@dataclass(frozen=True)
class SstResult:
    is_tree: bool
    conditions: tuple  # (acyclic, finite codim-1 homology, facet count)
    certificate: SstCertificate | None


@dataclass(frozen=True)
class TreeCount:
    tau: int
    per_tree: tuple | None  # ((facet_set, torsion_order), ...) or None


def _key_value(key: tuple, point):
    """The exact value of a monomial key at a point, an int when integral."""
    v = 1
    for vid, e in key:
        try:
            v *= point[vid] ** e if e > 0 else Fraction(1, point[vid] ** -e)
        except KeyError:
            raise InputError(f"no value for the variable {vid!r}") from None
        except ZeroDivisionError:
            raise ExactnessError("division by zero during Laurent evaluation") from None
    return v if type(v) is int or v.denominator > 1 else v.numerator


@dataclass(frozen=True)
class LaplacianFactors:
    """L = D^-1 B W B^T D^-1 kept as its factors: B = bd_k, and the monomial
    keys of W_h per k-face h and of D_r per (k-1)-face r (() is 1). Entry
    (r, c) sums B[r,h] B[c,h] W_h / (D_r D_c) over the k-faces h."""

    boundary: BoundaryMatrix
    row_keys: tuple
    col_keys: tuple

    def at_point(self, point, at=None) -> tuple:
        """(M, scale) at a point of int or Fraction values, on all rows or on a
        row map's: M = lam B W B^T, lam the lcm of the weights' denominators,
        and scale[r] = lam D_r^2 exactly. So det(L_S) = det(M_S) / prod(scale on S)."""
        rows = self.row_keys if at is None else [self.row_keys[r] for r in at]
        w, d = ([_key_value(k, point) for k in keys] if any(keys) else [1] * len(keys)
                for keys in (self.col_keys, rows))
        lam = lcm(*(x.denominator for x in w if type(x) is not int))
        if lam > 1:
            w = [(x * lam).numerator for x in w]
        return _gram(self.boundary.supports, len(self.row_keys), at, w), [lam * x * x for x in d]

    def symbolic_entries(self, at=None) -> tuple:
        """The entries of L as Laurent polynomials, row-major, on all rows or
        on those of the row map at. No two terms B[r,h] B[c,h] W_h / (D_r D_c)
        cancel: off the diagonal an entry has one, on it signs are +1."""
        x = self.row_keys
        kind = next((key[0][0][0] for key in (*self.col_keys, *x) if key), None)
        at = range(len(x)) if at is None else at  # a range is the identity row map
        terms = [[{} for _ in at] for _ in at]
        for W, col in zip(self.col_keys, self.boundary.supports):
            col = [(at[r], s, x[r]) for r, s in col if r in at]
            for a, s, xr in col:
                row = terms[a]
                for b, t, xc in col:
                    key = key_quotient(W, xr, xc) if xr or xc else W
                    row[b][key] = row[b].get(key, 0) + s * t
        return tuple(tuple(_poly(e, kind) for e in row) for row in terms)

    def variables(self) -> list:
        """The variables of the entries of L: those with a nonzero exponent in
        some diagonal term W_h / D_r^2, as no two terms cancel. A variable
        that cancels from W_h / D_r^2 for every row r of h has W_h's exponent
        twice D_r's, so it cancels from W_h / (D_r D_c)."""
        x = self.row_keys
        found = set()
        for W, col in zip(self.col_keys, self.boundary.supports):
            for r, _ in col:
                exps = dict(W)
                for vid, e in x[r]:
                    exps[vid] = exps.get(vid, 0) - 2 * e
                found.update(vid for vid, e in exps.items() if e)
        return sorted(found)


def up_down_laplacian(cx: SimplicialComplex, k: int):
    """L = bd_k bd_k^T on C_{k-1}: the f_{k-1} x f_{k-1} Gram matrix of bd_k's supports."""
    bd = cx.boundary_matrix(k)
    return _gram(bd.supports, bd.n_rows)


def kept_rows(labels, drop) -> dict:
    """The row map of the labels (faces) not in drop: row -> position."""
    drop = {tuple(F) for F in drop}
    return {r: a for a, r in enumerate(r for r, F in enumerate(labels) if F not in drop)}


def star_ridges(cx: SimplicialComplex, k: int, p: int) -> tuple:
    """All k-faces containing the vertex p (the cone part of the k-skeleton)."""
    return tuple(F for F in cx.faces_of_dim(k) if p in F)


def _check_tree_dimension(cx: SimplicialComplex, k: int):
    if not 0 <= k <= cx.dim:
        raise InputError(f"tree dimension {k} out of range [0, {cx.dim}]")


def _require_apc(cx: SimplicialComplex, k: int):
    """Refuse k outside [0, dim] and a complex whose k-skeleton is not APC.
    The k-skeleton shares bd_0..bd_k with cx, so its betti_j is betti_j(cx)
    for every j < k."""
    _check_tree_dimension(cx, k)
    if any(betti(cx, j) for j in range(-1, k)):
        raise DomainError("complex is not APC")


def is_sst(cx: SimplicialComplex, k: int, facet_set) -> SstResult:
    """Check the SST conditions for T = facet_set inside the k-skeleton of cx,
    which shares bd_{k-1} and bd_k with cx: the forced facet count is
    dim ker bd_{k-1}, and a tree's certificate holds |H~_{k-1}| of T over the
    (k-1)-skeleton, the product of the Smith normal form of bd_k at T. One
    column reduction of T's supports gives both the rank and that form."""
    _check_tree_dimension(cx, k)
    kfaces = cx.faces_of_dim(k)
    index = {F: i for i, F in enumerate(kfaces)}
    T = sorted(tuple(F) for F in facet_set)
    for i, F in enumerate(T):
        if F not in index:
            raise InputError(f"{F} is not a {k}-face of the complex")
        if i and T[i - 1] == F:
            raise InputError(f"the face {F} is repeated")
    supports = cx.boundary_matrix(k).supports
    reduction = ColumnReduction([supports[index[F]] for F in T])
    r = len(reduction.pivots)
    ker_below = cx.f(k - 1) - boundary_rank(cx, k - 1)
    conds = (len(T) == r, ker_below == r, len(T) == ker_below)
    _require(sum(conds) != 2, "two-out-of-three violated")
    cert = None
    if all(conds):
        torsion = prod(reduction.invariant_factors())
        cert = SstCertificate(facet_set=tuple(T),
                              homology_below=HomologySummary(k - 1, 0, torsion))
    return SstResult(is_tree=all(conds), conditions=conds, certificate=cert)


def enumerate_ssts(cx: SimplicialComplex, k: int, include_trees: bool = True) -> TreeCount:
    """Brute-force oracle: every k-SST with its torsion order, and tau_k.

    Trees are exactly the column bases of bd_k (the count condition pins the
    size to rank bd_k for an APC ambient skeleton), enumerated by DFS on the
    column supports. The path keeps its pivots in the two dicts of
    ColumnReduction, filing one by file_pivot on the way down and removing
    it on the way back. Every column after the path's last is carried down
    as a candidate, reduced against the path by reduce_column and ending at
    a low that is no pivot's row. A new pivot at row l changes only the
    candidates whose low is l: each is reduced further from where it
    stopped, taking the steps a reduction from scratch would take, and is
    dropped for the subtree when it reduces to zero, being dependent on the
    path. When one column is still needed, every candidate completes a tree.

    A path with no pivot in others is unimodular: its columns are unimodularly
    equivalent to a unit triangular block, so the tree's torsion is 1. Only
    the other trees take a Smith normal form. ResourceLimitError when the
    comb(f_k, size) candidate subsets pass SUBSET_CAP, the oracle's budget;
    that test runs before the APC check, so it refuses a non-APC complex too.
    """
    _check_tree_dimension(cx, k)
    kfaces = cx.faces_of_dim(k)
    n_cols = len(kfaces)
    size = cx.f(k - 1) - boundary_rank(cx, k - 1)  # at least 1: bd_k of a k-face is nonzero
    if comb(n_cols, size) > SUBSET_CAP:
        raise ResourceLimitError(f"comb({n_cols}, {size}) candidate subsets exceed the "
                                 f"oracle's budget {SUBSET_CAP}")
    _require_apc(cx, k)  # after the budget test, which needs only rank bd_{k-1}
    supports = cx.boundary_matrix(k).supports
    units, others = {}, {}  # the path's pivots, as in ColumnReduction
    chosen = []
    results = []

    def dfs(candidates, need, unimodular):
        # candidates: (j, v, low, fraction_free) of reduce_column, v nonzero
        if need == 1:
            results.extend(((*chosen, j), unimodular and not fraction_free and v[low] in (1, -1))
                           for j, v, low, fraction_free in candidates)
            return
        for i in range(len(candidates) - need + 1):
            j, v, low, fraction_free = candidates[i]
            unit = file_pivot(v, low, fraction_free, units, others)
            below = []
            for c in candidates[i + 1:]:
                if c[2] == low:
                    w, w_low, w_fraction_free = reduce_column(dict(c[1]), units, others)
                    if w:
                        below.append((c[0], w, w_low, c[3] or w_fraction_free))
                else:
                    below.append(c)
            chosen.append(j)
            dfs(below, need - 1, unimodular and unit)
            chosen.pop()
            del (units if unit else others)[low]

    dfs([(j, *reduce_column(dict(col), units, others)) for j, col in enumerate(supports)],
        size, True)
    results.sort(key=lambda tree: tuple(reversed(tree[0])))  # colex over index sets
    tau = 0
    per_tree = []
    for idxs, unimodular in results:
        torsion = 1 if unimodular else prod(
            ColumnReduction([supports[j] for j in idxs]).invariant_factors())
        tau += torsion * torsion
        if include_trees:
            per_tree.append((tuple(kfaces[j] for j in idxs), torsion))
    return TreeCount(tau=tau, per_tree=tuple(per_tree) if include_trees else None)


def _pivot_certificate(cx: SimplicialComplex, k: int) -> SstCertificate:
    """is_sst's certificate of the k-faces at the pivot columns of bd_k, for
    a complex whose k-skeleton is APC."""
    res = is_sst(cx, k, [cx.faces_of_dim(k)[j] for j in boundary_pivots(cx, k)])
    _require(res.is_tree, "pivot columns are not a spanning tree")
    return res.certificate


def find_sst(cx: SimplicialComplex, k: int) -> tuple:
    """The lexicographically first k-SST: the k-faces at the pivot columns of
    bd_k, i.e. each k-face whose boundary is independent of the earlier ones."""
    _require_apc(cx, k)
    return _pivot_certificate(cx, k).facet_set


def reduced_laplacian(cx: SimplicialComplex, k: int, ridge_tree) -> list:
    """L^ud_{k-1} built at the rows that the ridge tree does not index."""
    _check_tree_dimension(cx, k)
    bd = cx.boundary_matrix(k)
    return _gram(bd.supports, bd.n_rows, kept_rows(bd.rows, ridge_tree))


def ridge_tree_reduction(cx: SimplicialComplex, k: int, ridge_tree=None) -> tuple:
    """(U, correction) for the reduced-Laplacian formula of tau_k: U is the
    (k-1)-SST whose ridges are deleted, and correction =
    |H~_{k-2}(cx)|^2 / |H~_{k-2}(cx_U)|^2 with cx_U the ridges of U over the
    (k-2)-skeleton. One is_sst certificate gives U and |H~_{k-2}(cx_U)|.

    Without a ridge tree, U is the lexicographically first tree of find_sst
    (on a shifted complex, the star of the minimal vertex). At k = 0 the
    only ridge is the empty face, U is empty and the correction is 1.
    """
    _require_apc(cx, k)
    if k == 0:
        if ridge_tree:
            raise InputError("the ridge set must be empty when k = 0")
        return (), Fraction(1)
    if ridge_tree is None:
        cert = _pivot_certificate(cx, k - 1)
    else:
        cert = is_sst(cx, k - 1, ridge_tree).certificate
        if cert is None:
            raise InputError("the ridge set is not a (k-1)-SST")
    U = cert.facet_set
    _require(cx.f(k - 1) - len(U) == boundary_rank(cx, k),
             "reduced Laplacian has the wrong size")
    t_amb = homology(cx, k - 2).group_order()
    t_u = cert.homology_below.torsion_order
    _require(t_amb is not None, "torsion orders must be finite")
    return U, Fraction(t_amb * t_amb, t_u * t_u)


def tau_via_reduced_laplacian(cx: SimplicialComplex, k: int, ridge_tree=None) -> int:
    """tau_k by the reduced-Laplacian matrix-tree formula, with the torsion
    correction of ridge_tree_reduction always applied. The reduced Laplacian
    is positive definite: nonsingular by the theorem, and a principal
    submatrix of bd_k bd_k^T."""
    U, correction = ridge_tree_reduction(cx, k, ridge_tree)
    tau = definite_det(reduced_laplacian(cx, k, U)) * correction
    _require(tau.denominator == 1, "torsion correction is not integral")
    _require(tau > 0, "tree count must be positive")
    return tau.numerator


def pi(cx: SimplicialComplex, k: int) -> int:
    """Product of the nonzero eigenvalues of L^ud_{k-1} = bd_k bd_k^T, read
    from bd_k's own supports as exactlinalg.gram_pseudodeterminant does, on
    bd_k's memoised column reduction (exactlinalg.boundary_reduction), which
    the homology and APC checks share. No Laplacian is built."""
    if k < 0 or k > cx.dim:
        raise InputError(f"pi dimension {k} out of range [0, {cx.dim}]")
    bd = cx.boundary_matrix(k)
    return _gram_pseudodeterminant(bd.supports, bd.n_rows, boundary_reduction(cx, k))


def tau_via_alternating_product(cx: SimplicialComplex, k: int | None = None) -> int:
    """tau_k as the alternating product of the pi_j, j = 0..k.

    Requires H~_{j-2} = 0 at every level j used (the j-skeleton has the
    H~_{j-2} of cx); the failing level is named in the error.
    """
    d = cx.dim if k is None else k
    _require_apc(cx, d)
    for j in range(1, d + 1):
        h = homology(cx, j - 2)
        if h.betti != 0 or h.torsion_order != 1:
            raise DomainError(
                f"alternating product needs vanishing H~_{j - 2} at level {j}")
    num = prod(pi(cx, j) for j in range(d, -1, -2))
    den = prod(pi(cx, j) for j in range(d - 1, -1, -2))
    _require(num % den == 0, "alternating product is not integral")
    return num // den
