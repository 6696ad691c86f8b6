"""Weighted simplicial matrix-tree machinery.

Three weighting schemes attach a monomial to each top-dimensional facet F:

  facet   an independent indeterminate X{F} per facet;
  coarse  X_F = prod of the per-vertex variables X[v], v in F;
  fine    X_F = prod over positions m of X[m, F_m].

The weighted up-down Laplacian, the sum over facets of X_F bd(F) bd(F)^T, is
a trees.LaplacianFactors with the key of X_F per column and () per row. Both
enumerators read it at the rows that the ridge tree keeps: weighted_tau as
Laurent entries, weighted_tau_at_points as one integer matrix per point. The
symbolic determinant expands by the columns' nonzero entries in one packed
Laurent layout, with every minor memoised as a packed dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .complexes import SimplicialComplex
from .errors import InputError, ResourceLimitError, _require
from .exactlinalg import bareiss_det
from .laurent import LaurentPoly, _from_packed, _packing, monomial_for_face, product_sum
from .trees import LaplacianFactors, enumerate_ssts, kept_rows, ridge_tree_reduction

SCHEMES = ("fine", "coarse", "facet")  # the weightings of laurent.monomial_for_face
DET_SIZE_CAP = 12  # the size budget: symbolic_det refuses larger matrices


@dataclass(frozen=True)
class SymbolicMatrix:
    """A matrix of LaurentPoly entries with face-labelled rows and columns."""

    rows: tuple
    cols: tuple
    entries: tuple  # row-major tuple of tuples of LaurentPoly

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.cols)


def weighted_laplacian_factors(cx: SimplicialComplex, scheme: str) -> LaplacianFactors:
    """The factors of L-hat: bd_d with the key of X_F for each facet F."""
    bd = cx.boundary_matrix(cx.dim)
    keys = tuple(next(iter(monomial_for_face(F, scheme).terms)) for F in bd.cols)
    return LaplacianFactors(bd, ((),) * bd.n_rows, keys)


def weighted_up_down_laplacian(cx: SimplicialComplex, scheme: str) -> SymbolicMatrix:
    """L-hat = sum over facets F of X_F bd(F) bd(F)^T on C_{d-1}, the symbolic
    reader of weighted_laplacian_factors."""
    fac = weighted_laplacian_factors(cx, scheme)
    return SymbolicMatrix(fac.boundary.rows, fac.boundary.rows, fac.symbolic_entries())


def _require_det_size(n: int):
    """Refuse a symbolic determinant of size n past DET_SIZE_CAP, the size
    budget."""
    if n > DET_SIZE_CAP:
        raise ResourceLimitError(
            f"symbolic determinant of size {n} exceeds the size budget {DET_SIZE_CAP}")


def symbolic_det(M: SymbolicMatrix) -> LaurentPoly:
    """Exact determinant by column expansion with minor memoization, in one
    packed layout. Every term takes one entry from each column, so the bounds
    sum the columns' exponent ranges; each entry is packed once, each minor is
    a packed dict accumulated in place, and only the result is unpacked.

    Minors are keyed by the bitmask of available rows (the column index is the
    popcount). Each visits only its column's nonzero rows in the mask, signed
    by the parity of the mask's rows above: one product of an entry and a
    minor per such row, over at most 2^n masks. Raises ResourceLimitError
    when n passes DET_SIZE_CAP, the size budget.
    """
    n = M.n_rows
    if n != M.n_cols:
        raise InputError("determinant requires a square matrix")
    _require_det_size(n)
    kind, pack, unpack, zero = _packing([row[j] for row in M.entries] for j in range(n))
    columns = [[(1 << i, [(pack(k), c) for k, c in row[j].terms.items()])
                for i, row in enumerate(M.entries) if row[j]] for j in range(n)]
    one = {zero: 1}
    memo = {}

    def minor(mask, j):
        if j == n:
            return one
        acc = memo.get(mask)
        if acc is not None:
            return acc
        acc = memo[mask] = {}
        get = acc.get
        for bit, entry in columns[j]:
            if mask & bit:
                sub = minor(mask ^ bit, j + 1)
                negate = (mask & (bit - 1)).bit_count() & 1
                for ke, ce in entry:
                    if negate:
                        ce = -ce
                    for ks, cs in sub.items():
                        k = ke + ks
                        acc[k] = get(k, 0) + ce * cs
        for k in [k for k, c in acc.items() if not c]:
            del acc[k]
        return acc

    return _from_packed(minor((1 << n) - 1, 0), unpack, kind)


def weighted_tau(cx: SimplicialComplex, scheme: str, ridge_tree=None) -> LaurentPoly:
    """The weighted spanning-tree enumerator tau-hat_d as an exact polynomial;
    ResourceLimitError when its symbolic_det would pass DET_SIZE_CAP, raised
    before any entry of the Laplacian is built."""
    U, correction = ridge_tree_reduction(cx, cx.dim, ridge_tree)
    _require_det_size(cx.f(cx.dim - 1) - len(U))  # the size of the reduced Laplacian
    fac = weighted_laplacian_factors(cx, scheme)
    at = kept_rows(fac.boundary.rows, U)
    rows = tuple(fac.boundary.rows[r] for r in at)
    LU = SymbolicMatrix(rows, rows, fac.symbolic_entries(at))
    result = symbolic_det(LU) * correction.numerator
    result = result.div_exact(correction.denominator)  # ExactnessError on a remainder
    _require(result.has_nonnegative_integer_coeffs(),
             "weighted enumerator must have nonnegative integer coefficients")
    return result


def weighted_tau_at_points(cx: SimplicialComplex, scheme: str, assignments,
                           ridge_tree=None) -> list:
    """Evaluation mode for matrices above DET_SIZE_CAP: the exact value of
    tau-hat at each assignment (int or Fraction values), one integer Bareiss
    determinant of the reduced weighted Laplacian per point."""
    U, correction = ridge_tree_reduction(cx, cx.dim, ridge_tree)
    fac = weighted_laplacian_factors(cx, scheme)
    at = kept_rows(fac.boundary.rows, U)
    return [Fraction(bareiss_det(M), prod(scale)) * correction
            for M, scale in (fac.at_point(point, at) for point in assignments)]


def weighted_oracle(cx: SimplicialComplex, scheme: str) -> LaurentPoly:
    """Direct sum over enumerated SSTs of torsion^2 times the tree monomial."""
    d = cx.dim
    count = enumerate_ssts(cx, d)
    facets = cx.faces_of_dim(d)
    index = {F: i for i, F in enumerate(facets)}
    rows = [([index[F] for F in T], torsion * torsion) for T, torsion in count.per_tree]
    return product_sum([monomial_for_face(F, scheme) for F in facets], rows)
