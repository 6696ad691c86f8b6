"""Weighted simplicial matrix-tree machinery.

Three weighting schemes attach a monomial to each top-dimensional facet F:

  facet   an independent indeterminate X{F} per facet;
  coarse  X_F = prod of the per-vertex variables X[v], v in F;
  fine    X_F = prod over positions m of X[m, F_m], with the raising operator
          shifting positions for lower-dimensional boundary maps.

The weighted boundary scales each column of the signed boundary matrix by the
unsquared facet weight x_F, so the up-down Laplacian carries the squared
weights X_F that appear in every enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import SimplicialComplex
from .errors import InputError, ResourceLimitError, _require
from .exactlinalg import fraction_det
from .laurent import LaurentPoly, monomial_for_face, poly_sum, raise_op, x_facet
from .trees import enumerate_ssts, ridge_tree_reduction

SCHEMES = ("fine", "coarse", "facet")


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

    def entry(self, i, j) -> LaurentPoly:
        return self.entries[i][j]

    def transpose(self) -> "SymbolicMatrix":
        return SymbolicMatrix(rows=self.cols, cols=self.rows,
                              entries=tuple(zip(*self.entries)))

    def matmul(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        if self.cols != other.rows:
            raise InputError("matrix product needs matching inner labels")
        k = len(self.cols)
        out = []
        for i in range(self.n_rows):
            row = []
            for j in range(other.n_cols):
                acc = LaurentPoly.zero()
                for t in range(k):
                    a = self.entries[i][t]
                    b = other.entries[t][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return SymbolicMatrix(rows=self.rows, cols=other.cols, entries=tuple(out))

    def delete_labels(self, labels) -> "SymbolicMatrix":
        drop = {tuple(F) for F in labels}
        ri = [i for i, F in enumerate(self.rows) if F not in drop]
        ci = [j for j, F in enumerate(self.cols) if F not in drop]
        return SymbolicMatrix(
            rows=tuple(self.rows[i] for i in ri),
            cols=tuple(self.cols[j] for j in ci),
            entries=tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def substitute(self, assignment) -> list:
        """Numeric matrix of Fractions at an exact-rational assignment."""
        return [[e.evaluate(assignment) if e else Fraction(0) for e in row]
                for row in self.entries]


def facet_weight(cx: SimplicialComplex, F, scheme: str, squared: bool = True,
                 raise_by: int = 0) -> LaurentPoly:
    """The monomial attached to facet F under the given scheme (x_F or X_F)."""
    F = tuple(F)
    if scheme == "facet":
        return x_facet(F, 2 if squared else 1)
    if scheme == "coarse":
        return monomial_for_face(F, "coarse", squared)
    if scheme == "fine":
        mono = monomial_for_face(F, "fine", squared)
        return raise_op(mono, raise_by, cx.dim) if raise_by else mono
    raise InputError(f"unknown weighting scheme {scheme!r}")


def weighted_boundary(cx: SimplicialComplex, k: int, scheme: str) -> SymbolicMatrix:
    """Column F of bd_k scaled by x_F (fine weighting raises positions by d-k)."""
    if scheme not in SCHEMES:
        raise InputError(f"unknown weighting scheme {scheme!r}")
    d = cx.dim
    if scheme != "fine" and k != d:
        raise InputError(f"{scheme} weighting is defined at the top dimension only")
    bd = cx.boundary_matrix(k)
    zero = LaurentPoly.zero()
    entries = [[zero] * bd.n_cols for _ in bd.rows]
    for j, (F, support) in enumerate(zip(bd.cols, bd.supports)):
        weight = facet_weight(cx, F, scheme, squared=False, raise_by=d - k)
        for i, s in support:
            entries[i][j] = weight * s
    return SymbolicMatrix(rows=bd.rows, cols=bd.cols, entries=tuple(map(tuple, entries)))


def weighted_up_down_laplacian(cx: SimplicialComplex, scheme: str) -> SymbolicMatrix:
    """L-hat = bd-hat_d bd-hat_d^T on C_{d-1}; entries carry the squared weights."""
    B = weighted_boundary(cx, cx.dim, scheme)
    return B.matmul(B.transpose())


def symbolic_det(M: SymbolicMatrix, cap: int = 12) -> LaurentPoly:
    """Exact determinant by column expansion with minor memoization.

    Minors are keyed by the bitmask of available rows (the column index is the
    popcount), so the cost is O(2^n * n) polynomial operations.
    """
    n = M.n_rows
    if n != M.n_cols:
        raise InputError("determinant requires a square matrix")
    if n > cap:
        raise ResourceLimitError(
            f"symbolic determinant of size {n} exceeds the cap {cap}; "
            "use random-evaluation mode instead")
    entries = M.entries
    full = (1 << n) - 1
    memo = {}

    def minor(mask, j):
        if j == n:
            return LaurentPoly.one()
        cached = memo.get(mask)
        if cached is not None:
            return cached
        acc = LaurentPoly.zero()
        sign = 1
        i = 0
        rest = mask
        while rest:
            low = rest & (-rest)
            r = low.bit_length() - 1
            e = entries[r][j]
            if e:
                term = e * minor(mask ^ low, j + 1)
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
            rest ^= low
            i += 1
        memo[mask] = acc
        return acc

    return minor(full, 0)


def weighted_tau(cx: SimplicialComplex, scheme: str, ridge_tree=None,
                 det_cap: int = 12) -> LaurentPoly:
    """The weighted spanning-tree enumerator tau-hat_d as an exact polynomial."""
    amb, U, correction = ridge_tree_reduction(cx, cx.dim, ridge_tree)
    LU = weighted_up_down_laplacian(amb, scheme).delete_labels(U)
    result = symbolic_det(LU, cap=det_cap) * correction
    _require(result.has_nonnegative_integer_coeffs(),
             "weighted enumerator must have nonnegative integer coefficients")
    return result


def weighted_tau_at_points(cx: SimplicialComplex, scheme: str, assignments,
                           ridge_tree=None) -> list:
    """Evaluation mode for matrices above the symbolic cap: the exact value of
    tau-hat at each assignment, via numeric determinants."""
    amb, U, correction = ridge_tree_reduction(cx, cx.dim, ridge_tree)
    LU = weighted_up_down_laplacian(amb, scheme).delete_labels(U)
    return [fraction_det(LU.substitute(a)) * correction for a in assignments]


def weighted_oracle(cx: SimplicialComplex, scheme: str,
                    cap: int | None = None) -> LaurentPoly:
    """Direct sum over enumerated SSTs of torsion^2 times the tree monomial."""
    d = cx.dim
    kwargs = {"cap": cap} if cap is not None else {}
    count = enumerate_ssts(cx, d, **kwargs)
    weights = {F: facet_weight(cx, F, scheme, squared=True) for F in cx.faces_of_dim(d)}

    def tree_monomials():
        for facets, torsion in count.per_tree:
            mono = LaurentPoly.constant(torsion * torsion)
            for F in facets:
                mono = mono * weights[F]
            yield mono

    return poly_sum(tree_monomials())
