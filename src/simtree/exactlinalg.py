"""Arbitrary-precision integer matrix kernels.

Matrices are plain lists of lists of Python ints (or Fractions where stated),
or columns given by their supports; everything is exact. Algorithms:

- one column-reduction kernel (ColumnReduction) on column supports: each
  column is reduced at its last nonzero row by reduce_column, by exact
  subtraction against a unit pivot and fraction-free, kept primitive,
  against any other. It gives rank and the lexicographically first column
  basis, and the Smith normal form: every unit pivot reached by unimodular
  operations is an invariant factor 1, and only the other columns, cleared
  at the unit pivots' rows, go to a dense elimination with a minimal pivot.
  Boundaries are reduced on their stored supports, and each once per
  complex. The oracle's DFS (trees.enumerate_ssts) takes the same step on
  the supports: it carries each candidate column, reduced against the path,
  down the tree, and reduces it further only when a new pivot takes its low;
- determinants by fraction-free Bareiss elimination; a symmetric positive
  definite matrix (a reduced Laplacian) by the same elimination on the upper
  triangle with no row swaps, every pivot checked positive;
- one integer Gram builder, _gram, on all rows or on a row map's rows only:
  it builds every integer Laplacian and both Gram matrices below;
- the product of the nonzero eigenvalues of B B^T from the column supports
  of B, with no dense product: P, the lexicographically first row basis,
  and a column basis Q come from one column reduction of B^T, and the
  product is det(B_P B_P^T) det(B_Q^T B_Q) / det(B_PQ)^2, two positive
  definite determinants of size rank(B);
- characteristic polynomials by Faddeev-LeVerrier, multiplying by the
  nonzeros of the matrix only, with an integrality check at every step.

Broken exactness invariants raise ExactnessError (never a bare assert, which
python -O would strip).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .complexes import SimplicialComplex
from .errors import ExactnessError, InputError, _require


def bareiss_det(M) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1)."""
    n = len(M)
    if n == 0:
        return 1
    if any(len(r) != n for r in M):
        raise InputError("determinant requires a square matrix")
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = A[k][k]
        for i in range(k + 1, n):
            Ai, Ak = A[i], A[k]
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (pkk * Ai[j] - aik * Ak[j]) // prev
            Ai[k] = 0
        prev = pkk
    return sign * A[n - 1][n - 1]


def _require_symmetric(M):
    _require(all(M[i][j] == M[j][i] for i in range(len(M)) for j in range(i)),
             "matrix is not symmetric")


def definite_det(M) -> int:
    """Exact determinant of a symmetric positive definite integer matrix
    (empty matrix -> 1).

    Bareiss elimination without row swaps: the k-th pivot is the k-th leading
    principal minor, and every trailing block stays symmetric, so only its
    upper triangle is updated. A pivot that is not positive means the matrix
    is not positive definite and raises ExactnessError, as does an asymmetric
    input."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise InputError("determinant requires a square matrix")
    _require_symmetric(M)
    A = [list(r) for r in M]
    prev = 1
    for k in range(n):
        Ak = A[k]
        pkk = Ak[k]
        _require(pkk > 0, "matrix is not positive definite")
        for i in range(k + 1, n):
            Ai, aki = A[i], Ak[i]
            if aki:
                for j in range(i, n):
                    Ai[j] = (pkk * Ai[j] - aki * Ak[j]) // prev
            elif pkk != prev:
                for j in range(i, n):
                    Ai[j] = pkk * Ai[j] // prev
        prev = pkk
    return prev


def fraction_det(M) -> Fraction:
    """Determinant over Q by clearing row denominators, then Bareiss."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    rows = []
    for r in M:
        fr = [Fraction(x) for x in r]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        scale *= lcm
        rows.append([int(x * lcm) for x in fr])
    return Fraction(bareiss_det(rows), 1) / scale


def columns_of(M) -> list:
    """The column supports of a dense integer matrix: per column, its
    nonzeros as (row index, value) pairs."""
    return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*M)]


def _primitive(v):
    """The sparse column v divided by the gcd of its entries."""
    g = gcd(*v.values())
    return {r: x // g for r, x in v.items()} if g > 1 else v


def _subtract(v, c, p):
    """v -= c * p on sparse columns ({row: nonzero value}), in place."""
    for r, x in p.items():
        y = v.get(r, 0) - c * x
        if y:
            v[r] = y
        else:
            del v[r]


def reduce_column(v, units, others):
    """Reduce the sparse column v ({row: nonzero value}, changed in place) at
    its last nonzero row, its low, until the low is no pivot's. units and
    others map each pivot's low to its reduced column, +-1 there in units and
    primitive in others. Against a unit pivot the step is exact subtraction,
    a unimodular column operation; against any other it is fraction-free, the
    result kept primitive.

    Returns (v, low, fraction_free): v is empty (and low None) iff the column
    is in the span of the pivots, and fraction_free tells whether a
    fraction-free step ran. No pivot is filed: file_pivot does that."""
    fraction_free = False
    while v:
        low = max(v)
        p = units.get(low)
        if p is not None:
            _subtract(v, v[low] * p[low], p)
            continue
        p = others.get(low)
        if p is None:
            return v, low, fraction_free
        fraction_free = True
        a, b = p[low], v[low]
        g = gcd(a, b)
        a, b = a // g, b // g
        w = {r: a * x for r, x in v.items()}
        _subtract(w, b, p)
        v = _primitive(w)
    return v, None, fraction_free


def file_pivot(v, low, fraction_free, units, others) -> bool:
    """File a nonzero result of reduce_column as the pivot at its low: in
    units iff unimodular operations alone took it to +-1 there, and otherwise
    primitive in others. Returns whether it is a unit pivot."""
    if not fraction_free and v[low] in (1, -1):
        units[low] = v
        return True
    others[low] = _primitive(v)
    return False


class ColumnReduction:
    """Column reduction of an integer matrix given by its column supports
    (BoundaryMatrix.supports, or columns_of a dense matrix), each column
    reduced at its last nonzero row by reduce_column (Edelsbrunner, Letscher
    and Zomorodian, "Topological persistence and simplification", DCG 2002).

    Column j is a pivot iff it is outside the span of the columns before it,
    so `pivots` is the lexicographically first column basis. A column reduced
    by unimodular operations alone to a unit at a new row is a unit pivot;
    invariant_factors() builds the Smith normal form on them."""

    __slots__ = ("pivots", "lows", "_ones", "_units", "_rest")

    def __init__(self, columns):
        units, others = {}, {}  # low -> pivot column, as in reduce_column
        pivots = []
        rest = []  # columns that unimodular operations alone take to no unit pivot or 0
        for j, col in enumerate(columns):
            v, low, fraction_free = reduce_column(dict(col), units, others)
            if v:
                pivots.append(j)
                if not file_pivot(v, low, fraction_free, units, others):
                    rest.append(col)
            elif fraction_free:
                rest.append(col)
        self.pivots = tuple(pivots)
        self.lows = (*units, *others)  # the pivots' last rows, unit pivots first
        # the unit pivots' columns are kept only to clear the other columns
        self._ones = len(units)
        self._units = units if rest else {}
        self._rest = rest

    @property
    def unimodular(self) -> bool:
        """Did unimodular operations alone reduce every column, each pivot
        to +-1 at its last row?"""
        return not self._rest

    def invariant_factors(self) -> list:
        """The Smith normal form d1 | d2 | ... | dr, all positive (Dumas,
        Saunders and Villard, "On efficient sparse integer matrix Smith normal
        form computations", J. Symbolic Comput. 32, 2001).

        The unit pivot columns, ordered by their last rows, are unit
        triangular at those rows, so each gives an invariant factor 1 and
        eliminating it by unimodular column operations clears its row from
        the other columns. Only what remains of those goes to the dense
        minimal-pivot elimination."""
        units = self._units
        remainder = []
        for col in self._rest:
            v = dict(col)
            while True:
                low = max((r for r in v if r in units), default=None)
                if low is None:
                    break
                p = units[low]
                _subtract(v, v[low] * p[low], p)
            if v:
                remainder.append(v)
        rows = sorted({r for v in remainder for r in v})
        dense = [[v.get(r, 0) for v in remainder] for r in rows]
        return [1] * self._ones + _minimal_pivot_smith(dense)


def pivot_columns(M) -> list:
    """The pivot columns of an integer matrix: column c is a pivot iff it is
    not in the span of the columns before it."""
    return list(ColumnReduction(columns_of(M)).pivots)


def rank(M) -> int:
    """Rank over Q: the number of pivot columns."""
    return len(pivot_columns(M))


def smith_normal_form(M) -> list:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, all positive."""
    return ColumnReduction(columns_of(M)).invariant_factors()


def _minimal_pivot_smith(A) -> list:
    """Invariant factors of a dense integer matrix (a list of rows, changed
    in place) by elimination with a minimal pivot."""
    if not A or not A[0]:
        return []
    m, n = len(A), len(A[0])
    factors = []
    t = 0
    while t < min(m, n):
        entries = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, bi, bj = min(entries)
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        while True:
            piv = A[t][t]
            # a remainder below or right of the pivot becomes the new pivot
            i = next((i for i in range(t + 1, m) if A[i][t] % piv), None)
            if i is not None:
                q = A[i][t] // piv
                A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                A[t], A[i] = A[i], A[t]
                continue
            j = next((j for j in range(t + 1, n) if A[t][j] % piv), None)
            if j is not None:
                q = A[t][j] // piv
                for row in A:
                    row[j] -= q * row[t]
                    row[t], row[j] = row[j], row[t]
                continue
            for i in range(t + 1, m):
                q = A[i][t] // piv
                A[i] = [x - q * y for x, y in zip(A[i], A[t])]
            for j in range(t + 1, n):
                q = A[t][j] // piv
                for row in A:
                    row[j] -= q * row[t]
            # the pivot must divide the rest; else add a culprit row to row t
            i = next((i for i in range(t + 1, m) if any(x % piv for x in A[i][t + 1:])), None)
            if i is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[i])]
        factors.append(abs(A[t][t]))
        t += 1
    _require(all(b % a == 0 for a, b in zip(factors, factors[1:])), "SNF divisibility broken")
    return factors


def char_poly(M) -> list:
    """Coefficients [c_0, ..., c_n] of det(yI - M), ascending, exact integers.

    Faddeev-LeVerrier: B_0 = I and B_k = M B_{k-1} + c_{n-k} I. Row i of
    M B_{k-1} is the sum of M[i][j] * (row j of B_{k-1}) over the nonzeros of
    row i of M, so a step costs n per nonzero of M.
    """
    n = len(M)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in M]
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prev = B
        B = []
        for row in nonzeros:
            acc = [0] * n
            for j, x in row:
                acc = [a + x * b for a, b in zip(acc, prev[j])]
            B.append(acc)
        tr = sum(B[i][i] for i in range(n))
        if tr % k != 0:
            raise ExactnessError("Faddeev-LeVerrier trace not divisible")
        c = -(tr // k)
        coeffs[n - k] = c
        for i in range(n):
            B[i][i] += c
    return coeffs


def transpose(columns, n_rows) -> list:
    """The column supports of B^T, i.e. the rows of B, from those of B."""
    rows = [[] for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, x in col:
            rows[i].append((j, x))
    return rows


def _gram(vectors, n: int, at=None, weights=None) -> list:
    """The sum of w_h v_h v_h^T over the sparse vectors v_h (w_h = 1 without
    weights), on all n rows or on those of the row map at (in position order)."""
    if at is not None:
        vectors = [[(at[i], x) for i, x in v if i in at] for v in vectors]
        n = len(at)
    G = [[0] * n for _ in range(n)]
    for w, v in zip([1] * len(vectors) if weights is None else weights, vectors):
        for a, x in v:
            row, wx = G[a], w * x
            for b, y in v:
                row[b] += wx * y
    return G


def gram_pseudodeterminant(columns, n_rows) -> int:
    """The product of the nonzero eigenvalues of B B^T (1 when B = 0), for
    an integer matrix B with n_rows rows given by its column supports.

    One column reduction of the rows of B gives P, the pivot rows of B (its
    lexicographically first row basis), and Q, the columns at the reduced
    rows' last nonzeros. The reduced rows are T B_{P,:} with T triangular
    and nonsingular, and triangular at Q, so B_PQ is nonsingular and Q is a
    column basis. Then B = B_{:,Q} B_PQ^-1 B_{P,:}, and the nonzero
    eigenvalues of B B^T are those of (B_Q^T B_Q) B_PQ^-1 (B_P B_P^T) B_PQ^-T:

        pdet(B B^T) = det(B_P B_P^T) det(B_Q^T B_Q) / det(B_PQ)^2,

    two positive definite Gram determinants of size rank(B). When the
    reduction is unimodular, T and the reduced rows at Q are unit triangular
    and det(B_PQ) = +-1; otherwise |det(B_PQ)| is the product of its Smith
    normal form. A quotient that is not integral raises ExactnessError."""
    rows = transpose(columns, n_rows)
    reduction = ColumnReduction(rows)
    at_p = {p: a for a, p in enumerate(reduction.pivots)}
    at_q = {q: a for a, q in enumerate(reduction.lows)}
    num = (definite_det(_gram(columns, n_rows, at_p))
           * definite_det(_gram(rows, len(columns), at_q)))
    if reduction.unimodular:
        return num
    factors = ColumnReduction([[(i, x) for i, x in columns[q] if i in at_p]
                               for q in reduction.lows]).invariant_factors()
    _require(len(factors) == len(at_q), "B_PQ is singular")
    den = prod(factors) ** 2
    _require(num % den == 0, "nonzero eigenvalue product is not integral")
    return num // den


def integer_spectrum_check(M, expected) -> bool:
    """Does the symmetric integer matrix M have exactly the expected eigenvalue multiset?

    `expected` is a multiset (list) of integers with len == n. Verified via
    multiplicity(lam) = n - rank(M - lam I), valid because M is diagonalizable.
    """
    n = len(M)
    if len(expected) != n:
        return False
    counts = {}
    for lam in expected:
        counts[lam] = counts.get(lam, 0) + 1
    total = 0
    for lam, want in counts.items():
        A = [list(r) for r in M]  # M - lam I
        for i in range(n):
            A[i][i] -= lam
        mult = n - rank(A)
        if mult != want:
            return False
        total += mult
    return total == n


# -- homology ------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Reduced homology in one dimension: free rank plus torsion order."""

    dimension: int
    betti: int
    torsion_order: int

    def group_order(self):
        """|H~| as an int, or None when the group is infinite."""
        return self.torsion_order if self.betti == 0 else None

    def to_json_dict(self) -> dict:
        if self.betti > 0:
            return {"betti": self.betti, "torsion_order": self.torsion_order,
                    "group_order": "infinite-group"}
        return {"betti": self.betti, "torsion_order": self.torsion_order}


def boundary_reduction(cx: SimplicialComplex, k: int) -> ColumnReduction:
    """The column reduction of bd_k, k in [0, dim], memoised on the complex:
    each boundary is eliminated once, for its pivots and its Smith form."""
    return cx.memo(("reduction", k), lambda: ColumnReduction(cx.boundary_matrix(k).supports))


def boundary_pivots(cx: SimplicialComplex, k: int) -> tuple:
    """The pivot columns of bd_k (none outside [0, dim])."""
    if k < 0 or k > cx.dim:
        return ()
    return boundary_reduction(cx, k).pivots


def boundary_rank(cx: SimplicialComplex, k: int) -> int:
    """rank bd_k: the number of its pivot columns."""
    return len(boundary_pivots(cx, k))


def homology(cx: SimplicialComplex, i: int) -> HomologySummary:
    """Reduced integral homology H~_i as Betti number + torsion order, the
    product of bd_{i+1}'s invariant factors."""
    if i < -1 or i > cx.dim:
        raise InputError(f"homology dimension {i} out of range [-1, {cx.dim}]")
    factors = boundary_reduction(cx, i + 1).invariant_factors() if i < cx.dim else ()
    return HomologySummary(dimension=i, betti=betti(cx, i), torsion_order=prod(factors))


def betti(cx: SimplicialComplex, i: int) -> int:
    """Rational reduced Betti number (no SNF needed)."""
    if i < -1 or i > cx.dim:
        return 0
    ker_dim = cx.f(i) - boundary_rank(cx, i)
    return ker_dim - (boundary_rank(cx, i + 1) if i + 1 <= cx.dim else 0)


def is_apc(cx: SimplicialComplex) -> bool:
    """Acyclic in positive codimension: betti_j = 0 for every j < dim."""
    return all(betti(cx, j) == 0 for j in range(-1, cx.dim))
