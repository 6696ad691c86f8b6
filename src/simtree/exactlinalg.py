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
- one symmetric determinant loop, _leading_minors: fraction-free Bareiss
  elimination (Bareiss 1968) on the upper triangle with no row swaps,
  which leaves a row unscaled while its multipliers are zero and divides
  the skipped factors out once, when the row is next used. definite_det
  (reduced Laplacians, Gram matrices) checks every pivot positive;
  bareiss_det runs it on every symmetric matrix and takes row swaps only
  past a zero leading minor, or on a matrix that is not symmetric;
- one integer Gram builder, _gram, on all rows or on a row map's rows only:
  it builds every integer Laplacian and both Gram matrices below;
- the product of the nonzero eigenvalues of B B^T from the column supports
  of B, with no dense product: a column basis Q and a row basis P come
  from one column reduction of B (for a boundary, the memoised one), and
  the product is det(B_P B_P^T) det(B_Q^T B_Q) / det(B_PQ)^2, two positive
  definite determinants of size rank(B);
- the Duval-Reiner integer spectrum check: the traces of M and M^2 against
  the expected power sums, then one column reduction of M - lambda I per
  distinct expected lambda but one, which the traces cover;
- characteristic polynomials by Faddeev-LeVerrier, multiplying by the
  nonzeros of the matrix only, with an integrality check at every step.

Broken exactness invariants raise ExactnessError (never a bare assert, which
python -O would strip).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .complexes import SimplicialComplex
from .errors import ExactnessError, InputError, _require


def bareiss_det(M) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1).

    A symmetric matrix takes the symmetric loop that definite_det runs,
    _leading_minors. A matrix that is not symmetric, or a symmetric one with
    a zero leading principal minor before the last, takes Bareiss
    elimination with row swaps."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise InputError("determinant requires a square matrix")
    if _is_symmetric(M):
        minors = [1, *_leading_minors(M)]
        if len(minors) > n:
            return minors[-1]
    return _row_swap_det(M)


def _row_swap_det(M) -> int:
    """Fraction-free Bareiss elimination with row swaps, on a nonempty square
    integer matrix."""
    n = len(M)
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


def _is_symmetric(M) -> bool:
    """Is the square matrix M symmetric? Row i is compared with column i,
    and the scan stops at the first row that differs."""
    return all(map(tuple.__eq__, map(tuple, M), zip(*M)))


def _leading_minors(M):
    """Yield the leading principal minors p_0, p_1, ... of the symmetric
    integer matrix M, stopping after the first zero one.

    Bareiss elimination without row swaps: p_k is the k-th pivot, and every
    trailing block stays symmetric, so only its upper triangle is updated.
    Row i's update at step k is (p_k row_i - a_ki row_k) / p_{k-1}; when the
    multiplier a_ki is zero that is the rescaling p_k / p_{k-1}, which is
    not done. The skipped factors telescope: a row last updated at step
    s - 1 holds its true entries times p_{s-1} / p_{k-1} at step k, and that
    factor is divided out, exactly, only when the row is next the pivot row
    or next has a nonzero multiplier."""
    n = len(M)
    A = [list(r) for r in M]
    p = [1]  # p[k] = p_{k-1}, with p_{-1} = 1
    last = [0] * n  # row i holds its true entries after step last[i] - 1
    for k in range(n):
        Ak, prev = A[k], p[k]
        s = last[k]
        if s != k:
            ps = p[s]
            for j in range(k, n):
                Ak[j] = Ak[j] * prev // ps
        pkk = Ak[k]
        yield pkk
        if not pkk:
            return
        for i in range(k + 1, n):
            aki = Ak[i]
            if aki:
                Ai = A[i]
                s = last[i]
                if s == k:
                    for j in range(i, n):
                        Ai[j] = (pkk * Ai[j] - aki * Ak[j]) // prev
                else:
                    ps = p[s]
                    for j in range(i, n):
                        Ai[j] = (pkk * (Ai[j] * prev // ps) - aki * Ak[j]) // prev
                last[i] = k + 1
        p.append(pkk)


def definite_det(M) -> int:
    """Exact determinant of a symmetric positive definite integer matrix
    (empty matrix -> 1): the last leading principal minor of
    _leading_minors. A minor that is not positive means the matrix is not
    positive definite and raises ExactnessError, as does an asymmetric
    input."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise InputError("determinant requires a square matrix")
    _require(_is_symmetric(M), "matrix is not symmetric")
    det = 1
    for det in _leading_minors(M):
        _require(det > 0, "matrix is not positive definite")
    return det


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

    One column reduction of B gives Q, its pivot columns (its
    lexicographically first column basis), and P, the rows at the reduced
    columns' last nonzeros. The reduced columns are B_{:,Q} T with T
    triangular and nonsingular, and triangular at P, so B_PQ is nonsingular
    and P is a row basis. Then B = B_{:,Q} B_PQ^-1 B_{P,:}, and the nonzero
    eigenvalues of B B^T are those of (B_Q^T B_Q) B_PQ^-1 (B_P B_P^T) B_PQ^-T:

        pdet(B B^T) = det(B_P B_P^T) det(B_Q^T B_Q) / det(B_PQ)^2,

    two positive definite Gram determinants of size rank(B). When the
    reduction is unimodular, T and the reduced columns at P are unit
    triangular and det(B_PQ) = +-1; otherwise |det(B_PQ)| is the product of
    its Smith normal form. A quotient that is not integral raises
    ExactnessError."""
    return _gram_pseudodeterminant(columns, n_rows, ColumnReduction(columns))


def _gram_pseudodeterminant(columns, n_rows, reduction) -> int:
    """gram_pseudodeterminant given the column reduction of B."""
    at_p = {p: a for a, p in enumerate(sorted(reduction.lows))}
    at_q = {q: a for a, q in enumerate(reduction.pivots)}
    num = (definite_det(_gram(columns, n_rows, at_p))
           * definite_det(_gram(transpose(columns, n_rows), len(columns), at_q)))
    if reduction.unimodular:
        return num
    factors = ColumnReduction([[(i, x) for i, x in columns[q] if i in at_p]
                               for q in reduction.pivots]).invariant_factors()
    _require(len(factors) == len(at_q), "B_PQ is singular")
    den = prod(factors) ** 2
    _require(num % den == 0, "nonzero eigenvalue product is not integral")
    return num // den


def integer_spectrum_check(M, expected) -> bool:
    """Does the symmetric integer matrix M have exactly the expected
    eigenvalue multiset (a list of integers)? A non-symmetric M raises
    InputError.

    First tr M = sum of the lambda and tr M^2 = sum of M_ij^2 = sum of the
    lambda^2. Then every distinct expected lambda but one, lambda_s (0 when
    it is expected, else the first), must have multiplicity
    w_lambda = n - rank(M - lambda I); the columns of M are read once and
    only the diagonal entry is shifted per lambda. This suffices: M is real
    symmetric, so it has n real eigenvalues, and the w_s that the ranks
    leave, none of them a checked lambda, have power sums nu_1 = w_s lambda_s
    and nu_2 = w_s lambda_s^2 by the traces. So sum (nu - lambda_s)^2 =
    nu_2 - 2 lambda_s nu_1 + w_s lambda_s^2 = 0, and each is lambda_s."""
    n = len(M)
    if any(len(r) != n for r in M) or not _is_symmetric(M):
        raise InputError("spectrum check requires a symmetric matrix")
    if (len(expected) != n or sum(M[i][i] for i in range(n)) != sum(expected)
            or sum(x * x for r in M for x in r) != sum(lam * lam for lam in expected)):
        return False
    counts = Counter(expected)
    # the traces cover one eigenvalue: 0 when it is expected, else the first
    counts.pop(0 if 0 in counts else next(iter(counts), None), None)
    off_diagonal = [[(i, x) for i, x in enumerate(col) if x and i != j]
                    for j, col in enumerate(M)]
    for lam, want in counts.items():
        shifted = [[*col, (j, M[j][j] - lam)] if M[j][j] != lam else col
                   for j, col in enumerate(off_diagonal)]
        if n - len(ColumnReduction(shifted).pivots) != want:
            return False
    return True


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
