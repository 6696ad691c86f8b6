"""Arbitrary-precision integer matrix kernels.

Matrices are plain lists of lists of Python ints (or Fractions where stated);
everything is exact. Algorithms:

- rank and the lexicographically first column basis from one fraction-free
  echelon routine (rows kept primitive; no Fractions are built);
- determinants by fraction-free Bareiss elimination; a symmetric positive
  definite matrix (a reduced Laplacian) by the same elimination on the upper
  triangle with no row swaps, every pivot checked positive;
- the product pi of the nonzero eigenvalues of a symmetric positive
  semidefinite M as det((M^2)_PP) / det(M_PP), P its pivot columns: two
  positive definite determinants of size rank(M);
- Smith normal form by elimination with a minimal pivot, skipping the
  divisibility scan whenever the pivot is a unit;
- characteristic polynomials by Faddeev-LeVerrier, multiplying by the
  nonzeros of the matrix only, with an integrality check at every step.

Broken exactness invariants raise ExactnessError (never a bare assert, which
python -O would strip).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .complexes import SimplicialComplex
from .errors import ExactnessError, InputError, _require


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_sub_scaled_identity(A, lam):
    """A - lam*I."""
    n = len(A)
    out = [list(r) for r in A]
    for i in range(n):
        out[i][i] -= lam
    return out


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


def _primitive(row):
    """The row divided by the gcd of its entries (unchanged if that is 0 or 1)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def pivot_columns(M) -> list:
    """Pivot columns of the fraction-free row echelon form of an integer
    matrix: column c is a pivot iff it is not in the span of the columns
    before it, so the pivots are the lexicographically first column basis.
    Every row stays an integer row divided by its content."""
    A = [list(r) for r in M]
    m = len(A)
    n = len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for piv in range(r, m):
            if A[piv][c]:
                break
        else:
            continue
        A[r], A[piv] = A[piv], A[r]
        Ar = A[r]
        prc = Ar[c]
        for i in range(r + 1, m):
            Ai = A[i]
            aic = Ai[c]
            if aic:
                # Ar is zero left of c, so only columns >= c change
                for j in range(c, n):
                    Ai[j] = prc * Ai[j] - aic * Ar[j]
                A[i] = _primitive(Ai)
        pivots.append(c)
        r += 1
    return pivots


def rank(M) -> int:
    """Rank over Q via fraction-free elimination."""
    return len(pivot_columns(M))


def smith_normal_form(M) -> list:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, all positive."""
    if not M or not M[0]:
        return []
    A = [list(r) for r in M]
    m, n = len(A), len(A[0])
    factors = []
    t = 0
    while True:
        # locate a nonzero entry of minimal absolute value in A[t:, t:]
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                x = Ai[j]
                if x != 0 and (best is None or abs(x) < abs(A[best[0]][best[1]])):
                    best = (i, j)
                    if abs(x) == 1:
                        break
            if best is not None and abs(A[best[0]][best[1]]) == 1:
                break
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t by row operations, re-pivoting on remainders
            repeat = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        A[t], A[i] = A[i], A[t]
                        repeat = True
            if repeat:
                continue
            # clear row t by column operations
            repeat = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    # column t is zero below the pivot, so this column
                    # operation changes row t only
                    A[t][j] -= A[t][j] // A[t][t] * A[t][t]
                    if A[t][j] != 0:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        repeat = True
                        break
            if repeat:
                continue
            # enforce divisibility of the remaining block by the pivot; a
            # unit pivot divides everything
            piv = A[t][t]
            if piv in (1, -1):
                break
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % piv != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[culprit])]
        factors.append(abs(A[t][t]))
        t += 1
        if t == m or t == n:
            break
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
    B = identity_matrix(n)
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


def nonzero_eigenvalue_product(M) -> int:
    """The product of the nonzero eigenvalues of a symmetric positive
    semidefinite integer matrix M (1 when there are none).

    With P the pivot columns of M, M_PP is nonsingular and
    M = M_{:,P} M_PP^-1 M_{P,:}, so the nonzero eigenvalues of M are those of
    M_PP^-1 (M^2)_PP. Both factors are positive definite, and the product is
    det((M^2)_PP) / det(M_PP). An indefinite or asymmetric M raises
    ExactnessError."""
    _require_symmetric(M)
    P = pivot_columns(M)
    rows = [[(j, x) for j, x in enumerate(M[p]) if x] for p in P]
    # (M^2)_PP is the Gram matrix of the rows at P, as M is symmetric
    gram = [[sum(x * M[q][j] for j, x in row) for q in P] for row in rows]
    num = definite_det(gram)
    den = definite_det([[M[p][q] for q in P] for p in P])
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
        mult = n - rank(mat_sub_scaled_identity(M, lam))
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


def boundary_pivots(cx: SimplicialComplex, k: int) -> tuple:
    """The pivot columns of bd_k (none outside [0, dim]), memoised on the
    complex: each boundary is eliminated once."""
    if k < 0 or k > cx.dim:
        return ()
    return cx.memo(("pivots", k), lambda: tuple(pivot_columns(cx.boundary_matrix(k).as_lists())))


def boundary_rank(cx: SimplicialComplex, k: int) -> int:
    """rank bd_k: the number of its pivot columns."""
    return len(boundary_pivots(cx, k))


def homology(cx: SimplicialComplex, i: int) -> HomologySummary:
    """Reduced integral homology H~_i as Betti number + torsion order."""
    if i < -1 or i > cx.dim:
        raise InputError(f"homology dimension {i} out of range [-1, {cx.dim}]")
    ker_dim = cx.f(i) - boundary_rank(cx, i)
    if i + 1 > cx.dim:
        rank_next = 0
        torsion = 1
    else:
        rank_next = boundary_rank(cx, i + 1)
        torsion = 1
        for d in smith_normal_form(cx.boundary_matrix(i + 1).as_lists()):
            if d > 1:
                torsion *= d
    return HomologySummary(dimension=i, betti=ker_dim - rank_next, torsion_order=torsion)


def betti(cx: SimplicialComplex, i: int) -> int:
    """Rational reduced Betti number (no SNF needed)."""
    if i < -1 or i > cx.dim:
        return 0
    ker_dim = cx.f(i) - boundary_rank(cx, i)
    return ker_dim - (boundary_rank(cx, i + 1) if i + 1 <= cx.dim else 0)


def is_apc(cx: SimplicialComplex) -> bool:
    """Acyclic in positive codimension: betti_j = 0 for every j < dim."""
    return all(betti(cx, j) == 0 for j in range(-1, cx.dim))
