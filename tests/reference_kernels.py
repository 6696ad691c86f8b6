"""Slow, obviously-correct reference versions of simtree's exact kernels.

The library computes the same quantities by sparse or fraction-free routes;
the tests require identical results from both.
"""

from fractions import Fraction
from math import gcd


def mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def char_poly_fraction(M) -> list:
    """Faddeev-LeVerrier over exact rationals with dense products; returns
    ascending Fractions."""
    n = len(M)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    A = [[Fraction(x) for x in row] for row in M]
    B = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        B = mat_mul(A, B)
        tr = sum(B[i][i] for i in range(n))
        c = -tr / k
        coeffs[n - k] = c
        for i in range(n):
            B[i][i] += c
    return coeffs


def dense_up_down_laplacian(cx, k):
    """bd_k bd_k^T as a dense triple loop over the dense boundary matrix."""
    bd = cx.boundary_matrix(k).as_lists()
    n = len(bd)
    if n == 0:
        return []
    m = len(bd[0])
    return [[sum(bd[i][t] * bd[j][t] for t in range(m)) for j in range(n)] for i in range(n)]


def fraction_kernel_basis(M, n_cols=None):
    """Column-kernel basis by Gauss-Jordan elimination over Fractions: for
    each free column f, the primitive integer vector with v[f] > 0."""
    m = len(M)
    n = len(M[0]) if M and M[0] else (n_cols if n_cols is not None else 0)
    if n == 0:
        return []
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    A = [[Fraction(x) for x in row] for row in M]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pr = A[r]
        inv = 1 / pr[c]
        A[r] = pr = [x * inv for x in pr]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], pr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row_i, c in enumerate(pivots):
            v[c] = -A[row_i][free]
        lcm = 1
        for x in v:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        iv = [int(x * lcm) for x in v]
        g = 0
        for x in iv:
            g = gcd(g, x)
        if g > 1:
            iv = [x // g for x in iv]
        basis.append(iv)
    return basis
