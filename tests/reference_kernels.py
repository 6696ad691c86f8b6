"""Slow, obviously-correct reference versions of simtree's exact kernels.

The library computes the same quantities by sparse or fraction-free routes;
the tests require identical results from both.
"""

from fractions import Fraction
from math import gcd

from simtree.errors import InputError
from simtree.laurent import LaurentPoly, monomial_for_face, raise_op, x_facet
from simtree.weighted import SCHEMES, SymbolicMatrix


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
                A[i] = [x - f * y if y else x for x, y in zip(A[i], pr)]
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


def find_sst_reverse_delete(cx, k) -> tuple:
    """A k-SST by reverse deletion: while the chosen columns of bd_k have a
    kernel, drop the lexicographically largest k-face carrying a kernel
    coefficient. Assumes an APC k-skeleton."""
    amb = cx.skeleton(k)
    kfaces = amb.faces_of_dim(k)
    bd = amb.boundary_matrix(k).as_lists()
    chosen = list(range(len(kfaces)))
    while True:
        sub = [[row[j] for j in chosen] for row in bd]
        kb = fraction_kernel_basis(sub, n_cols=len(chosen))
        if not kb:
            break
        eligible = {chosen[idx] for v in kb for idx, x in enumerate(v) if x != 0}
        chosen.remove(max(eligible, key=lambda j: kfaces[j]))
    return tuple(kfaces[j] for j in chosen)


def symbolic_transpose(M: SymbolicMatrix) -> SymbolicMatrix:
    return SymbolicMatrix(rows=M.cols, cols=M.rows, entries=tuple(zip(*M.entries)))


def symbolic_matmul(A: SymbolicMatrix, B: SymbolicMatrix) -> SymbolicMatrix:
    """The dense product of two symbolic matrices with matching inner labels."""
    if A.cols != B.rows:
        raise InputError("matrix product needs matching inner labels")
    out = []
    for i in range(A.n_rows):
        row = []
        for j in range(B.n_cols):
            acc = LaurentPoly.zero()
            for t in range(len(A.cols)):
                a, b = A.entries[i][t], B.entries[t][j]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return SymbolicMatrix(rows=A.rows, cols=B.cols, entries=tuple(out))


def weighted_boundary(cx, k: int, scheme: str) -> SymbolicMatrix:
    """Column F of bd_k scaled by the unsquared weight x_F (the fine weighting
    raises positions by d-k; coarse and facet exist at the top dimension only)."""
    if scheme not in SCHEMES:
        raise InputError(f"unknown weighting scheme {scheme!r}")
    d = cx.dim
    if scheme != "fine" and k != d:
        raise InputError(f"{scheme} weighting is defined at the top dimension only")
    bd = cx.boundary_matrix(k)
    zero = LaurentPoly.zero()
    entries = [[zero] * bd.n_cols for _ in bd.rows]
    for j, (F, support) in enumerate(zip(bd.cols, bd.supports)):
        if scheme == "facet":
            weight = x_facet(F, 1)
        else:
            weight = raise_op(monomial_for_face(F, scheme, squared=False), d - k, d) \
                if scheme == "fine" and k != d else monomial_for_face(F, scheme, squared=False)
        for i, s in support:
            entries[i][j] = weight * s
    return SymbolicMatrix(rows=bd.rows, cols=bd.cols, entries=tuple(map(tuple, entries)))


def weighted_laplacian_product(cx, scheme: str) -> SymbolicMatrix:
    """L-hat as the dense product of the weighted boundary and its transpose."""
    B = weighted_boundary(cx, cx.dim, scheme)
    return symbolic_matmul(B, symbolic_transpose(B))


def is_shifted_all_pairs(cx) -> bool:
    """The exchange condition tried for every smaller vertex i of every j in
    every face F: i not in F => F - j + i is a face."""
    verts = cx.vertices
    for F in cx.all_faces():
        for j in F:
            for i in verts:
                if i >= j:
                    break
                if i not in F:
                    G = tuple(sorted(set(F) - {j} | {i}))
                    if G not in cx:
                        return False
    return True


def zero_symbolic(rows, cols) -> SymbolicMatrix:
    z = LaurentPoly.zero()
    return SymbolicMatrix(rows=tuple(rows), cols=tuple(cols),
                          entries=tuple(tuple(z for _ in cols) for _ in rows))


def is_symmetric(M: SymbolicMatrix) -> bool:
    return M.rows == M.cols and all(
        M.entries[i][j] == M.entries[j][i] for i in range(M.n_rows) for j in range(i))


def scale_row_col(M: SymbolicMatrix, row_divisors, col_divisors) -> SymbolicMatrix:
    """Divide row i by row_divisors[i] and column j by col_divisors[j] (monomials)."""
    entries = tuple(
        tuple(e.div_exact(row_divisors[i]).div_exact(col_divisors[j]) if e else e
              for j, e in enumerate(row))
        for i, row in enumerate(M.entries))
    return SymbolicMatrix(rows=M.rows, cols=M.cols, entries=entries)


def algebraic_fine_boundary(cx, i: int) -> SymbolicMatrix:
    """The chain-complex-forming boundary map: entry (F\\j, F) equals
    eps(j,F) * raise^{d-i}(x_F) / raise^{d-i+1}(x_{F\\j})."""
    d = cx.dim
    rows = cx.faces_of_dim(i - 1)
    cols = cx.faces_of_dim(i)
    if i > d or not cols:
        return zero_symbolic(rows, cols)
    row_index = {F: r for r, F in enumerate(rows)}
    z = LaurentPoly.zero()
    entries = [[z] * len(cols) for _ in rows]
    for j, F in enumerate(cols):
        num = raise_op(monomial_for_face(F, "fine", squared=False), d - i, d)
        for pos in range(len(F)):
            G = F[:pos] + F[pos + 1:]
            den = raise_op(monomial_for_face(G, "fine", squared=False), d - i + 1, d)
            val = num.div_exact(den)
            entries[row_index[G]][j] = val if pos % 2 == 0 else -val
    return SymbolicMatrix(rows=tuple(rows), cols=tuple(cols),
                          entries=tuple(tuple(r) for r in entries))


def expand_z_reference(S, T, shift: int, cutoff: int) -> LaurentPoly:
    """z(S,T) = raise^shift((sum over j in T of X_{S u j}) / raise(X_S)) by
    polynomial add, exact division and raise_op."""
    if not T:
        return LaurentPoly.zero()
    num = LaurentPoly.zero()
    for j in T:
        num = num + monomial_for_face(tuple(sorted(S + (j,))), "fine", squared=True)
    den = raise_op(monomial_for_face(S, "fine", squared=True), 1, cutoff) \
        if S else LaurentPoly.one()
    z = num.div_exact(den)
    return raise_op(z, shift, cutoff) if shift else z


def algebraic_fine_laplacian(cx, i: int) -> SymbolicMatrix:
    """LL^ud_i = bd_{i+1} bd*_{i+1} as the product of the boundary matrices
    (the reference for shifted.algebraic_fine_laplacian_entries)."""
    B = algebraic_fine_boundary(cx, i + 1)
    return symbolic_matmul(B, symbolic_transpose(B))
