"""Differential tests of the exact kernels against sympy as an independent oracle."""

import pytest
from hypothesis import given, settings, strategies as st
from helpers import dense
from reference_kernels import row_swap_det
from test_exactlinalg import complexes_7, kernel_matrices, symmetric_matrices

from simtree.exactlinalg import (
    ColumnReduction,
    bareiss_det,
    char_poly,
    definite_det,
    pivot_columns,
    rank,
    smith_normal_form,
)
from simtree.fixtures import rp2_six_vertices

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

entries = st.integers(-9, 9)
matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)))
# Mostly zero and unit entries, so that dependent columns are common.
sparse = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                                    min_size=n, max_size=n), min_size=m, max_size=m)))
square = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(square)
def test_det_matches_sympy(M):
    assert bareiss_det(M) == sympy.Matrix(M).det()


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_symmetric_det_matches_sympy(M):
    # zero leading minors send some of these through the row-swap loop
    assert bareiss_det(M) == sympy.Matrix(len(M), len(M), sum(M, [])).det()



def _gram_plus_identity(A):
    """A^T A + I: symmetric positive definite, whatever the integer matrix A."""
    n = len(A[0]) if A else 0
    return [[sum(r[i] * r[j] for r in A) + (i == j) for j in range(n)] for i in range(n)]


definite = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                       min_size=max(n, 1), max_size=8)).map(_gram_plus_identity)


@settings(max_examples=80, deadline=None)
@given(definite)
def test_definite_det_matches_sympy(M):
    det = definite_det(M)
    assert det == row_swap_det(M) == sympy.Matrix(len(M), len(M), sum(M, [])).det()


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices, sparse))
def test_rank_matches_sympy(M):
    assert rank(M) == sympy.Matrix(M).rank()


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, sparse))
def test_pivot_columns_match_sympy_rref(M):
    assert tuple(pivot_columns(M)) == sympy.Matrix(M).rref()[1]


def _sympy_invariant_factors(M):
    return [int(d) for d in invariant_factors(sympy.Matrix(M), domain=sympy.ZZ) if d != 0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices, sparse, kernel_matrices.filter(lambda M: M and M[0])))
def test_smith_normal_form_matches_sympy(M):
    assert smith_normal_form(M) == _sympy_invariant_factors(M)


@settings(max_examples=40, deadline=None)
@given(st.one_of(complexes_7, st.just(rp2_six_vertices())), st.sampled_from((1, 2)))
def test_column_kernel_on_boundaries_matches_sympy(cx, k):
    bd = cx.boundary_matrix(k)
    reduction = ColumnReduction(bd.supports)
    M = sympy.Matrix(dense(bd))
    assert reduction.pivots == M.rref()[1]
    assert reduction.invariant_factors() == _sympy_invariant_factors(M)


@settings(max_examples=80, deadline=None)
@given(square)
def test_char_poly_matches_sympy(M):
    y = sympy.Symbol("y")
    expected = [int(c) for c in reversed(sympy.Matrix(M).charpoly(y).all_coeffs())]
    assert char_poly(M) == expected
