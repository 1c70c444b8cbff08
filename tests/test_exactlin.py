"""Exact rational matrix layer: frozen oracle values and algebraic laws.

Expected rref/nullspace values were computed once with an independent
implementation (sympy.Matrix.rref / nullspace) and frozen here; the library
itself never depends on sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionaudit.exactlin import (
    Matrix, kernel_basis, kron, matmul, parse_rat, rat_str, solve_right,
)
from fusionaudit.errors import ShapeError

F = Fraction


def test_rat_str():
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(-3, 4)) == "-3/4"
    assert rat_str(F(5)) == "5"
    assert rat_str(F(0)) == "0"
    for s in ["1/2", "-3/4", "5", "0", "-7"]:
        assert rat_str(parse_rat(s)) == s
    assert parse_rat(3) == F(3)
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_constructors_and_eq():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m[1, 0] == F(3)
    assert m == Matrix(2, 2, [1, 2, 3, 4])
    assert Matrix.identity(2) == Matrix.from_rows([[1, 0], [0, 1]])
    assert Matrix.zeros(2, 3).is_zero()
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])


def test_empty_matrices_are_first_class():
    a = Matrix.zeros(0, 3)
    b = Matrix.zeros(3, 0)
    assert (a @ b).rows == 0 and (a @ b).cols == 0
    assert (b @ a) == Matrix.zeros(3, 3)
    assert Matrix.identity(0).rows == 0
    r, piv = a.rref()
    assert piv == () and r == a
    assert kernel_basis(a) == Matrix.identity(3)
    assert kernel_basis(b) == Matrix.zeros(0, 0)
    assert a.transpose() == b
    assert a.kron(b).rows == 0


def test_rref_frozen_oracle():
    # sympy rref of [[2,4,1,3],[1,2,0,1],[3,6,2,5]] -> pivots (0,2)
    m = Matrix.from_rows([[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 2, 5]])
    r, piv = m.rref()
    assert piv == (0, 2)
    assert r == Matrix.from_rows([[1, 2, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]])
    m2 = Matrix.from_rows([[F(1, 2), 2], [3, F(-4, 3)], [0, 5]])
    r2, piv2 = m2.rref()
    assert piv2 == (0, 1)
    assert r2 == Matrix.from_rows([[1, 0], [0, 1], [0, 0]])


def test_kernel_basis_examples():
    # one relation: x + y = 0
    k = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert k == Matrix.from_rows([[-1], [1]])
    # zero 2x3 map: kernel is everything
    assert kernel_basis(Matrix.zeros(2, 3)) == Matrix.identity(3)
    # sympy nullspace of [[1,2,3],[2,4,6]]: spans (-2,1,0),(-3,0,1)
    k2 = kernel_basis(Matrix.from_rows([[1, 2, 3], [2, 4, 6]]))
    assert k2 == Matrix.from_rows([[-2, -3], [1, 0], [0, 1]])


def test_solve_right_examples():
    a = Matrix.from_rows([[1, 0], [0, 0]])
    b = Matrix.from_rows([[1], [0]])
    assert solve_right(a, b) == Matrix.from_rows([[1], [0]])
    # inconsistent: second row demands 0 == 1
    assert solve_right(a, Matrix.from_rows([[0], [1]])) is None
    # underdetermined: free variable pinned to 0
    a2 = Matrix.from_rows([[1, 1]])
    x = solve_right(a2, Matrix.from_rows([[5]]))
    assert x == Matrix.from_rows([[5], [0]])
    assert a2 @ x == Matrix.from_rows([[5]])


def test_kron_left_factor_major():
    a = Matrix.from_rows([[1, 2]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    # entry ((i,k),(j,l)) = a[i,j] b[k,l]; rows indexed (i,k), i major
    assert kron(a, b) == Matrix.from_rows([[0, 1, 0, 2], [1, 0, 2, 0]])
    assert kron(b, a) == Matrix.from_rows([[0, 0, 1, 2], [1, 2, 0, 0]])
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)
dim = st.integers(min_value=0, max_value=4)


@st.composite
def matrix(draw, rows=None, cols=None):
    r = draw(dim) if rows is None else rows
    c = draw(dim) if cols is None else cols
    return Matrix(r, c, [draw(rat) for _ in range(r * c)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matmul_associative(data):
    n, m, p, q = (data.draw(dim) for _ in range(4))
    a = data.draw(matrix(n, m))
    b = data.draw(matrix(m, p))
    c = data.draw(matrix(p, q))
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_mixed_product(data):
    n, m, p = (data.draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    q, r = (data.draw(st.integers(min_value=0, max_value=3)) for _ in range(2))
    a = data.draw(matrix(n, m))
    b = data.draw(matrix(q, r))
    c = data.draw(matrix(m, p))
    d = data.draw(matrix(r, q))
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


@settings(max_examples=60, deadline=None)
@given(matrix())
def test_rref_canonical(m):
    r, piv = m.rref()
    r2, piv2 = r.rref()
    assert r == r2 and piv == piv2
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        for k in range(m.rows):
            if k != i:
                assert r[k, c] == 0


@settings(max_examples=60, deadline=None)
@given(matrix())
def test_kernel_annihilates(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.rank() == k.cols  # columns independent
    assert m.rank() + k.cols == m.cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_right_solves(data):
    n, m, p = (data.draw(dim) for _ in range(3))
    a = data.draw(matrix(n, m))
    x0 = data.draw(matrix(m, p))
    b = a @ x0
    x = solve_right(a, b)
    assert x is not None
    assert a @ x == b
