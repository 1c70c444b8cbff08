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
    Matrix, _kernels, kernel_basis, kron, parse_rat, rat_str, solve_right,
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
    assert parse_rat(-12) == F(-12)
    assert parse_rat("4/6") == F(2, 3) and parse_rat("-0") == F(0)
    with pytest.raises(ValueError):
        parse_rat("1/0")


@pytest.mark.parametrize("bad", [
    True, False, 1.0, 2.5, None, [1], F(1, 2),
    "1e2000000", "1E5", "1.5", ".5", "+1", " 1", "1 ", "1\n", "1/-2",
    "-1/2/3", "", "-", "1/", "/2", "inf", "nan", "0x10", "1_000",
    "\u0661",  # ARABIC-INDIC DIGIT ONE, which int() would accept
])
def test_parse_rat_takes_rat_str_form_only(bad):
    """Only a JSON integer that is not a bool, or 'p' / 'p/q' in ASCII
    digits: an exponent string would otherwise expand to a huge integer."""
    with pytest.raises(ValueError):
        parse_rat(bad)


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
    assert m.rank() == len(piv)
    for i, c in enumerate(piv):
        assert r[i, c] == 1
        for k in range(m.rows):
            if k != i:
                assert r[k, c] == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_of_low_rank_products(data):
    """A product through an inner dimension k has rank at most k, so its
    rows are mostly dependent: the rank kernel's eliminations run to the
    end, and their count of leading columns equals rref's of pivots."""
    n, k, m = data.draw(dim), data.draw(st.integers(0, 2)), data.draw(dim)
    p = data.draw(matrix(n, k)) @ data.draw(matrix(k, m))
    assert p.rank() == len(p.rref()[1]) <= k


def _rank_cases():
    big = F(10**40 + 7, 3**50)
    yield Matrix.zeros(0, 4), 0
    yield Matrix.zeros(4, 0), 0
    yield Matrix.zeros(0, 0), 0
    yield Matrix.zeros(3, 5), 0
    yield Matrix.from_rows([[0, 0], [1, 2], [0, 0]]), 1
    # duplicate rows, and a row that is a sum of two others
    yield Matrix.from_rows([[1, 2, 3], [1, 2, 3], [1, 2, 3]]), 1
    yield Matrix.from_rows([[1, 0, 2], [0, 1, 3], [1, 1, 5]]), 2
    yield Matrix.from_rows([[0, 1, 3], [1, 0, 2], [2, 3, 13]]), 2
    # rows whose eliminations cancel all but the last column
    yield Matrix.from_rows([[1, 1, 1], [1, 1, 2], [2, 2, 3]]), 2
    # single-entry rows on both sides of an elimination
    yield Matrix.from_rows([[5, 0], [3, 7], [0, F(1, 2)]]), 2
    yield Matrix.from_rows([[3, 7], [5, 0], [F(2, 3), 0]]), 2
    # large numerators and denominators, dependent and independent
    yield Matrix.from_rows([[big, F(1, 3**60)], [2 * big, F(2, 3**60)]]), 1
    yield Matrix.from_rows([[big, F(1, 3**60)],
                            [2 * big, F(2, 3**60) + F(1, 10**30)]]), 2
    yield Matrix.from_rows([[F(1, 7**30), F(-1, 7**30), 1],
                            [F(2, 11**25), F(-2, 11**25), 3],
                            [1, -1, F(5, 13**20)]]), 2
    yield Matrix.identity(5), 5


@pytest.mark.parametrize("m,expected", list(_rank_cases()))
def test_rank_cases(m, expected):
    assert m.rank() == len(m.rref()[1]) == expected
    assert m.transpose().rank() == expected


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


# ---------------------------------------------------------------------------
# Differential test of the sparse-row storage.  The oracle is the dense
# implementation Matrix had before it stored sparse rows: flat row-major
# lists of Fraction, multiplied and reduced entry by entry.

def _dense_matmul(n, m, a, p, b):
    out = [F(0)] * (n * p)
    for i in range(n):
        base = i * m
        for k in range(m):
            x = a[base + k]
            if not x:
                continue
            rowb = k * p
            rowo = i * p
            for j in range(p):
                y = b[rowb + j]
                if y:
                    out[rowo + j] += x * y
    return out


def _dense_rref(n, m, a):
    rows = [list(a[i * m:(i + 1) * m]) for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        pr = -1
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            row = rows[r]
            for j in range(c, m):
                if row[j]:
                    row[j] *= inv
        for i in range(n):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri, rr = rows[i], rows[r]
                for j in range(c, m):
                    if rr[j]:
                        ri[j] -= f * rr[j]
        pivots.append(c)
        r += 1
    return [x for row in rows for x in row], pivots


def _dense_transpose(rows, cols, e):
    out = [F(0)] * (rows * cols)
    for i in range(rows):
        for j in range(cols):
            out[j * rows + i] = e[i * cols + j]
    return out


def _dense_columns(rows, cols, e, idx):
    return [e[i * cols + j] for i in range(rows) for j in idx]


def _dense_hstack(rows, acols, a, bcols, b):
    out = []
    for i in range(rows):
        out.extend(a[i * acols:(i + 1) * acols])
        out.extend(b[i * bcols:(i + 1) * bcols])
    return out


def _dense_kernel_basis(rows, cols, e):
    r, pivots = _dense_rref(rows, cols, e)
    free = [c for c in range(cols) if c not in set(pivots)]
    out = [F(0)] * (cols * len(free))
    for k, fc in enumerate(free):
        out[fc * len(free) + k] = F(1)
        for i, pc in enumerate(pivots):
            out[pc * len(free) + k] = -r[i * cols + fc]
    return out


def _dense_solve_right(rows, acols, a, bcols, b):
    width = acols + bcols
    aug, pivots = _dense_rref(rows, width,
                              _dense_hstack(rows, acols, a, bcols, b))
    if any(p >= acols for p in pivots):
        return None
    out = [F(0)] * (acols * bcols)
    for i, pc in enumerate(pivots):
        for j in range(bcols):
            out[pc * bcols + j] = aug[i * width + acols + j]
    return out


def _assert_canonical(m):
    """The storage invariant: one tuple per row, non-zero Fractions only,
    columns strictly ascending inside 0..cols-1; the derived views agree
    with it."""
    e = m.entries
    assert isinstance(m.sparse, tuple) and len(m.sparse) == m.rows
    for i, row in enumerate(m.sparse):
        assert isinstance(row, tuple)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < m.cols for j in cols)
        assert all(isinstance(x, Fraction) and x for _, x in row)
        assert m.row(i) == e[i * m.cols:(i + 1) * m.cols]
        assert [m[i, j] for j in range(m.cols)] == list(m.row(i))
    assert len(e) == m.rows * m.cols
    assert m.tolist() == [list(m.row(i)) for i in range(m.rows)]


sparse_dim = st.integers(min_value=0, max_value=5)
nonzero_rat = st.sampled_from(sorted({F(p, q) for p in range(-5, 6) if p
                                      for q in range(1, 7)}))


@st.composite
def mostly_zero_matrix(draw, rows, cols):
    """Each matrix draws its own zero weight w, and each entry is zero with
    probability w / (w + 1): dense, half-zero and mostly-zero matrices."""
    weight = draw(st.sampled_from((0, 1, 3, 8)))
    entry = st.one_of(*([st.just(F(0))] * weight + [nonzero_rat]))
    return Matrix(rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                            max_size=rows * cols)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_storage_matches_dense_oracle(data):
    n, m, p, q = (data.draw(sparse_dim) for _ in range(4))
    a = data.draw(mostly_zero_matrix(n, m))
    b = data.draw(mostly_zero_matrix(m, p))
    c = data.draw(mostly_zero_matrix(n, q))
    d = data.draw(mostly_zero_matrix(n, m))
    ea, eb, ec, ed = (list(x.entries) for x in (a, b, c, d))
    for x in (a, b, c, d):
        _assert_canonical(x)

    prod = a @ b
    _assert_canonical(prod)
    assert list(prod.entries) == _dense_matmul(n, m, ea, p, eb)

    r, piv = a.rref()
    _assert_canonical(r)
    ref, ref_piv = _dense_rref(n, m, ea)
    assert list(r.entries) == ref and list(piv) == ref_piv
    assert a.rank() == len(ref_piv)

    t = a.transpose()
    _assert_canonical(t)
    assert (t.rows, t.cols) == (m, n)
    assert list(t.entries) == _dense_transpose(n, m, ea)

    idx = data.draw(st.lists(st.integers(0, m - 1), max_size=m + 1)
                    if m else st.just([]))
    sub = a.columns(idx)
    _assert_canonical(sub)
    assert list(sub.entries) == _dense_columns(n, m, ea, idx)

    wide = a.hstack(c)
    _assert_canonical(wide)
    assert list(wide.entries) == _dense_hstack(n, m, ea, q, ec)
    tall = a.vstack(d)
    _assert_canonical(tall)
    assert list(tall.entries) == ea + ed

    for got, ref in ((a + d, [x + y for x, y in zip(ea, ed)]),
                     (a.scale(F(-2, 3)), [F(-2, 3) * x for x in ea]),
                     (a.scale(0), [F(0)] * len(ea))):
        _assert_canonical(got)
        assert list(got.entries) == ref
    assert (a + a.scale(-1)).is_zero() and a == Matrix(n, m, ea)
    assert (a == d) == (ea == ed)
    if ea == ed:
        assert hash(a) == hash(d)

    k = kernel_basis(a)
    _assert_canonical(k)
    assert list(k.entries) == _dense_kernel_basis(n, m, ea)

    x = solve_right(a, c)
    ref = _dense_solve_right(n, m, ea, q, ec)
    if ref is None:
        assert x is None
    else:
        _assert_canonical(x)
        assert list(x.entries) == ref


def test_derived_views_of_empty_shapes():
    for n, m in ((0, 0), (0, 3), (3, 0)):
        for z in (Matrix.zeros(n, m), Matrix(n, m, [])):
            _assert_canonical(z)
            assert z.entries == () and z.is_zero()
            assert z.tolist() == [[] for _ in range(n)]
    assert Matrix.identity(3).sparse == (((0, F(1)),), ((1, F(1)),),
                                         ((2, F(1)),))
    assert Matrix(2, 2, [0, 3, 0, 0]).sparse == (((1, F(3)),), ())


def test_columns_rejects_out_of_range_index():
    a = Matrix.from_rows([[1, 0], [0, 2]])
    assert a.columns([1, 1, 0]) == Matrix.from_rows([[0, 0, 1], [2, 2, 0]])
    for bad in ([2], [0, -1], [5, 0]):
        with pytest.raises(IndexError):
            a.columns(bad)
    with pytest.raises(IndexError):
        Matrix.zeros(3, 0).columns([0])


def test_identity_is_interned_and_immutable():
    for n in (0, 1, 3):
        ident = Matrix.identity(n)
        assert ident is Matrix.identity(n)
        assert ident.is_interned_identity()
        with pytest.raises(AttributeError):
            ident.sparse = ()
        with pytest.raises(AttributeError):
            ident.rows = n + 1
    built = Matrix.from_rows([[1, 0], [0, 1]])
    assert built == Matrix.identity(2) and not built.is_interned_identity()
    assert not Matrix.zeros(0, 0).is_interned_identity()


def test_matmul_by_identity_makes_no_kernel_call(monkeypatch):
    """@ returns the other factor itself when one factor is the interned
    identity; a hand-built identity still goes through the kernel, with
    the same result."""
    calls = []
    kernel = _kernels.matmul

    def counted(a, b):
        calls.append(1)
        return kernel(a, b)

    monkeypatch.setattr(_kernels, "matmul", counted)
    a = Matrix.from_rows([[1, F(1, 2), 0], [0, -3, 4]])
    assert Matrix.identity(2) @ a is a
    assert a @ Matrix.identity(3) is a
    assert Matrix.identity(0) @ Matrix.zeros(0, 2) == Matrix.zeros(0, 2)
    assert Matrix.identity(4) @ Matrix.identity(4) is Matrix.identity(4)
    assert calls == []
    with pytest.raises(ShapeError):
        Matrix.identity(3) @ a
    with pytest.raises(ShapeError):
        a @ Matrix.identity(2)
    assert calls == []
    built = Matrix.from_rows([[1, 0], [0, 1]])
    assert built @ a == a and len(calls) == 1
