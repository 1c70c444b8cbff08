"""Exact linear algebra over the rationals.

Scalars are fractions.Fraction: always normalized, positive denominator,
exact arithmetic with no tolerance anywhere.  Matrix is an immutable
row-major wrapper; the three heavy kernels (matmul, kron, rref) live in
_kernels, which Matrix looks up at call time.

Canonical choices (everything downstream depends on these being fixed):

* rref picks pivots left to right; the reduced form is unique.
* kernel_basis returns one column per free column, ascending, with 1 in the
  free slot and the pivot rows filled from rref.
* solve_right returns the particular solution with all free variables 0.
* kron is left-factor major: entry ((i,k),(j,l)) = a[i,j] * b[k,l].
"""

from fractions import Fraction

from ..errors import ShapeError
from . import _kernels

BACKEND = "pure"

__all__ = [
    "Matrix", "BACKEND", "matmul", "kron", "kernel_basis", "solve_right",
    "rat_str", "parse_rat",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat_str(x):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rat(s):
    """Inverse of rat_str; accepts ints as well.  A zero denominator is a
    ValueError, like any other malformed string."""
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator in %r" % (s,)) from exc


class Matrix:
    """Immutable rows x cols matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimension %r x %r" % (rows, cols))
        entries = tuple(x if isinstance(x, Fraction) else Fraction(x)
                        for x in entries)
        if len(entries) != rows * cols:
            raise ShapeError("expected %d entries for %d x %d, got %d"
                             % (rows * cols, rows, cols, len(entries)))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != m:
                raise ShapeError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n):
        e = [_ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = _ONE
        return cls(n, n, e)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def tolist(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return "Matrix(%d, %d, [])" % (self.rows, self.cols)
        return "Matrix.from_rows(%r)" % [
            [rat_str(x) for x in self.row(i)] for i in range(self.rows)]

    def is_zero(self):
        return not any(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add %dx%d to %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return Matrix(self.rows, self.cols,
                      [x + y for x, y in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("sub %dx%d from %dx%d"
                             % (other.rows, other.cols, self.rows, self.cols))
        return Matrix(self.rows, self.cols,
                      [x - y for x, y in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-x for x in self.entries])

    def scale(self, c):
        c = Fraction(c)
        return Matrix(self.rows, self.cols, [c * x for x in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError("matmul %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        data = _kernels.matmul(self.rows, self.cols, list(self.entries),
                               other.cols, list(other.entries))
        return Matrix(self.rows, other.cols, data)

    def kron(self, other):
        data = _kernels.kron(self.rows, self.cols, list(self.entries),
                             other.rows, other.cols, list(other.entries))
        return Matrix(self.rows * other.rows, self.cols * other.cols, data)

    def transpose(self):
        e = [_ZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                e[j * self.rows + i] = self.entries[i * self.cols + j]
        return Matrix(self.cols, self.rows, e)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Matrix(self.rows, self.cols + other.cols, out)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ShapeError("vstack col mismatch")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    def rref(self):
        """(reduced row echelon form, tuple of pivot columns)."""
        data, pivots = _kernels.rref(self.rows, self.cols, list(self.entries))
        return Matrix(self.rows, self.cols, data), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def columns(self, idx):
        """Submatrix of the given columns, in the given order."""
        out = []
        for i in range(self.rows):
            r = self.row(i)
            out.extend(r[j] for j in idx)
        return Matrix(self.rows, len(idx), out)


def matmul(a, b):
    return a @ b


def kron(a, b):
    return a.kron(b)


def kernel_basis(m):
    """Matrix whose columns span ker(m); canonical: one column per free
    column of the rref, ascending."""
    r, pivots = m.rref()
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    out = Matrix.zeros(m.cols, len(free))
    e = [_ZERO] * (m.cols * len(free))
    for k, fc in enumerate(free):
        e[fc * len(free) + k] = _ONE
        for i, pc in enumerate(pivots):
            e[pc * len(free) + k] = -r[i, fc]
    return Matrix(m.cols, len(free), e)


def solve_right(a, b):
    """X with a @ X == b, free variables set to 0; None if inconsistent."""
    if a.rows != b.rows:
        raise ShapeError("solve_right row mismatch")
    aug, pivots = a.hstack(b).rref()
    if any(p >= a.cols for p in pivots):
        return None
    e = [_ZERO] * (a.cols * b.cols)
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            e[pc * b.cols + j] = aug[i, a.cols + j]
    return Matrix(a.cols, b.cols, e)
