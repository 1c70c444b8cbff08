"""Exact linear algebra over the rationals.

Scalars are fractions.Fraction: always normalized, positive denominator,
exact arithmetic with no tolerance anywhere.  Matrix is an immutable
matrix stored as sparse rows: row i is a tuple of (col, Fraction) pairs
holding its non-zero entries only, columns ascending.  That is the only
storage; the dense forms (entries, row(i), tolist(), m[i, j]) are views
derived from it for serialization and tests.  The four heavy kernels
(matmul, kron, rref, rank) work on sparse rows and live in _kernels, which
Matrix looks up at call time.  rank is separate from rref: it eliminates
forward only, over integers, since a rank needs no reduced form.

Canonical choices (everything downstream depends on these being fixed):

* rref picks pivots left to right; the reduced form is unique.
* rank equals the number of rref pivots; it does not depend on a pivot
  choice, so its own kernel needs none.
* kernel_basis returns one column per free column, ascending, with 1 in the
  free slot and the pivot rows filled from rref.
* solve_right returns the particular solution with all free variables 0.
* kron is left-factor major: entry ((i,k),(j,l)) = a[i,j] * b[k,l].
"""

import re
from fractions import Fraction

from ..errors import ShapeError
from . import _kernels

BACKEND = "pure"

__all__ = [
    "Matrix", "BACKEND", "kron", "kernel_basis", "solve_right",
    "rat_str", "parse_rat",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_set = object.__setattr__
_identities = {}  # n -> the one Matrix.identity(n)


def rat_str(x):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rat(s):
    """Inverse of rat_str.  Accepts an int that is not a bool, or a string
    'p' or 'p/q' of ASCII decimal digits with an optional leading '-'.
    Anything else (a bool, a float, a decimal point, an exponent, a sign
    '+', whitespace) is a ValueError, and so is a zero denominator: an
    exponent string such as '1e2000000' would otherwise expand to a huge
    integer."""
    if type(s) is int:
        return Fraction(s)
    if not (isinstance(s, str) and _RAT.fullmatch(s)):
        raise ValueError("not an integer or 'p/q' rational: %r" % (s,))
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator in %r" % (s,)) from exc


class Matrix:
    """Immutable rows x cols matrix of Fractions, stored as sparse rows.

    sparse[i] is row i as a tuple of (col, Fraction) pairs: non-zero
    values only, columns ascending.  Equality and hashing compare that
    form, which is canonical.  Matrix(rows, cols, entries) takes dense
    row-major entries and coerces each to Fraction; internal producers
    build the rows themselves and go through Matrix._of, which checks
    nothing."""

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimension %r x %r" % (rows, cols))
        entries = [x if isinstance(x, Fraction) else Fraction(x)
                   for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError("expected %d entries for %d x %d, got %d"
                             % (rows * cols, rows, cols, len(entries)))
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "sparse", tuple(
            tuple([(j, x) for j, x in
                   enumerate(entries[i * cols:(i + 1) * cols]) if x])
            for i in range(rows)))

    @classmethod
    def _of(cls, rows, cols, sparse):
        """Matrix with the given sparse rows, a tuple of tuples that must
        already hold non-zero Fractions only, columns ascending.

        Nothing is checked here, and a row that breaks the form makes ==
        and hash silently wrong.  The producers outside exactlin (gvec,
        functors) are held to the form by differential tests against dense
        references: test_sparse_tensor_mor_matches_dense_reference and
        test_dual_morphism_matches_dense_reference in tests/test_gvec.py."""
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "sparse", sparse)
        return m

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
        return cls._of(rows, cols, ((),) * rows)

    @classmethod
    def identity(cls, n):
        """The n x n identity.  There is one shared, immutable object per n,
        and only that object counts as the identity for the fast paths
        (is_interned_identity): @ returns the other factor, and gvec's
        tensor_mor re-indexes instead of multiplying.  An equal matrix
        built another way, say by from_rows, is just as correct and takes
        the general path."""
        m = _identities.get(n)
        if m is None:
            m = _identities[n] = cls._of(
                n, n, tuple(((i, _ONE),) for i in range(n)))
        return m

    def is_interned_identity(self):
        """Whether this is the object Matrix.identity(self.rows), in O(1).
        A hand-built identity answers False."""
        return _identities.get(self.rows) is self

    # dense views, derived from the sparse rows

    @property
    def entries(self):
        """All rows * cols entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        for c, x in self.sparse[i]:
            if c == j:
                return x
        return _ZERO

    def row(self, i):
        out = [_ZERO] * self.cols
        for j, x in self.sparse[i]:
            out[j] = x
        return tuple(out)

    def tolist(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.rows, self.cols, self.sparse))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return "Matrix(%d, %d, [])" % (self.rows, self.cols)
        return "Matrix.from_rows(%r)" % [
            [rat_str(x) for x in self.row(i)] for i in range(self.rows)]

    def is_zero(self):
        return not any(self.sparse)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add %dx%d to %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return Matrix._of(self.rows, self.cols, tuple(
            _kernels.axpy(a, 1, b)
            for a, b in zip(self.sparse, other.sparse)))

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols, tuple(
            tuple([(j, c * x) for j, x in r]) for r in self.sparse))

    def __matmul__(self, other):
        """Matrix product.  After the shape check, a factor that is the
        interned Matrix.identity(n) returns the other factor itself, with
        no kernel call."""
        if self.cols != other.rows:
            raise ShapeError("matmul %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        ident = _identities.get(other.rows)
        if ident is self:
            return other
        if ident is other:
            return self
        return Matrix._of(self.rows, other.cols,
                          _kernels.matmul(self.sparse, other.sparse))

    def kron(self, other):
        return Matrix._of(self.rows * other.rows, self.cols * other.cols,
                          _kernels.kron(self.sparse, other.sparse,
                                        other.cols))

    def transpose(self):
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.sparse):
            for j, x in r:
                out[j].append((i, x))
        return Matrix._of(self.cols, self.rows, tuple(map(tuple, out)))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeError("hstack row mismatch")
        shift = self.cols
        return Matrix._of(self.rows, self.cols + other.cols, tuple(
            a + tuple([(j + shift, x) for j, x in b]) if b else a
            for a, b in zip(self.sparse, other.sparse)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ShapeError("vstack col mismatch")
        return Matrix._of(self.rows + other.rows, self.cols,
                          self.sparse + other.sparse)

    def rref(self):
        """(reduced row echelon form, tuple of pivot columns)."""
        rows, pivots = _kernels.rref(self.sparse)
        return Matrix._of(self.rows, self.cols, rows), tuple(pivots)

    def rank(self):
        return _kernels.rank(self.sparse)

    def columns(self, idx):
        """Submatrix of the given columns, in the given order."""
        at = {}
        for k, j in enumerate(idx):
            if not 0 <= j < self.cols:
                raise IndexError(j)
            at.setdefault(j, []).append(k)
        out = []
        for r in self.sparse:
            picked = [(k, x) for j, x in r for k in at.get(j, ())]
            picked.sort()
            out.append(tuple(picked))
        return Matrix._of(self.rows, len(idx), tuple(out))


def kron(a, b):
    return a.kron(b)


def kernel_basis(m):
    """Matrix whose columns span ker(m); canonical: one column per free
    column of the rref, ascending.  Row i of the rref holds its pivot and
    otherwise only free columns, so pivot row pc of the basis is minus the
    free part of that rref row."""
    r, pivots = m.rref()
    pivset = set(pivots)
    free = {}
    for c in range(m.cols):
        if c not in pivset:
            free[c] = len(free)
    out = [()] * m.cols
    for c, k in free.items():
        out[c] = ((k, _ONE),)
    for i, pc in enumerate(pivots):
        out[pc] = tuple([(free[j], -x) for j, x in r.sparse[i] if j != pc])
    return Matrix._of(m.cols, len(free), tuple(out))


def solve_right(a, b):
    """X with a @ X == b, free variables set to 0; None if inconsistent."""
    if a.rows != b.rows:
        raise ShapeError("solve_right row mismatch")
    aug, pivots = a.hstack(b).rref()
    n = a.cols
    if any(p >= n for p in pivots):
        return None
    out = [()] * n
    for i, pc in enumerate(pivots):
        out[pc] = tuple([(j - n, x) for j, x in aug.sparse[i] if j >= n])
    return Matrix._of(n, b.cols, tuple(out))
