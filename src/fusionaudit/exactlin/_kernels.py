"""Kernels for exact rational matrices.

The four kernels (matmul, kron, rref, rank) and the row helper axpy operate
on sparse rows, the storage of Matrix: a matrix is a sequence of rows, and
a row is a tuple of (col, Fraction) pairs holding the non-zero entries
only, columns ascending.  Every kernel that returns a matrix returns rows
of that form (no zero stored, columns ascending) as a tuple of tuples; the
Matrix wrapper owns shape checking.

rref uses the leftmost-pivot convention: scan columns left to right, take
the first row with a nonzero entry in the current column, swap it up,
normalize to 1 and clear the column.  The result is the unique reduced row
echelon form, so every value derived from it (kernel bases, particular
solutions) is canonical.

rank is a kernel of its own because a rank needs no reduced form: it
eliminates forward only, over integers.  Most ranked blocks, chiefly the
stored blocks of f (x) id_A in the sampled checks, take no arithmetic at
all, since their rows lead in distinct columns or are single entries:
1,848 of the 1,968 ranks in audits of the six fixtures at two seeds.
rref stays the kernel of solve_right, kernel_basis and image
factorisations, which read the reduced form.
"""

from bisect import bisect_left
from math import gcd, lcm


def matmul(a, b):
    """Rows of a times b: row i of the product is the sum over the entries
    (k, x) of a[i] of x times row k of b.  A row of a that is a single 1
    reuses the row of b it selects, and a factor equal to 1 is not
    multiplied.  Most products that reach this kernel have such a factor
    (inclusions, projections, lax maps); a factor that is the interned
    identity never reaches it, since Matrix.__matmul__ returns the other
    factor."""
    out = []
    for row in a:
        if not row:
            out.append(())
            continue
        if len(row) == 1:
            k, x = row[0]
            brow = b[k]
            if x == 1:
                out.append(brow)
            else:
                out.append(tuple([(j, x if y == 1 else x * y)
                                  for j, y in brow]))
            continue
        acc = {}
        for k, x in row:
            one = x == 1
            for j, y in b[k]:
                p = y if one else (x if y == 1 else x * y)
                if j in acc:
                    acc[j] += p
                else:
                    acc[j] = p
        out.append(tuple([e for e in sorted(acc.items()) if e[1]]))
    return tuple(out)


def kron(a, b, q):
    """Kronecker product, left factor major: entry ((i,k),(j,l)) =
    a[i,j]*b[k,l], where b has q columns."""
    out = []
    for arow in a:
        for brow in b:
            out.append(tuple([(j * q + l, x * y)
                              for j, x in arow for l, y in brow]))
    return tuple(out)


def axpy(row, f, prow):
    """row + f * prow, both sparse rows; cancelled entries are dropped."""
    acc = dict(row)
    for j, y in prow:
        v = acc.get(j)
        if v is None:
            acc[j] = f * y
        else:
            v += f * y
            if v:
                acc[j] = v
            else:
                del acc[j]
    return tuple(sorted(acc.items()))


def rref(a):
    """Reduced row echelon form; returns (rows, pivot column list).

    Below the current row every entry left of the current column is zero,
    so each such row's first stored column is its leading one, and the
    next pivot column is the smallest of them."""
    rows = list(a)
    n = len(rows)
    pivots = []
    for r in range(n):
        c = pr = -1
        for i in range(r, n):
            row = rows[i]
            if row and (pr < 0 or row[0][0] < c):
                c, pr = row[0][0], i
        if pr < 0:
            break
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        lead = prow[0][1]
        if lead != 1:
            inv = 1 / lead
            prow = rows[r] = tuple([(j, v * inv) for j, v in prow])
        for i in range(n):
            if i == r:
                continue
            row = rows[i]
            if not row:
                continue
            if i > r:
                if row[0][0] != c:
                    continue
                f = row[0][1]
            else:
                k = bisect_left(row, (c,))
                if k == len(row) or row[k][0] != c:
                    continue
                f = row[k][1]
            rows[i] = axpy(row, -f, prow)
        pivots.append(c)
    return tuple(rows), pivots


def _integral(row):
    """row scaled to integer entries with no common factor."""
    d = lcm(*[x.denominator for _, x in row])
    ints = [(j, x.numerator * (d // x.denominator)) for j, x in row]
    g = gcd(*[x for _, x in ints])
    if g != 1:
        ints = [(j, x // g) for j, x in ints]
    return tuple(ints)


def rank(a):
    """Rank by forward elimination, with no back-substitution.

    The reduced rows are kept in a dict keyed by their leading column, so
    a pivot is found by one lookup, not by a rescan of every row.  Each
    input row is reduced against the row that leads where it leads until
    its leading column is free (it joins the dict) or it vanishes.  A
    rank ignores the scale of each row, so a single-entry row, on either
    side, cancels the other's leading entry by leaving the other's tail.
    Otherwise both rows are scaled to integers (times the lcm of their
    denominators, over the gcd of their entries), the leading entry is
    eliminated by cross-multiplication, and the result is divided by the
    gcd of its entries, which keeps the integers small."""
    lead = {}
    for row in a:
        while row:
            c = row[0][0]
            prow = lead.get(c)
            if prow is None:
                lead[c] = row
                break
            if len(row) == 1:
                row = prow[1:]
                continue
            if len(prow) == 1:
                row = row[1:]
                continue
            if type(prow[0][1]) is not int:
                prow = lead[c] = _integral(prow)
            if type(row[0][1]) is not int:
                row = _integral(row)
            x, y = prow[0][1], row[0][1]
            g = gcd(x, y)
            if g != 1:
                x //= g
                y //= g
            acc = {j: x * v for j, v in row[1:]}
            for j, v in prow[1:]:
                w = acc.get(j, 0) - y * v
                if w:
                    acc[j] = w
                else:
                    del acc[j]
            g = gcd(*acc.values())
            row = tuple(sorted(acc.items() if g == 1 else
                               [(j, v // g) for j, v in acc.items()]))
    return len(lead)
