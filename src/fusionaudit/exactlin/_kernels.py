"""Kernels for exact rational matrices.

The three kernels (matmul, kron, rref) and the row helper axpy operate on
sparse rows, the storage of Matrix: a matrix is a sequence of rows, and a
row is a tuple of (col, Fraction) pairs holding the non-zero entries only,
columns ascending.  Every kernel returns rows of that form (no zero stored,
columns ascending) as a tuple of tuples; the Matrix wrapper owns shape
checking.

rref uses the leftmost-pivot convention: scan columns left to right, take
the first row with a nonzero entry in the current column, swap it up,
normalize to 1 and clear the column.  The result is the unique reduced row
echelon form, so every value derived from it (kernel bases, particular
solutions, ranks) is canonical.
"""

from bisect import bisect_left


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
