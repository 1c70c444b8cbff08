"""Kernels for exact rational matrices.

All three kernels operate on flat row-major lists of Fraction and return
plain lists; the Matrix wrapper owns shape checking.

rref uses the leftmost-pivot convention: scan columns left to right, take
the first row with a nonzero entry in the current column, swap it up,
normalize to 1 and clear the column.  The result is the unique reduced row
echelon form, so every value derived from it (kernel bases, particular
solutions, ranks) is canonical.
"""

from fractions import Fraction

ZERO = Fraction(0)


def matmul(n, m, a, p, b):
    """(n x m) times (m x p), flat row-major lists."""
    out = [ZERO] * (n * p)
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


def kron(n, m, a, p, q, b):
    """Kronecker product, left factor major: entry ((i,k),(j,l)) = a[i,j]*b[k,l]."""
    rows, cols = n * p, m * q
    out = [ZERO] * (rows * cols)
    for i in range(n):
        for j in range(m):
            x = a[i * m + j]
            if not x:
                continue
            for k in range(p):
                ro = (i * p + k) * cols + j * q
                rb = k * q
                for l in range(q):
                    y = b[rb + l]
                    if y:
                        out[ro + l] = x * y
    return out


def rref(n, m, a):
    """Reduced row echelon form; returns (flat entries, pivot column list)."""
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
