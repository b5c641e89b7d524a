"""The dense Fraction eliminator that ``rht.linalg`` used before its sparse,
fraction-free kernel, kept only as a test oracle.

Rows are dense lists of ``Fraction``; pivots are taken column by column,
left to right, first available row within a column.  Slow, but short
enough to check by eye.
"""

from fractions import Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def row_echelon(rowlists, reduce=True):
    """(rows, pivot_cols); with reduce=True the rows are the RREF."""
    rows = [list(map(Fraction, r)) for r in rowlists]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if reduce and piv != 1:
            rows[r] = [x / piv for x in rows[r]]
            piv = QONE
        lo = 0 if reduce else r + 1
        for i in range(lo, len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ratio = f / piv
                ri, rr = rows[i], rows[r]
                for k in range(c, ncols):
                    if rr[k]:
                        ri[k] -= ratio * rr[k]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m):
    return len(row_echelon(m.to_rows(), reduce=False)[1])


def kernel_basis(m):
    """RREF basis of the kernel of a RatMatrix, as dense Fraction rows."""
    if m.cols == 0:
        return []
    red, pivots = row_echelon(m.to_rows(), reduce=True)
    pivset = set(pivots)
    vecs = []
    for f in (c for c in range(m.cols) if c not in pivset):
        v = [QZERO] * m.cols
        v[f] = QONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        vecs.append(v)
    if not vecs:
        return []
    canon, _ = row_echelon(vecs, reduce=True)
    return canon[:len(vecs)]


def solve(m, b):
    """x with m.x = b and free variables 0, or None if inconsistent."""
    aug = m.to_rows()
    for i, r in enumerate(aug):
        r.append(Fraction(b[i]))
    red, pivots = row_echelon(aug, reduce=True)
    if m.cols in pivots:
        return None
    x = [QZERO] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m.cols]
    return x
