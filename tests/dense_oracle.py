"""The dense Fraction eliminator that ``rht.linalg`` used before its sparse,
fraction-free kernel, kept only as a test oracle.

Rows are dense lists of ``Fraction``; pivots are taken column by column,
left to right, first available row within a column.  Slow, but short
enough to check by eye.  A matrix here is a list of dense rows;
``columns`` transposes it into the sparse columns that ``rht`` takes, and
``sparse`` turns one dense vector into the sparse shape ``rht`` takes and
returns.

``two_span_kernel_basis`` and ``tagged_homology`` are the sparse kernel and
cohomology that ``rht.linalg`` used before it read both off one
elimination, kept as references for ``kernel_basis`` and ``homology``: the
kernel reduced again in a second span, and representatives chosen by
residue tests in a span of the boundaries and tagged cocycles.
"""

from fractions import Fraction

from rht.linalg import EchelonSpan

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


def rank(rows):
    return len(row_echelon(rows, reduce=False)[1])


def kernel_basis(rows, ncols):
    """RREF basis of the kernel of the dense rows (ncols columns)."""
    if ncols == 0:
        return []
    red, pivots = row_echelon(rows, reduce=True)
    pivset = set(pivots)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivset):
        v = [QZERO] * ncols
        v[f] = QONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        vecs.append(v)
    if not vecs:
        return []
    canon, _ = row_echelon(vecs, reduce=True)
    return canon[:len(vecs)]


def solve(rows, b, ncols):
    """x with rows.x = b and free variables 0, or None if inconsistent."""
    aug = [list(r) + [Fraction(b[i])] for i, r in enumerate(rows)]
    red, pivots = row_echelon(aug, reduce=True)
    if ncols in pivots:
        return None
    x = [QZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def sparse(vec):
    """The sparse column {index: value} of a dense vector, in ascending
    index."""
    return {i: x for i, x in enumerate(vec) if x}


def columns(rows, ncols):
    """The sparse columns {row: value} of dense rows, as rht takes them."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]}
            for j in range(ncols)]


def matvec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), QZERO) for r in rows]


def two_span_kernel_basis(columns):
    """The RREF kernel of the sparse columns, as rht.linalg.kernel_basis
    gives it: the matrix is eliminated row by row, each free column f gives
    e_f - sum over the pivots p of r_p[f] e_p, and these vectors are reduced
    again in a second span."""
    ncols = len(columns)
    by_row = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            by_row.setdefault(i, {})[j] = v
    span = EchelonSpan(ncols)
    for i in sorted(by_row):
        span.add(by_row[i])
    pivots = span.pivots
    ker = EchelonSpan(ncols)
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: QONE}
        for p, r in zip(pivots, span.rows):
            if f in r:
                v[p] = -r[f]
        ker.add(v)
    return ker.rows


def tagged_homology(d_out, d_in, dim):
    """(representatives, class_coordinates) of ker d_out / im d_in, as
    rht.linalg.homology gives them, on a space of dimension dim.

    The representatives are the kernel vectors whose residue modulo the
    boundaries and the representatives before them is nonzero.  Column
    dim + k tags the k-th representative, added as v + e_{dim+k}, so minus
    the tag entries of a cocycle's residue are its class coordinates."""
    cocycles = two_span_kernel_basis(d_out)
    span = EchelonSpan(dim + len(cocycles))
    for col in d_in:
        if col:
            span.add(col)
    reps = []
    for v in cocycles:
        if min(span.residue(v), default=dim) < dim:
            span.add({**v, dim + len(reps): QONE})
            reps.append(v)

    def class_coordinates(x):
        res = span.residue(x)
        if min(res, default=dim) < dim:
            raise ValueError("not a cocycle")
        return {k: -res[dim + k] for k in range(len(reps)) if dim + k in res}

    return reps, class_coordinates
