"""Exact linear algebra over the rationals.

One elimination kernel, ``EchelonSpan``, sits under every routine here.
Inside it a row is a sparse ``{column: int}`` dict: an input row is scaled
once by the lcm of its denominators and kept primitive (divided by the gcd
of its entries, leading entry positive).  Rows are cleared against each
other by integer cross-multiplication, so no ``Fraction`` is built while
eliminating; ``Fraction``s appear only on output, as ``Fraction(v, lead)``.
There is no floating point anywhere in this package.

The span is kept fully reduced: every row is zero at every other row's
pivot, the pivot of a row being its first nonzero column.  That makes the
outputs canonical.  The reduced row-echelon form of a row space, the
echelon basis of a kernel, the solution with free variables set to 0, the
rank and the residue of a vector modulo a span are all determined by the
input alone, never by the order in which rows were eliminated.  Echelon
forms, kernel bases and solution vectors are therefore deterministic and
safe to freeze in tests.
"""

from fractions import Fraction
from math import gcd, lcm

QZERO = Fraction(0)
QONE = Fraction(1)


class RatMatrix:
    """Sparse rows x cols matrix over Q.  Zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self.set(i, j, v)

    @classmethod
    def from_rows(cls, rowlists, cols=None):
        if cols is None:
            cols = len(rowlists[0]) if rowlists else 0
        m = cls(len(rowlists), cols)
        for i, row in enumerate(rowlists):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m.set(i, j, v)
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.entries[(i, i)] = QONE
        return m

    def get(self, i, j):
        return self.entries.get((i, j), QZERO)

    def set(self, i, j, value):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if type(value) is not Fraction:
            value = Fraction(value)
        if value:
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def to_rows(self):
        out = [[QZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def transpose(self):
        t = RatMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            t.entries[(j, i)] = v
        return t

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matvec")
        out = [QZERO] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return out

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return "RatMatrix(%d, %d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def _int_row(pairs):
    """(row, den) with row an integer ``{col: int}`` dict and row[c] / den
    the value at c, for the nonzero values among the (col, value) pairs."""
    vals = []
    den = 1
    for c, x in pairs:
        if x:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            d = x.denominator
            if d != 1:
                den = den // gcd(den, d) * d
            vals.append((c, x))
    if den == 1:
        return {c: int(x) for c, x in vals}, 1
    return {c: x.numerator * (den // x.denominator) for c, x in vals}, den


def _primitive(row, lead):
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


class EchelonSpan:
    """A subspace of Q^dim, kept as a fully reduced echelon basis.

    Vectors passed in are sequences of length ``dim`` or mappings from
    column index to value; entries may be ints or Fractions.  Internally
    each basis row is a primitive integer ``{col: int}`` dict keyed by its
    pivot column (see the module docstring).
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}

    def _row(self, vec):
        """Validated integer form (row, den) of an input vector."""
        if isinstance(vec, dict):
            if any(not 0 <= c < self.dim for c in vec):
                raise ValueError("column outside 0..%d" % (self.dim - 1))
            return _int_row(vec.items())
        if len(vec) != self.dim:
            raise ValueError("vector of length %d in a span of dimension %d"
                             % (len(vec), self.dim))
        return _int_row(enumerate(vec))

    def _reduce(self, row):
        """(w, scale): w = scale * (row - a combination of basis rows), w
        zero at every pivot and without zero entries.

        The basis is fully reduced, so the multiple of the basis row with
        pivot p to subtract is row[p] / lead(p), read off the input row
        itself; one common factor, the lcm of the leads involved, clears
        every denominator at once.
        """
        rows = self._rows
        hits = [p for p in row if p in rows]
        if not hits:
            return row, 1
        scale = lcm(*[rows[p][p] for p in hits])
        w = {c: scale * x for c, x in row.items()}
        for p in hits:
            r = rows[p]
            f = row[p] * (scale // r[p])
            for c, x in r.items():
                w[c] = w.get(c, 0) - f * x
        return {c: x for c, x in w.items() if x}, scale

    def _insert(self, row):
        """Insert an integer row; returns True if it enlarged the span."""
        w, _ = self._reduce(row)
        if not w:
            return False
        q = min(w)
        w = _primitive(w, q)
        a = w[q]
        rows = self._rows
        for p, r in rows.items():
            b = r.get(q)
            if b:
                h = gcd(a, b)
                a1, b1 = a // h, b // h
                new = {c: a1 * x for c, x in r.items()}
                for c, x in w.items():
                    new[c] = new.get(c, 0) - b1 * x
                rows[p] = _primitive({c: x for c, x in new.items() if x}, p)
        rows[q] = w
        return True

    def _dense(self, p, reduce=True):
        """Basis row with pivot p as a dense Fraction list; scaled to pivot
        1 if reduce, else left as its primitive integer multiple."""
        r = self._rows[p]
        lead = r[p] if reduce else 1
        out = [QZERO] * self.dim
        for c, x in r.items():
            out[c] = Fraction(x, lead)
        return out

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        return self._insert(self._row(vec)[0])

    def residue(self, vec):
        """The unique vector of vec + span that is zero at every pivot, as
        a dict {col: Fraction} of its nonzero entries."""
        row, den = self._row(vec)
        w, scale = self._reduce(row)
        den *= scale
        return {c: Fraction(x, den) for c, x in w.items()}

    def contains(self, vec):
        return not self._reduce(self._row(vec)[0])[0]

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rows(self):
        """The reduced row-echelon basis, as dense Fraction rows by pivot."""
        return [self._dense(p) for p in self.pivots]

    def rank(self):
        return len(self._rows)


def _span_of_rows(m, extra=None):
    """EchelonSpan of the rows of m, each with extra[i] appended as column
    m.cols when extra is given."""
    by_row = {}
    for (i, j), v in m.entries.items():
        by_row.setdefault(i, {})[j] = v
    if extra is not None:
        for i, v in enumerate(extra):
            if v:
                by_row.setdefault(i, {})[m.cols] = v
    span = EchelonSpan(m.cols if extra is None else m.cols + 1)
    for i in sorted(by_row):
        span._insert(_int_row(by_row[i].items())[0])
    return span


def row_echelon(rowlists, reduce=True):
    """Reduced row-echelon form of a list of dense rows (inputs untouched).

    Returns (rows, pivot_cols): one row per input row, the pivot rows in
    pivot order followed by zero rows.  With reduce=True pivots are scaled
    to 1 (RREF); with reduce=False each pivot row is the primitive integer
    multiple of its RREF row, as Fractions.
    """
    if not rowlists:
        return [], []
    ncols = len(rowlists[0])
    span = EchelonSpan(ncols)
    for r in rowlists:
        span._insert(span._row(r)[0])
    pivots = span.pivots
    out = [span._dense(p, reduce) for p in pivots]
    out.extend([QZERO] * ncols for _ in range(len(rowlists) - len(pivots)))
    return out, pivots


def rank(m):
    """Rank over Q via exact elimination."""
    return _span_of_rows(m).rank()


def kernel_basis(m):
    """Basis of {v : m.v = 0}, returned as dense Fraction vectors.

    The basis is put in reduced row-echelon form, so it is deterministic and
    has size cols - rank(m).
    """
    if m.cols == 0:
        return []
    rows = _span_of_rows(m)._rows
    # free column f gives e_f - sum over pivots p of (r_p[f] / lead_p) e_p
    hits = {}
    for p, r in rows.items():
        for c in r:
            if c != p:
                hits.setdefault(c, []).append(p)
    ker = EchelonSpan(m.cols)
    for f in range(m.cols):
        if f in rows:
            continue
        ps = hits.get(f, ())
        scale = lcm(*[rows[p][p] for p in ps])
        v = {f: scale}
        for p in ps:
            v[p] = -rows[p][f] * (scale // rows[p][p])
        ker._insert(v)
    return ker.rows


def solve(m, b):
    """Some x with m.x = b, or None if inconsistent.

    Deterministic: free variables are set to 0 under the fixed pivot order.
    """
    if len(b) != m.rows:
        raise ValueError("dimension mismatch: len(b) != rows")
    rows = _span_of_rows(m, b)._rows
    if m.cols in rows:
        return None
    x = [QZERO] * m.cols
    for p, r in rows.items():
        v = r.get(m.cols)
        if v:
            x[p] = Fraction(v, r[p])
    return x


def cokernel_rank(sub, amb_dim):
    """amb_dim minus the rank of the column span of sub (rows must match)."""
    if sub.rows != amb_dim:
        raise ValueError("subspace matrix must have amb_dim rows")
    return amb_dim - rank(sub)
