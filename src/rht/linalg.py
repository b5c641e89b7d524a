"""Exact linear algebra over the rationals.

One vector shape crosses module boundaries: a sparse vector
``{key: Fraction}`` whose zero entries are never stored.  Keyed by index it
is a sparse column; a matrix is a list of such columns, one per source basis
element, and a ring element's coordinates are one such column.  Keyed by
monomial or basis name it is a polynomial or a linear combination.  Four
names are public:

  * ``combine(pairs)``, the sum of c * v over (v, c) pairs, the one way
    sparse vectors are added;
  * ``EchelonSpan``, the one elimination kernel: a growing subspace, with
    residues modulo the span, its rank, and, through ``add_int``, insertion
    of integer rows keyed by any ints, as they are or as residues modulo
    another span;
  * ``kernel_basis(columns)``, the kernel of a matrix given by its columns;
  * ``homology(d_out, d_in, dim)``, representatives of ker / im at one
    degree of a graded complex, and the tagged span that reads classes.

Inside the kernel a row is a sparse ``{column: int}`` dict: an input vector
is scaled once by the lcm of its denominators and kept primitive (divided by
the gcd of its entries, leading entry positive).  Rows are cleared against
each other by integer cross-multiplication, so no ``Fraction`` is built
while eliminating; ``Fraction``s appear only on output, as
``Fraction(v, lead)``.  There is no floating point anywhere in this package.

The span is kept fully reduced: every row is zero at every other row's
pivot, the pivot of a row being its first nonzero column.  That makes the
outputs canonical.  The reduced row-echelon basis of a span, the echelon
basis of a kernel, the rank and the residue of a vector modulo a span are
all determined by the input alone, never by the order in which rows were
eliminated, so they are deterministic and safe to freeze in tests.  Basis
rows and kernel vectors are handed out with their entries in ascending
index.

Keeping the span reduced means clearing each new pivot out of the rows
that hold it.  A column index names those rows, so that an insert visits
them alone rather than every row: after every insert,

    _cols == {c: {p : c in row p, c != p}}

over the stored rows, with no empty sets.  A pivot column is held by its
own row only, so it never appears as a key.

Coordinates of a vector over independent vectors v_1..v_k are read from a
tagged span: add each v_j with a 1 appended in an extra column j, take the
residue of the vector, and negate its tag entries (see ``homology`` and
``gca.Cdga.class_coordinates``).
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["EchelonSpan", "combine", "homology", "kernel_basis"]

QZERO = Fraction(0)
QONE = Fraction(1)


def combine(pairs):
    """The sum of c * v over the (v, c) pairs, each v a sparse vector
    ``{key: value}``: a new dict of ``Fraction``s, keys in order of first
    appearance, with the zeros dropped once at the end.  A weight of 1 is
    not multiplied by and a key's first term is not added to 0; a value
    that is not yet a ``Fraction`` is made one at the end."""
    out = {}
    for v, c in pairs:
        if c == 1:
            for k, x in v.items():
                prev = out.get(k)
                out[k] = x if prev is None else prev + x
        else:
            for k, x in v.items():
                t = c * x
                prev = out.get(k)
                out[k] = t if prev is None else prev + t
    return {k: x if type(x) is Fraction else QZERO + x
            for k, x in out.items() if x}


def _int_row(vec):
    """(row, den) with row an integer ``{col: int}`` dict and row[c] / den
    the value at c, for the nonzero values of the sparse vector vec."""
    vals = []
    den = 1
    for c, x in vec.items():
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

    Vectors passed in are sparse columns ``{index: value}`` with indices in
    0..dim-1; entries may be ints or Fractions.  ``add_int`` alone takes
    integer rows keyed by any ints instead.  Internally each basis row is
    a primitive integer ``{col: int}`` dict keyed by its pivot column (see
    the module docstring).
    """

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}
        self._cols = {}

    def _row(self, vec):
        """Validated integer form (row, den) of an input column."""
        if any(not 0 <= c < self.dim for c in vec):
            raise ValueError("column outside 0..%d" % (self.dim - 1))
        return _int_row(vec)

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
        """Insert an integer row; returns True if it enlarged the span.

        Only the rows that hold the new pivot q are rewritten, and the
        column index names exactly those; each rewrite changes the row at
        the columns of the new row alone, so the index is updated there."""
        w, _ = self._reduce(row)
        if not w:
            return False
        q = min(w)
        w = _primitive(w, q)
        a = w[q]
        rows, cols = self._rows, self._cols
        for p in cols.pop(q, ()):
            r = rows[p]
            b = r[q]
            h = gcd(a, b)
            a1, b1 = a // h, b // h
            new = {c: a1 * x for c, x in r.items()}
            for c, x in w.items():
                new[c] = new.get(c, 0) - b1 * x
            new = rows[p] = _primitive({c: x for c, x in new.items() if x}, p)
            for c in w:
                if c == q:
                    continue
                if c in new:
                    if c not in r:
                        cols.setdefault(c, set()).add(p)
                elif c in r:
                    held = cols[c]
                    held.discard(p)
                    if not held:
                        del cols[c]
        rows[q] = w
        for c in w:
            if c != q:
                cols.setdefault(c, set()).add(q)
        return True

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        return self._insert(self._row(vec)[0])

    def add_int(self, row, base=None):
        """Insert the integer row, reduced modulo the span base first if
        one is given; returns True if it enlarged this span, that is, if row
        is independent of base and this span together.  base is left as it
        is, so a span filled this way holds residues modulo base alone.

        row is a {key: int} dict of nonzero entries, taken as it is, with
        no range check or conversion; the span may keep it, so the caller
        must not change it.  Keys may be any ints, here and in base, the
        pivot being the least key, so keys in the order of 0..dim-1 give
        the same spans, pivot for pivot."""
        if base is not None:
            row = base._reduce(row)[0]
        return bool(row) and self._insert(row)

    def residue(self, vec):
        """The unique vector of vec + span that is zero at every pivot, as
        a dict {col: Fraction} of its nonzero entries."""
        row, den = self._row(vec)
        w, scale = self._reduce(row)
        den *= scale
        return {c: Fraction(x, den) for c, x in w.items()}

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rows(self):
        """The reduced row-echelon basis by pivot, as sparse Fraction columns
        in ascending index, each 1 at its pivot."""
        out = []
        for p in self.pivots:
            r = self._rows[p]
            lead = r[p]
            out.append({c: Fraction(r[c], lead) for c in sorted(r)})
        return out

    def rank(self):
        return len(self._rows)


def kernel_basis(columns):
    """Basis of {x : sum_j x_j columns[j] = 0}, as sparse Fraction columns
    {j: x_j} in ascending j; each input column is a sparse {row: value} dict.

    The matrix is eliminated row by row, in increasing row index.  The basis
    is put in reduced row-echelon form, so it is deterministic and has size
    len(columns) - rank.
    """
    ncols = len(columns)
    by_row = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            by_row.setdefault(i, {})[j] = v
    span = EchelonSpan(ncols)
    for i in sorted(by_row):
        span._insert(_int_row(by_row[i])[0])
    rows, hits = span._rows, span._cols
    # free column f gives e_f - sum over pivots p of (r_p[f] / lead_p) e_p
    ker = EchelonSpan(ncols)
    for f in range(ncols):
        if f in rows:
            continue
        ps = hits.get(f, ())
        scale = lcm(*[rows[p][p] for p in ps])
        v = {f: scale}
        for p in ps:
            v[p] = -rows[p][f] * (scale // rows[p][p])
        ker._insert(v)
    return ker.rows


def homology(d_out, d_in, dim):
    """(representatives, tagged span) of ker d_out / im d_in at one degree
    of a graded complex, C^n of dimension dim.

    d_out holds the columns of d out of C^n, one per basis element; d_in
    holds the columns of d into C^n, sparse over its dim indices.  The
    representatives are the kernel_basis vectors of d_out that are
    independent of the boundaries and of the representatives chosen before
    them, so they are canonical.  In the span, column dim + k tags the k-th
    representative, added as v + e_{dim+k}; boundaries carry no tag.  Every
    row of the span is then a cocycle followed by the combination of
    representatives it equals modulo boundaries, so minus the tag entries of
    a cocycle's residue are its class coordinates.
    """
    cocycles = kernel_basis(d_out)
    span = EchelonSpan(dim + len(cocycles))
    for col in d_in:
        if col:
            span.add(col)
    reps = []
    for v in cocycles:
        if min(span.residue(v), default=dim) < dim:
            span.add({**v, dim + len(reps): QONE})
            reps.append(v)
    return reps, span
