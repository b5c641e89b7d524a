"""Free graded-commutative algebras over Q with differentials and cohomology.

Conventions: generators live in positive (cohomological) degrees; a monomial
is a sorted tuple of (generator index, exponent) pairs with odd generators
carrying exponent at most 1; swapping two odd letters costs a Koszul sign -1.
Monomials are ordered by ``FreeGCA.monomial_key``: by degree, then
lexicographically by descending exponent vector in declaration order.  Every
basis, representative, matrix and printed polynomial in this module follows
that one order, which makes them deterministic.  A count table prunes every
empty branch of ``degree_basis``, so a basis costs about its size times the
generators scanned per branch, and ``dim`` counts without enumerating.
A ``Cdga`` derives d of each monomial once and keeps it, cancelled sums
included, so that ``d``, ``d_columns`` and ``check`` read one
differentiation and a sum keeps the key order of a single pass over its
polynomial.
"""

from fractions import Fraction

from .linalg import combine, homology

QZERO = Fraction(0)
QONE = Fraction(1)

ONE = ()  # the empty monomial


class TruncationError(Exception):
    """A computation produced a degree above the algebra's truncation bound."""


class Poly:
    """Q-linear combination of monomials.

    ``terms`` is the sparse vector of ``rht.linalg``, keyed by monomial:
    ``{monomial: Fraction}`` with zero coefficients never stored.  Sums and
    multiples go through ``linalg.combine``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def _of(cls, terms):
        """The Poly over terms already in canonical form."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def unit(cls, coeff=QONE):
        coeff = Fraction(coeff)
        return cls({ONE: coeff}) if coeff else cls()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return Poly._of(combine(((self.terms, 1), (other.terms, 1))))

    def __sub__(self, other):
        return Poly._of(combine(((self.terms, 1), (other.terms, -1))))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return Poly._of(combine(((self.terms, Fraction(c)),)))

    def coeff(self, monomial):
        return self.terms.get(monomial, QZERO)

    def items(self):
        return self.terms.items()

    def monomials(self):
        return self.terms.keys()

    def __repr__(self):
        return "Poly(%r)" % (self.terms,)


class FreeGCA:
    """The free graded-commutative algebra on an ordered list of generators."""

    def __init__(self, generators):
        names = []
        degrees = []
        seen = set()
        for name, deg in generators:
            if name in seen:
                raise ValueError("duplicate generator name %r" % name)
            if deg < 1:
                raise ValueError("generator %r has degree %d < 1" % (name, deg))
            seen.add(name)
            names.append(name)
            degrees.append(int(deg))
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.index = {n: i for i, n in enumerate(names)}
        self.odd = tuple(d % 2 == 1 for d in degrees)
        self._basis_cache = {}
        self._count = [[1] for _ in range(len(degrees) + 1)]

    @property
    def generators(self):
        return list(zip(self.names, self.degrees))

    def gen_degree(self, name):
        return self.degrees[self.index[name]]

    def gen(self, name, coeff=QONE):
        i = self.index[name]
        return Poly({((i, 1),): Fraction(coeff)})

    def monomial_degree(self, m):
        return sum(self.degrees[i] * e for i, e in m)

    def monomial_key(self, m):
        """Sort key of the monomial order: degree, then descending exponent
        vector in declaration order.  Within one degree no exponent-pair
        list is a prefix of another, so the key orders each degree_basis."""
        return (self.monomial_degree(m), tuple((i, -e) for i, e in m))

    def poly_degree(self, p):
        """Degree of a homogeneous polynomial; None for 0; ValueError if mixed."""
        degs = {self.monomial_degree(m) for m in p.monomials()}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    # -- monomial arithmetic -------------------------------------------

    def normalize_word(self, word):
        """Sort a written product; returns (sign, monomial) or (0, None).

        A factor is a generator ref (name or index) or a (ref, exponent)
        pair.  Every ref is resolved, so an unknown one raises KeyError even
        in a word that vanishes.  The Koszul sign is the parity of the
        inversions among the odd letters, the exponents of a letter are
        added, and the letters are sorted once.  An odd letter twice, or
        with an exponent above 1, kills the word.
        """
        odd = self.odd
        exps = {}
        odd_seen = []
        sign = 1
        for w in word:
            ref, e = w if isinstance(w, tuple) else (w, 1)
            if isinstance(ref, str):
                if ref not in self.index:
                    raise KeyError("unknown generator %r" % ref)
                ref = self.index[ref]
            elif not 0 <= ref < len(self.names):
                raise KeyError("generator index %d out of range" % ref)
            if not e or not sign:
                continue
            if odd[ref]:
                if e > 1 or ref in exps:
                    sign = 0
                    continue
                # one inversion per odd letter written before it and above it
                for j in odd_seen:
                    if j > ref:
                        sign = -sign
                odd_seen.append(ref)
                exps[ref] = e
            else:
                exps[ref] = exps.get(ref, 0) + e
        if not sign:
            return 0, None
        return sign, tuple(sorted(exps.items()))

    def mul_monomials(self, m1, m2):
        """Product of two normalized monomials: (sign, monomial) or (0, None).

        One merge of the two index-sorted tuples.  The sign is the parity of
        the crossings: each odd letter of m2 moves left past the odd letters
        of m1 with a higher index.  An odd letter in both kills the product,
        and an empty factor returns the other one.
        """
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        odd = self.odd
        # whether the letters of m1 not merged yet hold an odd number of
        # odd letters
        above = False
        for i, _ in m1:
            if odd[i]:
                above = not above
        sign = 1
        out = []
        k, n = 0, len(m1)
        for pair in m2:
            i = pair[0]
            while k < n and m1[k][0] < i:
                if odd[m1[k][0]]:
                    above = not above
                out.append(m1[k])
                k += 1
            if k < n and m1[k][0] == i:
                if odd[i]:
                    return 0, None
                out.append((i, m1[k][1] + pair[1]))
                k += 1
            else:
                if above and odd[i]:
                    sign = -sign
                out.append(pair)
        return sign, tuple(out) + m1[k:]

    def multiply(self, p, q):
        # the loop of linalg.combine, written out: one term per pair
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                s, m = self.mul_monomials(m1, m2)
                if s:
                    t = c1 * c2 if s > 0 else -(c1 * c2)
                    prev = out.get(m)
                    out[m] = t if prev is None else prev + t
        return Poly._of({m: c for m, c in out.items() if c})

    def power(self, p, k):
        res = Poly.unit()
        for _ in range(k):
            res = self.multiply(res, p)
        return res

    def monomial_of_word(self, word):
        sign, m = self.normalize_word(word)
        if sign == 0:
            return Poly()
        return Poly({m: Fraction(sign)})

    # -- degreewise bases ----------------------------------------------

    def _counts(self, n):
        """count[gi][r], the number of monomials of degree r in generators gi,
        gi+1, ... (the last row: in none), built bottom-up to reach r = n.
        Each extension is one pass over the generators, for all the new
        degrees at once."""
        count = self._count
        have = len(count[-1])
        if have <= n:
            count[-1].extend([0] * (n + 1 - have))
            for gi in range(len(self.degrees) - 1, -1, -1):
                row, below, d = count[gi], count[gi + 1], self.degrees[gi]
                # an odd generator appears at most once, an even one freely
                above = below if self.odd[gi] else row
                for r in range(have, n + 1):
                    row.append(below[r] + above[r - d] if r >= d else below[r])
        return count

    def degree_basis(self, n):
        """Monomials of degree n in monomial_key order: next used generator
        ascending, its exponent descending, recursing once per pair."""
        if n < 0:
            return []
        if n in self._basis_cache:
            return self._basis_cache[n]
        count, degrees, odd = self._counts(n), self.degrees, self.odd
        out = [] if n else [()]

        def extend(prefix, j, r):
            # j starts a degree-r monomial iff count[j][r] > count[j + 1][r]
            while count[j][r]:
                below = count[j + 1]
                if count[j][r] != below[r]:
                    d = degrees[j]
                    for e in range(1 if odd[j] else r // d, 0, -1):
                        mono, rest = prefix + ((j, e),), r - e * d
                        if not rest:
                            out.append(mono)
                        elif below[rest]:
                            extend(mono, j + 1, rest)
                j += 1

        if n:
            extend((), 0, n)
        self._basis_cache[n] = out
        return out

    def dim(self, n):
        """Number of monomials of degree n, read from the count table."""
        return self._counts(n)[0][n] if n >= 0 else 0

    # -- derivations ----------------------------------------------------

    def derive_monomial(self, deriv, m):
        """D(m) of one monomial: one term per exponent pair (i, e), e *
        sign * m[:k] * D(x_i) * rest with rest = x_i^{e-1} * m[k+1:], since
        the e positions of an even letter give equal terms and an odd letter
        has e = 1.  Each term is one product,

            m[:k] * D(x_i) * rest = (-1)^{|D x_i| |rest|} (m / x_i) * D(x_i),

        where m / x_i is m with one x_i taken out, built once per exponent
        pair, and |D x_i| is read off each image term's own odd letters, so
        that an image of mixed degree is derived as written.  Terms are
        summed in order of first appearance, and a sum that cancels stays
        as a zero, so that combining these dicts over the monomials of p
        puts every key of D(p) where a single pass over p first meets it."""
        out = {}
        odd = self.odd
        odd_deriv = deriv.degree % 2
        prefix_deg = 0
        # whether m[k + 1:] holds an odd number of odd letters
        rest_odd = False
        for i, _ in m:
            if odd[i]:
                rest_odd = not rest_odd
        for k, (i, e) in enumerate(m):
            if odd[i]:
                rest_odd = not rest_odd
            img = deriv.images.get(self.names[i])
            if img:
                sign = -1 if odd_deriv and prefix_deg % 2 else 1
                quotient = (m[:k] + m[k + 1:] if e == 1
                            else m[:k] + ((i, e - 1),) + m[k + 1:])
                # each product is injective: one output term per image term
                for mi, ci in img.items():
                    s, mm = self.mul_monomials(quotient, mi)
                    if s:
                        if rest_odd and sum(odd[j] for j, _ in mi) % 2:
                            s = -s
                        t = ci if e == 1 else e * ci
                        if s != sign:
                            t = -t
                        prev = out.get(mm)
                        out[mm] = t if prev is None else prev + t
            prefix_deg += e * self.degrees[i]
        return out

    def apply_derivation(self, deriv, p, truncation=None):
        """Graded Leibniz extension of a generator-level derivation.

        D(uv) = D(u)v + (-1)^{|D||u|} u D(v), summed over the monomials of
        p from derive_monomial.  If truncation is given, any output term
        above it raises TruncationError instead of being dropped.
        """
        out = combine((self.derive_monomial(deriv, m), c)
                      for m, c in p.items())
        if truncation is not None:
            self.check_truncation(out, truncation)
        return Poly._of(out)

    def check_truncation(self, terms, truncation):
        """TruncationError if a monomial of terms has degree above
        truncation."""
        for m in terms:
            if self.monomial_degree(m) > truncation:
                raise TruncationError(
                    "derivation output exceeds truncation %d" % truncation)

    # -- printing --------------------------------------------------------

    def monomial_str(self, m):
        if not m:
            return "1"
        parts = []
        for i, e in m:
            parts.append(self.names[i] if e == 1 else "%s^%d" % (self.names[i], e))
        return "*".join(parts)

    def poly_str(self, p):
        items = sorted(p.items(), key=lambda mc: self.monomial_key(mc[0]))
        return signed_sum((self.monomial_str(m) if m else None, c)
                          for m, c in items)


def signed_sum(terms):
    """`a - 2*b + 3/2` from (body, coefficient) pairs in print order, a body
    of None standing for the unit: the one spelling of a sum, which
    ``workspace.read_terms`` reads back."""
    chunks = []
    for body, c in terms:
        mag = abs(c)
        if body is None:
            body = str(mag)
        elif mag != 1:
            body = "%s*%s" % (mag, body)
        if chunks:
            chunks.append(("+ " if c > 0 else "- ") + body)
        else:
            chunks.append(body if c > 0 else "-" + body)
    return " ".join(chunks) if chunks else "0"


class Derivation:
    """Degree-homogeneous derivation, given by its values on generators."""

    def __init__(self, algebra, degree, images, check_degrees=True):
        self.algebra = algebra
        self.degree = int(degree)
        self.images = {}
        for name, img in images.items():
            if name not in algebra.index:
                raise KeyError("unknown generator %r" % name)
            if img:
                if check_degrees:
                    want = algebra.gen_degree(name) + self.degree
                    got = algebra.poly_degree(img)
                    if got is not None and got != want:
                        raise ValueError(
                            "derivation image of %s has degree %s, expected %d"
                            % (name, got, want))
                self.images[name] = img

    def __call__(self, p, truncation=None):
        return self.algebra.apply_derivation(self, p, truncation)


class CheckReport:
    """Outcome of a structural validation; falsy when a violation was found."""

    def __init__(self, ok, kind=None, message=None):
        self.ok = ok
        self.kind = kind
        self.message = message

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CheckReport(ok)"
        return "CheckReport(%s: %s)" % (self.kind, self.message)

    @classmethod
    def good(cls):
        return cls(True)

    @classmethod
    def violation(cls, kind, message):
        return cls(False, kind, message)


class Cdga(FreeGCA):
    """Free CDGA (Lambda V, d) with a degree +1 differential and a truncation.

    The truncation is a hard contract: asking d to produce a degree above it
    raises TruncationError.  Generators of top degree == truncation may have
    unknown differential; they are listed in ``truncated_gens``.
    """

    def __init__(self, generators, differential_images, truncation):
        super().__init__(generators)
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.truncation = int(truncation)
        imgs = {}
        self.truncated_gens = set()
        for name in self.names:
            deg = self.gen_degree(name)
            img = differential_images.get(name, Poly())
            if deg + 1 > self.truncation:
                self.truncated_gens.add(name)
                if img:
                    raise TruncationError(
                        "d(%s) has degree %d above truncation %d"
                        % (name, deg + 1, self.truncation))
                continue
            imgs[name] = img
        # degree violations are reported by check(), not raised here
        self.differential = Derivation(self, 1, imgs, check_degrees=False)
        self._cohomology_cache = {}
        self._class_basis_cache = {}
        self._dcol_cache = {}
        self._d_of = {}
        # every image of degree |x| + 1, once check() has found so
        self._homogeneous = False

    def _counts(self, n):
        """The count table, grown to at least twice the degrees it held but
        not past truncation + 1, the top degree d_columns reads.  As
        cohomology and BigradedModel.validate walk n upward, one pass over
        the generators serves a run of degrees.  The table never reaches
        past twice the degree asked, so a large truncation read from a file
        costs nothing until degrees near it are asked."""
        have = len(self._count[-1])
        if n >= have:
            n = max(n, min(2 * have, self.truncation + 1))
        return super()._counts(n)

    def _derived(self, m):
        """(d(m), whether a term of it lies above the truncation), d(m) as
        derive_monomial gives it, sums that cancel kept as zeros.

        d of each monomial is derived once per algebra and kept, so d,
        d_columns and check share one differentiation.  The flag only says
        where to test a sum: a term above the truncation may cancel in it.
        Once check() has found every image homogeneous of degree |x| + 1,
        d(m) has degree |m| + 1 and the flag is read off that, with no scan
        of the images of its own; otherwise each term of d(m) is tested."""
        entry = self._d_of.get(m)
        if entry is None:
            dm = self.derive_monomial(self.differential, m)
            if self._homogeneous:
                above = self.monomial_degree(m) + 1 > self.truncation
            else:
                above = any(self.monomial_degree(mm) > self.truncation
                            for mm in dm)
            entry = self._d_of[m] = (dm, above)
        return entry

    def d(self, p):
        """d(p); TruncationError if a term of it lies above the truncation."""
        pairs = []
        high = False
        for m, c in p.items():
            dm, above = self._derived(m)
            pairs.append((dm, c))
            high = high or above
        out = combine(pairs)
        if high:
            self.check_truncation(out, self.truncation)
        return Poly._of(out)

    def check(self):
        """Verify degree +1 and d^2 = 0 on generators, up to truncation."""
        for name in self.names:
            if name in self.truncated_gens:
                continue
            img = self.differential.images.get(name)
            if not img:
                continue
            try:
                good = self.poly_degree(img) == self.gen_degree(name) + 1
            except ValueError:
                good = False
            if not good:
                return CheckReport.violation(
                    "degree", "d(%s) is not homogeneous of degree |%s|+1" % (name, name))
        self._homogeneous = True
        for name in self.names:
            if name in self.truncated_gens:
                continue
            if self.gen_degree(name) + 2 > self.truncation:
                continue
            img = self.differential.images.get(name, Poly())
            if any(w in self.truncated_gens for m in img.monomials()
                   for w in (self.names[i] for i, _ in m)):
                continue
            dd = self.d(img)
            if dd:
                return CheckReport.violation(
                    "d-squared", "d^2(%s) = %s != 0" % (name, self.poly_str(dd)))
        return CheckReport.good()

    def is_minimal(self):
        """dV inside the decomposables (no linear terms in any d-image)."""
        for name, img in self.differential.images.items():
            for m in img.monomials():
                if sum(e for _, e in m) < 2:
                    return False
        return True

    # -- cohomology -----------------------------------------------------

    def d_columns(self, n):
        """d: C^n -> C^{n+1} as one sparse column per degree-n monomial,
        indexed by the degree-(n+1) monomial basis."""
        if n in self._dcol_cache:
            return self._dcol_cache[n]
        if n + 1 > self.truncation:
            raise TruncationError("d out of degree %d exceeds truncation" % n)
        pos = {m: i for i, m in enumerate(self.degree_basis(n + 1))}
        cols = []
        for m in self.degree_basis(n):
            dm, above = self._derived(m)
            if above:
                self.check_truncation([mm for mm, c in dm.items() if c],
                                      self.truncation)
            cols.append({pos[mm]: c for mm, c in dm.items() if c})
        self._dcol_cache[n] = cols
        return cols

    def cohomology(self, n):
        """(rank, representatives) of H^n; deterministic echelon-pivot reps.

        Needs n + 1 <= truncation so that d out of degree n is available.
        """
        if n < 0:
            return 0, []
        if n + 1 > self.truncation:
            raise TruncationError(
                "cohomology in degree %d needs truncation >= %d" % (n, n + 1))
        if n in self._cohomology_cache:
            return self._cohomology_cache[n]
        # the tagged span reads class coordinates (see class_coordinates)
        vecs, span = homology(self.d_columns(n),
                              self.d_columns(n - 1) if n >= 1 else (),
                              self.dim(n))
        basis = self.degree_basis(n)
        reps = [Poly._of({basis[i]: c for i, c in v.items()}) for v in vecs]
        result = (len(reps), reps)
        self._cohomology_cache[n] = result
        self._class_basis_cache[n] = span
        return result

    def class_coordinates(self, n, p):
        """Coordinates of the class [p] in the representative basis of H^n,
        as a sparse column {k: Fraction}.

        p must be a cocycle of degree n (or zero); raises ValueError otherwise.
        """
        rk, reps = self.cohomology(n)
        if not p:
            return {}
        if self.poly_degree(p) != n:
            raise ValueError("class_coordinates: wrong degree")
        if self.d(p):
            raise ValueError("class_coordinates: not a cocycle")
        if not rk:
            return {}
        dim = self.dim(n)
        pos = {m: i for i, m in enumerate(self.degree_basis(n))}
        res = self._class_basis_cache[n].residue(
            {pos[m]: c for m, c in p.items()})
        if min(res, default=dim) < dim:
            raise ValueError("class_coordinates: vector not in cocycle span")
        return {k: -res[dim + k] for k in range(rk) if dim + k in res}


class CdgaMorphism:
    """CDGA morphism given by generator images in the target algebra."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for name in source.names:
            img = images.get(name, Poly())
            self.images[name] = img

    def apply(self, p):
        terms = []
        for m, c in p.items():
            term = Poly.unit()
            for i, e in m:
                img = self.images[self.source.names[i]]
                for _ in range(e):
                    term = self.target.multiply(term, img)
                    if not term:
                        break
                if not term:
                    break
            terms.append((term.terms, c))
        return Poly._of(combine(terms))
