"""Reference monomial enumeration and derivation, kept as test oracles.

These are the plain versions that ``rht.gca.FreeGCA`` replaced.
``degree_basis`` recurses once per generator, trying every exponent from the
highest down to 0, with no count table, so it also walks branches that hold
no monomial.  ``apply_derivation`` wraps the prefix and the rest of each
monomial in ``Poly`` objects and calls ``multiply`` twice per exponent pair.
Both are slow and obviously exhaustive; the tests require the library to give
the same bases in the same order, and the same images with the same key
order.  The images are summed here by a plain loop of the oracle's own:
each term is added into one dict and the zeros are dropped once at the end,
so a monomial keeps the place where it first appeared, the rule of every
sum in ``rht``.

``normalize_word`` takes the Koszul sign of a written product from the
inversions of its odd letters by a count over all pairs of them, and adds
the exponents of each letter in a dict; the library counts each odd letter's
inversions as it reads the word.

``mul_monomials`` multiplies two monomials through a dict and a sort,
counting the crossings of each odd letter of the right factor over the odd
letters of the left one; the library merges the two sorted tuples.
``derive_monomial`` takes two products per image term, m[:k] * D(x_i) and
then that by the rest of m, each with its own sign; the library takes one,
(m / x_i) * D(x_i), and the sign of moving D(x_i) past the rest.  The tests
require the same signs, monomials and dicts, key order and cancelled zeros
included.

``free_gca_ranks`` counts the monomials of a free graded-commutative
algebra from the generating function, without a basis; ``FreeGCA.dim``
reads its count table.

``cdga_map_report`` and ``is_quasi_iso`` check a ``rht.gca.CdgaMorphism``:
degree preservation and phi d = d phi on the generators, and H(phi) an
isomorphism up to a degree.  The library checks no map of free CDGAs, so
they are test oracles: the quasi-isomorphism test reads H(phi) through the
library's ``RhoMorphism`` into ``ModelCohomology(phi.target)``.
"""

from rht.formality import RhoMorphism
from rht.gca import QONE, QZERO, CheckReport, Poly, TruncationError
from rht.quotient import ModelCohomology


def normalize_word(algebra, word):
    """Sort a written product by counting the inversions of its odd letters:
    (sign, monomial), or (0, None) when an odd letter repeats."""
    factors = []
    for w in word:
        ref, e = w if isinstance(w, tuple) else (w, 1)
        if isinstance(ref, str):
            if ref not in algebra.index:
                raise KeyError("unknown generator %r" % ref)
            ref = algebra.index[ref]
        elif not 0 <= ref < len(algebra.names):
            raise KeyError("generator index %d out of range" % ref)
        if e:
            factors.append((ref, e))
    odd_seq = [i for i, e in factors if algebra.odd[i]]
    if any(e > 1 for i, e in factors if algebra.odd[i]) or \
            len(set(odd_seq)) != len(odd_seq):
        return 0, None
    inversions = 0
    for a in range(len(odd_seq)):
        for b in range(a + 1, len(odd_seq)):
            if odd_seq[a] > odd_seq[b]:
                inversions += 1
    sign = -1 if inversions % 2 else 1
    exps = {}
    for i, e in factors:
        exps[i] = exps.get(i, 0) + e
    return sign, tuple(sorted(exps.items()))


def mul_monomials(algebra, m1, m2):
    """Product of two normalized monomials: (sign, monomial) or (0, None)."""
    odd = algebra.odd
    sign = 1
    odd1 = [i for i, e in m1 if odd[i]]
    merged = dict(m1)
    for i, e in m2:
        if odd[i]:
            if i in merged:
                return 0, None
            # move this odd letter left past the odd letters of m1 above it
            crossings = sum(1 for j in odd1 if j > i)
            if crossings % 2:
                sign = -sign
        merged[i] = merged.get(i, 0) + e
    return sign, tuple(sorted(merged.items()))


def derive_monomial(algebra, deriv, m):
    """D(m) of one monomial: per exponent pair (i, e) and image term of
    D(x_i), e * sign * (m[:k] * D(x_i)) * (x_i^{e-1} * m[k+1:]), two
    products; summed in order of first appearance, cancelled sums kept as
    zeros."""
    out = {}
    prefix_deg = 0
    for k, (i, e) in enumerate(m):
        img = deriv.images.get(algebra.names[i])
        if img:
            sign = -1 if deriv.degree % 2 and prefix_deg % 2 else 1
            rest = m[k + 1:] if e == 1 else ((i, e - 1),) + m[k + 1:]
            for mi, ci in img.items():
                s1, left = mul_monomials(algebra, m[:k], mi)
                if s1:
                    s, mm = mul_monomials(algebra, left, rest)
                    if s:
                        out[mm] = out.get(mm, QZERO) + s * s1 * sign * e * ci
        prefix_deg += e * algebra.degrees[i]
    return out


def degree_basis(algebra, n):
    """All monomials of total degree n, in monomial_key order."""
    if n < 0:
        return []
    out = []

    def rec(gi, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if gi == len(algebra.names):
            return
        d = algebra.degrees[gi]
        top = remaining // d
        if algebra.odd[gi]:
            top = min(top, 1)
        for e in range(top, -1, -1):
            if e:
                acc.append((gi, e))
                rec(gi + 1, remaining - e * d, acc)
                acc.pop()
            else:
                rec(gi + 1, remaining, acc)

    rec(0, n, [])
    return out


def apply_derivation(algebra, deriv, p, truncation=None):
    """Graded Leibniz extension of a generator-level derivation."""
    out = {}
    ddeg = deriv.degree
    for m, c in p.items():
        prefix_deg = 0
        for k, (i, e) in enumerate(m):
            img = deriv.images.get(algebra.names[i])
            if img:
                sign = -1 if (ddeg % 2) and (prefix_deg % 2) else 1
                rest = m[k + 1:] if e == 1 else ((i, e - 1),) + m[k + 1:]
                term = algebra.multiply(Poly({m[:k]: c * e * sign}), img)
                for mm, cc in algebra.multiply(term,
                                               Poly({rest: QONE})).items():
                    out[mm] = out.get(mm, QZERO) + cc
            prefix_deg += e * algebra.degrees[i]
    out = {m: c for m, c in out.items() if c}
    if truncation is not None:
        for m in out:
            if algebra.monomial_degree(m) > truncation:
                raise TruncationError(
                    "derivation output exceeds truncation %d" % truncation)
    res = Poly()
    res.terms = out
    return res


def cdga_map_report(phi):
    """Degree preservation and phi d = d phi on generators, up to the
    smaller truncation."""
    source, target = phi.source, phi.target
    bound = min(source.truncation, target.truncation)
    for name in source.names:
        img = phi.images[name]
        if img:
            try:
                got = target.poly_degree(img)
            except ValueError:
                return CheckReport.violation(
                    "degree", "image of %s is inhomogeneous" % name)
            if got != source.gen_degree(name):
                return CheckReport.violation(
                    "degree", "image of %s has degree %s != %d"
                    % (name, got, source.gen_degree(name)))
    for name in source.names:
        deg = source.gen_degree(name)
        if deg + 1 > bound or name in source.truncated_gens:
            continue
        lhs = phi.apply(source.differential.images.get(name, Poly()))
        if lhs != target.d(phi.images[name]):
            return CheckReport.violation(
                "cochain", "phi(d %s) != d(phi %s)" % (name, name))
    return CheckReport.good()


def is_quasi_iso(phi, upto):
    """(True, None) if H^n(phi) is an isomorphism for all n <= upto, else
    (False, first bad degree).  Truncation-relative."""
    return RhoMorphism(phi.source, ModelCohomology(phi.target),
                       phi.images).is_quasi_iso(upto)


def free_gca_ranks(degrees, upto):
    """Degreewise dimensions of the free graded-commutative algebra on
    generators of the given degrees, degrees 0..upto, counted by the
    generating function: a factor 1 + x^d per odd generator and
    1 / (1 - x^d) per even one."""
    ranks = [0] * (upto + 1)
    ranks[0] = 1
    for d in degrees:
        new = list(ranks)
        if d % 2 == 1:
            for n in range(upto, d - 1, -1):
                new[n] += ranks[n - d]
        else:
            for n in range(d, upto + 1):
                new[n] += new[n - d]
        ranks = new
    return ranks
