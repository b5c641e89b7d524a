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
"""

from rht.gca import QONE, QZERO, Poly, TruncationError


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
        if algebra.is_odd(gi):
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
