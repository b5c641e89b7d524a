"""Degreewise rings: presented quotient rings and cohomology rings.

The bigraded-model construction and every quasi-isomorphism check talk to a
ring through one interface, DegreewiseRing.  An element of degree n is its
sparse coordinate column {index: Fraction} relative to the ring's own
degree-n basis, zeros never stored, so 0 is {}.
Each ring also names an ambient free algebra: element_poly lifts an element
to a polynomial there, and poly_class reads the class of a polynomial back.
Products are taken on lifts, so the two rings differ only in those two maps
and in their ranks:

  * QuotientRing: Lambda(gens)/(relations), degreewise bases computed by
    exact elimination over the monomial basis -- no Groebner machinery.
  * ModelCohomology: H^*(A, d) of a free CDGA, classes handled through the
    deterministic representative bases of gca.Cdga.cohomology.
"""

from fractions import Fraction

from .gca import Poly
from .linalg import EchelonSpan, combine

QONE = Fraction(1)


class DegreewiseRing:
    """A graded ring handled degree by degree through an ambient algebra.

    Subclasses set ``ambient`` and ``truncation`` and provide rank(n),
    element_poly(n, e) (a lift to ``ambient`` of the degree-n column e) and
    poly_class(p) (the column of the class of a homogeneous polynomial of
    ``ambient``, {} for 0).
    """

    def ranks(self, upto=None):
        upto = self.truncation if upto is None else upto
        return [self.rank(n) for n in range(0, upto + 1)]


class QuotientRing(DegreewiseRing):
    """Lambda(generators) / (relations), truncated at degree N."""

    def __init__(self, algebra, relations, truncation):
        self.algebra = self.ambient = algebra
        self.truncation = int(truncation)
        self.relations = []
        for f in relations:
            if not f:
                continue
            algebra.poly_degree(f)  # raises if inhomogeneous
            self.relations.append(f)
        self._data = {}

    def _degree_data(self, n):
        if n in self._data:
            return self._data[n]
        if n > self.truncation:
            raise ValueError("degree %d above quotient truncation" % n)
        monos = self.algebra.degree_basis(n)
        pos = {m: i for i, m in enumerate(monos)}
        span = EchelonSpan(len(monos))
        for f in self.relations:
            df = self.algebra.poly_degree(f)
            if df > n:
                continue
            for m in self.algebra.degree_basis(n - df):
                prod = self.algebra.multiply(Poly({m: QONE}), f)
                span.add({pos[mm]: c for mm, c in prod.items()})
        pivots = set(span.pivots)
        basis = [m for i, m in enumerate(monos) if i not in pivots]
        data = (span, monos, pos, basis, {m: k for k, m in enumerate(basis)})
        self._data[n] = data
        return data

    def rank(self, n):
        if n < 0:
            return 0
        return len(self._degree_data(n)[3])

    def reduce(self, p):
        """Normal form of a homogeneous polynomial: a poly on non-pivot monomials."""
        if not p:
            return Poly()
        n = self.algebra.poly_degree(p)
        span, monos, pos = self._degree_data(n)[:3]
        res = span.residue({pos[m]: c for m, c in p.items()})
        return Poly({monos[i]: res[i] for i in sorted(res)})

    def poly_class(self, p):
        """Column of the class of a homogeneous polynomial."""
        if not p:
            return {}
        bpos = self._degree_data(self.algebra.poly_degree(p))[4]
        return {bpos[m]: c for m, c in self.reduce(p).items()}

    def element_poly(self, n, e):
        basis = self._degree_data(n)[3]
        return Poly({basis[k]: c for k, c in e.items()})


class ModelCohomology(DegreewiseRing):
    """H^*(A, d) of a Cdga, as a degreewise ring on representative classes."""

    def __init__(self, cdga, truncation=None):
        self.cdga = self.ambient = cdga
        self.truncation = (cdga.truncation - 1 if truncation is None
                           else int(truncation))
        if self.truncation + 1 > cdga.truncation:
            raise ValueError("truncation needs cdga truncation >= %d"
                             % (self.truncation + 1))

    def rank(self, n):
        if n < 0:
            return 0
        return self.cdga.cohomology(n)[0]

    def element_poly(self, n, e):
        reps = self.cdga.cohomology(n)[1]
        return Poly(combine((reps[k].terms, c) for k, c in e.items()))

    def poly_class(self, p):
        """Column of the class of a homogeneous cocycle."""
        if not p:
            return {}
        return self.cdga.class_coordinates(self.cdga.poly_degree(p), p)
