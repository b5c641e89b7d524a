"""Reference bigraded-model construction and bar-linearity check, kept as
test oracles.

``bigraded_model`` is the plain version that ``rht.formality`` replaced.
It builds a fresh ``Cdga`` on the generators so far twice per degree, before
and after the lower-degree-0 generators of that degree are added, and so
recomputes every monomial basis, every d of a monomial and every lower
weight at each stage.  It is slow and obviously faithful to the
Halperin-Stasheff construction; the tests require the library to give the
same generators, lower degrees, d images (with the same key order) and rho
images.

``barred_bigraded_model`` builds the barred model of a bigraded model B
over the p-sphere, which the library never builds: the obstruction's
witness, its replay and the lemma-3.6 scan note are all read off B.  The
tests compare those readings with this model.

``bar_linearity_report`` checks the barred model generator by generator:
d(Z) bar-free and d(Zbar) exactly bar-linear.  The library never runs it,
because both hold by construction; the tests run it on every barred model
they build.
"""

from fractions import Fraction

from rht.formality import (BigradedModel, RhoMorphism,
                           bigraded_bar_obstruction)
from rht.gca import Cdga, CheckReport, Poly
from rht.linalg import EchelonSpan, combine, homology, kernel_basis
from rht.mapmodel import bar_name, suspension_model
from rht.quotient import ModelCohomology

QONE = Fraction(1)


def bigraded_model(H, N):
    """Degree-by-degree Halperin-Stasheff construction over the ring H."""
    if H.rank(0) != 1:
        raise ValueError("H^0 must be Q")
    if H.rank(1) != 0:
        raise ValueError("H^1 must vanish")
    gens = []          # (name, degree)
    lower = {}
    dimages = {}
    rho_images = {}
    counters = {}

    def fresh(deg):
        i = counters.get(deg, 0)
        counters[deg] = i + 1
        return "z%d_%d" % (deg, i)

    def build():
        return Cdga(gens, dimages, N + 1)

    for n in range(2, N + 1):
        cur = build()

        def weight(m):
            return sum(lower[cur.names[i]] * e for i, e in m)

        def slot(deg, k):
            return [m for m in cur.degree_basis(deg) if weight(m) == k]

        def d_columns(source, target):
            pos = {m: i for i, m in enumerate(target)}
            return [{pos[mm]: c for mm, c in cur.d(Poly({m: QONE})).items()}
                    for m in source]

        def slot_reps(k):
            """Representatives of the slot-(n, k) cohomology, as Polys."""
            basis = slot(n, k)
            if not basis:
                return []
            vecs, _ = homology(d_columns(basis, slot(n + 1, k - 1)),
                               d_columns(slot(n - 1, k + 1), basis))
            return [Poly({basis[i]: c for i, c in v.items()}) for v in vecs]

        # surjectivity: new lower-0 generators hit a basis of coker(rho*)
        reps0 = slot_reps(0)
        rho = RhoMorphism(cur, H, rho_images)
        span = EchelonSpan(H.rank(n))
        for rep in reps0:
            span.add(rho.apply_poly(rep))
        for i in range(H.rank(n)):
            if span.add({i: QONE}):
                name = fresh(n)
                gens.append((name, n))
                lower[name] = 0
                rho_images[name] = H.element_poly(n, {i: QONE})

        # injectivity: kill surviving kernel classes, slot by slot
        cur = build()
        rho = RhoMorphism(cur, H, rho_images)
        max_k = max((lower[g] for g, _ in gens), default=0) + 1
        killers = []
        for k in range(0, max_k + 1):
            reps = slot_reps(k)
            if k == 0 and reps:
                # in slot 0 only the classes in the kernel of rho* are killed
                combos = kernel_basis([rho.apply_poly(rep) for rep in reps])
                reps = [Poly(combine((reps[j].terms, c)
                                     for j, c in combo.items()))
                        for combo in combos]
            killers.extend((k + 1, rep) for rep in reps)
        for klower, c in killers:
            name = fresh(n - 1)
            gens.append((name, n - 1))
            lower[name] = klower
            dimages[name] = c

    return build(), lower, rho_images


class BarredModel(BigradedModel):
    """The barred model of base over the p-sphere; barred_names are the
    bars of base's generators, in base's order."""

    def __init__(self, cdga, lower, ring, p, base, barred_names):
        super().__init__(cdga, lower, None, ring)
        self.p = p
        self.base = base
        self.barred_names = tuple(barred_names)


def barred_bigraded_model(B, p):
    """Suspension of a bigraded model, lower grading (Zbar)_n = bar((Z)_n).

    A plain builder, valid by construction for a valid B: S commutes with d
    up to (-1)^p on Lambda(Z), so d^2 = 0 carries over to d(zbar) =
    (-1)^p S(dz), and S keeps lower weight and word length, so homogeneity
    and minimality carry over too.  The cohomology target is recomputed from
    the barred algebra itself (it is not inherited); rho kills everything of
    positive lower degree.
    """
    alg = suspension_model(B.cdga, p)
    lower = dict(B.lower)
    for name in B.cdga.names:
        lower[bar_name(name)] = B.lower[name]
    return BarredModel(alg, lower, ModelCohomology(alg, alg.truncation - 1),
                       int(p), B, [bar_name(n) for n in B.cdga.names])


def bar_obstruction(barred, y_model, bound):
    """bigraded_bar_obstruction of the base and p of a barred model."""
    return bigraded_bar_obstruction(barred.base, barred.p, y_model, bound)


def bar_word_length(model, monomial):
    barred = set(model.barred_names)
    return sum(e for i, e in monomial
               if model.cdga.names[i] in barred)


def bar_linearity_report(barred):
    """d(Z) bar-free and d(Zbar) exactly bar-linear, generator by generator."""
    alg = barred.cdga
    barset = set(barred.barred_names)
    for name in alg.names:
        img = alg.differential.images.get(name, Poly())
        if not img:
            continue
        want = 1 if name in barset else 0
        for m in img.monomials():
            if bar_word_length(barred, m) != want:
                return CheckReport.violation(
                    "bar-linearity",
                    "d(%s) has a term of bar-length != %d" % (name, want))
    return CheckReport.good()
