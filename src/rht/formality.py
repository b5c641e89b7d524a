"""Formality verdicts with replayable certificates.

Every verdict carries evidence that re-verifies from scratch:

  * FreeCohomologyCert -- d = 0 on every generator up to the bound, so the
    cohomology there is the free algebra itself (Thom route);
  * KoszulCert -- Koszul shape plus a regular sequence of odd differentials,
    proved regular in every degree from Groebner leading terms, or else
    checked degreewise up to bound + 1; by the Koszul-complex theorem that
    is exactly the quasi-isomorphism onto the quotient ring up to bound, so
    neither produce nor replay computes the model's cohomology;
  * BarObstructionCert -- a structural non-formality witness on a barred
    bigraded model (only for odd sphere dimension: the even case cannot
    conclude and returns nothing).  The barred model is bar-linear by
    construction and its witness is read off the bigraded model B, so the
    certificate holds B and p, and nothing here builds the barred model:
    produce, replay and the pipeline's lemma-3.6 scan note all read it off
    B through the one rule bar_witnesses(B, p);
  * Lemma36Entry -- scan evidence, never a verdict by itself.

Unknown is always an honest outcome; no checker ever turns an exhausted
search into a verdict.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, itemgetter, le, mul, sub

from .gca import Cdga, CdgaMorphism, Poly, CheckReport, FreeGCA
from .quotient import QuotientRing, ModelCohomology
from .linalg import EchelonSpan, combine, homology, kernel_basis
from .mapmodel import (suspension_model, bar_name, check_hypotheses,
                       reduce_to_odd_sphere, SplitError)
from .cefunctor import ce_cochains
from .dgl import tensor_map_model

QONE = Fraction(1)

# S-pairs the leading-term proof of regularity reduces before it leaves the
# sequence to the degreewise check
S_PAIR_CAP = 64

FORMAL = "formal"
NONFORMAL = "nonformal"
UNKNOWN = "unknown"


class ConsistencyError(Exception):
    """A Formal and a NonFormal certificate were derived for the same input."""


class FormalityVerdict:
    def __init__(self, verdict, bound, certificate=None, notes=None):
        if verdict not in (FORMAL, NONFORMAL, UNKNOWN):
            raise ValueError(verdict)
        self.verdict = verdict
        self.bound = int(bound)
        self.certificate = certificate
        self.notes = list(notes or [])

    @property
    def is_formal(self):
        return self.verdict == FORMAL

    def __repr__(self):
        kind = getattr(self.certificate, "kind", None)
        return "FormalityVerdict(%s, bound=%d, certificate=%s)" % (
            self.verdict, self.bound, kind)


# -- rho: CDGA -> graded ring with zero differential -----------------------

class RhoMorphism:
    """Multiplicative map from a Cdga to a degreewise ring, zero target d.

    images maps generator names to representatives, polynomials of the
    ring's ambient algebra (missing or 0 means zero), each of its
    generator's degree (ValueError otherwise).  The map is computed through
    its lift, the CdgaMorphism into the ambient algebra with those images: a
    polynomial is substituted first and the column of its class read off
    once.  H(phi) of a CdgaMorphism phi is the rho with phi's images into
    ModelCohomology(phi.target).
    """

    def __init__(self, cdga, ring, images):
        self.cdga = cdga
        self.ring = ring
        for name, img in images.items():
            degree = ring.ambient.poly_degree(img)
            if img and degree != cdga.gen_degree(name):
                raise ValueError("rho image of %s has degree %d, not %d"
                                 % (name, degree, cdga.gen_degree(name)))
        self.lift = CdgaMorphism(cdga, ring.ambient, images)

    def apply_poly(self, p):
        return self.ring.poly_class(self.lift.apply(p))

    def is_quasi_iso(self, upto):
        """(True, None) if the induced map H^n(cdga) -> ring_n is an
        isomorphism for all n <= upto, else (False, first bad degree).
        Truncation-relative."""
        for n in range(0, upto + 1):
            rk, reps = self.cdga.cohomology(n)
            if rk != self.ring.rank(n):
                return False, n
            span = EchelonSpan(rk)
            if not all(span.add(self.apply_poly(rep)) for rep in reps):
                return False, n
        return True, None


# -- certificates ------------------------------------------------------------

class FreeCohomologyCert:
    kind = "free-cohomology"

    def __init__(self, model, generator_degrees, bound):
        self.model = model
        self.generator_degrees = sorted(generator_degrees)
        self.bound = int(bound)

    def replay(self):
        return free_cohomology_check(self.model, self.bound) == \
            self.generator_degrees


class RegularSequenceWitness:
    """Why a sequence is not regular: f_index, degree, offending class."""

    def __init__(self, index, degree, element_poly):
        self.index = index
        self.degree = degree
        self.element_poly = element_poly

    def __repr__(self):
        return "RegularSequenceWitness(index=%d, degree=%d)" % (
            self.index, self.degree)


class KoszulCert:
    """Koszul shape and odd differentials regular up to bound + 1: both are
    read off the model, so the model is the whole certificate.  A sequence
    that the leading terms of a Groebner basis prove regular in the whole
    ring replays at a cost that does not depend on bound; only the
    degreewise fallback of regular_sequence_check costs what bound says."""
    kind = "koszul-regular-sequence"

    def __init__(self, model, bound, shape=None):
        self.model = model
        self.bound = int(bound)
        self.shape = shape or koszul_shape(model)
        if self.shape is None:
            raise ValueError("model is not of Koszul shape")
        self.even_gens, self.odd_closed, self.odd_sequence = self.shape

    def regularity(self):
        """regular_sequence_check of the odd differentials up to bound + 1."""
        even_alg, seq, _ = koszul_sequence(self.model, self.shape)
        return regular_sequence_check(even_alg, seq, self.bound + 1)

    def replay(self):
        return self.regularity()[0]

    @cached_property
    def rho(self):
        return koszul_rho(self.model, self.shape)


class BarObstructionCert:
    kind = "bar-linearity-obstruction"

    def __init__(self, y_model, bigraded, p, witness, bound):
        self.y_model = y_model        # minimal Cdga of Y
        self.bigraded = bigraded      # BigradedModel of H*(Y)
        self.p = int(p)               # the odd sphere dimension
        self.witness = witness        # see bar_witnesses
        self.bound = int(bound)

    def replay(self):
        """The target model is checked where it is parsed, and so is that
        the bigraded block B and p admit a barred model.  The barred model
        is never built: it is bar-linear by construction, and the degree
        and lower degree of a barred generator are read off B.  Replay
        checks that p is odd, that the target model is p-connected enough
        for the theorem (every generator of degree >= p + 2, that is,
        m >= p + 1), that the witness obeys bar_witnesses, and B
        (structure, and rho into B.ring, the cohomology of the target model
        up to the bound, a quasi-isomorphism)."""
        if self.p % 2 == 0 or \
                any(deg < self.p + 2 for deg in self.y_model.degrees) or \
                self.witness not in bar_witnesses(self.bigraded, self.p):
            return False
        return bool(self.bigraded.validate(self.bound))


# -- checkers ---------------------------------------------------------------

def free_cohomology_check(A, N):
    """The sorted degrees of the generators of the Cdga A of degree <= N
    when d is 0 on every one of them, else None.

    d = 0 up to N makes H^{<=N}(A) the free algebra on those generators, so
    they are the witness, and no cohomology is computed.  Ranks alone are
    no witness: a minimal model with d != 0 can have the ranks of a free
    algebra up to N.
    """
    low = [name for name in A.names if A.gen_degree(name) <= N]
    if any(A.differential.images.get(name) for name in low):
        return None
    return sorted(A.gen_degree(name) for name in low)


def exponent_key(algebra, N):
    """(radix, key) for the monomials of degree <= N of an even ring:
    key(m) = -sum of e * radix^(n - 1 - g) over the pairs (g, e) of m, with
    n generators and radix = N // (least generator degree) + 1.

    No exponent reaches the radix, so -key(m) is m's exponent vector read
    as base-radix digits: keys are distinct, ascending keys are
    degree_basis order within a degree, and key(m * t) = key(m) + key(t),
    as a product in an even ring adds exponents, with no sign."""
    radix = N // min(algebra.degrees, default=1) + 1
    n = len(algebra.degrees)
    weights = [-radix ** (n - 1 - g) for g in range(n)]

    def key(m):
        k = 0
        for g, e in m:
            k += weights[g] * e
        return k
    return radix, key


def _meets_all(supports, k):
    """Is there a set of at most k variables that meets every support, a
    bit mask of variables?  An empty support is met by no set."""
    if not supports:
        return True
    if not k:
        return False
    rest = supports[0]
    while rest:
        bit = rest & -rest
        rest ^= bit
        if _meets_all([s for s in supports if not s & bit], k - 1):
            return True
    return False


# an exponent vector's reverse: the least reverse is the greatest monomial
# of a degree in reverse lexicographic order
_revlex = itemgetter(slice(None, None, -1))


def _regular_by_leading_terms(algebra, seq, N):
    """True when the leading monomials of a partial Groebner basis prove
    f = seq regular in the whole ring Q[evens]; False when they do not
    within N, or within S_PAIR_CAP S-pairs, which proves nothing.

    Buchberger's algorithm in Fractions on exponent vectors, in weighted
    grevlex order (degree by the generator degrees, ties by reverse lex),
    taking pairs by ascending degree of their lcm and skipping a pair whose
    leading monomials are coprime.  The f_i are homogeneous, so every
    S-polynomial is, of its lcm's degree; pairs above N are left alone.
    Each new leading monomial joins L, the ideal they generate, and the
    search stops as soon as no set of r - 1 variables meets every one,
    that is, once ht L = r, the least number of variables that does:
      * L lies in in(I), so ht L <= ht in(I) = ht I, as Q[evens]/in(I)
        and Q[evens]/I have one Hilbert function (Cox, Little and O'Shea,
        Ideals, Varieties, and Algorithms, ch. 9);
      * ht I <= r by Krull's height theorem, as I = (f) is proper: every
        f_i is homogeneous of positive degree;
      * so ht I = r, and homogeneous f_1, ..., f_r with ht (f) = r are a
        regular sequence of the Cohen-Macaulay ring Q[evens] (Bruns and
        Herzog, Cohen-Macaulay Rings, 2.1): f_i is injective on every
        degree of Q[evens]/(f_<i), and the degreewise check would give
        (True, None) at every N.
    A nonzero constant would make I the whole ring, outside Krull's
    theorem, so a constant, like f_i = 0, a sequence of length <= 1 and
    more relations than variables, is left to the degreewise check."""
    r, n = len(seq), len(algebra.degrees)
    # f_i is homogeneous: () among its terms makes it a constant
    if not 1 < r <= n or not all(f and () not in f.terms for f in seq):
        return False
    basis, supports, pairs = [], [], []

    def insert(p):
        """Adds p, made monic, to the basis; True once ht L = r."""
        lm = min(p, key=_revlex)
        c = p[lm]
        p = {m: x / c for m, x in p.items()}
        j = len(basis)
        for i, (other, _) in enumerate(basis):
            if any(map(min, lm, other)):
                top = tuple(map(max, lm, other))
                degree = sum(map(mul, algebra.degrees, top))
                pairs.append((degree, i, j, top))
        basis.append((lm, p))
        supports.append(sum(1 << g for g, x in enumerate(lm) if x))
        return not _meets_all(supports, r - 1)

    def subtract(h, p, t, c):
        """h - c * t * p, in place, for a monomial t."""
        for m, x in p.items():
            m = tuple(map(add, m, t))
            y = h.get(m, 0) - c * x
            if y:
                h[m] = y
            else:
                del h[m]
        return h

    for f in seq:
        if insert({tuple(dict(m).get(g, 0) for g in range(n)): c
                   for m, c in f.items()}):
            return True
    done = 0
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        degree, i, j, top = pair
        done += 1
        if degree > N or done > S_PAIR_CAP:
            return False
        (lm_i, p_i), (lm_j, p_j) = basis[i], basis[j]
        h = subtract({}, p_i, tuple(map(sub, top, lm_i)), -QONE)
        subtract(h, p_j, tuple(map(sub, top, lm_j)), QONE)
        while h:  # top-reduced until no basis leading monomial divides h's
            lm = min(h, key=_revlex)
            for other, p in basis:
                if all(map(le, other, lm)):
                    subtract(h, p, tuple(map(sub, lm, other)), h[lm])
                    break
            else:
                if insert(h):
                    return True
                break
    return False


def regular_sequence_check(algebra, seq, N):
    """Is f_1, ..., f_k a regular sequence in the even polynomial ring, up to
    total degree N?  Checks that multiplication by f_i is injective on every
    degree <= N - |f_i| of the partial quotient Q[evens]/(f_<i), that is,
    that its columns are independent; a nonzero f_1 is injective because
    Q[evens] is a domain.

    First _regular_by_leading_terms tries to prove the sequence regular in
    the whole ring, which holds at every N; then the answer is (True,
    None) and nothing is enumerated.  Otherwise the degreewise check below
    decides, and it alone gives every witness and every "regular only up
    to N": only that fallback is truncation-relative.

    One span per degree n holds the degree-n part of (f_<i), its columns
    the exponent_key keys of the degree-n monomials, which sort in basis
    order, so each pivot is the monomial it would be over basis positions.
    Q_k = Q[evens]_k/(f_<i)_k has the non-pivot monomials of the degree-k
    span as its basis, so multiplication by f_i is injective on Q_k
    exactly when the products f_i * m over those monomials m are
    independent modulo the degree-(k + |f_i|) span.  The same products
    also span (f_<=i) there: a pivot monomial is a combination of basis
    monomials modulo (f_<i)_k, so f_i times it is one modulo (f_<i).  They
    are integer rows for add_int: f_i is scaled once to a primitive
    integer polynomial, positive at its least key, which changes neither
    the kernel nor injectivity and makes every row primitive, and the
    column of m * t is key(m) + key(t), valid as |m * t| <= N.  Only the
    bases of degrees <= N - |f_i| are enumerated.  The witness of a
    failing (i, k) is the first kernel vector of the residues of those
    rows, read on the basis monomials of Q_k; only then are keys mapped
    back to basis positions."""
    if any(d % 2 for d in algebra.degrees):
        raise ValueError("regular sequences live in an even polynomial ring")
    degrees = [algebra.poly_degree(f) for f in seq]  # raises if inhomogeneous
    if _regular_by_leading_terms(algebra, seq, N):
        return True, None
    _, key = exponent_key(algebra, N)
    spans, keys = {}, {}

    def span(n):
        if n not in spans:
            spans[n] = EchelonSpan(algebra.dim(n))
        return spans[n]

    def basis_keys(n):
        if n not in keys:
            keys[n] = list(map(key, algebra.degree_basis(n)))
        return keys[n]

    for i, (f, df) in enumerate(zip(seq, degrees)):
        if df is None:
            return False, RegularSequenceWitness(i, 0, Poly.unit())
        last = i == len(seq) - 1
        if last and not i:
            break
        den = lcm(*[c.denominator for c in f.terms.values()])
        ints = [(int(c * den), key(t)) for t, c in f.items()]
        g = gcd(*[c for c, _ in ints])
        if min(ints, key=itemgetter(1))[0] < 0:
            g = -g
        terms = [(c // g, t) for c, t in ints]
        # f_i's rows enter the spans after its last k, so that every Q_k it
        # is tested on is taken modulo (f_<i), and only if a later
        # relation reads them
        pending = []
        for k in range(0, N - df + 1):
            pivots = set(span(k).pivots)
            ks = basis_keys(k)
            free = [j for j, mk in enumerate(ks) if mk not in pivots]
            target = span(k + df)
            rows = [{ks[j] + t: c for c, t in terms} for j in free]
            if i:
                fresh = EchelonSpan(target.dim)
                if not all(fresh.add_int(r, target) for r in rows):
                    # residue reads basis positions: copy target onto them
                    pos = {key(m): j for j, m in
                           enumerate(algebra.degree_basis(k + df))}
                    base = EchelonSpan(target.dim)
                    for r in target.rows:
                        base.add({pos[c]: x for c, x in r.items()})
                    ker = kernel_basis([
                        base.residue({pos[c]: x for c, x in r.items()})
                        for r in rows])[0]
                    basis = algebra.degree_basis(k)
                    bad = Poly({basis[free[j]]: c for j, c in ker.items()})
                    return False, RegularSequenceWitness(i, k, bad)
            if not last:
                pending.append((target, rows))
        for target, rows in pending:
            for r in rows:
                target.add_int(r)
    return True, None


def koszul_shape(A):
    """(even generators, closed odd generators, non-closed odd generators)
    if A is of pure-Koszul shape, else None.

    Shape: every even generator closed; every non-closed odd generator's
    differential lies in the polynomial ring on the even generators."""
    evens, odd_closed, odd_seq = [], [], []
    even_idx = set()
    for i, name in enumerate(A.names):
        if A.degrees[i] % 2 == 0:
            even_idx.add(i)
    for name in A.names:
        deg = A.gen_degree(name)
        img = A.differential.images.get(name, Poly())
        if deg % 2 == 0:
            if img:
                return None
            evens.append(name)
        elif not img:
            if name in A.truncated_gens:
                return None
            odd_closed.append(name)
        else:
            for m in img.monomials():
                if any(i not in even_idx for i, _ in m):
                    return None
            odd_seq.append(name)
    return evens, odd_closed, odd_seq


def _restrict_poly(p, src, dst):
    return Poly(combine(
        (dst.monomial_of_word([(src.names[i], e) for i, e in m]).terms, c)
        for m, c in p.items()))


def koszul_sequence(A, shape=None):
    """(even polynomial ring, odd-differential sequence, odd generator names)
    for an algebra of Koszul shape (given, or computed here); None otherwise."""
    shape = shape or koszul_shape(A)
    if shape is None:
        return None
    evens, _, odd_seq = shape
    even_alg = FreeGCA([(g, A.gen_degree(g)) for g in evens])
    seq = [_restrict_poly(A.differential.images[g], A, even_alg)
           for g in odd_seq]
    return even_alg, seq, odd_seq


def koszul_rho(A, shape=None):
    """rho: A -> Q[evens]/(f) (x) Lambda(closed odds), killing the non-closed
    odd generators, for an algebra of Koszul shape."""
    evens, odd_closed, odd_seq = shape or koszul_shape(A)
    kept = evens + odd_closed
    target_alg = FreeGCA([(g, A.gen_degree(g)) for g in kept])
    rels = [_restrict_poly(A.differential.images[g], A, target_alg)
            for g in odd_seq]
    ring = QuotientRing(target_alg, rels, A.truncation)
    return RhoMorphism(A, ring, {g: target_alg.gen(g) for g in kept})


def koszul_formality(A, N):
    """Formal with a Koszul certificate, or Unknown.  Never a false verdict.

    On Koszul shape (even generators closed, each non-closed odd y_i with
    d y_i = f_i in Q[evens]) the whole check is that f is regular up to
    N + 1.  d keeps the internal degree |y_i| + 1 = |f_i|, so H^n(A) holds
    H_j(K)_{n+j} of the Koszul complex K of f for every j, and H_j(K)_m = 0
    for all m <= N + j exactly when each f_i is injective on Q[evens]/(f_<i)
    up to degree N + 1 - |f_i|: exactly when koszul_rho is a
    quasi-isomorphism up to N.  The bound N would be too weak:
    Lambda(a2, y3, z5), dy = a^2, dz = a^3 is regular up to 5, yet
    [z - a*y] != 0 in H^5."""
    if N + 1 > A.truncation:
        raise ValueError("koszul_formality needs truncation >= N + 1")
    shape = koszul_shape(A)
    if shape is None:
        return FormalityVerdict(UNKNOWN, N,
                                notes=["not of Koszul shape"])
    cert = KoszulCert(A, N, shape)
    ok, witness = cert.regularity()
    if not ok:
        return FormalityVerdict(
            UNKNOWN, N,
            notes=["sequence (%s) is not regular: index %d degree %d"
                   % (", ".join(cert.odd_sequence), witness.index,
                      witness.degree)])
    return FormalityVerdict(FORMAL, N, certificate=cert)


# -- bigraded models ---------------------------------------------------------

class BigradedModel:
    """Minimal Sullivan model of a cohomology ring with a resolution grading.

    lower maps generators to their resolution degree; rho_images maps the
    lower-degree-0 generators to cocycle representatives in the ambient
    algebra of ring (everything else goes to 0).  Given as None, each
    lower-degree-0 generator is its own representative.
    """

    def __init__(self, cdga, lower, rho_images, ring):
        self.cdga = cdga
        self.lower = dict(lower)
        self.rho_images = ({name: cdga.gen(name) for name in cdga.names
                            if self.lower.get(name) == 0}
                           if rho_images is None else dict(rho_images))
        self.ring = ring

    def rho(self):
        return RhoMorphism(self.cdga, self.ring, self.rho_images)

    def lower_weight(self, monomial):
        return sum(self.lower[self.cdga.names[i]] * e for i, e in monomial)

    def w_plus(self):
        return [n for n in self.cdga.names if self.lower[n] >= 1]

    def validate(self, upto=None):
        """All structural invariants plus rho being a quasi-isomorphism up
        to upto, decided by ranks and by rho onto each degree.

        validate_structure has checked that d is a derivation of degree +1
        with d^2 = 0 that lowers the lower weight by one, that d vanishes on
        the lower-degree-0 generators and that rho kills every other
        generator.  So rank H^n(B) = dim B^n - rank d^n - rank d^{n-1},
        and the monomials of lower weight 0 are cocycles while rho kills
        every other monomial: the weight-0 part of a cocycle is a cocycle
        (its d would have weight -1) and carries all of its image.  The
        image of rho* in degree n is then the span of rho(m) over the
        weight-0 monomials m of degree n, and with rank H^n(B) equal to
        rank ring_n, rho* is onto exactly when it is an isomorphism.  Each
        degree fails exactly where RhoMorphism.is_quasi_iso fails, with no
        cohomology of B computed."""
        rep = self.validate_structure()
        if not rep:
            return rep
        upto = self.cdga.truncation - 1 if upto is None else upto
        rho = self.rho()
        alg = self.cdga
        # rho d = 0 needs checking on lower degree 1 alone: d(z) has lower
        # weight lower(z) - 1, so for lower(z) >= 2 each of its monomials
        # has a factor that rho kills
        for name in alg.names:
            img = alg.differential.images.get(name)
            if self.lower[name] == 1 and img and rho.apply_poly(img):
                return CheckReport.violation(
                    "cochain", "rho(d %s) != 0" % name)
        rank_in = 0  # rank of d into degree n
        for n in range(0, upto + 1):
            span = EchelonSpan(alg.dim(n + 1))
            rank_out = sum(span.add(col) for col in alg.d_columns(n) if col)
            rk = self.ring.rank(n)
            if alg.dim(n) - rank_out - rank_in != rk or \
                    not self._rho_onto(rho, n, rk):
                return CheckReport.violation(
                    "quasi-iso", "rho fails at degree %d" % n)
            rank_in = rank_out
        return CheckReport.good()

    def _rho_onto(self, rho, n, rank):
        """Whether rho of the weight-0 monomials of degree n spans ring_n,
        of the given rank."""
        span = EchelonSpan(rank)
        for m in self.cdga.degree_basis(n):
            if span.rank() == rank:
                break
            if not self.lower_weight(m):
                span.add(rho.apply_poly(Poly._of({m: QONE})))
        return span.rank() == rank

    def validate_structure(self):
        alg = self.cdga
        rep = alg.check()
        if not rep:
            return rep
        for name in alg.names:
            if name not in self.lower:
                return CheckReport.violation("grading", "%s has no lower degree" % name)
            img = alg.differential.images.get(name, Poly())
            if self.lower[name] == 0:
                if img:
                    return CheckReport.violation(
                        "grading", "d != 0 on lower-degree-0 generator %s" % name)
                continue
            for m in img.monomials():
                if self.lower_weight(m) != self.lower[name] - 1:
                    return CheckReport.violation(
                        "grading", "d(%s) is not homogeneous of lower degree %d"
                        % (name, self.lower[name] - 1))
                if sum(e for _, e in m) < 2:
                    return CheckReport.violation(
                        "minimality", "d(%s) has a linear term" % name)
            if self.rho_images.get(name):
                return CheckReport.violation(
                    "rho", "rho does not vanish on %s in positive lower degree" % name)
        return CheckReport.good()


def bigraded_model(H, N):
    """Degree-by-degree Halperin-Stasheff construction over the ring H.

    H is a quotient.DegreewiseRing: a presented ring
    QuotientRing(FreeGCA(gens), relations, N) or a ModelCohomology.  It must
    have H^0 = Q and H^1 = 0 (ValueError otherwise).  Lower-degree-0
    generators surject onto H's algebra generators; each further stage kills
    the kernel of H(current model) -> H, slot by slot in the resolution
    grading.

    The model grows in one algebra, built again only after generators were
    added.  Generator indices are append-only and d of a generator never
    changes, so the d and the lower weight of a monomial never change
    either: each is computed once, and kept for the degrees the next stage
    reads.  A new lower-degree-0 generator's rho image is the
    representative of a basis class of H, lifted once.
    """
    if H.rank(0) != 1:
        raise ValueError("H^0 must be Q")
    if H.rank(1) != 0:
        raise ValueError("H^1 must vanish")
    gens = []          # (name, degree)
    lower = {}
    low = []           # lower degree by generator index
    dimages = {}
    rho_images = {}    # representatives in H.ambient
    counters = {}
    d_of = {}          # degree -> {monomial: d(monomial).terms}
    weight_of = {}     # degree -> {monomial: lower weight}
    cur = rho = None
    slots = {}         # degree -> {k: monomials of lower weight k} of cur
    reps = {}          # k -> slot-(n, k) representatives of cur

    def new_generator(deg, k):
        i = counters.get(deg, 0)
        counters[deg] = i + 1
        name = "z%d_%d" % (deg, i)
        gens.append((name, deg))
        lower[name] = k
        low.append(k)
        return name

    def rebuild_if_grown():
        """cur, and rho on it, on the generators so far."""
        nonlocal cur, rho, slots, reps
        if cur is None or len(cur.names) < len(gens):
            cur = Cdga(gens, dimages, N + 1)
            rho = RhoMorphism(cur, H, rho_images)
            slots, reps = {}, {}

    def slot(deg, k):
        if deg not in slots:
            weights = weight_of.setdefault(deg, {})
            by_k = slots[deg] = {}
            for m in cur.degree_basis(deg):
                w = weights.get(m)
                if w is None:
                    w = weights[m] = sum(low[i] * e for i, e in m)
                by_k.setdefault(w, []).append(m)
        return slots[deg].get(k, [])

    def d_columns(deg, k):
        """d from slot (deg, k) into slot (deg + 1, k - 1)."""
        pos = {m: i for i, m in enumerate(slot(deg + 1, k - 1))}
        known = d_of.setdefault(deg, {})
        cols = []
        for m in slot(deg, k):
            dm = known.get(m)
            if dm is None:
                dm = known[m] = cur.d(Poly._of({m: QONE})).terms
            cols.append({pos[mm]: c for mm, c in dm.items()})
        return cols

    def slot_reps(k):
        """Representatives of the slot-(n, k) cohomology, as Polys."""
        if k not in reps:
            basis = slot(n, k)
            vecs = homology(d_columns(n, k), d_columns(n - 1, k + 1),
                            len(basis))[0] if basis else []
            reps[k] = [Poly._of({basis[i]: c for i, c in v.items()})
                       for v in vecs]
        return reps[k]

    for n in range(2, N + 1):
        rebuild_if_grown()
        reps = {}      # stage n's own
        # surjectivity: new lower-0 generators hit a basis of coker(rho*)
        span = EchelonSpan(H.rank(n))
        for rep in slot_reps(0):
            span.add(rho.apply_poly(rep))
        for i in range(H.rank(n)):
            if span.add({i: QONE}):
                rho_images[new_generator(n, 0)] = H.element_poly(n, {i: QONE})

        # injectivity: kill surviving kernel classes, slot by slot
        rebuild_if_grown()
        killers = []
        for k in range(0, max(low, default=0) + 2):
            kreps = slot_reps(k)
            if k == 0 and kreps:
                # in slot 0 only the classes in the kernel of rho* are killed
                combos = kernel_basis([rho.apply_poly(rep) for rep in kreps])
                kreps = [Poly(combine((kreps[j].terms, c)
                                      for j, c in combo.items()))
                         for combo in combos]
            killers.extend((k + 1, rep) for rep in kreps)
        for klower, c in killers:
            dimages[new_generator(n - 1, klower)] = c
        # the next stage reads degrees n to n + 2
        for cache in (d_of, weight_of, slots):
            cache.pop(n - 1, None)

    rebuild_if_grown()
    return BigradedModel(cur, lower, rho_images, H)


def bar_witnesses(B, p):
    """The witness rule of the bar obstruction: the bar names of the
    generators z of B, in B's order, with |z| - p even and lower(z) >= 1.
    The bar of z has degree |z| - p and lower degree lower(z), so these are
    the even generators of positive lower degree of the barred model."""
    alg = B.cdga
    return [bar_name(z) for z, deg in alg.generators
            if (deg - p) % 2 == 0 and B.lower[z] >= 1]


def bigraded_bar_obstruction(B, p, y_model, bound):
    """NonFormal certificate from bar-linearity, or None with a reason.

    Emitted only when p is odd (for even p the argument cannot conclude) and
    the barred model of B over the p-sphere has an even generator in
    positive lower degree; any power of that generator has bar-length >= 2
    while every differential is bar-linear, so no Lemma-3.6 witness can
    exist.  The witness is the first name of bar_witnesses(B, p), read off
    B alone.  The certificate embeds B up to bound + 1, and replay checks
    rho on it up to bound.
    """
    if p % 2 == 0:
        return None, ["p = %d is even: the bar argument cannot conclude" % p]
    witnesses = bar_witnesses(B, p)
    if not witnesses:
        return None, ["no even barred generator of positive lower degree"]
    return BarObstructionCert(y_model, B, p, witnesses[0], bound), []


class Lemma36Entry:
    """Scan outcome for one even generator of positive lower degree."""

    def __init__(self, w, degree, results, status, witness=None):
        self.w = w
        self.degree = degree
        self.results = results      # list of (n, found: bool)
        self.status = status        # "witnessed" | "missing"
        self.witness = witness      # (w' poly, n, omega poly) when witnessed

    def __repr__(self):
        return "Lemma36Entry(%s, %s)" % (self.w, self.status)


def lemma36_scan(B, N, rng=None, random_combos=0):
    """For each even-degree generator w of positive lower degree, look for an
    odd generator combination w' with d(w') = w^n + Omega (no w^n term in
    Omega), for every n >= 2 with n|w| <= N.

    "missing" is evidence against formality within the scanned window, never
    a verdict.  Coefficients are extracted monomial-wise (for a generator w
    the power w^n is a single monomial, so there is no ambiguity).  With
    random_combos > 0, seeded random linear combinations of the even part are
    scanned too; full quantification over all nonzero elements is infinite
    and is not attempted.
    """
    alg = B.cdga
    wplus = B.w_plus()
    odd_wplus = [g for g in wplus if alg.gen_degree(g) % 2 == 1]
    entries = []

    def scan_element(label, poly, degw):
        results = []
        witness = None
        for n in range(2, N // degw + 1):
            target = alg.power(poly, n)
            if not target:
                results.append((n, False))
                continue
            lead = min(target.monomials(), key=alg.monomial_key)
            lead_coeff = target.coeff(lead)
            cands = [g for g in odd_wplus
                     if alg.gen_degree(g) == n * degw - 1]
            row = [alg.differential.images.get(g, Poly()).coeff(lead)
                   / lead_coeff for g in cands]
            # row . x = 1 in closed form: x_j = 1 / row[j] at the first
            # nonzero entry j, every other x_j = 0
            j = next((j for j, r in enumerate(row) if r), None)
            if j is not None:
                wprime = alg.gen(cands[j]).scale(QONE / row[j])
                omega = alg.d(wprime) - target.scale(QONE / lead_coeff)
                witness = (wprime, n, omega)
                results.append((n, True))
                break
            results.append((n, False))
        status = "witnessed" if witness else "missing"
        return Lemma36Entry(label, degw, results, status, witness)

    for w in wplus:
        degw = alg.gen_degree(w)
        if degw % 2 or 2 * degw > N:
            continue
        entries.append(scan_element(w, alg.gen(w), degw))

    if random_combos and rng is not None:
        evens = [g for g in wplus
                 if alg.gen_degree(g) % 2 == 0 and 2 * alg.gen_degree(g) <= N]
        by_degree = {}
        for g in evens:
            by_degree.setdefault(alg.gen_degree(g), []).append(g)
        for degw, gs in sorted(by_degree.items()):
            if len(gs) < 2:
                continue
            for _ in range(random_combos):
                poly = Poly()
                while not poly:
                    poly = Poly(combine((alg.gen(g).terms, rng.randint(-2, 2))
                                        for g in gs))
                entries.append(scan_element(
                    "random(%s)" % alg.poly_str(poly), poly, degw))
    return entries


def barred_scan_missing(B, p, N):
    """The generators that lemma36_scan of the barred model of B over the
    p-sphere reports missing up to N < B.cdga.truncation, in that model's
    order (B's names, then their bars), read off B: the barred model is
    never built.  An odd bar has a bar-linear d, with no w^n term of an
    unbarred w, so B's own entries are those of lemma36_scan(B, N); and no
    d has a w^n term, n >= 2, of an even bar w, so every bar of
    bar_witnesses(B, p) that the scan reaches (2|w| <= N) is missing."""
    missing = [e.w for e in lemma36_scan(B, N) if e.status == "missing"]
    bar_degree = {bar_name(z): deg - p for z, deg in B.cdga.generators}
    return missing + [w for w in bar_witnesses(B, p)
                      if 2 * bar_degree[w] <= N]


# -- the pipeline ------------------------------------------------------------

def mapping_space_model(prob, N=None):
    """(Sullivan model of F(X, Y), notes, tensor Lie model or None).

    Sphere X with a minimal Sullivan Y-model takes the suspension route;
    a Lie model of Y takes the tensor route through the cochain functor, and
    the tensor Lie model A (x) L is returned with it.  With N, the model
    must support checks up to degree N (ValueError otherwise).
    """
    notes = []
    if prob.y_cdga is not None:
        if not prob.x_model.is_sphere():
            raise ValueError(
                "the Sullivan route needs X to be a sphere model; "
                "give Y as a Lie model instead")
        if N is not None and prob.y_cdga.truncation < N + 1:
            raise ValueError("Y-model truncation must be at least N + 1")
        model = suspension_model(prob.y_cdga, prob.p)
        notes.append("suspension route: %d generators" % len(model.names))
        return model, notes, None
    M = tensor_map_model(prob.x_model, prob.y_dgl)
    res = ce_cochains(M, M.truncation + 1)
    if N is not None and res.cdga.truncation < N + 1:
        raise ValueError(
            "Y Lie model truncation supports checks only up to degree %d"
            % (res.cdga.truncation - 1))
    notes.append("tensor route: %d generators" % len(res.cdga.names))
    return res.cdga, notes, M


def y_cohomology_ring(prob, N):
    """H*(Y) up to N, or up to what a Lie model of Y supports; its cdga is
    the Sullivan model of Y."""
    if prob.y_cdga is not None:
        return ModelCohomology(prob.y_cdga, N)
    ce = ce_cochains(prob.y_dgl, prob.y_dgl.truncation + 1)
    return ModelCohomology(ce.cdga, min(N, ce.cdga.truncation - 1))


def formality_pipeline(prob, N):
    """Strongest verdict for the model of F(X, Y), with certificate.

    Order: free cohomology (d = 0 on the model's generators up to N), the
    Koszul route, then (odd p, via the sphere reduction if X is not itself
    a sphere) the bigraded bar obstruction, which is skipped when d = 0 on
    Y's model up to the bound, since H*(Y) is then free there.  On the
    Sullivan route the model is minimal, and there a count of ranks proves
    nothing: for odd p the theorem makes F(X, Y) formal only when Y's
    minimal model has d = 0.  On the Lie route a non-sphere X reduces to
    the odd sphere of hyp.t when split_odd_generator accepts t;
    check_hypotheses chose t odd and closed, so q.check() is the one check
    there that can fail, and the reduction builds nothing else.  All
    inconclusive -> Unknown(N).  A Formal and a NonFormal certificate for
    the same input raises ConsistencyError.  N must be at least 1.
    """
    if N < 1:
        raise ValueError("the degree bound N must be at least 1, got %d" % N)
    hyp = check_hypotheses(prob)
    if not hyp.ok:
        raise ValueError("hypotheses violated: %s" % "; ".join(hyp.messages))
    model, notes, _ = mapping_space_model(prob, N)
    formal_verdict = None
    nonformal_verdict = None

    degrees = free_cohomology_check(model, N)
    if degrees is not None:
        cert = FreeCohomologyCert(model, degrees, N)
        notes.append("free cohomology on generator degrees %s" % degrees)
        formal_verdict = FormalityVerdict(FORMAL, N, cert, notes)
    else:
        notes.append("d is nonzero on a generator of degree <= %d: no "
                     "free-cohomology witness" % N)

    if formal_verdict is None:
        kv = koszul_formality(model, N)
        if kv.is_formal:
            kv.notes = notes + kv.notes
            formal_verdict = kv
        else:
            notes.extend(kv.notes)

    # negative route: only an odd sphere dimension can conclude
    p_eff = None
    reduction_note = None
    if prob.x_model.is_sphere():
        if prob.p % 2 == 1:
            p_eff = prob.p
    elif prob.y_dgl is not None and hyp.t is not None:
        try:
            p_eff = reduce_to_odd_sphere(prob.x_model, hyp.t)
            reduction_note = ("reduced to the %d-sphere: q, the retraction "
                              "onto the class %s, is a cochain algebra map"
                              % (p_eff, hyp.t))
        except SplitError as exc:
            notes.append("reduction unavailable: %s" % exc)
    if p_eff is None and formal_verdict is None:
        notes.append("no odd sphere reduction: the bar obstruction does not apply")

    if p_eff is not None:
        H_y = y_cohomology_ring(prob, N)
        ydeg = free_cohomology_check(H_y.cdga, H_y.truncation)
        if ydeg is None:
            B = bigraded_model(H_y, H_y.truncation)
            cert, ob_notes = bigraded_bar_obstruction(B, p_eff, H_y.cdga,
                                                      H_y.truncation)
            notes.extend(ob_notes)
            if cert is not None:
                missing = barred_scan_missing(
                    B, p_eff, min(N, B.cdga.truncation - 1))
                notes.append("lemma-3.6 scan: missing witnesses for %s"
                             % (missing or "nothing in range"))
                if reduction_note:
                    notes.append(reduction_note)
                nonformal_verdict = FormalityVerdict(NONFORMAL, N, cert, notes)
        else:
            notes.append("H*(Y) is free on degrees %s: no obstruction" % ydeg)

    if formal_verdict is not None and nonformal_verdict is not None:
        raise ConsistencyError(
            "both Formal and NonFormal were derived; this is a bug")
    if nonformal_verdict is not None:
        return nonformal_verdict
    if formal_verdict is not None:
        return formal_verdict
    return FormalityVerdict(UNKNOWN, N, notes=notes)
