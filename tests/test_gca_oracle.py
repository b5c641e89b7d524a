"""FreeGCA bases and derivations against the plain versions in gca_oracle.

degree_basis enters only branches its count table says are nonempty, and
dim reads that table without enumerating; apply_derivation multiplies each
image monomial by the prefix and the rest directly.  On seeded generator
lists, with degrees asked in shuffled order, they must give what the oracle
gives: the same bases in the same order, and the same derivation images with
the same key order.  normalize_word multiplies a written product in one
letter at a time; it must give the sign and monomial that counting the
inversions of the odd letters gives, and the same KeyError.  Cdga.d sums
d of each monomial, derived once per algebra; its d, d_columns and check
must give what the oracle's derivation of the whole polynomial gives.
"""

from fractions import Fraction
from random import Random

import pytest

import gca_oracle as oracle
from gca_oracle import free_gca_ranks
from rht.gca import Cdga, Derivation, FreeGCA, Poly, TruncationError

F = Fraction
CASES = 300


def random_algebra(rng):
    return FreeGCA([("g%d" % k, rng.randint(1, 8))
                    for k in range(rng.randint(1, 7))])


def random_poly(rng, alg, degree, units=False):
    """A random polynomial of the given degree with up to four terms, its
    coefficients +-1 with units."""
    basis = alg.degree_basis(degree)
    return Poly({m: F(rng.choice((1, -1))) if units
                 else F(rng.randint(-4, 4), rng.randint(1, 3))
                 for m in rng.sample(basis, min(len(basis), 4))})


def test_degree_basis_and_dim_match_oracle():
    rng = Random(20260)
    for _ in range(CASES):
        alg = random_algebra(rng)
        degrees = list(range(-1, 19))
        rng.shuffle(degrees)
        for n in degrees:
            # dim first half the time, so the count table also grows alone
            dim = alg.dim(n) if rng.random() < 0.5 else None
            basis = alg.degree_basis(n)
            assert basis == oracle.degree_basis(alg, n), (alg.generators, n)
            if dim is None:
                dim = alg.dim(n)
            want = free_gca_ranks(alg.degrees, n)[n] if n >= 0 else 0
            assert dim == len(basis) == want, (alg.generators, n)


def assert_derivation_matches_oracle(rng, alg, D, units=False):
    for _ in range(3):
        p = random_poly(rng, alg, rng.randint(0, 16), units)
        truncation = rng.choice([None, rng.randint(0, 20)])
        try:
            want = oracle.apply_derivation(alg, D, p, truncation)
        except TruncationError:
            with pytest.raises(TruncationError):
                alg.apply_derivation(D, p, truncation)
            continue
        got = alg.apply_derivation(D, p, truncation)
        assert list(got.terms.items()) == list(want.terms.items()), \
            (alg.generators, D.degree, D.images, p)


def test_apply_derivation_matches_oracle():
    rng = Random(20261)
    for _ in range(CASES):
        alg = random_algebra(rng)
        deg = rng.randint(-3, 3)
        images = {}
        for name, d in alg.generators:
            if d + deg >= 0 and rng.random() < 0.7:
                images[name] = random_poly(rng, alg, d + deg)
        assert_derivation_matches_oracle(rng, alg, Derivation(alg, deg, images))
    # S of a suspension model: each generator to its bar, of degree -p, with
    # coefficient 1; and images and inputs with coefficients +-1
    rng = Random(20263)
    for _ in range(CASES):
        p = rng.randint(1, 5)
        base = [("g%d" % k, p + rng.randint(1, 6))
                for k in range(rng.randint(1, 4))]
        alg = FreeGCA(base + [(g + "_bar", d - p) for g, d in base])
        S = Derivation(alg, -p, {g: alg.gen(g + "_bar") for g, _ in base})
        assert_derivation_matches_oracle(rng, alg, S, units=rng.random() < 0.5)
        alg = random_algebra(rng)
        deg = rng.randint(-3, 3)
        images = {name: random_poly(rng, alg, d + deg, units=True)
                  for name, d in alg.generators if d + deg >= 0}
        assert_derivation_matches_oracle(rng, alg, Derivation(alg, deg, images),
                                         units=True)


def random_word(rng, alg):
    """A written product: names, indices and (ref, exponent) pairs with
    exponents from 0 to 3, a letter sometimes written twice, and now and then
    an unknown name or an index out of range."""
    word = []
    for _ in range(rng.randint(0, 6)):
        ref = rng.choice([rng.randrange(len(alg.names)),
                          rng.choice(alg.names)])
        if rng.random() < 0.03:
            ref = rng.choice(["zz", len(alg.names), -1])
        word.append((ref, rng.choice((0, 1, 1, 2, 3))) if rng.random() < 0.5
                    else ref)
        if rng.random() < 0.1:
            word.append(word[rng.randrange(len(word))])
    rng.shuffle(word)
    return word


def test_normalize_word_matches_the_inversion_count():
    rng = Random(20262)
    outcomes = {}
    for _ in range(CASES):
        alg = random_algebra(rng)
        for _ in range(10):
            word = random_word(rng, alg)
            try:
                want = oracle.normalize_word(alg, word)
            except KeyError as exc:
                with pytest.raises(KeyError) as got:
                    alg.normalize_word(word)
                assert str(got.value) == str(exc)
                outcomes["unknown"] = outcomes.get("unknown", 0) + 1
                continue
            assert alg.normalize_word(word) == want, (alg.generators, word)
            outcomes[want[0]] = outcomes.get(want[0], 0) + 1
    for outcome in (1, -1, 0, "unknown"):
        assert outcomes.get(outcome, 0) >= 20, outcomes


def test_dim_counts_without_enumerating(monkeypatch):
    alg = FreeGCA([("g%d" % k, k % 7 + 1) for k in range(200)])
    # degree 60 has about 1.5e28 monomials: enumerating them would never end
    monkeypatch.setattr(alg, "degree_basis",
                        lambda n: pytest.fail("dim enumerated"))
    assert alg.dim(60) == free_gca_ranks(alg.degrees, 60)[60]
    assert alg._basis_cache == {}


class UncachedCdga(Cdga):
    """A Cdga whose d is the oracle's derivation of the whole polynomial,
    with no monomial cache: d, d_columns and check as they were computed
    before the cache."""

    def d(self, p):
        return oracle.apply_derivation(self, self.differential, p,
                                       self.truncation)


def random_cdga(rng):
    """(generators, d images, truncation) over odd and even generators; a
    tenth of the images have the wrong degree, so d^2 != 0, degree
    violations and terms above the truncation all occur."""
    alg = random_algebra(rng)
    truncation = rng.randint(4, 14)
    images = {}
    for name, d in alg.generators:
        if d + 1 <= truncation and rng.random() < 0.7:
            wrong = rng.random() < 0.1
            degree = d + rng.choice((0, 2)) if wrong else d + 1
            if alg.degree_basis(degree):
                images[name] = random_poly(rng, alg, degree)
    return alg.generators, images, truncation


def outcome(f, *args):
    """f(*args) with each Poly or column as its list of items, or the
    type and text of the TruncationError or KeyError it raised."""
    try:
        got = f(*args)
    except (TruncationError, KeyError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Poly):
        return list(got.items())
    return [list(col.items()) for col in got]


def test_cdga_d_is_read_from_one_derivation_per_monomial():
    # Cdga.d sums d of each monomial, derived once per algebra; d, check
    # and d_columns must give what deriving the whole polynomial gives,
    # key order and TruncationError included, on the first call and on
    # the calls that read the cache
    rng = Random(20264)
    seen = {}

    def count(key):
        seen[key] = seen.get(key, 0) + 1

    for _ in range(CASES):
        gens, images, truncation = random_cdga(rng)
        alg = Cdga(gens, images, truncation)
        ref = UncachedCdga(gens, images, truncation)
        rep = alg.check()
        assert repr(rep) == repr(ref.check()), (gens, images)
        count(rep.kind)
        for _ in range(4):
            p = random_poly(rng, alg, rng.randint(0, truncation + 1))
            want = outcome(ref.d, p)
            assert outcome(alg.apply_derivation, alg.differential, p,
                           truncation) == want
            for _ in range(2):
                assert outcome(alg.d, p) == want, (gens, images, p)
            count(want[0] if isinstance(want, tuple) else "d")
        for n in range(truncation + 1):
            want = outcome(ref.d_columns, n)
            assert outcome(alg.d_columns, n) == want, (gens, images, n)
            count(want[0] if isinstance(want, tuple) else "columns")
        if any(not all(dm.values()) for dm, _ in alg._d_of.values()):
            count("a sum cancelled in d of one monomial")
    assert min(seen.values()) >= 5 and len(seen) == 8, seen


def test_cdga_d_tests_the_sum_against_the_truncation():
    # d(x*a) has degree 6 > 5, but in d(x*a - x*b) it cancels; a
    # TruncationError is raised again on every call, never cached
    gens = [("x", 2), ("a", 3), ("b", 3)]
    carrier = FreeGCA(gens)
    x2 = carrier.power(carrier.gen("x"), 2)
    alg = Cdga(gens, {"a": x2, "b": x2}, 5)
    xa = alg.multiply(alg.gen("x"), alg.gen("a"))
    xb = alg.multiply(alg.gen("x"), alg.gen("b"))
    for _ in range(2):
        with pytest.raises(TruncationError):
            alg.d(xa)
        assert alg.d(xa - xb) == Poly()


def test_cdga_d_keeps_the_place_of_a_sum_cancelled_in_one_monomial():
    # in d(u*v) the two terms t*u*v cancel, and d(w) brings t*u*v back:
    # d(u*v + w) lists it where deriving u*v first meets it, before v*s
    gens = [("t", 1), ("u", 2), ("v", 2), ("s", 3), ("w", 4)]
    carrier = FreeGCA(gens)
    t, u, v, s = (carrier.gen(n) for n in "tuvs")
    uv = carrier.multiply(u, v)
    images = {"u": carrier.multiply(u, t) + s, "v": -carrier.multiply(v, t),
              "w": carrier.multiply(uv, t)}
    alg, ref = Cdga(gens, images, 8), UncachedCdga(gens, images, 8)
    p = uv + carrier.gen("w")
    for _ in range(2):
        assert outcome(alg.d, p) == outcome(ref.d, p)
    assert [alg.monomial_str(m) for m in alg.d(p).monomials()] == \
        ["t*u*v", "v*s"]
