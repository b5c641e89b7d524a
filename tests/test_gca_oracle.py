"""FreeGCA bases and derivations against the plain versions in gca_oracle.

degree_basis enters only branches its count table says are nonempty, and
dim reads that table without enumerating; apply_derivation multiplies each
image monomial by the prefix and the rest directly.  On seeded generator
lists, with degrees asked in shuffled order, they must give what the oracle
gives: the same bases in the same order, and the same derivation images with
the same key order.  normalize_word multiplies a written product in one
letter at a time; it must give the sign and monomial that counting the
inversions of the odd letters gives, and the same KeyError.
"""

from fractions import Fraction
from random import Random

import pytest

import gca_oracle as oracle
from rht.gca import Derivation, FreeGCA, Poly, TruncationError
from rht.quotient import free_gca_ranks

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
