"""FreeGCA bases and derivations against the plain versions in gca_oracle.

degree_basis enters only branches its count table says are nonempty, and
dim reads that table without enumerating; apply_derivation multiplies each
image monomial of D(x_i) by m with one x_i taken out.  On seeded generator
lists, with degrees asked in shuffled order, they must give what the oracle
gives: the same bases in the same order, and the same derivation images with
the same key order.  normalize_word counts the inversions of each odd
letter as it reads a written product; it must give the sign and monomial
that counting over all pairs of odd letters gives, and the same KeyError.
mul_monomials merges two sorted monomials and derive_monomial takes one
product per image term; they must give what a dict and a sort, and two
products per image term, give: the same signs and monomials, and the same
dicts with the same key order and the same cancelled zeros.  Cdga.d sums
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


def random_monomial(rng, alg):
    """A monomial of a random degree from 1 to 20, or now and then 1."""
    if rng.random() < 0.1:
        return ()
    degrees = [n for n in range(1, 21) if alg.dim(n)]
    return rng.choice(alg.degree_basis(rng.choice(degrees)))


def test_mul_monomials_matches_the_dict_and_sort():
    rng = Random(20265)
    seen = {}
    for _ in range(CASES):
        alg = random_algebra(rng)
        for _ in range(10):
            m1, m2 = random_monomial(rng, alg), random_monomial(rng, alg)
            want = oracle.mul_monomials(alg, m1, m2)
            assert alg.mul_monomials(m1, m2) == want, (alg.generators, m1, m2)
            shared = {i for i, _ in m1} & {i for i, _ in m2}
            key = want[0] if m1 and m2 else "unit"
            seen[key] = seen.get(key, 0) + 1
            if want[0] and shared:
                seen["exponents added"] = seen.get("exponents added", 0) + 1
    assert len(seen) == 5 and min(seen.values()) >= 100, seen


def random_image(rng, alg, degree, units):
    """A random polynomial of the given degree or, a third of the time, the
    sum of one of that degree and one a degree higher: an image that
    check_degrees would refuse, of both parities at once."""
    img = random_poly(rng, alg, degree, units)
    if rng.random() < 1 / 3:
        img = img + random_poly(rng, alg, degree + 1, units)
    return img


def test_derive_monomial_matches_two_products_per_term():
    # random derivations of degree -2 to 3, and the suspension S of degree
    # -p, p odd and even, each generator to its bar plus at times more;
    # derive_monomial must give the oracle's dict, key order and the zeros
    # of cancelled sums included
    rng = Random(20266)
    seen = {}

    def count(key):
        seen[key] = seen.get(key, 0) + 1

    for case in range(CASES):
        units = rng.random() < 0.5
        if case % 2:
            p = rng.randint(1, 5)
            base = [("g%d" % k, p + rng.randint(1, 6))
                    for k in range(rng.randint(1, 4))]
            alg = FreeGCA(base + [(g + "_bar", d - p) for g, d in base])
            images = {}
            for g, d in base:
                images[g] = alg.gen(g + "_bar")
                if rng.random() < 0.3:
                    images[g] += random_image(rng, alg, d - p, units)
            D = Derivation(alg, -p, images, check_degrees=False)
        else:
            alg = random_algebra(rng)
            D = Derivation(alg, rng.choice((1, 1, -2, -1, 0, 2, 3)), {},
                           check_degrees=False)
            for name, d in alg.generators:
                if d + D.degree >= 0 and rng.random() < 0.7:
                    D.images[name] = random_image(rng, alg, d + D.degree,
                                                  units)
        for _ in range(8):
            m = random_monomial(rng, alg)
            want = oracle.derive_monomial(alg, D, m)
            got = alg.derive_monomial(D, m)
            assert list(got.items()) == list(want.items()), \
                (alg.generators, D.degree, D.images, m)
            if not want:
                continue
            count(("suspension" if case % 2 else "degree", D.degree % 2))
            if D.degree == 1:
                count("degree +1")
            if any(e > 1 for _, e in m):
                count("exponent above 1")
            if any(len({alg.monomial_degree(mi) % 2 for mi in img.monomials()})
                   > 1 for img in D.images.values()):
                count("image of both parities")
            if not all(want.values()):
                count("a sum cancelled")
    assert len(seen) == 8 and min(seen.values()) >= 10, seen


def test_dim_counts_without_enumerating(monkeypatch):
    alg = FreeGCA([("g%d" % k, k % 7 + 1) for k in range(200)])
    # degree 60 has about 1.5e28 monomials: enumerating them would never end
    monkeypatch.setattr(alg, "degree_basis",
                        lambda n: pytest.fail("dim enumerated"))
    assert alg.dim(60) == free_gca_ranks(alg.degrees, 60)[60]
    assert alg._basis_cache == {}


def test_count_table_grows_to_the_degrees_asked_not_the_truncation():
    # a truncation read from a workspace or certificate may be huge; the
    # count table grows with the degrees a computation reads, to at most
    # twice the highest, and reaches the truncation only when asked near it
    alg = Cdga([("x", 2), ("y", 3)], {}, 10 ** 9)
    for n in range(13):
        assert alg.cohomology(n)[0] == free_gca_ranks((2, 3), n)[n]
        assert n + 2 <= len(alg._count[-1]) <= 2 * (n + 1) + 1
    small = Cdga([("x", 2), ("y", 3)], {}, 14)
    for n in range(14):
        small.cohomology(n)
        assert len(small._count[-1]) <= 16


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
