"""regular_sequence_check against the plain check in regularity_oracle.

The library keeps one span per degree for the multiples of f_1..f_{i-1},
builds f_i times the quotient basis monomials as integer rows and tests
them modulo that span; the oracle builds a quotient ring per relation and
multiplication matrices in quotient bases.  On seeded even rings with one
to three relations, regular or not, on dense three-relation sequences at
N = 24-32 and on the section-4 sequence, both must give the same (ok,
index, degree, element_poly), the witness with the same key order.

Before that degreewise work the library tries to prove the sequence
regular in the whole ring from the leading monomials of a Groebner basis.
On the same families, and on the odd differentials of random Koszul-shape
models, that proof is only accepted where the oracle says regular at N and
at N + 8.
"""

from fractions import Fraction
from random import Random

import regularity_oracle as oracle
from rht.formality import (_regular_by_leading_terms, koszul_sequence,
                           regular_sequence_check)
from rht.gca import FreeGCA, Poly
from rht.mapmodel import suspension_model
from test_formality import section4_y
from test_properties import random_koszul_shape_model

F = Fraction
CASES = 300
KOSZUL_CASES = 150


def outcome(result):
    ok, witness = result
    if witness is None:
        return ok, None
    return (ok, witness.index, witness.degree,
            list(witness.element_poly.terms.items()))


def random_poly(rng, alg, degree):
    basis = alg.degree_basis(degree)
    if not basis:
        return Poly()
    return Poly({m: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for m in rng.sample(basis, min(len(basis), 3))})


def random_relation(rng, alg, factors):
    """A random homogeneous relation; a product of two shared factors a
    third of the time, so that zero divisors appear past degree 0, and
    rarely 0 or a nonzero constant."""
    r = rng.random()
    if r < 0.03:
        return Poly()
    if r < 0.05:
        return Poly.unit(F(rng.randint(1, 4), rng.randint(1, 3)))
    if r < 0.4:
        return alg.multiply(rng.choice(factors), rng.choice(factors))
    return random_poly(rng, alg, rng.choice([2, 4, 4, 6, 6, 8]))


def random_case(rng):
    alg = FreeGCA([("x%d" % i, rng.choice([2, 2, 4, 6]))
                   for i in range(rng.randint(1, 4))])
    factors = [f for f in (random_poly(rng, alg, rng.choice([2, 4]))
                           for _ in range(3)) if f] or [alg.gen("x0")]
    seq = [random_relation(rng, alg, factors)
           for _ in range(rng.randint(1, 3))]
    return alg, seq, rng.randint(6, 16)


def test_regularity_matches_oracle_on_seeded_rings():
    rng = Random(1919)
    seen = {"regular": 0, "not regular": 0, "third relation": 0,
            "above degree 0": 0}
    for _ in range(CASES):
        alg, seq, N = random_case(rng)
        got = outcome(regular_sequence_check(alg, seq, N))
        assert got == outcome(oracle.regular_sequence_check(alg, seq, N)), \
            (alg.generators, [alg.poly_str(f) for f in seq], N)
        if got[0]:
            seen["regular"] += 1
        else:
            seen["not regular"] += 1
            seen["third relation"] += got[1] == 2
            seen["above degree 0"] += got[2] > 0
    assert min(seen.values()) >= 20, seen


def test_regularity_matches_oracle_on_section4():
    even_alg, seq, _ = koszul_sequence(suspension_model(section4_y(), 2))
    for N in (23, 41, 57):
        got = regular_sequence_check(even_alg, seq, N)
        assert got == (True, None)
        assert outcome(got) == outcome(
            oracle.regular_sequence_check(even_alg, seq, N))


def dense_form(rng, alg, degree):
    """Every monomial of the degree with a random nonzero coefficient."""
    return Poly({m: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for m in alg.degree_basis(degree)})


def at_scale_cases():
    """(algebra, seq, N): degree-2 generators at N = 24..32, so that
    exponents reach 12..16 and keys pack large digits; three dense
    relations with a non-monomial f_1, regular, or failing at the last
    relation above degree 0: f_2 = a*b and f_3 = a*c with linear forms a,
    b, c kill b in degree 2."""
    rng = Random(2424)
    for case in range(6):
        alg = FreeGCA([("x%d" % g, 2) for g in range(3)])
        N = rng.randint(24, 32)
        f1 = dense_form(rng, alg, 4)
        if case % 2:
            a, b, c = (dense_form(rng, alg, 2) for _ in range(3))
            seq = [f1, alg.multiply(a, b), alg.multiply(a, c)]
        else:
            seq = [f1, dense_form(rng, alg, 4), dense_form(rng, alg, 6)]
        assert len(f1.terms) > 1
        yield alg, seq, N


def test_regularity_matches_oracle_at_scale():
    seen = {"regular": 0, "fails at the third above degree 0": 0}
    for alg, seq, N in at_scale_cases():
        got = outcome(regular_sequence_check(alg, seq, N))
        assert got == outcome(oracle.regular_sequence_check(alg, seq, N)), \
            ([alg.poly_str(f) for f in seq], N)
        if got[0]:
            seen["regular"] += 1
        else:
            seen["fails at the third above degree 0"] += \
                got[1] == 2 and got[2] > 0
    assert seen == {"regular": 3, "fails at the third above degree 0": 3}, \
        seen


def decision_cases():
    """(algebra, seq, N) of the seeded rings, the at-scale family, section 4
    and the odd differentials of random_koszul_shape_model at its N + 1,
    the degree its certificate checks."""
    rng = Random(1919)
    for _ in range(CASES):
        yield random_case(rng)
    yield from at_scale_cases()
    even_alg, seq, _ = koszul_sequence(suspension_model(section4_y(), 2))
    for N in (23, 41, 57):
        yield even_alg, seq, N
    rng = Random(2718)
    for _ in range(KOSZUL_CASES):
        model, N = random_koszul_shape_model(rng)
        even_alg, seq, _ = koszul_sequence(model)
        yield even_alg, seq, N + 1


def test_leading_term_proof_is_sound():
    # a proof of regularity in the whole ring holds at every N, so the
    # oracle must say (True, None) at the case's N and at N + 8; each case
    # is also tried with a nonzero constant appended, which leaves the
    # oracle's answer as it is.  Of the regular cases the decision is asked
    # about (2 <= r <= number of variables, no f_i of degree 0) it proves
    # 77 of 118; read with the least term as leading, it would prove 72
    counts = {"regular": 0, "proved": 0, "not regular": 0}
    for alg, seq, N in decision_cases():
        want = oracle.regular_sequence_check(alg, seq, N)
        if not want[0]:
            counts["not regular"] += 1
        elif 2 <= len(seq) <= len(alg.degrees) and \
                all(alg.poly_degree(f) for f in seq):
            counts["regular"] += 1
        for tail in ([], [Poly.unit(F(3, 2))]):
            if _regular_by_leading_terms(alg, seq + tail, N):
                where = ([alg.poly_str(f) for f in seq + tail], N)
                assert outcome(want) == (True, None), where
                assert outcome(oracle.regular_sequence_check(
                    alg, seq + tail, N + 8)) == (True, None), where
                counts["proved"] += not tail
    assert counts["not regular"] >= 150 and counts["regular"] >= 100, counts
    assert counts["proved"] >= 75, counts
