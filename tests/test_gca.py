from fractions import Fraction
from random import Random

import pytest

from rht.gca import (Poly, FreeGCA, Derivation, Cdga, CdgaMorphism,
                     TruncationError)
from rht.linalg import EchelonSpan
from rht.formality import RhoMorphism
from rht.quotient import ModelCohomology
from gca_oracle import cdga_map_report, is_quasi_iso

F = Fraction


def section4_target(truncation=26):
    """(Lambda(x1,x2,y), dy = x1 x2) with |xi| = 4, |y| = 7."""
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    alg = Cdga(gens, {}, truncation)
    dy = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    return Cdga(gens, {"y": dy}, truncation)


def test_normalize_word_even_odd_swap():
    a = FreeGCA([("x1", 4), ("y", 7)])
    sign, m = a.normalize_word(["y", "x1"])
    assert sign == 1
    assert a.monomial_str(m) == "x1*y"


def test_normalize_word_odd_odd_swap():
    alg = FreeGCA([("a", 3), ("b", 3)])
    sign, m = alg.normalize_word(["b", "a"])
    assert sign == -1
    assert alg.monomial_str(m) == "a*b"


def test_normalize_word_odd_square_vanishes():
    alg = FreeGCA([("y", 7)])
    sign, m = alg.normalize_word(["y", "y"])
    assert sign == 0 and m is None


def test_normalize_word_unknown_generator():
    alg = FreeGCA([("x", 2)])
    with pytest.raises(KeyError):
        alg.normalize_word(["z"])


def test_normalize_word_idempotent_and_brute_force_sign():
    # sign of a sorted word equals the product of adjacent-transposition signs
    rng = Random(3)
    alg = FreeGCA([("a", 3), ("b", 5), ("c", 2), ("d", 7)])
    for _ in range(120):
        word = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
        sign, m = alg.normalize_word(word)
        if sign == 0:
            odd = [i for i in word if alg.odd[i]]
            assert len(set(odd)) < len(odd)
            continue
        # brute force: bubble sort counting odd-odd adjacent swaps
        w = list(word)
        s = 1
        for i in range(len(w)):
            for j in range(len(w) - 1 - i):
                if w[j] > w[j + 1]:
                    if alg.odd[w[j]] and alg.odd[w[j + 1]]:
                        s = -s
                    w[j], w[j + 1] = w[j + 1], w[j]
        assert s == sign
        sign2, m2 = alg.normalize_word(m)
        assert sign2 == 1 and m2 == m


def test_multiply_unit_and_paper_product():
    alg = section4_target()
    p = alg.gen("y") + alg.gen("x1").scale(3)
    assert alg.multiply(Poly.unit(), p) == p
    prod = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    assert alg.poly_degree(prod) == 8
    assert alg.poly_str(prod) == "x1*x2"


def test_multiply_odd_square_zero():
    alg = FreeGCA([("a", 3)])
    assert not alg.multiply(alg.gen("a"), alg.gen("a"))


def test_graded_commutativity_randomized():
    rng = Random(5)
    alg = FreeGCA([("a", 3), ("b", 5), ("x", 2), ("y", 4)])
    for _ in range(150):
        n1 = rng.choice([2, 3, 4, 5, 7])
        n2 = rng.choice([2, 3, 4, 5, 7])
        b1 = alg.degree_basis(n1)
        b2 = alg.degree_basis(n2)
        if not b1 or not b2:
            continue
        p = Poly({rng.choice(b1): F(rng.randint(1, 3))})
        q = Poly({rng.choice(b2): F(rng.randint(1, 3))})
        sign = -1 if (n1 % 2) and (n2 % 2) else 1
        assert alg.multiply(p, q) == alg.multiply(q, p).scale(sign)


def test_degree_basis_section4():
    alg = section4_target()
    names = [alg.monomial_str(m) for m in alg.degree_basis(8)]
    assert names == ["x1^2", "x1*x2", "x2^2"]
    assert alg.degree_basis(0) == [()]
    assert [alg.monomial_str(m) for m in alg.degree_basis(7)] == ["y"]


def test_apply_derivation_paper_differential():
    alg = section4_target()
    dy = alg.d(alg.gen("y"))
    assert alg.poly_str(dy) == "x1*x2"
    assert not alg.d(Poly.unit())


def test_apply_derivation_suspension_example():
    # S of degree -2 on Lambda(x1,x2,xb1,xb2): S(x1 x2) = xb1 x2 + x1 xb2
    alg = FreeGCA([("x1", 4), ("x2", 4), ("xb1", 2), ("xb2", 2)])
    S = Derivation(alg, -2, {"x1": alg.gen("xb1"), "x2": alg.gen("xb2")})
    got = alg.apply_derivation(S, alg.multiply(alg.gen("x1"), alg.gen("x2")))
    want = alg.multiply(alg.gen("xb1"), alg.gen("x2")) + \
        alg.multiply(alg.gen("x1"), alg.gen("xb2"))
    assert got == want


def test_apply_derivation_on_a_power():
    # D(x^3) = 3 x^2 D(x): the three positions of x give equal terms
    alg = FreeGCA([("x", 2), ("a", 3)])
    D = Derivation(alg, 1, {"x": alg.gen("a")})
    got = alg.apply_derivation(D, alg.power(alg.gen("x"), 3))
    assert got == alg.multiply(alg.power(alg.gen("x"), 2),
                               alg.gen("a")).scale(3)
    assert alg.poly_str(got) == "3*x^2*a"


def test_leibniz_randomized():
    rng = Random(9)
    alg = FreeGCA([("a", 3), ("b", 5), ("x", 2), ("y", 4)])
    # an odd derivation (degree +1) and an even one (degree -2)
    dx = Derivation(alg, 1, {"a": alg.multiply(alg.gen("x"), alg.gen("x")),
                             "b": alg.multiply(alg.gen("x"), alg.gen("y"))})
    s = Derivation(alg, -2, {"y": alg.gen("x"), "b": alg.gen("a")})
    for D in (dx, s):
        for _ in range(100):
            n1 = rng.randint(2, 8)
            n2 = rng.randint(2, 8)
            b1, b2 = alg.degree_basis(n1), alg.degree_basis(n2)
            if not b1 or not b2:
                continue
            p = Poly({rng.choice(b1): F(rng.randint(1, 2))})
            q = Poly({rng.choice(b2): F(rng.randint(1, 2))})
            lhs = alg.apply_derivation(D, alg.multiply(p, q))
            sign = -1 if (D.degree % 2) and (n1 % 2) else 1
            rhs = alg.multiply(alg.apply_derivation(D, p), q) + \
                alg.multiply(p, alg.apply_derivation(D, q)).scale(sign)
            assert lhs == rhs


def test_truncation_is_flagged():
    alg = section4_target(truncation=8)
    with pytest.raises(TruncationError):
        alg.d(alg.multiply(alg.gen("x1"), alg.gen("y")))
    # after check() the flag is read off the degree: the same verdicts
    checked = section4_target(truncation=12)
    assert checked.check()
    x1, y = checked.gen("x1"), checked.gen("y")
    assert checked.d(checked.multiply(x1, y)) == checked.multiply(
        x1, checked.multiply(x1, checked.gen("x2")))
    with pytest.raises(TruncationError):
        checked.d(checked.multiply(checked.multiply(x1, x1), y))


def test_check_cdga_ok_on_suspension_algebra():
    gens = [("x1", 4), ("x2", 4), ("y", 7), ("xb1", 2), ("xb2", 2), ("yb", 5)]
    alg = FreeGCA(gens)
    dy = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    dyb = alg.multiply(alg.gen("xb1"), alg.gen("x2")) + \
        alg.multiply(alg.gen("x1"), alg.gen("xb2"))
    model = Cdga(gens, {"y": dy, "yb": dyb}, 20)
    assert model.check()


def test_check_cdga_degree_violation():
    alg = FreeGCA([("x", 2)])
    model = Cdga([("x", 2)], {"x": alg.multiply(alg.gen("x"), alg.gen("x"))}, 10)
    report = model.check()
    assert not report and report.kind == "degree"


def test_inhomogeneous_d_is_reported_and_truncated_term_by_term():
    # d y = x + x^3 mixes degrees 2 and 6: check() names the degree
    # violation, and d(y) raises at truncation 5 although |y| + 1 = 4
    gens = [("x", 2), ("y", 3)]
    alg = FreeGCA(gens)
    x = alg.gen("x")
    model = Cdga(gens, {"y": x + alg.power(x, 3)}, 5)
    report = model.check()
    assert (report.ok, report.kind, report.message) == (
        False, "degree", "d(y) is not homogeneous of degree |y|+1")
    with pytest.raises(TruncationError,
                       match="^derivation output exceeds truncation 5$"):
        model.d(model.gen("y"))
    with pytest.raises(TruncationError):
        model.d_columns(3)


def test_check_cdga_d_squared_violation():
    gens = [("x", 6), ("x1", 3), ("x2", 4), ("y", 5)]
    alg = FreeGCA(gens)
    model = Cdga(gens, {"y": alg.gen("x"),
                        "x": alg.multiply(alg.gen("x1"), alg.gen("x2"))}, 12)
    report = model.check()
    assert not report and report.kind == "d-squared"


def test_cohomology_section4():
    alg = section4_target(truncation=12)
    assert alg.cohomology(8)[0] == 2
    assert alg.cohomology(0)[0] == 1
    assert alg.cohomology(7)[0] == 0


def d_rank(alg, n):
    """Rank of d: C^n -> C^{n+1}, from its sparse columns."""
    span = EchelonSpan(alg.dim(n + 1))
    return sum(span.add(col) for col in alg.d_columns(n))


def test_cohomology_rank_bookkeeping():
    # dim C^n = dim Z^n + rank d_n and dim Z^n = rank H^n + rank d_{n-1}
    alg = section4_target(truncation=20)
    for n in range(0, 19):
        zn = alg.dim(n) - d_rank(alg, n)
        assert alg.dim(n) == zn + d_rank(alg, n)
        prev = d_rank(alg, n - 1) if n >= 1 else 0
        assert zn == alg.cohomology(n)[0] + prev


def test_h0_is_q():
    alg = section4_target(truncation=9)
    rk, reps = alg.cohomology(0)
    assert rk == 1 and reps == [Poly.unit()]


def identity_morphism(alg):
    return CdgaMorphism(alg, alg, {n: alg.gen(n) for n in alg.names})


def test_check_morphism_identity_and_violation():
    alg = section4_target(truncation=16)
    ident = identity_morphism(alg)
    assert cdga_map_report(ident)
    bad = CdgaMorphism(alg, alg, {"x1": alg.gen("x1"), "x2": alg.gen("x2"),
                                  "y": Poly()})
    report = cdga_map_report(bad)
    assert not report and report.kind == "cochain"


def test_check_morphism_odd_sphere_retraction():
    # the projection onto a closed odd generator is a cochain map because
    # the differential is decomposable
    gens = [("t3", 3), ("t5", 5), ("u7", 7)]
    alg = Cdga(gens, {}, 16)
    A = Cdga(gens, {"u7": alg.multiply(alg.gen("t3"), alg.gen("t5"))}, 16)
    T = Cdga([("t", 3)], {}, 16)
    q0 = CdgaMorphism(A, T, {"t3": T.gen("t")})
    assert cdga_map_report(q0)
    i0 = CdgaMorphism(T, A, {"t": A.gen("t3")})
    assert cdga_map_report(i0)
    # q0 o i0 = Id on the one generator of T
    assert q0.apply(i0.images["t"]) == T.gen("t")


def test_induced_map_identity_and_augmentation():
    # H^n(phi) in representative bases, read through the rho that
    # the oracle is_quasi_iso builds: one column per representative
    def induced(phi, n):
        rho = RhoMorphism(phi.source, ModelCohomology(phi.target), phi.images)
        return [rho.apply_poly(rep) for rep in phi.source.cohomology(n)[1]]

    alg = section4_target(truncation=12)
    assert induced(identity_morphism(alg), 8) == [{0: 1}, {1: 1}]
    # augmentation to (Q, 0): target = trivial algebra with a dummy generator
    triv = Cdga([("t", 11)], {}, 12)
    aug = CdgaMorphism(alg, triv, {})
    assert cdga_map_report(aug)
    assert induced(aug, 8) == [{}, {}]


def test_is_quasi_iso_identity_and_failure():
    alg = section4_target(truncation=12)
    assert is_quasi_iso(identity_morphism(alg), 10) == (True, None)
    triv = Cdga([("t", 11)], {}, 12)
    aug = CdgaMorphism(alg, triv, {})
    assert is_quasi_iso(aug, 10) == (False, 4)


def test_quasi_iso_closed_under_composition():
    alg = section4_target(truncation=12)
    # rescaling generators is a quasi-isomorphism; compose two of them
    phi = CdgaMorphism(alg, alg, {"x1": alg.gen("x1", 2), "x2": alg.gen("x2"),
                                  "y": alg.gen("y", 2)})
    assert cdga_map_report(phi)
    assert is_quasi_iso(phi, 9) == (True, None)
    twice = CdgaMorphism(alg, alg, {n: phi.apply(phi.images[n])
                                    for n in alg.names})
    assert is_quasi_iso(twice, 9) == (True, None)
