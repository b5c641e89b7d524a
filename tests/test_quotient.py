from fractions import Fraction

import pytest

from gca_oracle import free_gca_ranks
from rht.gca import Cdga, FreeGCA, Poly
from rht.quotient import QuotientRing, ModelCohomology
from rht.formality import bigraded_model, regular_sequence_check

F = Fraction


def section4_h():
    """H = Q[x1,x2]/(x1 x2), |xi| = 4."""
    alg = FreeGCA([("x1", 4), ("x2", 4)])
    rel = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    return QuotientRing(alg, [rel], 24)


def test_quotient_ranks_match_paper():
    H = section4_h()
    # 1 in degree 0, 2 in degrees 4k (k >= 1), 0 elsewhere
    for n in range(0, 25):
        want = 1 if n == 0 else (2 if n % 4 == 0 else 0)
        assert H.rank(n) == want, n


def test_quotient_reduce_and_multiply():
    # a product of classes is the class of the product of their lifts
    ring = section4_h()
    alg = ring.algebra
    x1, x2 = (ring.element_poly(4, ring.poly_class(alg.gen(g)))
              for g in ("x1", "x2"))
    assert ring.poly_class(alg.multiply(x1, x2)) == {}
    sq = ring.poly_class(alg.multiply(x1, x1))
    assert ring.element_poly(8, sq) == alg.power(alg.gen("x1"), 2)


def test_quotient_with_odd_generators():
    # Lambda(x1,x2)/(x1 x2) with |xi| = 5: ranks 1,0,...,0,2(deg 5),0,...
    alg = FreeGCA([("x1", 5), ("x2", 5)])
    rel = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    ring = QuotientRing(alg, [rel], 20)
    assert [ring.rank(n) for n in range(0, 12)] == \
        [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0]


def test_quotient_rejects_inhomogeneous_relation():
    alg = FreeGCA([("x", 2), ("y", 4)])
    bad = alg.gen("y") + alg.multiply(alg.gen("x"), alg.gen("x")) + alg.gen("x")
    with pytest.raises(ValueError):
        QuotientRing(alg, [bad], 10)


def test_quotient_regularity_witness():
    # in Q[x]/(x^2), multiplication by x is not injective in degree 2
    alg = FreeGCA([("x", 2)])
    x = alg.gen("x")
    ok, witness = regular_sequence_check(alg, [alg.power(x, 2), x], 10)
    assert not ok
    assert (witness.index, witness.degree, witness.element_poly) == (1, 2, x)


def test_quotient_product_zero_in_ring_is_zero():
    # x * x lifts to x^2 != 0, which is 0 in Q[x]/(x^2)
    alg = FreeGCA([("x", 2)])
    ring = QuotientRing(alg, [alg.power(alg.gen("x"), 2)], 10)
    x = ring.poly_class(alg.gen("x"))
    assert x == {0: 1}
    lift = ring.element_poly(2, x)
    assert alg.multiply(lift, lift)
    assert ring.poly_class(alg.multiply(lift, lift)) == {}
    assert ring.poly_class(Poly()) == {}


def test_presented_ring_invariants():
    # bigraded_model enforces H^0 = Q and H^1 = 0 on a presented ring
    with pytest.raises(ValueError):
        bigraded_model(QuotientRing(FreeGCA([("x", 1)]), [], 10), 10)
    alg = FreeGCA([("x", 2)])
    with pytest.raises(ValueError):
        # relation 1 = 0 destroys H^0
        bigraded_model(QuotientRing(alg, [Poly.unit()], 10), 10)


def test_model_cohomology_ring_of_section4_model():
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    base = Cdga(gens, {}, 26)
    model = Cdga(gens, {"y": base.multiply(base.gen("x1"), base.gen("x2"))}, 26)
    H = ModelCohomology(model, 24)
    Hp = section4_h()
    assert H.ranks(24) == Hp.ranks(24)
    # ring structure: [x1][x2] = 0, [x1]^2 != 0
    x1, x2 = model.gen("x1"), model.gen("x2")
    assert H.poly_class(model.multiply(x1, x2)) == {}
    assert H.poly_class(model.multiply(x1, x1))
    assert H.poly_class(Poly()) == {}


def test_free_gca_ranks_oracle():
    # Q[v2, v4]: 1,0,1,0,2,0,2,0,3 up to degree 8
    assert free_gca_ranks([2, 4], 8) == [1, 0, 1, 0, 2, 0, 2, 0, 3]
    # Lambda(odd 3) (x) Q[4]
    got = free_gca_ranks([3, 4], 11)
    alg = FreeGCA([("a", 3), ("x", 4)])
    assert got == [alg.dim(n) for n in range(0, 12)]
