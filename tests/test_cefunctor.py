from fractions import Fraction

from rht.cefunctor import ce_cochains
from rht.dgl import (Dgl, FiniteCdga, free_lie, add_differential,
                     tensor_map_model, fibration_model)

F = Fraction


def test_ce_of_abelian_is_polynomial_on_one_generator():
    L = Dgl([("a", 3)], {}, {}, 5)
    res = ce_cochains(L, 6)
    assert res.cdga.generators == [("v4_0", 4)]
    assert not res.cdga.differential.images.get("v4_0")


def test_ce_of_free_lie_on_odd_generator_is_s4_model():
    # L(a), |a| = 3, truncated at 7 -> Lambda(v4, v7), d v7 = v4^2 (positive)
    L = free_lie([("a", 3)], 7)
    res = ce_cochains(L, 8)
    assert res.cdga.generators == [("v4_0", 4), ("v7_0", 7)]
    alg = res.cdga
    dv7 = alg.differential.images["v7_0"]
    v4sq = alg.multiply(alg.gen("v4_0"), alg.gen("v4_0"))
    coeffs = [dv7.coeff(m) / c for m, c in v4sq.items()]
    assert len(dv7.terms) == 1 and coeffs == [F(1)]
    assert alg.check()
    # H ranks match Q[v4]/(v4^2): 1, 0, 0, 0, 1, 0, 0, 0 then 0 in degree 8
    ranks = [alg.cohomology(n)[0] for n in range(0, 7)]
    assert ranks == [1, 0, 0, 0, 1, 0, 0]


def test_ce_of_tensor_model_thom_case():
    # tensor model of maps S^2 -> K(Q,4): Lambda(v2, v4) with d = 0
    A = FiniteCdga.sphere(2)
    L = Dgl([("l", 3)], {}, {}, 9)
    M = tensor_map_model(A, L)
    res = ce_cochains(M, 6)
    assert sorted(res.cdga.generators) == [("v2_0", 2), ("v4_0", 4)]
    assert not res.cdga.differential.images.get("v2_0")
    assert not res.cdga.differential.images.get("v4_0")


def test_ce_d_squared_zero_and_decomposition_contract():
    # coupled case: sphere(3) (x) (L(a5,c11), dc = [a,a])
    L = free_lie([("a", 5), ("c", 11)], 17)
    Ld = add_differential(L, {"c": L.bracket("a", "a")})
    M = tensor_map_model(FiniteCdga.sphere(3), Ld)
    res = ce_cochains(M, M.truncation + 1)
    assert res.cdga.check()
    for img in res.cdga.differential.images.values():
        # nothing outside V + Lambda^2 V
        assert all(sum(e for _, e in m) in (1, 2) for m in img.monomials())


def test_ce_detects_corrupted_jacobi():
    # the d1^2 component of d^2 sees a Jacobi failure at triple degree D once
    # the cochain truncation reaches D + 3
    L = free_lie([("a", 3), ("b", 3)], 11)
    brackets = dict(L.brackets)
    key = ("a", "b6_1")  # [a, [a,b]]-level entry; perturb it
    assert key in brackets or ("b6_1", "a") in brackets
    key = key if key in brackets else ("b6_1", "a")
    brackets[key] = {n: c + 1 for n, c in brackets[key].items()}
    bad = Dgl(list(zip(L.names, [L.degree_of[n] for n in L.names])),
              brackets, {}, 11)
    report = bad.validate()
    assert not report and report.kind == "jacobi"
    res = ce_cochains(bad, 12)
    assert not res.cdga.check()


def test_ce_zero_section_dualizes_to_augmentation():
    A = FiniteCdga.sphere(2)
    L = free_lie([("a", 3)], 10)
    M = tensor_map_model(A, L)
    proj, sect = fibration_model(M)
    ceM = ce_cochains(M, M.truncation + 1)
    ceL = ce_cochains(sect.source, sect.source.truncation + 1)
    # C*(sect): C*(M) -> C*(L) is the transpose of sect, v_y -> the sum
    # of <sect x, y> v_x; generators dual to t(x)l go to zero, duals of
    # 1(x)l go to themselves
    for vname in ceM.cdga.names:
        y = ceM.basis_of[vname]
        img = {ceL.gen_of[x]: sect.images[x][y] for x in ceL.gen_of
               if y in sect.images[x]}
        if y.startswith("t_"):
            assert not img
        else:
            assert img == {ceL.gen_of[y]: 1}
