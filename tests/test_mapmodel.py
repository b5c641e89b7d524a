import importlib
import pkgutil
from fractions import Fraction

import pytest

from dgl_oracle import ce_generators, dgl_map_report
from rht import dgl
from rht.gca import Cdga, Derivation, Poly
from rht.dgl import (Dgl, FiniteCdga, free_lie, restrict_dgl,
                     tensor_map_model, tensor_morphism)
from rht.cefunctor import ce_cochains
from rht.formality import formality_pipeline
from rht.mapmodel import (MapSpaceProblem, check_hypotheses, suspension_model,
                          split_odd_generator, reduce_to_odd_sphere,
                          SplitError, bar_name, finite_cohomology_rank)

F = Fraction


def section4_y(truncation=20):
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"y": alg.multiply(alg.gen("x1"), alg.gen("x2"))},
                truncation)


def odd_section4_y(truncation=22):
    gens = [("x1", 5), ("x2", 5), ("y", 9)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"y": alg.multiply(alg.gen("x1"), alg.gen("x2"))},
                truncation)


def test_check_hypotheses_section4_setup():
    prob = MapSpaceProblem(FiniteCdga.sphere(2), 2, y_cdga=section4_y())
    rep = check_hypotheses(prob)
    assert rep.ok
    assert prob.m == 3
    assert rep.t is None  # S^2 has no odd closed class; not blocking


def test_check_hypotheses_connectivity_violation():
    prob = MapSpaceProblem(FiniteCdga.sphere(3), 3,
                           y_dgl=Dgl([("l", 3)], {}, {}, 9))
    rep = check_hypotheses(prob)
    assert not rep.ok and rep.messages == ["connectivity m=3 < p+1=4"]


def test_check_hypotheses_hp_zero():
    # declare p = 2 on a point model: H^2 = 0
    prob = MapSpaceProblem(FiniteCdga.point(), 2, y_cdga=section4_y())
    rep = check_hypotheses(prob)
    assert rep.messages == ["H^2(X) = 0 at the declared top degree"]


def test_check_hypotheses_rejects_invalid_x_model():
    # t*x = tx but x*t = -tx: S^3 x S^2 with broken graded commutativity
    X = FiniteCdga([("1", 0), ("x", 2), ("t", 3), ("tx", 5)], "1",
                   {("t", "x"): {"tx": 1}, ("x", "t"): {"tx": -1}})
    prob = MapSpaceProblem(X, 5, y_dgl=Dgl([("a", 7)], {}, {}, 24))
    rep = check_hypotheses(prob)
    assert not rep.ok
    assert rep.messages == ["invalid X model: x*t != (-1)^(|x||t|) t*x"]
    with pytest.raises(ValueError, match="hypotheses violated: invalid X"):
        formality_pipeline(prob, 10)


def test_check_hypotheses_reads_no_cohomology_of_an_invalid_x():
    # d a = b and d b = c: d^2 a = c != 0, so X has no H^p and the one
    # message is the d-squared violation, whatever p
    X = FiniteCdga([("1", 0), ("a", 1), ("b", 2), ("c", 3)], "1", {},
                   {"a": {"b": 1}, "b": {"c": 1}})
    assert X.validate().kind == "d-squared"
    for p in (1, 2, 3):
        prob = MapSpaceProblem(X, p, y_dgl=Dgl([("u", 7)], {}, {}, 24))
        assert check_hypotheses(prob).messages == [
            "invalid X model: d^2(a) != 0"]
        with pytest.raises(ValueError, match=r"hypotheses violated: "
                           r"invalid X model: d\^2\(a\) != 0$"):
            formality_pipeline(prob, 10)


def test_check_hypotheses_rejects_invalid_y_model():
    # [u,v] = w and [v,u] = w break antisymmetry (|u||v| is even); the
    # pipeline builds on L unchecked, so the check happens here or not at all
    bad = Dgl([("u", 3), ("v", 4), ("w", 7)],
              {("u", "v"): {"w": 1}, ("v", "u"): {"w": 1}}, {}, 12)
    prob = MapSpaceProblem(FiniteCdga.sphere(2), 2, y_dgl=bad)
    rep = check_hypotheses(prob)
    assert not rep.ok
    assert rep.messages == ["invalid Y model: [u,v] != -(-1)^(|u||v|) [v,u]"]
    with pytest.raises(ValueError, match="hypotheses violated: invalid Y"):
        formality_pipeline(prob, 10)
    # a Sullivan Y is checked here as well: d y = x1^3 has the wrong degree
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    alg = Cdga(gens, {}, 20)
    y = Cdga(gens, {"y": alg.power(alg.gen("x1"), 3)}, 20)
    rep = check_hypotheses(MapSpaceProblem(FiniteCdga.sphere(2), 2,
                                           y_cdga=y))
    assert rep.messages == [
        "invalid Y model: d(y) is not homogeneous of degree |y|+1"]


def s3_times_s5():
    """X = S^3 x S^5, free on odd a, b: odd closed classes a and b, while
    the product ab is even."""
    return FiniteCdga.from_free_odd(Cdga([("a", 3), ("b", 5)], {}, 9))


def test_check_hypotheses_chooses_the_odd_class_once():
    L = Dgl([("u", 10), ("v", 10), ("w", 20)], {("u", "v"): {"w": 1}}, {},
            39)
    X = s3_times_s5()
    for t, chosen in ((None, "a"), ("a", "a"), ("b", "b")):
        rep = check_hypotheses(MapSpaceProblem(X, 8, y_dgl=L, t=t))
        assert rep.ok and rep.messages == [] and rep.t == chosen
    # ab is a basis class but even; zz is no basis class at all
    for t in ("ab", "zz"):
        prob = MapSpaceProblem(X, 8, y_dgl=L, t=t)
        rep = check_hypotheses(prob)
        assert not rep.ok and rep.t is None
        assert rep.messages == ["designated class %r is not odd and closed"
                                % t]
        with pytest.raises(ValueError, match="hypotheses violated: "
                           "designated class '%s'" % t):
            formality_pipeline(prob, 22)


def test_check_hypotheses_bounds_the_x_basis(monkeypatch):
    # the four-element S^3 x S^2 model against a limit of three: the limit
    # is checked before the cubic validate runs
    monkeypatch.setattr(dgl, "MAX_X_BASIS", 3)
    monkeypatch.setattr(FiniteCdga, "validate", None)
    prob = MapSpaceProblem(split_test_model(), 5,
                           y_dgl=Dgl([("a", 7)], {}, {}, 24))
    with pytest.raises(ValueError, match="X model has 4 basis elements, "
                                         "above the limit 3"):
        check_hypotheses(prob)


def test_finite_cohomology_rank_sphere():
    A = FiniteCdga.sphere(4)
    assert [finite_cohomology_rank(A, n) for n in range(0, 5)] == [1, 0, 0, 0, 1]


def test_suspension_model_section4():
    alg = suspension_model(section4_y(), 2)
    assert alg.generators == [("x1", 4), ("x2", 4), ("y", 7),
                              ("x1_bar", 2), ("x2_bar", 2), ("y_bar", 5)]
    assert not alg.differential.images.get("x1_bar")
    assert not alg.differential.images.get("x2_bar")
    dyb = alg.differential.images["y_bar"]
    want = alg.multiply(alg.gen("x1_bar"), alg.gen("x2")) + \
        alg.multiply(alg.gen("x1"), alg.gen("x2_bar"))
    assert dyb == want  # the displayed +S(dy) for p = 2
    assert alg.check()


def test_suspension_model_single_closed_generator():
    Y = Cdga([("v", 4)], {}, 10)
    model = suspension_model(Y, 2)
    assert model.generators == [("v", 4), ("v_bar", 2)]
    assert not model.differential.images


def test_suspension_model_odd_p_barred_degrees():
    alg = suspension_model(odd_section4_y(), 3)
    assert [alg.gen_degree(bar_name(n)) for n in ("x1", "x2", "y")] == [2, 2, 6]
    dyb = alg.differential.images["y_bar"]
    want = (alg.multiply(alg.gen("x1_bar"), alg.gen("x2")) +
            alg.multiply(alg.gen("x1"), alg.gen("x2_bar")).scale(-1)).scale(-1)
    assert dyb == want  # -S(dy) for odd p
    assert alg.check()


def test_suspension_model_rejects_nonminimal_and_low_degrees():
    nonmin = Cdga([("a", 3), ("b", 4)], {"a": Poly({((1, 1),): F(1)})}, 10)
    with pytest.raises(ValueError):
        suspension_model(nonmin, 2)
    with pytest.raises(ValueError):
        suspension_model(section4_y(), 4)  # 4 is not > |x1|


def test_suspension_degree_bookkeeping():
    Y, p = section4_y(12), 2
    big = suspension_model(Y, p)
    for n in range(1, 10):
        dimV = sum(1 for d in Y.degrees if d == n)
        dimS = sum(1 for d in Y.degrees if d == n + p)
        got = sum(1 for d in big.degrees if d == n)
        assert got == dimV + dimS


def test_suspension_identities_on_generators():
    for Y, p in ((section4_y(), 2), (odd_section4_y(), 3)):
        alg = suspension_model(Y, p)
        S = Derivation(alg, -p, {v: alg.gen(bar_name(v)) for v in Y.names})
        sign = (-1) ** p
        for name in Y.names:
            v = alg.gen(name)
            sv = alg.gen(bar_name(name))
            assert alg.apply_derivation(S, sv) == Poly()  # S^2 = 0 on gens
            dv = alg.d(v)
            dsv = alg.d(sv)
            assert dsv == alg.apply_derivation(S, dv).scale(sign)


def test_ce_of_sphere_tensor_equals_suspension_on_section4():
    # the identification C*(L + Lbar) = Lambda(V + SV): the section-4 shape
    for p, gdeg in ((2, 3), (3, 4)):
        bdeg = 2 * gdeg
        L = Dgl([("a1", gdeg), ("a2", gdeg), ("b", bdeg)],
                {("a1", "a2"): {"b": 1}}, {},
                truncation=bdeg + 2 * p + 1)
        assert L.validate()
        ceL = ce_cochains(L, bdeg + 2)
        M = tensor_map_model(FiniteCdga.sphere(p), L)
        ceM = ce_cochains(M, bdeg + 2)
        big = suspension_model(ceL.cdga, p)
        assert big.truncation == bdeg + 2
        # match generators: dual of 1(x)x <-> v_x, dual of t(x)x <-> bar v_x
        gen_of_L = ce_generators(L, bdeg + 2)[1]
        rename = {}
        for x, vname in ce_generators(M, bdeg + 2)[1].items():
            if x.startswith("t_"):
                rename[vname] = bar_name(gen_of_L[x[2:]])
            else:
                rename[vname] = gen_of_L[x]
        assert sorted(rename) == sorted(ceM.cdga.names)
        assert sorted(rename.values()) == sorted(big.names)
        for vname in ceM.cdga.names:
            img = ceM.cdga.differential.images.get(vname, Poly())
            translated = Poly()
            for m, c in img.items():
                word = [rename[ceM.cdga.names[i]] for i, _ in m
                        for _ in range(dict(m)[i])]
                translated = translated + big.monomial_of_word(word).scale(c)
            want = big.differential.images.get(rename.get(vname), Poly())
            assert translated == want, (p, vname)


def test_fibration_on_the_flagship_configuration():
    # projection/section for the sphere tensor the target's Lie model
    from rht.dgl import fibration_model
    L = Dgl([("a1", 3), ("a2", 3), ("b", 6)], {("a1", "a2"): {"b": 1}}, {}, 11)
    M = tensor_map_model(FiniteCdga.sphere(2), L)
    proj, sect = fibration_model(M)
    assert dgl_map_report(proj) and dgl_map_report(sect)
    assert proj.compose(sect).is_identity()


def split_test_model():
    # Lambda(t) (x) Q[x]/(x^2): a model of S^3 x S^2
    return FiniteCdga(
        [("1", 0), ("x", 2), ("t", 3), ("tx", 5)], "1",
        {("t", "x"): {"tx": 1}, ("x", "t"): {"tx": 1},
         ("x", "x"): {}, ("t", "t"): {}, ("t", "tx"): {}, ("tx", "t"): {},
         ("x", "tx"): {}, ("tx", "x"): {}, ("tx", "tx"): {}})


def test_split_odd_generator_trivial_and_product():
    T = FiniteCdga.sphere(3)
    i, q = split_odd_generator(T, "t")
    assert q.compose(i).is_identity()
    A = split_test_model()
    assert A.validate()
    i, q = split_odd_generator(A, "t")
    assert i.check() and q.check()
    assert q.compose(i).is_identity()
    assert q.images["x"] == {} and q.images["tx"] == {}


def test_split_odd_generator_rejects_even_or_nonclosed():
    A = split_test_model()
    with pytest.raises(SplitError):
        split_odd_generator(A, "x")
    gens = [("t3", 3), ("t5", 5), ("u7", 7)]
    alg = Cdga(gens, {}, 16)
    B = FiniteCdga.from_free_odd(
        Cdga(gens, {"u7": alg.multiply(alg.gen("t3"), alg.gen("t5"))}, 16))
    with pytest.raises(SplitError):
        split_odd_generator(B, "u7")  # odd but not closed


def test_split_with_d_nonzero_and_qd_zero():
    gens = [("t3", 3), ("t5", 5), ("u7", 7)]
    alg = Cdga(gens, {}, 16)
    B = FiniteCdga.from_free_odd(
        Cdga(gens, {"u7": alg.multiply(alg.gen("t3"), alg.gen("t5"))}, 16))
    assert B.validate()
    i, q = split_odd_generator(B, "t3")
    assert q.compose(i).is_identity()
    for a in B.names:
        assert q.apply(B.d(a)) == {}


def retract_package(A, L, t):
    """The retract argument for the split of t off A, built from the public
    maps: the DGL maps I = i (x) Id and Q = q (x) Id between the tensor
    models.  On cochains g o f = Id for f = C*(Q), g = C*(I) is the
    transpose of Q o I = Id, so the maps of DGLs carry the whole check."""
    i, q = split_odd_generator(A, t)
    M_A = tensor_map_model(A, L)
    M_T = restrict_dgl(tensor_map_model(i.source, L), M_A.truncation)
    I = tensor_morphism(i, M_T, M_A)
    Q = tensor_morphism(q, M_A, M_T)
    assert dgl_map_report(I) and dgl_map_report(Q)
    return I, Q


def test_reduce_to_odd_sphere_identity_case():
    # X = S^3 itself: the retract package is the identity
    L = free_lie([("l", 5)], 16)
    T = FiniteCdga.sphere(3)
    assert reduce_to_odd_sphere(T, "t") == 3
    I, Q = retract_package(T, L, "t")
    assert Q.compose(I).is_identity()
    assert I.is_identity() and Q.is_identity()


def test_reduce_to_odd_sphere_product_model():
    # X = S^3 x S^2 with t the 3-sphere class, Y abelian in degree 6
    A = split_test_model()
    L = Dgl([("l", 6), ("k", 7)], {("l", "k"): {}}, {}, 17)
    assert reduce_to_odd_sphere(A, "t") == 3
    I, Q = retract_package(A, L, "t")
    assert Q.compose(I).is_identity()


def test_check_hypotheses_picks_lowest_odd_class_when_unspecified():
    A = split_test_model()
    L = Dgl([("l", 6)], {}, {}, 16)
    assert check_hypotheses(MapSpaceProblem(A, 5, y_dgl=L)).t == "t"


def rht_modules():
    import rht
    return [rht] + [importlib.import_module("rht." + m.name)
                    for m in pkgutil.iter_modules(rht.__path__)]


def test_pipeline_builds_the_tensor_model_once(monkeypatch):
    # the Lie route builds A (x) L and its cochains in mapping_space_model,
    # and the cochains of L for the bar obstruction; the reduction is the
    # split of t and builds no Lie or cochain map
    import rht.formality
    counts = {"tensor_map_model": 0, "ce_cochains": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def refused(name):
        def wrapper(*args, **kwargs):
            raise AssertionError("the pipeline called %s" % name)
        return wrapper

    replacements = {
        "tensor_map_model": counted("tensor_map_model", tensor_map_model),
        "ce_cochains": counted("ce_cochains", ce_cochains),
        "tensor_morphism": refused("tensor_morphism"),
        "restrict_dgl": refused("restrict_dgl")}
    for module in rht_modules():
        for name, fn in replacements.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    L = free_lie([("a1", 6), ("a2", 6)], 24)
    prob = MapSpaceProblem(split_test_model(), 5, y_dgl=L, t="t")
    verdict = rht.formality.formality_pipeline(prob, 14)
    assert any("reduced to the 3-sphere" in n for n in verdict.notes)
    assert counts == {"tensor_map_model": 1, "ce_cochains": 2}
