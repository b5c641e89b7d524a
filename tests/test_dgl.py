from fractions import Fraction
from itertools import product as iproduct

import pytest

from dgl_oracle import dgl_map_report, tensor_commutator
from rht.dgl import (Dgl, BasisMorphism, FiniteCdga, FiniteCdgaMorphism,
                     free_lie, free_lie_differential, add_differential,
                     tensor_map_model,
                     fibration_model, ConnectivityError)
from rht.gca import Cdga
from rht.linalg import EchelonSpan

F = Fraction
QONE = F(1)


# -- an independent tensor-algebra oracle ---------------------------------
#
# Enumerate every fully parenthesized bracketing of every word of generators
# and take the degreewise rank of the resulting tensors.  This shares nothing
# with free_lie's layered spanning construction, and its commutator is the
# plain Fraction sum of dgl_oracle, not rht.dgl's.

def _all_bracketings(letters, degrees):
    if len(letters) == 1:
        i = letters[0]
        return [({(i,): QONE}, degrees[i])]
    out = []
    for cut in range(1, len(letters)):
        for e1, d1 in _all_bracketings(letters[:cut], degrees):
            for e2, d2 in _all_bracketings(letters[cut:], degrees):
                e = tensor_commutator(e1, d1, e2, d2)
                out.append((e, d1 + d2))
    return out


def oracle_free_lie_dims(degrees, upto):
    """degree -> rank of the span of all bracketings, brute force."""
    ngens = len(degrees)
    mindeg = min(degrees)
    elems = {}
    for length in range(1, upto // mindeg + 1):
        for letters in iproduct(range(ngens), repeat=length):
            total = sum(degrees[i] for i in letters)
            if total > upto:
                continue
            for e, d in _all_bracketings(list(letters), degrees):
                if e:
                    elems.setdefault(d, []).append(e)
    dims = {}
    for d, es in elems.items():
        words = sorted({w for e in es for w in e})
        pos = {w: i for i, w in enumerate(words)}
        span = EchelonSpan(len(words))
        for e in es:
            span.add({pos[w]: c for w, c in e.items()})
        dims[d] = span.rank()
    return {d: r for d, r in dims.items() if r}


def test_free_lie_one_odd_generator_against_oracle():
    # Graded Jacobi forces 3[a,[a,a]] = 0 over Q, so the degree-9 rank is 0.
    L = free_lie([("a", 3)], 9)
    assert L.dims() == {3: 1, 6: 1}
    assert oracle_free_lie_dims([3], 9) == {3: 1, 6: 1}
    assert L.validate()
    # and [a,a] is twice the basis tensor a(x)a, in particular nonzero
    assert L.bracket("a", "a") == {"b6_0": F(2)}


def test_free_lie_one_even_generator():
    L = free_lie([("b", 2)], 6)
    assert L.dims() == {2: 1}
    assert oracle_free_lie_dims([2], 6) == {2: 1}


def test_free_lie_two_odd_generators_degree_six():
    L = free_lie([("a", 3), ("b", 3)], 6)
    assert L.dims() == {3: 2, 6: 3}
    assert oracle_free_lie_dims([3, 3], 6) == {3: 2, 6: 3}
    assert L.validate()


def test_free_lie_mixed_generators_matches_oracle():
    for degrees, upto in ([2, 3], 8), ([1, 1], 4), ([3, 4], 10):
        gens = [("g%d" % i, d) for i, d in enumerate(degrees)]
        L = free_lie(gens, upto)
        assert L.dims() == oracle_free_lie_dims(degrees, upto), (degrees, upto)
        assert L.validate()


def test_free_lie_differential_image_with_shared_words():
    # d x is a sum of two basis brackets whose tensors share words, such as
    # [a,[b,c]] and [b,[a,c]]: the tensor of d x must add their coefficients
    L = free_lie([("a", 2), ("b", 2), ("c", 2), ("x", 7)], 7)
    reps = L.tensor_reps
    deg6 = L.basis_in_degree(6)
    u, v = next((u, v) for i, u in enumerate(deg6) for v in deg6[i + 1:]
                if set(reps[u]) & set(reps[v]))
    M = free_lie_differential(L, {"x": {u: 1, v: -2}})
    assert M.differential == {"x": {u: F(1), v: F(-2)}}
    assert M.validate()


def test_validate_abelian_and_antisymmetry_violation():
    L = Dgl([("u", 3)], {}, {}, 9)
    assert L.validate()
    bad = Dgl([("u", 3), ("v", 4), ("w", 7)],
              {("u", "v"): {"w": 1}, ("v", "u"): {"w": 1}}, {}, 9)
    report = bad.validate()
    assert not report and report.kind == "antisymmetry"


def test_validate_catches_bad_jacobi():
    # perturb one bracket of a valid free Lie algebra
    L = free_lie([("a", 3), ("b", 3)], 9)
    brackets = dict(L.brackets)
    key = ("a", "b")
    assert key in brackets
    brackets[key] = {n: 2 * c for n, c in brackets[key].items()}
    bad = Dgl(list(zip(L.names, [L.degree_of[n] for n in L.names])),
              brackets, {}, 9)
    report = bad.validate()
    assert not report and report.kind in ("jacobi", "antisymmetry")


def test_validate_catches_bad_leibniz():
    L = free_lie([("a", 3), ("c", 7)], 10)
    # d(c) = [a,a] is a valid minimal differential
    good = add_differential(L, {"c": L.bracket("a", "a")})
    assert good.validate()
    # d(b6_0) = a breaks Leibniz/degree bookkeeping on [a,a]
    bad = add_differential(L, {"c": L.bracket("a", "a"), "b6_0": {"a": 2}})
    report = bad.validate()
    assert not report


def sphere_model(p):
    return FiniteCdga.sphere(p)


def abelian_dgl(degree, name="l", truncation=None):
    return Dgl([(name, degree)], {}, {}, truncation or degree + 4)


def test_finite_cdga_sphere_validates():
    for p in (1, 2, 3, 6):
        assert sphere_model(p).validate()


def test_tensor_model_sphere_times_abelian():
    # A = H^*(S^2), L abelian on one degree-3 class: basis 1(x)l, t(x)l
    A = sphere_model(2)
    L = abelian_dgl(3, truncation=9)
    M = tensor_map_model(A, L)
    assert sorted((n, M.degree_of[n]) for n in M.names) == [("l", 3), ("t_l", 1)]
    assert M.brackets == {}
    assert M.differential == {}
    assert M.validate()


def test_tensor_model_unit_case_is_isomorphic_to_L():
    A = FiniteCdga.point()
    L = free_lie([("a", 3), ("b", 3)], 6)
    M = tensor_map_model(A, L)
    assert set(M.names) == set(L.names)
    assert M.degree_of == L.degree_of
    for (x, y), combo in L.brackets.items():
        assert M.bracket(x, y) == combo


def test_tensor_model_bracket_formula():
    # [t(x)a, 1(x)b] = (-1)^{0*3} t(x)[a,b]
    A = sphere_model(2)
    L = free_lie([("a", 3), ("b", 3)], 10)
    M = tensor_map_model(A, L)
    got = M.bracket("t_a", "b")
    lie = L.bracket("a", "b")
    want = {"t_%s" % n: c for n, c in lie.items()}
    assert got == want
    assert M.degree_of["t_a"] == 1 and all(M.degree_of[k] == 4 for k in got)


def test_tensor_model_connectivity_violation():
    A = sphere_model(3)
    L = abelian_dgl(3, truncation=9)  # |t(x)l| = 0
    with pytest.raises(ConnectivityError):
        tensor_map_model(A, L)


def test_tensor_model_with_nonzero_differentials_validates():
    # A with d_A != 0: free odd CDGA Lambda(t3, t5, u7) with d(u7) = t3*t5
    gens = [("t3", 3), ("t5", 5), ("u7", 7)]
    alg = Cdga(gens, {}, 16)
    du = alg.multiply(alg.gen("t3"), alg.gen("t5"))
    A = FiniteCdga.from_free_odd(Cdga(gens, {"u7": du}, 16))
    assert A.validate()
    assert A.top_degree == 15
    L = free_lie([("a", 17), ("b", 19)], 38)
    dL = add_differential(L, {"b": {}})
    M = tensor_map_model(A, dL)
    assert M.validate()


def test_fibration_model_projection_and_section():
    A = sphere_model(2)
    L = free_lie([("a", 3), ("b", 3)], 10)
    M = tensor_map_model(A, L)
    proj, sect = fibration_model(M)
    assert dgl_map_report(proj)
    assert dgl_map_report(sect)
    assert proj.compose(sect).is_identity()
    # proj kills t(x)l and keeps 1(x)l
    assert proj.images["t_a"] == {}
    assert proj.images["a"] == {"a": QONE}


def test_fibration_model_point_is_identity():
    A = FiniteCdga.point()
    L = free_lie([("a", 3)], 9)
    M = tensor_map_model(A, L)
    proj, sect = fibration_model(M)
    assert proj.is_identity() and sect.is_identity()


def test_check_dgl_morphism_identity_and_scaling_violation():
    L = free_lie([("a", 3), ("b", 3)], 9)
    images = {n: {n: QONE} for n in L.names}
    assert dgl_map_report(BasisMorphism(L, L, images))
    images["b6_1"] = {"b6_1": F(5)}  # scales one bracket inconsistently
    report = dgl_map_report(BasisMorphism(L, L, images))
    assert not report and report.kind == "bracket"


def test_finite_cdga_morphism_split():
    # q: Lambda(t) (x) Q[x]/(x^2) -> Lambda(t) killing x, q o i = Id
    A = FiniteCdga([("1", 0), ("t", 3), ("x", 2), ("tx", 5)], "1",
                   {("t", "x"): {"tx": 1}, ("x", "t"): {"tx": 1},
                    ("x", "x"): {}, ("t", "t"): {}, ("t", "tx"): {},
                    ("tx", "t"): {}, ("x", "tx"): {}, ("tx", "x"): {},
                    ("tx", "tx"): {}})
    assert A.validate()
    T = FiniteCdga.sphere(3)
    i = FiniteCdgaMorphism(T, A, {"1": {"1": 1}, "t": {"t": 1}})
    q = FiniteCdgaMorphism(A, T, {"1": {"1": 1}, "t": {"t": 1}})
    assert i.check() and q.check()
    assert q.compose(i).is_identity()
