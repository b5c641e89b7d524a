"""Dgl.validate and ce_cochains against the exhaustive oracle in dgl_oracle.

validate skips cases that are identically 0 = 0 and reads brackets from the
two-sided table; ce_cochains reads the quadratic part of d off that table.
On valid algebras and on corrupted ones (a scaled bracket, an inconsistent
stored mirror pair, a wrong differential, random sparse tables) both must
give exactly what the oracle gives: the same brackets, the same
(ok, kind, message) and the same cochain images.  ce_cochains writes the
product of two generators out and halves each monomial's sum once; on every
such input, wrong-degree terms included, it must give the images of the
product-per-term assembly term for term, in key order.  free_lie spans
layer k by [generator, layer k-1] alone and must make only those
commutators besides the bracket table's.  free_lie and
free_lie_differential read coordinates from one tagged span per degree; they
must store the bracket table and differential that one dense solve per
bracket or image gives, and free_lie on int tensors must store exactly what
the Fraction construction of free_lie_reference stores.  tensor_morphism
must give the maps I, Q, proj and sect that the hand-built loops give, and
be a functor.  tensor_map_model must give the brackets and differential of
the loop over all pairs, tensor_map_model_reference, term for term.
validate scales the table and d by separate lcms of their denominators, so
DGLs whose table and d have different lcms are held to the oracle too.
"""

import math
from fractions import Fraction
from random import Random

import pytest

import dgl_oracle as oracle
from test_mapmodel import split_test_model
from test_properties import coupled_x, random_dgl, random_odd_finite_model
import rht.dgl
from rht.cefunctor import ce_cochains
from rht.dgl import (Dgl, DglError, FiniteCdga, FiniteCdgaMorphism,
                     fibration_model, free_lie, free_lie_differential,
                     restrict_dgl, tensor_commutator, tensor_map_model,
                     tensor_morphism)
from rht.gca import Cdga
from rht.mapmodel import split_odd_generator

F = Fraction


def basis_of(L):
    return [(n, L.degree_of[n]) for n in L.names]


def assert_matches_oracle(L):
    """Same brackets, report and cochain images as the oracle; the kind."""
    for a in L.names:
        for b in L.names:
            if L.degree_of[a] + L.degree_of[b] <= L.truncation:
                assert L.bracket(a, b) == oracle.bracket(L, a, b)
    got, want = L.validate(), oracle.validate(L)
    assert (got.ok, got.kind, got.message) == \
        (want.ok, want.kind, want.message), (basis_of(L), L.brackets)
    N = L.truncation + 1
    res = ce_cochains(L, N)
    ref = Cdga(res.cdga.generators, oracle.ce_images(L, N), N)
    assert res.cdga.differential.images == ref.differential.images
    for n in (N, N - 2):
        assert_same_terms_as_the_product_loop(L, n)
    return want.kind


def assert_same_terms_as_the_product_loop(L, N):
    """ce_cochains(L, N) gives the images of the product-per-term assembly
    term for term: the same monomials in the same key order, the same
    Fraction coefficients."""
    got = ce_cochains(L, N).cdga.differential.images
    want = oracle.ce_images_by_product(L, N)
    for name, img in got.items():
        terms = [(m, c, type(c)) for m, c in img.items()]
        assert terms == [(m, c, type(c)) for m, c in
                         want.get(name, {}).items()], (name, N)
    assert set(want) <= set(got)


def random_combo(rng, names):
    return {n: F(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
            for n in rng.sample(names, rng.randint(1, min(2, len(names))))}


def scaled_bracket(rng, L):
    key = rng.choice(sorted(L.brackets))
    brackets = dict(L.brackets)
    brackets[key] = {n: c * rng.choice((2, 3, -1)) for n, c in brackets[key].items()}
    return Dgl(basis_of(L), brackets, L.differential, L.truncation)


def stored_mirror(rng, L):
    """Store the mirror of a bracket too, consistent or off by a factor."""
    keys = sorted(k for k in L.brackets if k[0] != k[1])
    if not keys:
        return None
    a, b = rng.choice(keys)
    sign = -1 if (L.degree_of[a] * L.degree_of[b]) % 2 == 0 else 1
    factor = rng.choice((1, 2, -1))
    brackets = dict(L.brackets)
    brackets[(b, a)] = {n: sign * factor * c for n, c in L.brackets[(a, b)].items()}
    return Dgl(basis_of(L), brackets, L.differential, L.truncation)


def bad_differential(rng, L):
    """d on a basis element x replaced by a random combination, and half of
    the time d on a term y of dx too, so that d^2(x) can fail."""
    diff = dict(L.differential)
    targets = [x for x in L.names if L.basis_in_degree(L.degree_of[x] - 1)]
    if not targets:
        return None
    x = rng.choice(targets)
    diff[x] = random_combo(rng, L.basis_in_degree(L.degree_of[x] - 1))
    below = [y for y in diff[x] if y in targets]
    if below and rng.random() < 0.5:
        y = rng.choice(below)
        diff[y] = random_combo(rng, L.basis_in_degree(L.degree_of[y] - 1))
    return Dgl(basis_of(L), L.brackets, diff, L.truncation)


def random_table_dgl(rng):
    """Sparse random bracket table, mostly one orientation per pair, and
    sometimes a random differential: most of these are not DGLs, and many
    triples have exactly one nonzero bracket among [a,b], [b,c], [a,c]."""
    N = rng.randint(6, 9)
    basis = [("x%d" % i, rng.randint(1, 4)) for i in range(rng.randint(3, 7))]
    deg = dict(basis)
    names = [n for n, _ in basis]
    brackets = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            targets = [z for z in names if deg[z] == deg[a] + deg[b]]
            if not targets or rng.random() < 0.4:
                continue
            if a == b and deg[a] % 2 == 0 and rng.random() < 0.8:
                continue
            key = (a, b) if rng.random() < 0.5 else (b, a)
            brackets[key] = random_combo(rng, targets)
            if a != b and rng.random() < 0.05:
                brackets[key[::-1]] = random_combo(rng, targets)
    diff = {}
    if rng.random() < 0.3:
        for x in names:
            lower = [z for z in names if deg[z] == deg[x] - 1]
            if lower and rng.random() < 0.3:
                diff[x] = random_combo(rng, lower)
    return Dgl(basis, brackets, diff, N)


def rescaled_basis(rng, L):
    """L in the basis lambda_x x, lambda_x random: [x,y] = sum c z becomes
    sum (lambda_x lambda_y / lambda_z) c z and d x = sum c z becomes
    sum (lambda_x / lambda_z) c z, so a DGL stays a DGL, and the table and
    d get mixed denominators with different lcms."""
    lam = {x: F(rng.choice((1, 2, 3, F(1, 2), F(1, 3), F(2, 3), F(3, 4),
                            F(5, 6), F(4, 5))))
           for x in L.names}
    brackets = {(x, y): {z: lam[x] * lam[y] / lam[z] * c
                         for z, c in combo.items()}
                for (x, y), combo in L.brackets.items()}
    diff = {x: {z: lam[x] / lam[z] * c for z, c in combo.items()}
            for x, combo in L.differential.items()}
    return Dgl(basis_of(L), brackets, diff, L.truncation)


def denominator_lcm(combos):
    return math.lcm(*(c.denominator for combo in combos
                      for c in combo.values()))


def free_lie_with_differential(rng):
    """The free Lie algebra on g0, g1 and h, |h| = |g0| + |g1| + 1, with
    d h = [g0,g1]: d is nonzero on every bracket that holds h."""
    degs = [rng.randint(2, 4) for _ in range(2)]
    hdeg = sum(degs) + 1
    L = free_lie([("g0", degs[0]), ("g1", degs[1]), ("h", hdeg)],
                 hdeg + rng.randint(2, 5))
    return free_lie_differential(L, {"h": L.bracket("g0", "g1")})


def test_table_and_differential_scales_differ_and_match_the_oracle():
    # validate scales the table by D, the lcm of its denominators, and d by
    # E, the lcm of d's.  These DGLs have E not dividing D and mixed
    # denominators in d, so scaling d by D would scale its terms unevenly
    rng = Random(512)
    kinds = {}
    apart = 0
    for _ in range(150):
        L = rescaled_basis(rng, free_lie_with_differential(rng))
        if denominator_lcm(L.brackets.values()) % \
                denominator_lcm(L.differential.values()) == 0:
            continue
        apart += 1
        assert assert_matches_oracle(L) is None
        for corrupt in (scaled_bracket, stored_mirror, bad_differential):
            bad = corrupt(rng, L)
            if bad is not None:
                kind = assert_matches_oracle(bad)
                kinds[kind] = kinds.get(kind, 0) + 1
    assert apart >= 40
    for kind in ("jacobi", "antisymmetry", "leibniz", "d-squared", None):
        assert kinds.get(kind, 0) >= 5, kinds


def test_valid_dgls_and_tensor_models_match_the_oracle():
    rng = Random(505)
    models = 0
    for _ in range(40):
        L = random_dgl(rng)
        assert assert_matches_oracle(L) is None
        A = random_odd_finite_model(rng)
        L = random_dgl(rng, min_degree=A.top_degree + 1)
        if L.truncation - 2 * A.top_degree >= 1:
            assert assert_matches_oracle(tensor_map_model(A, L)) is None
            models += 1
    assert models >= 20


def test_benchmark_shaped_tensor_model_matches_the_oracle():
    # X = S^3 x S^2 and Y = S^7 v S^7 as in the lie_reduction benchmark, at
    # a smaller truncation: 32 basis elements and 63 stored brackets
    M = tensor_map_model(split_test_model(),
                         free_lie([("a1", 6), ("a2", 6)], 34))
    assert assert_matches_oracle(M) is None
    rng = Random(508)
    kinds = set()
    for _ in range(3):
        for corrupt in (scaled_bracket, stored_mirror, bad_differential):
            kinds.add(assert_matches_oracle(corrupt(rng, M)))
    assert {"jacobi", "antisymmetry"} <= kinds


def test_corrupted_dgls_match_the_oracle():
    rng = Random(506)
    kinds = {}
    for _ in range(60):
        degs = [rng.choice([2, 3, 4, 5]) for _ in range(2)]
        gens = [("g%d" % i, d) for i, d in enumerate(degs)]
        bases = [free_lie(gens, 3 * max(degs) + 1), random_dgl(rng)]
        A = random_odd_finite_model(rng)
        L = random_dgl(rng, min_degree=A.top_degree + 1)
        if L.truncation - 2 * A.top_degree >= 1:
            bases.append(tensor_map_model(A, L))
        for L in bases:
            for corrupt in (scaled_bracket, stored_mirror, bad_differential):
                bad = corrupt(rng, L) if L.brackets else None
                if bad is not None:
                    kind = assert_matches_oracle(bad)
                    kinds[kind] = kinds.get(kind, 0) + 1
    for kind in ("jacobi", "antisymmetry", "leibniz", "d-squared", None):
        assert kinds.get(kind, 0) >= 5, kinds


def test_random_tables_match_the_oracle():
    rng = Random(507)
    kinds = {}
    for _ in range(400):
        kind = assert_matches_oracle(random_table_dgl(rng))
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in ("jacobi", "antisymmetry", "leibniz", "d-squared", None):
        assert kinds.get(kind, 0) >= 5, kinds


def wrong_degree_term(rng, L):
    """A term of the wrong degree added to a stored bracket or, a third of
    the time, to d of a basis element."""
    deg = L.degree_of
    if L.brackets and rng.random() < 2 / 3:
        a, b = rng.choice(sorted(L.brackets))
        others = [z for z in L.names if deg[z] != deg[a] + deg[b]]
        brackets = dict(L.brackets)
        brackets[(a, b)] = dict(brackets[(a, b)])
        brackets[(a, b)].update(random_combo(rng, others))
        return Dgl(basis_of(L), brackets, L.differential, L.truncation)
    x = rng.choice(L.names)
    others = [z for z in L.names if deg[z] != deg[x] - 1]
    diff = dict(L.differential)
    diff[x] = dict(diff.get(x, {}))
    diff[x].update(random_combo(rng, others))
    return Dgl(basis_of(L), L.brackets, diff, L.truncation)


def test_wrong_degree_terms_match_the_oracle():
    # ce_cochains skips a bracket term of another degree than |x| + |y| and
    # keeps a differential term of any degree, as the oracle does
    rng = Random(510)
    kinds = {}
    for _ in range(40):
        bases = [random_dgl(rng), random_table_dgl(rng)]
        A = random_odd_finite_model(rng)
        L = random_dgl(rng, min_degree=A.top_degree + 1)
        if L.truncation - 2 * A.top_degree >= 1:
            bases.append(tensor_map_model(A, L))
        for L in bases:
            kind = assert_matches_oracle(wrong_degree_term(rng, L))
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("bracket-degree", 0) >= 20, kinds
    assert kinds.get("differential-degree", 0) >= 10, kinds


def random_generator_images(rng, L, gens):
    """Random d on some generators: a combination of the basis elements one
    degree lower, or nothing where that degree is empty."""
    images = {}
    for g, d in gens:
        below = [n for n in L.names if L.degree_of[n] == d - 1]
        if below and rng.random() < 0.8:
            images[g] = random_combo(rng, below)
    return images


def test_free_lie_coordinates_match_dense_solves():
    rng = Random(508)
    # Y = S^7 v S^7 as the lie_reduction benchmark workload presents it
    inputs = [([("a1", 6), ("a2", 6)], 24)]
    for _ in range(60):
        degs = sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        gens = [("g%d" % i, d) for i, d in enumerate(degs)]
        # brackets of at most five letters keep the dense solves small
        N = max(degs) + rng.randint(2, 6)
        inputs.append((gens, max(max(degs), min(N, 5 * degs[0]))))
    differentials = 0
    for gens, N in inputs:
        L = free_lie(gens, N)
        assert L.brackets == oracle.free_lie_brackets(L), (gens, N)
        images = random_generator_images(rng, L, gens)
        Ld = free_lie_differential(L, images)
        assert Ld.differential == \
            oracle.free_lie_differential_images(L, images), (gens, N, images)
        differentials += bool(Ld.differential)
    assert differentials >= 20


def test_free_lie_differential_with_shared_words_matches_the_oracle():
    # b6_2 and b6_4 have tensors with common words, so the tensor of d x
    # must add their coefficients in the oracle as in the library
    L = free_lie([("a", 2), ("b", 2), ("c", 2), ("x", 7)], 7)
    images = {"x": {"b6_2": F(1), "b6_4": F(1)}}
    assert set(L.tensor_reps["b6_2"]) & set(L.tensor_reps["b6_4"])
    assert free_lie_differential(L, images).differential == \
        oracle.free_lie_differential_images(L, images)


def _free_lie_data(L):
    """Names, degrees, basis tensors and stored brackets, with key order
    and coefficient types."""
    def items(combo):
        return [(k, c, type(c)) for k, c in combo.items()]
    return ([(n, L.degree_of[n]) for n in L.names],
            [(n, items(L.tensor_reps[n])) for n in L.names],
            [(pair, items(combo)) for pair, combo in L.brackets.items()])


def test_free_lie_matches_the_fraction_reference():
    # free_lie works on int tensors; it must store exactly what the Fraction
    # construction stored
    rng = Random(509)
    # Y = S^7 v S^7 at the lie_reduction truncation and above it
    inputs = [([("a1", 6), ("a2", 6)], 40), ([("a1", 6), ("a2", 6)], 48)]
    for _ in range(40):
        degs = [rng.randint(1, 7) for _ in range(rng.randint(1, 3))]
        gens = [("g%d" % i, d) for i, d in enumerate(degs)]
        # brackets of at most eight letters (six on three generators) keep
        # the reference quick
        letters = 8 if len(degs) < 3 else 6
        N = min(rng.randint(max(degs), 24),
                max(max(degs), letters * min(degs)))
        inputs.append((gens, N))
    assert {d % 2 for gens, _ in inputs for _, d in gens} == {0, 1}
    for gens, N in inputs:
        data = _free_lie_data(free_lie(gens, N))
        assert data == _free_lie_data(oracle.free_lie_reference(gens, N)), \
            (gens, N)
        assert {t for _, combo in data[1] + data[2] for _, _, t in combo} \
            <= {F}


def test_free_lie_spans_by_generator_brackets_only(monkeypatch):
    # Layer k is spanned by [generator, layer k-1]: at T = 40 on two
    # degree-6 generators, layer k-1 is the basis of degree 6(k-1), so the
    # spanning makes two commutators per basis element of degree <= 34, and
    # the bracket table one per pair a <= b with |a| + |b| <= 40.  Spanning
    # by every [layer i, layer k-i] made 103 calls, not 64.
    calls = []

    def counting(e1, d1, e2, d2):
        calls.append((d1, d2))
        return tensor_commutator(e1, d1, e2, d2)

    monkeypatch.setattr(rht.dgl, "tensor_commutator", counting)
    L = free_lie([("a1", 6), ("a2", 6)], 40)
    deg = [L.degree_of[n] for n in L.names]
    spanning = 2 * sum(1 for d in deg if d + 6 <= 40)
    table = sum(1 for i, d in enumerate(deg) for e in deg[i:] if d + e <= 40)
    assert (spanning, table) == (28, 36)
    assert len(calls) == spanning + table == 64
    assert all(d1 == 6 for d1, _ in calls[:spanning])
    assert _free_lie_data(L) == _free_lie_data(
        oracle.free_lie_reference([("a1", 6), ("a2", 6)], 40))


def tensor_model_terms(build, A, L):
    """The basis, brackets and differential of build(A, L), with key order
    and coefficient types, or the message of the DglError it raises."""
    try:
        M = build(A, L)
    except DglError as exc:
        return str(exc)
    def terms(combos):
        return [(k, [(z, c, type(c)) for z, c in combo.items()])
                for k, combo in combos.items()]
    return basis_of(M), terms(M.brackets), terms(M.differential)


def assert_tensor_model_matches_the_pair_loop(A, L):
    got = tensor_model_terms(tensor_map_model, A, L)
    assert got == tensor_model_terms(oracle.tensor_map_model_reference, A, L)
    return got


def test_tensor_map_model_matches_the_pair_loop():
    # tensor_map_model reads L's table and A's products directly; it must
    # give what the loop over all pairs through L.bracket, A.product and
    # combine gave, term for term.  Y = S^7 v S^7 has only even degrees, so
    # the sign (-1)^{|a'||l|} needs L with an odd generator as well
    L = free_lie([("a1", 6), ("a2", 6)], 40)
    for c in (F(-5, 6), F(8, 9), F(1)):
        _, brackets, _ = assert_tensor_model_matches_the_pair_loop(
            lie_reduction_x(c), L)
        assert len(brackets) == 135
    assert coupled_x().validate()
    odd_L = free_lie([("a", 7), ("b", 6)], 34)
    cases = [(lie_reduction_x(c), odd_L) for c in (F(-5, 6), F(8, 9), F(1))]
    cases.append((coupled_x(), odd_L))
    rng = Random(513)
    for k in range(150):
        A = coupled_x() if k % 3 == 0 else random_odd_finite_model(rng)
        L = random_dgl(rng, min_degree=A.top_degree + 1)
        if L.truncation - 2 * A.top_degree >= 1:
            cases.append((A, L))
    seen = dict.fromkeys(("d_A", "d_L", "sign", "escaped"), 0)
    for A, L in cases:
        assert_tensor_model_matches_the_pair_loop(A, L)
        M = tensor_map_model(A, L)
        fact = M.factorization[2]
        seen["d_A"] += any(A.diff.get(fact[nm][0]) for nm in M.differential)
        seen["d_L"] += bool(L.differential)
        seen["sign"] += any(
            L.degree_of[fact[nm1][1]] * A.degree_of[fact[nm2][0]] % 2
            for nm1, nm2 in M.brackets)
        # a bracket term of the wrong degree lands outside A (x) L's basis,
        # or inside it where its degree is still in range
        got = assert_tensor_model_matches_the_pair_loop(
            A, wrong_degree_term(rng, L))
        seen["escaped"] += isinstance(got, str) and "escaped" in got
    assert min(seen.values()) >= 5, seen


def lie_reduction_x(c):
    """X = S^3 x S^2 with t*x = c*tx, as the lie_reduction benchmark builds it."""
    zero = [("x", "x"), ("t", "t"), ("t", "tx"), ("tx", "t"), ("x", "tx"),
            ("tx", "x"), ("tx", "tx")]
    mult = {("t", "x"): {"tx": c}, ("x", "t"): {"tx": c}}
    mult.update({pair: {} for pair in zero})
    return FiniteCdga([("1", 0), ("x", 2), ("t", 3), ("tx", 5)], "1", mult)


def tensor_models(A, L):
    """A (x) L, the split sphere T (x) L and the point P (x) L at one
    truncation, with the splitting i, q and the augmentation and unit."""
    i, q = split_odd_generator(A, "t")
    M_A = tensor_map_model(A, L)
    M_T = restrict_dgl(tensor_map_model(i.source, L), M_A.truncation)
    P = FiniteCdga.point()
    M_P = restrict_dgl(tensor_map_model(P, L), M_A.truncation)
    eps = FiniteCdgaMorphism(A, P, {A.unit: {P.unit: 1}})
    unit = FiniteCdgaMorphism(P, i.source, {P.unit: {i.source.unit: 1}})
    return i, q, eps, unit, M_A, M_T, M_P


def lie_y(A):
    """Free Lie algebra on two generators of degree d = max(6, top(A) + 1),
    cut after brackets of four letters, so that A (x) L stays connected."""
    d = max(6, A.top_degree + 1)
    return free_lie([("a1", d), ("a2", d)], 4 * d)


X_MODELS = [split_test_model(), lie_reduction_x(F(-5, 3)),
            FiniteCdga.from_free_odd(Cdga([("t", 3), ("b", 5)], {}, 9))]


@pytest.mark.parametrize("A", X_MODELS)
def test_tensor_morphism_matches_the_hand_built_maps(A):
    # I and Q are DGL maps by construction; test_tensor_morphism_is_a_functor
    # checks them
    L = lie_y(A)
    i, q, _, _, M_A, M_T, _ = tensor_models(A, L)
    I_want, Q_want = oracle.reduction_images(i, q, M_A, M_T)
    assert tensor_morphism(i, M_T, M_A).images == I_want
    assert tensor_morphism(q, M_A, M_T).images == Q_want
    proj, sect = fibration_model(M_A)
    assert (proj.images, sect.images) == oracle.fibration_images(M_A)
    assert oracle.dgl_map_report(proj) and oracle.dgl_map_report(sect)


@pytest.mark.parametrize("A", X_MODELS)
def test_tensor_morphism_is_a_functor(A):
    # T(g o f) = T(g) o T(f) on T -> A -> T, T -> A -> point, point -> T -> A
    L = lie_y(A)
    i, q, eps, unit, M_A, M_T, M_P = tensor_models(A, L)
    models = {A: M_A, i.source: M_T, eps.target: M_P}
    for g, f in ((q, i), (eps, i), (i, unit)):
        Tf = tensor_morphism(f, models[f.source], models[f.target])
        Tg = tensor_morphism(g, models[g.source], models[g.target])
        Tgf = tensor_morphism(g.compose(f), models[f.source],
                              models[g.target])
        assert Tgf.images == Tg.compose(Tf).images
        assert oracle.dgl_map_report(Tf) and oracle.dgl_map_report(Tg)


def test_tensor_morphism_rejects_a_term_outside_the_target():
    L = free_lie([("a1", 6), ("a2", 6)], 24)
    i, _, _, _, M_A, M_T, _ = tensor_models(split_test_model(), L)
    # b12_0 of M_T has degree 12; A (x) L cut at 10 has no image for it
    with pytest.raises(DglError, match="escaped the basis"):
        tensor_morphism(i, M_T, restrict_dgl(M_A, 10))
