"""Randomized structural suites, seeded, 200+ cases each.

Generators of random valid inputs:
  * free graded-commutative algebras on random mixed odd/even generators;
  * finite CDGA models from free algebras on odd generators with random
    two-layer differentials (d of a later generator is a polynomial in
    closed earlier ones, so d^2 = 0 holds by construction);
  * DGLs as free Lie algebras on random generators with random minimal
    differentials into brackets of closed generators;
  * minimal Sullivan algebras with random decomposable differentials;
  * bigraded models of random presented rings and of the cohomology of
    random minimal Sullivan algebras, and their barred models;
  * random homogeneous polynomials, mapped by rho into a presented quotient
    ring and into the cohomology ring of a model.
"""

from fractions import Fraction
from random import Random

import pytest

from rht.gca import Cdga, CheckReport, Derivation, FreeGCA, Poly
from rht.dgl import (FiniteCdga, free_lie, free_lie_differential,
                     tensor_map_model, Dgl)
from rht.cefunctor import ce_cochains
from rht.mapmodel import (suspension_model, suspension_bar_names, bar_name,
                          split_odd_generator, reduce_to_odd_sphere,
                          MapSpaceProblem)
from rht.formality import (koszul_formality, RhoMorphism, formality_pipeline,
                           KoszulCert, FormalityVerdict, FORMAL, NONFORMAL,
                           UNKNOWN, koszul_rho,
                           koszul_sequence, regular_sequence_check,
                           bigraded_model, bar_witnesses, lemma36_scan,
                           barred_scan_missing, BigradedModel)
from rht.certificates import replay_certificate_text, serialize_verdict
from rht.quotient import QuotientRing, ModelCohomology
from bigraded_oracle import bar_linearity_report, barred_bigraded_model

F = Fraction
CASES = 200


COUPLED_TRIPLES = [(3, 5, 7), (3, 7, 9), (5, 7, 11)]  # d1 + d2 = d3 + 1


def random_odd_finite_model(rng, want_coupled=None):
    """Finite model from an all-odd free CDGA.

    With probability ~0.5 (or per want_coupled) the top generator gets a
    nonzero differential d(t2) = t0 t1.  Its top degree (15-23) leaves no
    a(x)l with d_A a != 0 in A (x) L for random_dgl's L; coupled_x does."""
    if want_coupled is None:
        want_coupled = rng.random() < 0.5
    if want_coupled:
        degs = list(rng.choice(COUPLED_TRIPLES))
    else:
        degs = sorted(rng.choice([3, 5, 7])
                      for _ in range(rng.randint(1, 3)))
    gens = [("t%d" % i, d) for i, d in enumerate(degs)]
    carrier = Cdga(gens, {}, sum(degs) + 1)
    images = {}
    if want_coupled:
        images["t2"] = carrier.multiply(carrier.gen("t0"), carrier.gen("t1"))
    model = Cdga(gens, images, sum(degs) + 1)
    fin = FiniteCdga.from_free_odd(model)
    fin.generator_names = [g for g, _ in gens]
    return fin


def coupled_x():
    """Lambda(x2, y3) with dy = x^2, cut above degree 4: an X with a
    nonzero differential and a top degree small enough that A (x) L holds
    both y(x)l and d_A y (x) l = xx(x)l."""
    return FiniteCdga([("1", 0), ("x", 2), ("y", 3), ("xx", 4)], "1",
                      {("x", "x"): {"xx": 1}}, {"y": {"xx": 1}})


def random_dgl(rng, min_degree=1):
    """Free Lie algebra on 1-2 generators, sometimes with an extra generator
    whose differential is a bracket of closed ones (propagated to the whole
    basis through the tensor-level Leibniz rule)."""
    ngens = rng.randint(1, 2)
    degs = [rng.randint(max(2, min_degree), max(4, min_degree + 2))
            for _ in range(ngens)]
    gens = [("g%d" % i, d) for i, d in enumerate(degs)]
    N = max(degs) * 2 + rng.randint(0, 2)
    if rng.random() < 0.5:
        a, b = (rng.choice(gens)[0] for _ in range(2))
        da, db = (dict(gens)[x] for x in (a, b))
        hdeg = da + db + 1
        L2 = free_lie(gens + [("h", hdeg)], max(N, hdeg))
        img = L2.bracket(a, b)
        if img:
            return free_lie_differential(L2, {"h": img})
    return free_lie(gens, N)


def test_tensor_map_model_always_yields_a_dgl():
    # Prop 3.1's three formulas produce a DGL: 200 randomized (A, L) pairs.
    # The coupled case, an a(x)l in A (x) L with d_A a != 0, needs an X of
    # small top degree, so every fourth X is coupled_x
    rng = Random(2024)
    produced = 0
    coupled = 0
    while produced < CASES:
        A = coupled_x() if produced % 4 == 0 else random_odd_finite_model(rng)
        assert A.validate()
        L = random_dgl(rng, min_degree=A.top_degree + 1)
        if L.truncation - 2 * A.top_degree < 1:
            continue
        try:
            M = tensor_map_model(A, L)
        except Exception:
            continue
        report = M.validate()
        assert report, (report, A.names, L.names)
        produced += 1
        fact = M.factorization[2]
        coupled += any(A.diff.get(fact[nm][0]) for nm in M.names)
    assert coupled >= 40, coupled


def test_ce_cochains_squares_to_zero():
    rng = Random(77)
    for _ in range(CASES):
        L = random_dgl(rng)
        res = ce_cochains(L, L.truncation + 1)
        assert res.cdga.check(), L.names


def test_ce_detects_corrupted_jacobi_triples():
    # a Jacobi violation on a triple of total degree D shows up in the d1^2
    # component of d^2 once the cochain truncation reaches D + 3; corrupt the
    # lowest stored bracket of free Lie algebras with a window wide enough
    # (scaling the single bracket of a one-generator algebra is an honest
    # isomorphism, so two generators are needed for a genuine violation)
    rng = Random(78)
    detected = 0
    for case in range(CASES):
        degs = [rng.choice([3, 5]) for _ in range(2)]
        gens = [("g%d" % i, d) for i, d in enumerate(degs)]
        N = 3 * max(degs) + 2
        L = free_lie(gens, N)
        low = min(L.degree_of[a] + L.degree_of[b] for a, b in L.brackets)
        keys = sorted(k for k in L.brackets
                      if L.degree_of[k[0]] + L.degree_of[k[1]] == low)
        key = keys[rng.randrange(len(keys))]
        brackets = dict(L.brackets)
        brackets[key] = {n: c * 3 for n, c in brackets[key].items()}
        bad = Dgl(list(zip(L.names, [L.degree_of[n] for n in L.names])),
                  brackets, {}, N)
        report = bad.validate()
        if report:
            continue  # the scaled bracket happened to stay consistent
        bad_ce = ce_cochains(bad, bad.truncation + 1)
        assert not bad_ce.cdga.check(), (degs, key)
        detected += 1
    assert detected >= CASES - 40


def random_minimal_sullivan(rng, p):
    """Minimal algebra with generator degrees > p and decomposable d."""
    base = [("a", p + 2 + rng.randint(0, 2)), ("b", p + 2 + rng.randint(0, 3))]
    carrier = Cdga(base, {}, 40)
    prod = carrier.multiply(carrier.gen("a"), carrier.gen("b"))
    gens = list(base)
    images = {}
    if prod and rng.random() < 0.8:
        cdeg = base[0][1] + base[1][1] - 1
        gens.append(("c", cdeg))
        big = Cdga(gens, {}, 40)
        images["c"] = big.multiply(big.gen("a"), big.gen("b"))
    if rng.random() < 0.4:
        gens.append(("e", p + 2))
    return Cdga(gens, images, 40)


def test_verdicts_follow_the_theorem_on_odd_spheres():
    # for odd p, F(S^p, Y) is formal only when the minimal model of Y has
    # d = 0: a free-cohomology FORMAL at N needs d = 0 on every generator
    # of Y of degree <= N + p (those of the model of F up to N), no N with
    # FORMAL lies above an N with NONFORMAL, and every certificate replays
    rng = Random(2323)
    relations = 0
    for case in range(40):
        p = rng.choice([1, 3])
        Y = random_minimal_sullivan(rng, p)
        relations += bool(Y.differential.images)
        prob = MapSpaceProblem(FiniteCdga.sphere(p), p, y_cdga=Y)
        seen = {FORMAL: [], NONFORMAL: [], UNKNOWN: []}
        for N in range(2, p + 13):
            verdict = formality_pipeline(prob, N)
            seen[verdict.verdict].append(N)
            cert = verdict.certificate
            if cert is None:
                continue
            if cert.kind == "free-cohomology":
                assert not any(Y.differential.images.get(g) for g in Y.names
                               if Y.gen_degree(g) <= N + p), (case, N)
            ok, info = replay_certificate_text(serialize_verdict(verdict))
            assert ok, (case, N, info)
        assert max(seen[FORMAL], default=0) < min(seen[NONFORMAL],
                                                  default=99), (case, seen)
    assert relations >= 28


def test_suspension_model_identities():
    # S^2 = 0 and d^2 = 0 always; d(Sv) = -S(dv) for odd p, +S(dv) for even p
    rng = Random(4242)
    for case in range(CASES):
        p = rng.choice([1, 2, 3, 5])
        Y = random_minimal_sullivan(rng, p)
        if not Y.is_minimal():
            raise AssertionError("generator produced a non-minimal algebra")
        alg = suspension_model(Y, p)
        S = Derivation(alg, -p, {v: alg.gen(bar_name(v)) for v in Y.names})
        sign = (-1) ** p
        assert alg.check()  # d^2 = 0 on every generator
        for name in Y.names:
            sv = alg.gen(bar_name(name))
            assert not alg.apply_derivation(S, sv)  # S^2 = 0 on generators
            dv = alg.d(alg.gen(name))
            assert alg.d(sv) == alg.apply_derivation(S, dv).scale(sign)
        if p % 2 == 1:
            # the classical identity d(Sv) + S(dv) = 0, and S^2 = 0 globally
            for name in Y.names:
                dv = alg.d(alg.gen(name))
                dsv = alg.d(alg.gen(bar_name(name)))
                assert dsv + alg.apply_derivation(S, dv) == Poly()
            basis = alg.degree_basis(min(alg.truncation, 2 * p + 6))
            for m in basis[:4]:
                pp = Poly({m: F(1)})
                assert not alg.apply_derivation(S, alg.apply_derivation(S, pp))


def random_cohomology_ring(rng):
    """(H, N): a random presented ring (two or three even generators of
    degree 4 or 6, two or three random relations of degree 8 or 10, often
    not a complete intersection, so its bigraded model has generators of
    lower degree 2) or the cohomology of a random minimal Sullivan algebra,
    truncated at N; its bigraded model has every generator in degree > 3."""
    N = rng.randint(13, 17)
    if rng.random() < 0.6:
        gens = FreeGCA([("x%d" % i, rng.choice([4, 4, 6]))
                        for i in range(rng.randint(2, 3))])
        rels = [random_homogeneous(rng, gens, rng.choice([8, 8, 10]))
                for _ in range(rng.randint(2, 3))]
        H = QuotientRing(gens, [f for f in rels if f is not None], N)
    else:
        H = ModelCohomology(random_minimal_sullivan(rng, 3), N)
    return H, N


def random_bigraded_model(rng):
    """Bigraded model of random_cohomology_ring."""
    return bigraded_model(*random_cohomology_ring(rng))


def test_barred_bigraded_model_is_valid_by_construction():
    # barred_bigraded_model checks nothing: for every valid B and every p
    # (even and odd) the barred model it builds is a minimal bigraded CDGA
    # (d^2 = 0, homogeneous lower degree, no linear terms) with d(Z)
    # bar-free and d(Zbar) bar-linear
    rng = Random(1313)
    lower_two = 0
    for _ in range(CASES // 2):  # two barred models each
        B = random_bigraded_model(rng)
        assert B.validate_structure()
        lower_two += any(k >= 2 for k in B.lower.values())
        for p in (2, 3):
            barred = barred_bigraded_model(B, p)
            assert barred.validate_structure(), (B.cdga.generators, p)
            assert bar_linearity_report(barred), (B.cdga.generators, p)
    # d of a lower-2 generator involves generators with nonzero d, which is
    # where a wrong sign in d(zbar) = (-1)^p S(dz) breaks d^2 = 0
    assert lower_two >= 20, lower_two


def test_bar_witnesses_are_the_even_barred_generators_of_positive_lower():
    # the witness rule reads B alone; on the barred model it must name the
    # even generators of positive lower degree, in order.  Where p admits
    # no barred model, the parser's check raises what the builder raises.
    rng = Random(1515)
    built, witnessed, refused = {}, {}, {}
    for _ in range(CASES // 2):
        B = random_bigraded_model(rng)
        for p in (1, 2, 3, 5):
            try:
                barred = barred_bigraded_model(B, p)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    suspension_bar_names(B.cdga, p)
                assert str(got.value) == str(exc)
                refused[p] = refused.get(p, 0) + 1
                continue
            alg = barred.cdga
            want = [n for n in barred.barred_names
                    if alg.gen_degree(n) % 2 == 0 and barred.lower[n] >= 1]
            assert bar_witnesses(B, p) == want, (B.cdga.generators, p)
            built[p] = built.get(p, 0) + 1
            witnessed[p] = witnessed.get(p, 0) + bool(want)
    # most models have a generator of degree 4 or 5, so p = 5 is mostly
    # refused (93 of 100 cases) and p <= 3 never
    assert set(refused) == {5} and refused[5] >= 50, refused
    assert built[5] >= 5 and min(witnessed.values()) >= 1, (built, witnessed)
    assert min(witnessed[p] for p in (1, 2, 3)) >= 30, witnessed


def test_barred_scan_missing_is_the_scan_of_the_barred_model():
    # the pipeline's lemma-3.6 note is read off B; it must name what the
    # scan of the barred model reports missing, in the same order, at the
    # top bound and at a random one
    rng = Random(1616)
    compared, nonempty = 0, 0
    for _ in range(CASES // 2):
        B = random_bigraded_model(rng)
        top = B.cdga.truncation - 1
        for p in (1, 3, 5):
            try:
                barred = barred_bigraded_model(B, p)
            except ValueError:
                continue
            for N in (top, rng.randint(8, top)):
                want = [e.w for e in lemma36_scan(barred, N)
                        if e.status == "missing"]
                assert barred_scan_missing(B, p, N) == want, (
                    B.cdga.generators, p, N)
                compared += 1
                nonempty += bool(want)
    assert compared >= 150 and nonempty >= 50, (compared, nonempty)


def is_cochain_map(rho):
    """rho d = 0 on every generator, where BigradedModel.validate checks
    the generators of lower degree 1 alone."""
    for name in rho.cdga.names:
        img = rho.cdga.differential.images.get(name)
        if img and rho.apply_poly(img):
            return CheckReport.violation("cochain", "rho(d %s) != 0" % name)
    return CheckReport.good()


def cohomology_validate(B):
    """BigradedModel.validate through the cohomology of B: the structure,
    the cochain map, then RhoMorphism.is_quasi_iso up to the truncation."""
    rep = B.validate_structure()
    if rep:
        rho = B.rho()
        rep = is_cochain_map(rho)
        if rep:
            qis, bad = rho.is_quasi_iso(B.cdga.truncation - 1)
            if not qis:
                rep = CheckReport.violation(
                    "quasi-iso", "rho fails at degree %d" % bad)
    return rep


def without_generator(B, name):
    """B with the generator name, which no d reads, and its d dropped."""
    alg = B.cdga
    keep = [(n, d) for n, d in alg.generators if n != name]
    moved = {alg.index[n]: j for j, (n, _) in enumerate(keep)}
    images = {n: Poly({tuple((moved[i], e) for i, e in m): c
                       for m, c in img.items()})
              for n, img in alg.differential.images.items() if n != name}
    return BigradedModel(Cdga(keep, images, alg.truncation),
                         {n: k for n, k in B.lower.items() if n != name},
                         {n: e for n, e in B.rho_images.items() if n != name},
                         B.ring)


def bigraded_mutants(rng, B):
    """(kind, model): B, and B with a dropped generator, one d term of
    flipped sign, and a removed, swapped or scaled rho representative."""
    alg, rho = B.cdga, B.rho_images
    images = alg.differential.images
    read = {i for img in images.values() for m in img.monomials()
            for i, _ in m}
    out = [("none", B), ("dropped", without_generator(B, rng.choice(
        [n for i, n in enumerate(alg.names) if i not in read])))]
    if images:
        name = rng.choice(sorted(images))
        flip = rng.choice(list(images[name].monomials()))
        flipped = dict(images, **{name: Poly(
            {m: -c if m == flip else c for m, c in images[name].items()})})
        out.append(("sign", BigradedModel(
            Cdga(alg.generators, flipped, alg.truncation), B.lower, rho,
            B.ring)))
    name = rng.choice(sorted(rho))
    out.append(("removed", BigradedModel(
        alg, B.lower, {n: e for n, e in rho.items() if n != name}, B.ring)))
    pairs = [(a, b) for a in sorted(rho) for b in sorted(rho)
             if a < b and alg.gen_degree(a) == alg.gen_degree(b)]
    if pairs:
        a, b = rng.choice(pairs)
        out.append(("swapped", BigradedModel(
            alg, B.lower, dict(rho, **{a: rho[b], b: rho[a]}), B.ring)))
    s = rng.choice([2, -1, F(1, 3)])
    out.append(("scaled", BigradedModel(
        alg, B.lower, dict(rho, **{name: rho[name].scale(s)}), B.ring)))
    return out


def test_rank_check_matches_the_cohomology_check():
    # validate decides rho by ranks and by rho onto each degree, and rho d
    # = 0 on the generators of lower degree 1 alone; it must report what
    # the check through the cohomology of B reports, failing degree and
    # generator included, on seeded bigraded models and their mutants
    rng = Random(2020)
    outcomes = {}
    onto = 0  # failures where the ranks agree and rho* is not onto
    for _ in range(CASES // 2):
        for kind, B in bigraded_mutants(rng, random_bigraded_model(rng)):
            got = B.validate()
            want = cohomology_validate(B)
            assert (got.ok, got.kind, got.message) == \
                (want.ok, want.kind, want.message), (kind, B.cdga.generators)
            key = (kind, got.kind)
            outcomes[key] = outcomes.get(key, 0) + 1
            if got.kind == "quasi-iso":
                n = int(got.message.split()[-1])
                onto += B.cdga.cohomology(n)[0] == B.ring.rank(n)
    assert outcomes[("none", None)] == CASES // 2
    assert outcomes[("dropped", "quasi-iso")] >= 50, outcomes
    assert outcomes[("sign", "d-squared")] >= 5, outcomes
    assert sum(v for (_, k), v in outcomes.items() if k == "cochain") >= 50, \
        outcomes
    assert onto >= 20, onto


def test_rank_check_fails_where_rho_is_not_onto():
    # B = Lambda(a5, b5) and H*(Lambda(x1, x2)) have equal ranks in every
    # degree, but rho(a) = rho(b) = x1 misses x2 in degree 5
    H = ModelCohomology(Cdga([("x1", 5), ("x2", 5)], {}, 12), 11)
    x1 = H.cdga.gen("x1")
    B = BigradedModel(Cdga([("a", 5), ("b", 5)], {}, 12), {"a": 0, "b": 0},
                      {"a": x1, "b": x1}, H)
    assert all(B.cdga.cohomology(n)[0] == H.rank(n) for n in range(12))
    rep = B.validate()
    assert (rep.kind, rep.message) == ("quasi-iso", "rho fails at degree 5")
    assert repr(rep) == repr(cohomology_validate(B))


def test_split_odd_generator_retraction_exact():
    # t must be an indecomposable class (a generator); decomposable odd
    # classes cannot split off multiplicatively and are correctly reported
    rng = Random(99)
    done = 0
    while done < CASES:
        A = random_odd_finite_model(rng)
        cands = [x for x in A.generator_names if not A.d(x)]
        if not cands:
            continue
        t = cands[rng.randrange(len(cands))]
        i, q = split_odd_generator(A, t)
        assert q.compose(i).is_identity()
        for a in A.names:
            assert q.apply(A.d(a)) == {}  # q d = 0 into the zero-d target
        done += 1


def test_split_rejects_decomposable_class():
    from rht.mapmodel import SplitError
    import pytest
    A = random_odd_finite_model(Random(5), want_coupled=False)
    decomposable = [x for x in A.names
                    if x not in A.generator_names and x != A.unit
                    and A.degree_of[x] % 2 == 1 and not A.d(x)]
    with pytest.raises(SplitError):
        split_odd_generator(A, decomposable[0])
    # the reduction refuses the class as the splitting does
    with pytest.raises(SplitError):
        reduce_to_odd_sphere(A, decomposable[0])


def random_koszul_model(rng):
    """Lambda(even x, odd y) with dy a power of x: a complete intersection."""
    xd = rng.choice([2, 4])
    k = rng.randint(2, 3)
    yd = k * xd - 1
    gens = [("x", xd), ("y", yd)]
    carrier = Cdga(gens, {}, 4 * xd * k)
    return Cdga(gens, {"y": carrier.power(carrier.gen("x"), k)}, 4 * xd * k)


def test_formal_certificates_replay():
    rng = Random(31337)
    replayed = 0
    for case in range(CASES):
        model = random_koszul_model(rng)
        N = model.truncation - 1 - rng.randint(0, 3)
        verdict = koszul_formality(model, N)
        assert verdict.is_formal
        assert verdict.certificate.replay()
        replayed += 1
    assert replayed == CASES


def random_homogeneous(rng, alg, degree):
    """A random nonzero polynomial of the given degree, or None if the
    degree has no monomials."""
    basis = alg.degree_basis(degree)
    if not basis:
        return None
    p = Poly()
    while not p:
        p = Poly({m: F(rng.randint(-3, 3), rng.randint(1, 3))
                  for m in rng.sample(basis, min(len(basis), 3))})
    return p


def random_koszul_shape_model(rng):
    """(model, N): Lambda(evens, odds), 1-3 even generators of degree 2 or
    4, 1-3 odd ones with a random d in Q[evens] of degree 4, 6 or 8, and
    sometimes one closed odd generator; regular or not."""
    evens = [("a%d" % i, rng.choice([2, 4])) for i in range(rng.randint(1, 3))]
    even_alg = FreeGCA(evens)
    odds, d = [], {}
    for i in range(rng.randint(1, 3)):
        degree = rng.choice([4, 6, 8])
        f = random_homogeneous(rng, even_alg, degree)
        if f is not None:  # the evens come first, so f reads in the model
            odds.append(("y%d" % i, degree - 1))
            d["y%d" % i] = f
    if rng.random() < 0.3:
        odds.append(("t", rng.choice([3, 5])))
    N = rng.randint(4, 14)
    gens = evens + odds
    truncation = max([N + 1] + [deg + 1 for _, deg in gens])
    return Cdga(gens, d, truncation), N


def test_koszul_regularity_matches_the_quasi_iso_oracle():
    # regularity up to N + 1 decides what rho's quasi-isomorphism up to N
    # decides, and a regular sequence checked only up to N would not
    rng = Random(2718)
    counts = {True: 0, False: 0}
    regular_at_n_only = 0
    for _ in range(CASES):
        model, N = random_koszul_shape_model(rng)
        want = koszul_rho(model).is_quasi_iso(N)[0]
        verdict = koszul_formality(model, N)
        assert verdict.is_formal == want
        # the claim "formal up to N" replays exactly when it holds
        claim = FormalityVerdict(FORMAL, N, KoszulCert(model, N))
        assert replay_certificate_text(serialize_verdict(claim))[0] == want
        if not want:
            even_alg, seq, _ = koszul_sequence(model)
            regular_at_n_only += regular_sequence_check(even_alg, seq, N)[0]
        counts[want] += 1
    assert min(counts.values()) >= 20, counts
    assert regular_at_n_only >= 5


def check_rho_multiplicative(rng, rho, bound):
    """rho(p*q) == rho(p) * rho(q) on random homogeneous p, q."""
    src = rho.cdga
    degrees = sorted({src.monomial_degree(m) for n in range(1, bound + 1)
                      for m in src.degree_basis(n)})
    checked = 0
    while checked < CASES:
        dp, dq = rng.choice(degrees), rng.choice(degrees)
        if dp + dq > bound:
            continue
        p = random_homogeneous(rng, src, dp)
        q = random_homogeneous(rng, src, dq)
        ring = rho.ring
        lifts = ring.ambient.multiply(ring.element_poly(dp, rho.apply_poly(p)),
                                      ring.element_poly(dq, rho.apply_poly(q)))
        assert rho.apply_poly(src.multiply(p, q)) == ring.poly_class(lifts)
        checked += 1


def test_rho_multiplicative_into_quotient_ring():
    rng = Random(2718)
    # two odd generators, so that u*v = -v*u is visible to the check
    target = FreeGCA([("a", 2), ("b", 2), ("u", 3), ("v", 3)])
    a, b = target.gen("a"), target.gen("b")
    u, v = target.gen("u"), target.gen("v")
    rels = [target.multiply(a, b),
            target.power(a, 3) - target.power(b, 3).scale(2),
            target.multiply(b, u)]
    ring = QuotientRing(target, rels, 14)
    src = Cdga([("s", 2), ("t", 2), ("w", 3), ("w2", 3), ("z", 4)], {}, 15)
    images = {"s": a + b.scale(2), "t": a - b.scale(F(1, 3)),
              "w": u.scale(F(5, 2)), "w2": u - v,
              "z": target.power(a, 2) + target.multiply(a, b)
              - target.power(b, 2)}
    rho = RhoMorphism(src, ring, images)
    check_rho_multiplicative(rng, rho, 14)


def test_rho_multiplicative_into_model_cohomology():
    # H*(Y) of Y = (Lambda(x1, x2, y), dy = x1 x2): classes [x1^k], [x2^k]
    rng = Random(1618)
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    carrier = Cdga(gens, {}, 21)
    x1, x2 = carrier.gen("x1"), carrier.gen("x2")
    Y = Cdga(gens, {"y": carrier.multiply(x1, x2)}, 21)
    H = ModelCohomology(Y, 20)
    src = Cdga([("s", 4), ("t", 4), ("r", 8)], {}, 21)
    images = {"s": x1 + x2, "t": x1.scale(2) - x2,
              "r": Y.power(x1, 2) + Y.power(x2, 2).scale(3)}
    rho = RhoMorphism(src, H, images)
    check_rho_multiplicative(rng, rho, 20)


def test_degree_basis_follows_monomial_key():
    # one statement of the monomial order: sorting by monomial_key reproduces
    # each degree basis, and the bases of consecutive degrees in turn
    rng = Random(1414)
    for _ in range(40):
        alg = FreeGCA([("g%d" % k, rng.randint(1, 7))
                       for k in range(rng.randint(1, 6))])
        every = []
        for n in range(0, 25):
            basis = alg.degree_basis(n)
            assert sorted(basis, key=alg.monomial_key) == basis
            every += basis
        shuffled = list(every)
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=alg.monomial_key) == every
