import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import rht.formality
import rht.mapmodel
from rht import cli
from rht.gca import Cdga, FreeGCA, Poly, CdgaMorphism
from rht.dgl import Dgl, FiniteCdga, free_lie
from rht.quotient import QuotientRing, ModelCohomology
from rht.mapmodel import MapSpaceProblem, suspension_model
from rht.certificates import (parse_certificate, replay_certificate_text,
                              serialize_verdict)
from rht.formality import (free_cohomology_check, regular_sequence_check,
                           koszul_formality, koszul_shape, koszul_rho,
                           koszul_sequence, exponent_key,
                           bigraded_model, lemma36_scan, barred_scan_missing,
                           formality_pipeline,
                           mapping_space_model, FORMAL, NONFORMAL, UNKNOWN,
                           BigradedModel, FormalityVerdict, RhoMorphism)
from bigraded_oracle import (bar_linearity_report, bar_obstruction,
                             barred_bigraded_model)
from gca_oracle import free_gca_ranks

F = Fraction
DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def section4_y(truncation=26):
    gens = [("x1", 4), ("x2", 4), ("y", 7)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"y": alg.multiply(alg.gen("x1"), alg.gen("x2"))},
                truncation)


def odd_wedge_y(truncation=24):
    gens = [("x1", 5), ("x2", 5), ("y", 9)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"y": alg.multiply(alg.gen("x1"), alg.gen("x2"))},
                truncation)


def section4_h():
    alg = FreeGCA([("x1", 4), ("x2", 4)])
    rel = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    return QuotientRing(alg, [rel], 20)


# -- free cohomology ---------------------------------------------------------

def twin_y(truncation=12):
    """Lambda(a3, b3, c5, e6) with d c = a b: minimal with d != 0, so not a
    product of Eilenberg-MacLane spaces."""
    gens = [("a", 3), ("b", 3), ("c", 5), ("e", 6)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"c": alg.multiply(alg.gen("a"), alg.gen("b"))},
                truncation)


def test_free_cohomology_check_polynomial_ring():
    # d = 0 on every generator of degree <= N: their sorted degrees
    assert free_cohomology_check(Cdga([("y", 4), ("x", 2)], {}, 13),
                                 12) == [2, 4]


def test_free_cohomology_check_rejects_section4_h():
    # d y = x1 x2 with |y| = 7, so H*(Y) is not free from degree 7 on
    assert free_cohomology_check(section4_y(18), 6) == [4, 4]
    assert free_cohomology_check(section4_y(18), 7) is None


def test_free_cohomology_check_trivial():
    assert free_cohomology_check(Cdga([("x", 14)], {}, 16), 12) == []


def test_free_cohomology_check_is_not_a_rank_count():
    # up to degree 7 the twin's model of F(S1, Y) has the ranks of the free
    # algebra on degrees 2, 2, 3, 3, 7, 7, yet d(c_bar) != 0 in degree 4
    model = suspension_model(twin_y(), 1)
    assert ModelCohomology(model, 7).ranks() == free_gca_ranks(
        [2, 2, 3, 3, 7, 7], 7)
    assert free_cohomology_check(model, 3) == [2, 2, 3, 3]
    assert free_cohomology_check(model, 4) is None
    assert free_cohomology_check(model, 7) is None


# -- regular sequences -------------------------------------------------------

def test_regular_sequence_two_variables():
    alg = FreeGCA([("x1", 4), ("x2", 4)])
    ok, _ = regular_sequence_check(alg, [alg.gen("x1"), alg.gen("x2")], 12)
    assert ok


def test_regular_sequence_section4():
    alg = FreeGCA([("x1", 4), ("x2", 4), ("xb1", 2), ("xb2", 2)])
    f1 = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    f2 = alg.multiply(alg.gen("xb1"), alg.gen("x2")) + \
        alg.multiply(alg.gen("x1"), alg.gen("xb2"))
    ok, _ = regular_sequence_check(alg, [f1, f2], 20)
    assert ok


def test_regular_sequence_failure_witness():
    alg = FreeGCA([("x1", 2), ("x2", 2)])
    f1 = alg.gen("x1")
    f2 = alg.multiply(alg.gen("x1"), alg.gen("x2"))
    ok, witness = regular_sequence_check(alg, [f1, f2], 10)
    assert not ok
    assert witness.index == 1 and witness.degree == 0


def test_regular_sequence_rejects_odd_ring_and_inhomogeneous():
    with pytest.raises(ValueError):
        regular_sequence_check(FreeGCA([("a", 3)]), [], 8)
    alg = FreeGCA([("x", 2)])
    with pytest.raises(ValueError):
        regular_sequence_check(alg, [alg.gen("x") + Poly.unit()], 8)


def test_exponent_key_is_additive_and_in_basis_order():
    # on seeded even rings: keys increase strictly along each degree_basis,
    # key(m * t) = key(m) + key(t) whenever |m| + |t| <= N, and no
    # exponent of a monomial of degree <= N reaches the radix
    rng = Random(2026)
    pairs = 0
    for _ in range(40):
        alg = FreeGCA([("x%d" % g, rng.choice([2, 4, 6, 8]))
                       for g in range(rng.randint(1, 5))])
        N = rng.randint(0, 40)
        # keep every pair of monomials few enough to try them all
        while sum(alg.dim(n) for n in range(N + 1)) > 150:
            N -= 1
        radix, key = exponent_key(alg, N)
        monos = []
        for n in range(N + 1):
            keys = [key(m) for m in alg.degree_basis(n)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (alg, n)
            monos += [(n, m) for m in alg.degree_basis(n)]
        assert all(e < radix for _, m in monos for _, e in m)
        for a, m in monos:
            for b, t in monos:
                if a + b <= N:
                    _, mt = alg.mul_monomials(m, t)
                    assert key(mt) == key(m) + key(t)
                    pairs += 1
    assert pairs >= 5000, pairs


def test_regularity_enumerates_no_basis_above_n_minus_least_degree(
        monkeypatch):
    # the degreewise check, which the leading-term proof would skip here
    monkeypatch.setattr(rht.formality, "_regular_by_leading_terms",
                        lambda *args: False)
    asked = set()

    class Recording(FreeGCA):
        def degree_basis(self, n):
            asked.add(n)
            return super().degree_basis(n)

    even_alg, seq, _ = koszul_sequence(suspension_model(section4_y(), 2))
    alg = Recording(even_alg.generators)
    assert regular_sequence_check(alg, seq, 41) == (True, None)
    least = min(alg.poly_degree(f) for f in seq)
    assert least == 6 and max(asked) == 41 - least


def test_regular_section4_enumerates_nothing(monkeypatch):
    # the leading monomials of a Groebner basis prove section 4's sequence
    # regular in the whole ring, so no degree is enumerated and no span is
    # built, whatever N
    calls = {"degree_basis": 0, "EchelonSpan": 0}

    class Recording(FreeGCA):
        def degree_basis(self, n):
            calls["degree_basis"] += 1
            return super().degree_basis(n)

    class RecordingSpan(rht.formality.EchelonSpan):
        def __init__(self, *args):
            calls["EchelonSpan"] += 1
            super().__init__(*args)

    monkeypatch.setattr(rht.formality, "EchelonSpan", RecordingSpan)
    even_alg, seq, _ = koszul_sequence(suspension_model(section4_y(), 2))
    alg = Recording(even_alg.generators)
    for N in (41, 250):
        assert regular_sequence_check(alg, seq, N) == (True, None)
    assert calls == {"degree_basis": 0, "EchelonSpan": 0}
    # the degreewise fallback still runs where the proof needs more than N
    assert regular_sequence_check(alg, seq, 9) == (True, None)
    assert calls["degree_basis"] and calls["EchelonSpan"]


# -- koszul ------------------------------------------------------------------

def test_koszul_formality_on_section4_suspension():
    model = suspension_model(section4_y(18), 2)
    verdict = koszul_formality(model, 16)
    assert verdict.is_formal
    assert verdict.certificate.kind == "koszul-regular-sequence"
    assert verdict.certificate.odd_sequence == ["y", "y_bar"]
    assert verdict.certificate.replay()
    qis, _ = verdict.certificate.rho.is_quasi_iso(16)
    assert qis


def test_koszul_formality_sphere_even():
    gens = [("x", 2), ("y", 3)]
    alg = Cdga(gens, {}, 13)
    model = Cdga(gens, {"y": alg.power(alg.gen("x"), 2)}, 13)
    verdict = koszul_formality(model, 12)
    assert verdict.is_formal
    H = [model.cohomology(n)[0] for n in range(0, 12)]
    assert H == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_koszul_shape_mismatch_is_unknown():
    # dy lands on an odd generator product: not Koszul shape
    model = odd_wedge_y(16)
    verdict = koszul_formality(model, 12)
    assert verdict.verdict == UNKNOWN


def test_koszul_with_closed_odd_generator():
    # Lambda(x2, y3, t5): dy = x^2, t closed: still formal, t kept in target
    gens = [("x", 2), ("y", 3), ("t", 5)]
    alg = Cdga(gens, {}, 13)
    model = Cdga(gens, {"y": alg.power(alg.gen("x"), 2)}, 13)
    verdict = koszul_formality(model, 12)
    assert verdict.is_formal
    assert verdict.certificate.odd_closed == ["t"]


def test_koszul_regularity_is_checked_up_to_n_plus_one():
    # Lambda(a2, y3, z5), dy = a^2, dz = a^3: regular up to 5, yet
    # z - a*y is a cocycle of degree 5 and no boundary, while the target
    # Q[a]/(a^2, a^3) is 0 in degree 5
    gens = [("a", 2), ("y", 3), ("z", 5)]
    alg = Cdga(gens, {}, 7)
    a = alg.gen("a")
    model = Cdga(gens, {"y": alg.power(a, 2), "z": alg.power(a, 3)}, 7)
    assert koszul_formality(model, 4).is_formal
    verdict = koszul_formality(model, 5)
    assert verdict.verdict == UNKNOWN
    assert verdict.notes == ["sequence (y, z) is not regular: index 1 degree 0"]
    assert koszul_rho(model).is_quasi_iso(5) == (False, 5)
    cocycle = alg.gen("z") - alg.multiply(a, alg.gen("y"))
    assert not model.d(cocycle) and model.cohomology(5)[0] == 1


def test_koszul_certificate_without_a_regular_sequence_fails_replay():
    model = suspension_model(section4_y(18), 2)
    text = serialize_verdict(koszul_formality(model, 16))
    old = "d y_bar = x1*x2_bar + x2*x1_bar"
    assert old in text
    # x1*x2 and x1*x2_bar share the factor x1: x2 * x1*x2_bar lies in (x1*x2)
    assert replay_certificate_text(text.replace(old, "d y_bar = x1*x2_bar")) \
        == (False, "koszul-regular-sequence certificate FAILED replay")


# -- bigraded models ---------------------------------------------------------

def test_bigraded_model_free_polynomial():
    H = QuotientRing(FreeGCA([("v", 4)]), [], 16)
    B = bigraded_model(H, 16)
    assert [(n, B.cdga.gen_degree(n), B.lower[n]) for n in B.cdga.names] == \
        [("z4_0", 4, 0)]
    assert B.validate(upto=16)


def test_bigraded_model_section4_h():
    H = section4_h()
    B = bigraded_model(H, 16)
    info = [(B.cdga.gen_degree(n), B.lower[n]) for n in B.cdga.names]
    assert info == [(4, 0), (4, 0), (7, 1)]
    y = B.cdga.names[2]
    dy = B.cdga.differential.images[y]
    assert len(dy.terms) == 1
    assert B.validate(upto=16)


def test_bigraded_model_truncated_polynomial():
    alg = FreeGCA([("x", 2)])
    H = QuotientRing(alg, [alg.power(alg.gen("x"), 3)], 10)
    B = bigraded_model(H, 10)
    info = [(B.cdga.gen_degree(n), B.lower[n]) for n in B.cdga.names]
    assert info == [(2, 0), (5, 1)]
    assert B.validate(upto=10)


def test_bigraded_model_of_model_cohomology_matches_presented():
    # built from the model's computed cohomology instead of a presentation
    H = ModelCohomology(section4_y(18), 16)
    B = bigraded_model(H, 16)
    info = [(B.cdga.gen_degree(n), B.lower[n]) for n in B.cdga.names]
    assert info == [(4, 0), (4, 0), (7, 1)]
    assert B.validate(upto=16)


def test_bigraded_model_odd_wedge_cascade():
    # Y = (Lambda(x1,x2,y), dy = x1x2) with |xi| = 5: since xi^2 = 0, the
    # products xi*(x1x2) vanish and H*(Y) has ranks 1,2,2,1 in degrees
    # 0,5,14,19; the resolution needs new algebra generators at degree 14
    # and killers at 9, 13, 17 (relation words) and 18 (x_i times the new
    # generators), all within the bound 20
    H = ModelCohomology(odd_wedge_y(24), 20)
    assert [H.rank(n) for n in (0, 5, 10, 14, 19)] == [1, 2, 0, 2, 1]
    B = bigraded_model(H, 20)
    degs = sorted((B.cdga.gen_degree(n), B.lower[n]) for n in B.cdga.names)
    assert degs == [(5, 0), (5, 0), (9, 1), (13, 2), (13, 2), (14, 0), (14, 0),
                    (17, 3), (17, 3), (17, 3), (18, 1), (18, 1), (18, 1)]
    assert B.validate(upto=20)


# -- barred model, scan, obstruction ----------------------------------------

def test_barred_bigraded_model_section4():
    H = section4_h()
    B = bigraded_model(H, 16)
    barred = barred_bigraded_model(B, 2)
    alg = barred.cdga
    bars = [(n, alg.gen_degree(n), barred.lower[n]) for n in barred.barred_names]
    assert [(d, k) for _, d, k in bars] == [(2, 0), (2, 0), (5, 1)]
    assert bar_linearity_report(barred)


def test_barred_model_free_case_zero_differential():
    H = QuotientRing(FreeGCA([("v", 6)]), [], 14)
    B = bigraded_model(H, 14)
    barred = barred_bigraded_model(B, 3)
    assert not barred.cdga.differential.images
    # and rho is a quasi-isomorphism: the free case is formal
    assert barred.validate(upto=10)
    # W_+ is empty, so the obstruction is absent with an explanation
    cert, notes = bar_obstruction(barred, y_model=None, bound=10)
    assert cert is None
    assert any("positive lower degree" in s for s in notes)


def test_bar_obstruction_even_p_returns_absent():
    H = section4_h()
    B = bigraded_model(H, 16)
    barred = barred_bigraded_model(B, 2)
    cert, notes = bar_obstruction(barred, y_model=section4_y(18), bound=16)
    assert cert is None
    assert any("even" in s for s in notes)


def test_bar_obstruction_odd_p_witness():
    y = odd_wedge_y(24)
    H = ModelCohomology(y, 20)
    B = bigraded_model(H, 20)
    barred = barred_bigraded_model(B, 3)
    cert, notes = bar_obstruction(barred, y_model=y, bound=20)
    assert cert is not None
    alg = barred.cdga
    assert alg.gen_degree(cert.witness) == 6  # bar of the degree-9 relation killer
    assert barred.lower[cert.witness] == 1
    assert cert.replay()


def test_bar_obstruction_replay_checks_the_bigraded_block_only(monkeypatch):
    y = odd_wedge_y(24)
    B = bigraded_model(ModelCohomology(y, 20), 20)
    cert, _ = bar_obstruction(barred_bigraded_model(B, 3), y_model=y, bound=20)
    text = serialize_verdict(FormalityVerdict(NONFORMAL, 20, cert))
    checked = []
    check = Cdga.check
    monkeypatch.setattr(Cdga, "check", lambda alg: checked.append(
        any(n.endswith("_bar") for n in alg.names)) or check(alg))

    def never(*args):
        raise AssertionError("replay built a barred model")

    for module in (rht.mapmodel, rht.formality):
        monkeypatch.setattr(module, "suspension_model", never)
    # parsing checks the target model, replay checks the bigraded block, and
    # the barred model is never built: the witness is read off the block
    assert replay_certificate_text(text)[0]
    assert checked == [False, False]
    # a tampered in-process bigraded block fails replay: with d z9_0 = 0
    # the relation x1*x2 = 0 is no longer killed and rho fails in degree 9
    cert.bigraded.cdga.differential.images["z9_0"] = Poly()
    assert not cert.replay()


BAROBS_WORKSPACE = """\
algebra Y
truncation 26
generator x1 degree 5
generator x2 degree 5
generator y degree 9
d y = %s*x1*x2

problem odd X=S3 Y=Y p=3
"""


@pytest.mark.parametrize("coef", ["1", "-5/6"])
def test_bar_obstruction_replay_computes_no_cohomology_of_b(monkeypatch,
                                                            tmp_path, coef):
    # the barobs_s3 benchmark certificate, at its pinned sha256: replay
    # decides rho on B by ranks and by rho onto each degree, so it never
    # asks for the cohomology of B
    ws = tmp_path / "odd.rht"
    ws.write_text(BAROBS_WORKSPACE % coef)
    path = tmp_path / "odd.cert"
    assert cli.main(["formality", str(ws), "odd", "--max-degree", "30",
                     "--certificate-out", str(path)]) == 3
    text = path.read_text(encoding="utf-8")
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)["barobs_s3"][coef]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned
    cert = parse_certificate(text).certificate

    def never(*args):
        raise AssertionError("replay computed the cohomology of B")

    monkeypatch.setattr(cert.bigraded.cdga, "cohomology", never)
    monkeypatch.setattr(RhoMorphism, "is_quasi_iso", never)
    assert cert.replay() is True


def test_lemma36_scan_missing_everywhere_on_nonformal_case():
    y = odd_wedge_y(24)
    B = bigraded_model(ModelCohomology(y, 20), 20)
    barred = barred_bigraded_model(B, 3)
    entries = lemma36_scan(barred, 20, rng=Random(11), random_combos=2)
    assert entries
    assert all(e.status == "missing" for e in entries)
    scanned = {e.w for e in entries if not e.w.startswith("random")}
    # the scannable even W_+ generators: the barred relation-killer of degree
    # 6 and the two barred degree-10 killers (2*14 and 2*18 exceed the bound)
    assert scanned == {"z9_0_bar", "z13_0_bar", "z13_1_bar"}


def test_lemma36_scan_vacuous_on_odd_only_wplus():
    # Q[x]/(x^3): W_+ = one odd generator only -> vacuous pass
    alg = FreeGCA([("x", 2)])
    H = QuotientRing(alg, [alg.power(alg.gen("x"), 3)], 10)
    B = bigraded_model(H, 10)
    assert lemma36_scan(B, 10) == []


def test_lemma36_scan_witnessed_on_even_sphere_model():
    # bigraded model of Q[x]/(x^2), |x| = 2: W_+ = {y3}, dy = x^2;
    # scanning x itself is not in W_+, so extend: use Q[x]/(x^3) barred? No:
    # simplest witnessed case is H = Q[x]/(x^2) with the killer y, where the
    # even element to scan is x in lower degree 0 -- not W_+.  Instead scan a
    # model with an even W_+ generator that does have a witness:
    # H = Q[x]/(x^4), |x| = 2: Z_1 = <y7>, dy = x^4; no even W_+ yet either.
    # The honest witnessed shape needs lower >= 1 even generators, e.g. the
    # barred model of a FORMAL mapping space: F(S^3, S^7):
    y = Cdga([("v", 7)], {}, 22)
    B = bigraded_model(ModelCohomology(y, 20), 20)
    barred = barred_bigraded_model(B, 3)
    # W_+ is empty (free cohomology): vacuous pass, consistent with formality
    assert lemma36_scan(barred, 20) == []


def test_lemma36_scan_witnessed_branch():
    # w (degree 4, lower 1), u and v (degree 7, lower 2), du = 0, dv = 2w^2:
    # the first candidate with a w^2 term is v, so w' = v/2 and Omega = 0
    alg = Cdga([("w", 4), ("u", 7), ("v", 7)], {}, 16)
    w2 = alg.power(alg.gen("w"), 2)
    cdga = Cdga(alg.generators, {"v": w2.scale(2)}, 16)
    B = BigradedModel(cdga, {"w": 1, "u": 2, "v": 2}, {}, None)
    [entry] = lemma36_scan(B, 8)
    assert (entry.w, entry.status, entry.results) == ("w", "witnessed",
                                                      [(2, True)])
    assert entry.witness == (cdga.gen("v").scale(Fraction(1, 2)), 2, Poly())


def wedge_h(d1, d2, N):
    """H*(S^d1 v S^d2) as a presented ring, truncated at N."""
    alg = FreeGCA([("x", d1), ("y", d2)])
    x, y = alg.gen("x"), alg.gen("y")
    rels = [alg.multiply(x, y)] + [alg.multiply(g, g) for g, d in
                                   ((x, d1), (y, d2)) if d % 2 == 0]
    return QuotientRing(alg, rels, N)


@pytest.mark.parametrize("d1, d2, N, p", [(2, 3, 16, 1), (3, 4, 18, 1),
                                          (4, 5, 20, 1), (4, 5, 20, 3)])
def test_barred_scan_missing_with_unbarred_even_generators(d1, d2, N, p):
    # B has even generators of positive lower degree within the scan (for
    # S^2 v S^3, x*y = 0 gives z4_0 of lower degree 1): the note takes their
    # entries from the scan of B, since no odd bar has a w^n term
    B = bigraded_model(wedge_h(d1, d2, N), N)
    scan = lemma36_scan(barred_bigraded_model(B, p), N)
    assert any(not e.w.endswith("_bar") for e in scan)
    assert barred_scan_missing(B, p, N) == [e.w for e in scan
                                            if e.status == "missing"]


def test_barred_scan_missing_puts_b_entries_before_the_bars():
    # a, b (lower 0), w (degree 4, lower 1, dw = a*b) and v (degree 7,
    # lower 2, dv = 0): no degree-7 generator has a w^2 term, so w is
    # missing, and the even bar of v follows it
    alg = Cdga([("a", 2), ("b", 3), ("w", 4), ("v", 7)], {}, 17)
    cdga = Cdga(alg.generators,
                {"w": alg.multiply(alg.gen("a"), alg.gen("b"))}, 17)
    B = BigradedModel(cdga, {"a": 0, "b": 0, "w": 1, "v": 2}, {}, None)
    assert barred_scan_missing(B, 1, 16) == ["w", "v_bar"]
    scan = lemma36_scan(barred_bigraded_model(B, 1), 16)
    assert [e.w for e in scan if e.status == "missing"] == ["w", "v_bar"]


def test_rho_images_must_have_their_generators_degree():
    y = odd_wedge_y(24)
    H = ModelCohomology(y, 20)
    B = bigraded_model(H, 20)
    images = dict(B.rho_images, z14_0=y.gen("x1"))
    with pytest.raises(ValueError,
                       match="rho image of z14_0 has degree 5, not 14"):
        RhoMorphism(B.cdga, H, images)
    with pytest.raises(ValueError, match="rho image of z14_0"):
        BigradedModel(B.cdga, B.lower, images, H).validate(upto=20)


# -- pipeline ----------------------------------------------------------------

def test_pipeline_section4_is_formal_koszul():
    prob = MapSpaceProblem(FiniteCdga.sphere(2), 2, y_cdga=section4_y(18),
                           name="section4")
    verdict = formality_pipeline(prob, 16)
    assert verdict.is_formal
    assert verdict.certificate.kind == "koszul-regular-sequence"
    assert verdict.certificate.replay()


def test_pipeline_thom_case_free_certificate():
    prob = MapSpaceProblem(FiniteCdga.sphere(2), 2,
                           y_dgl=Dgl([("l", 3)], {}, {}, 16), name="thom")
    verdict = formality_pipeline(prob, 12)
    assert verdict.is_formal
    assert verdict.certificate.kind == "free-cohomology"
    assert verdict.certificate.generator_degrees == [2, 4]
    assert verdict.certificate.replay()


def test_pipeline_nonformal_case():
    prob = MapSpaceProblem(FiniteCdga.sphere(3), 3, y_cdga=odd_wedge_y(24),
                           name="nonformal")
    verdict = formality_pipeline(prob, 20)
    assert verdict.verdict == NONFORMAL
    assert verdict.certificate.kind == "bar-linearity-obstruction"
    assert verdict.certificate.replay()
    assert any("missing" in s for s in verdict.notes)


def test_produce_builds_one_suspension_model(monkeypatch):
    # the suspension of Y is the mapping-space model, and it is the only
    # suspension the pipeline builds: the lemma-3.6 note is read off B
    suspended = []
    build = rht.formality.suspension_model
    monkeypatch.setattr(rht.formality, "suspension_model",
                        lambda Y, p: suspended.append(Y) or build(Y, p))
    y = odd_wedge_y(31)
    verdict = formality_pipeline(MapSpaceProblem(FiniteCdga.sphere(3), 3,
                                                 y_cdga=y), 30)
    serialize_verdict(verdict)
    assert verdict.verdict == NONFORMAL
    assert suspended == [y]


def test_pipeline_reduction_path_for_general_x():
    # X = S^3 x S^2 (finite model with odd closed t), Y given as a Lie model
    # whose cochain algebra has non-free cohomology: the pipeline reduces to
    # the 3-sphere and concludes NonFormal through the bar obstruction
    A = FiniteCdga(
        [("1", 0), ("x", 2), ("t", 3), ("tx", 5)], "1",
        {("t", "x"): {"tx": 1}, ("x", "t"): {"tx": 1},
         ("x", "x"): {}, ("t", "t"): {}, ("t", "tx"): {}, ("tx", "t"): {},
         ("x", "tx"): {}, ("tx", "x"): {}, ("tx", "tx"): {}})
    L = Dgl([("a1", 6), ("a2", 6), ("b", 12)],
            {("a1", "a2"): {"b": 1}}, {}, 24)
    assert L.validate()
    prob = MapSpaceProblem(A, 5, y_dgl=L, t="t")
    verdict = formality_pipeline(prob, 14)
    assert verdict.verdict == NONFORMAL
    assert verdict.certificate.kind == "bar-linearity-obstruction"
    assert verdict.certificate.p == 3
    assert any("reduced to the 3-sphere" in s for s in verdict.notes)
    assert verdict.certificate.replay()


@pytest.mark.parametrize("p, N, y", [
    (3, 20, {"y_cdga": odd_wedge_y(24)}),
    (3, 14, {"y_dgl": Dgl([("a1", 6), ("a2", 6), ("b", 12)],
                          {("a1", "a2"): {"b": 1}}, {}, 24)}),
])
def test_a_sphere_is_recognised_by_its_shape_not_its_class_name(p, N, y):
    # S^3 with its class named u: both routes must treat it as the sphere,
    # not refuse it (Sullivan) or reduce it to itself (Lie)
    U = FiniteCdga([("1", 0), ("u", 3)], "1", {("u", "u"): {}})
    got = formality_pipeline(MapSpaceProblem(U, p, **y), N)
    want = formality_pipeline(MapSpaceProblem(FiniteCdga.sphere(p), p, **y), N)
    assert got.verdict == NONFORMAL
    assert (got.verdict, got.notes) == (want.verdict, want.notes)
    assert serialize_verdict(got) == serialize_verdict(want)


def test_pipeline_unknown_when_bound_too_small():
    # N = 4 is too small for any checker to reach the section-4 relation
    prob = MapSpaceProblem(FiniteCdga.sphere(2), 2, y_cdga=section4_y(18))
    verdict = formality_pipeline(prob, 4)
    assert verdict.verdict in (FORMAL, UNKNOWN)


def test_pipeline_hypothesis_hard_failure():
    prob = MapSpaceProblem(FiniteCdga.sphere(3), 3,
                           y_dgl=Dgl([("l", 3)], {}, {}, 9))
    with pytest.raises(ValueError):
        formality_pipeline(prob, 8)


def test_main_theorem_coherence_at_desk_scale():
    # free H*(Y) -> the pipeline says Formal for any valid X; non-free H*(Y)
    # with p odd and hypotheses satisfied -> NonFormal: instance-level
    # realizations of both directions of the equivalence
    free_targets = [
        Cdga([("v", 6)], {}, 26),                 # one even class
        Cdga([("u", 5)], {}, 26),                 # one odd class
        Cdga([("u", 5), ("v", 8)], {}, 26),       # mixed free pair
    ]
    for Y in free_targets:
        for p in (2, 3):
            prob = MapSpaceProblem(FiniteCdga.sphere(p), p, y_cdga=Y)
            verdict = formality_pipeline(prob, 14)
            assert verdict.is_formal, (Y.generators, p)

    nonfree_targets = [odd_wedge_y(24)]
    gens = [("x1", 6), ("x2", 6), ("y", 11)]
    alg = Cdga(gens, {}, 26)
    nonfree_targets.append(
        Cdga(gens, {"y": alg.multiply(alg.gen("x1"), alg.gen("x2"))}, 26))
    for Y in nonfree_targets:
        prob = MapSpaceProblem(FiniteCdga.sphere(3), 3, y_cdga=Y)
        verdict = formality_pipeline(prob, 20)
        assert verdict.verdict == NONFORMAL, Y.generators
        assert verdict.certificate.replay()


def test_no_conflicting_verdicts_on_fixtures():
    # run every applicable checker on both flagship fixtures
    m_formal = suspension_model(section4_y(18), 2)
    m_non = suspension_model(odd_wedge_y(24), 3)
    for model, expect_formal in ((m_formal, True), (m_non, False)):
        free = free_cohomology_check(model, 14)
        kos = koszul_formality(model, 14)
        formal = (free is not None) or kos.is_formal
        assert formal == expect_formal
    y = odd_wedge_y(24)
    B = bigraded_model(ModelCohomology(y, 20), 20)
    cert, _ = bar_obstruction(barred_bigraded_model(B, 3), y_model=y, bound=20)
    assert cert is not None  # NonFormal side fires only on the nonformal model
    H4 = section4_h()
    B4 = bigraded_model(H4, 16)
    cert4, _ = bar_obstruction(barred_bigraded_model(B4, 2),
                               y_model=section4_y(18), bound=16)
    assert cert4 is None


def s4_y(truncation):
    gens = [("x", 4), ("y", 7)]
    alg = Cdga(gens, {}, truncation)
    return Cdga(gens, {"y": alg.multiply(alg.gen("x"), alg.gen("x"))},
                truncation)


@pytest.mark.parametrize("p, N, y_cdga, y_dgl, verdict, kind", [
    # S^4 as Lambda(x4, y7), dy = x^2, and as the free Lie algebra on a3
    (2, 12, s4_y(13), free_lie([("a", 3)], 16), UNKNOWN, None),
    # K(Q,5) as Lambda(x5) and as the abelian DGL on a4
    (2, 10, Cdga([("x", 5)], {}, 11), Dgl([("a", 4)], {}, {}, 14),
     FORMAL, "free-cohomology"),
    (3, 10, Cdga([("x", 5)], {}, 11), Dgl([("a", 4)], {}, {}, 16),
     FORMAL, "free-cohomology"),
])
def test_sullivan_and_lie_routes_agree(p, N, y_cdga, y_dgl, verdict, kind):
    X = FiniteCdga.sphere(p)
    sullivan = MapSpaceProblem(X, p, y_cdga=y_cdga)
    lie = MapSpaceProblem(X, p, y_dgl=y_dgl)
    ranks = [ModelCohomology(mapping_space_model(prob, N)[0], N).ranks()
             for prob in (sullivan, lie)]
    assert ranks[0] == ranks[1]
    for prob in (sullivan, lie):
        v = formality_pipeline(prob, N)
        assert v.verdict == verdict
        assert getattr(v.certificate, "kind", None) == kind
