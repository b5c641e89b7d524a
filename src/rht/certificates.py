"""Self-contained text form of formality certificates.

A certificate file embeds every model it mentions as workspace-format
blocks, so replay needs nothing from the producing session: parse, rebuild,
re-verify.  The line grammar of those blocks belongs to ``rht.workspace``;
this module reads the certificate's own fields and the framing of its
bigraded block, and every parse error names its file line.
"""

from .gca import TruncationError
from .quotient import ModelCohomology
from .formality import (FormalityVerdict, FreeCohomologyCert, KoszulCert,
                        BarObstructionCert, BigradedModel, FORMAL, NONFORMAL)
from .mapmodel import suspension_bar_names
from .workspace import (ALGEBRA_BODY, Lines, WorkspaceError,
                        algebra_body_lines, assigned, parse_algebra_body,
                        parse_int, parse_polynomial, print_algebra)

HEADER = "rht-certificate"
BIGRADED_BODY = ("generator", "d", "rho")
# the one verdict each certificate kind backs
KIND_VERDICT = {FreeCohomologyCert.kind: FORMAL, KoszulCert.kind: FORMAL,
                BarObstructionCert.kind: NONFORMAL}


class CertificateError(Exception):
    pass


def serialize_verdict(verdict):
    cert = verdict.certificate
    if cert is None:
        raise CertificateError("verdict carries no certificate")
    lines = ["%s %s" % (HEADER, cert.kind),
             "verdict %s" % verdict.verdict,
             "bound %d" % cert.bound]
    if isinstance(cert, FreeCohomologyCert):
        lines.append("free-generators %s"
                     % " ".join(str(d) for d in cert.generator_degrees))
        lines.append(print_algebra(cert.model, "model").rstrip("\n"))
    elif isinstance(cert, KoszulCert):
        lines.append(print_algebra(cert.model, "model").rstrip("\n"))
    elif isinstance(cert, BarObstructionCert):
        lines.append("p %d" % cert.p)
        lines.append("witness %s" % cert.witness)
        lines.append(print_algebra(cert.y_model, "target_model").rstrip("\n"))
        lines.append(_print_bigraded(cert.bigraded, cert.y_model))
    else:
        raise CertificateError("cannot serialize certificate kind %r"
                               % getattr(cert, "kind", None))
    return "\n".join(lines) + "\n"


def _print_bigraded(B, y_model):
    lines = ["bigraded base"] + algebra_body_lines(B.cdga, B.lower)
    for gname in B.cdga.names:
        rep = B.rho_images.get(gname)
        if rep:
            lines.append("rho %s = %s" % (gname, y_model.poly_str(rep)))
    lines.append("end-bigraded")
    return "\n".join(lines)


def parse_certificate(text):
    """Rebuild a FormalityVerdict (with live certificate) from its text."""
    lines = Lines(text)
    verdict = _parse_verdict(lines)
    rest = lines.peek()
    if rest is not None:
        raise WorkspaceError(rest[0], "unexpected %r after the certificate"
                             % rest[2])
    return verdict


def _field(lines, key, many=False):
    """File line and value of the next line, which must read `key <value>`;
    with many, it reads `key <value> ...` and the list of values comes back."""
    i, tokens, line = lines.take("a %r line" % key)
    if tokens[0] != key or (not many and len(tokens) != 2):
        raise WorkspaceError(i, "expected a %r line, got %r" % (key, line))
    return i, tokens[1:] if many else tokens[1]


def _at(i, make, *args):
    """make(*args), an error of it reported at file line i."""
    try:
        return make(*args)
    except (ValueError, TruncationError) as exc:
        raise WorkspaceError(i, str(exc))


def _check_bound(j, bound, model):
    """The one bound rule of every kind: a claim up to degree bound reads
    its first embedded model up to bound + 1, so 1 <= bound < truncation."""
    if not 1 <= bound < model.truncation:
        raise WorkspaceError(j, "bound %d is not in 1..%d (the model is "
                             "truncated at %d)" % (bound, model.truncation - 1,
                                                    model.truncation))


def _parse_verdict(lines):
    i, kind = _field(lines, HEADER)
    jv, verdict = _field(lines, "verdict")
    jb, bound = _field(lines, "bound")
    bound = parse_int(bound, jb, "bound")
    if kind not in KIND_VERDICT:
        raise WorkspaceError(i, "unknown certificate kind %r" % kind)
    if verdict != KIND_VERDICT[kind]:
        raise WorkspaceError(jv, "a %s certificate backs verdict %s, not %r"
                             % (kind, KIND_VERDICT[kind], verdict))

    if kind == FreeCohomologyCert.kind:
        j, degrees = _field(lines, "free-generators", many=True)
        degrees = [parse_int(d, j, "degree") for d in degrees]
        _, model = _algebra(lines, "model")
        _check_bound(jb, bound, model)
        cert = FreeCohomologyCert(model, degrees, bound)
    elif kind == KoszulCert.kind:
        j, model = _algebra(lines, "model")
        _check_bound(jb, bound, model)
        cert = _at(j, KoszulCert, model, bound)
    else:
        j, p = _field(lines, "p")
        p = parse_int(p, j, "p")
        _, witness = _field(lines, "witness")
        _, y_model = _algebra(lines, "target_model")
        _check_bound(jb, bound, y_model)
        j, B = _bigraded(lines, y_model, ModelCohomology(y_model, bound),
                         bound)
        # B and p must admit a barred model, which replay never builds
        _at(j, suspension_bar_names, B.cdga, p)
        cert = BarObstructionCert(y_model, B, p, witness, bound)
    return FormalityVerdict(verdict, bound, cert)


def _algebra(lines, label):
    i = lines.expect("algebra", label)
    body = lines.take_while(lambda word: word in ALGEBRA_BODY)
    alg = parse_algebra_body(body, i)
    report = alg.check()
    if not report:
        raise WorkspaceError(i, "invalid algebra: %s" % report)
    return i, alg


def _bigraded(lines, y_model, H, bound):
    """The bigraded block: an algebra body whose generator lines end in
    ` lower <k>`, truncated at bound + 1, and the rho lines."""
    start = lines.expect("bigraded", "base")
    body = []
    lower = {}
    rho_lines = []
    body_lines = lines.take_while(lambda word: word in BIGRADED_BODY)
    for i, tokens, line in body_lines:
        if tokens[0] == "rho":
            rho_lines.append((i, line))
            continue
        if tokens[0] == "generator":
            if len(tokens) != 6 or tokens[4] != "lower":
                raise WorkspaceError(
                    i, "expected: generator <id> degree <n> lower <k>")
            lower[tokens[1]] = parse_int(tokens[5], i, "lower degree")
            tokens = tokens[:4]
        body.append((i, tokens, line))
    lines.expect("end-bigraded")
    cdga = parse_algebra_body(body, start, bound + 1)
    rho_images = {}
    for i, line in rho_lines:
        gname, rhs = assigned(i, line, cdga.index, "generator")
        rep = parse_polynomial(rhs, y_model, i)
        if not rep:
            raise WorkspaceError(i, "rho %s = 0: a generator that rho kills "
                                 "has no rho line" % gname)
        degree, want = _at(i, y_model.poly_degree, rep), cdga.gen_degree(gname)
        if degree != want:
            raise WorkspaceError(i, "rho %s has degree %d, but %s has degree "
                                 "%d" % (gname, degree, gname, want))
        _at(i, H.poly_class, rep)  # rep must be a cocycle
        rho_images[gname] = rep
    return start, BigradedModel(cdga, lower, rho_images, H)


def replay_certificate_text(text):
    """(ok, info) after parsing and re-verifying a serialized certificate."""
    try:
        verdict = parse_certificate(text)
    except (WorkspaceError, ValueError) as exc:
        return False, "parse failure: %s" % exc
    try:
        ok = verdict.certificate.replay()
    except Exception as exc:  # replay must never crash the verifier
        return False, "replay crashed: %s" % exc
    kind = verdict.certificate.kind
    return ok, ("%s certificate replayed" % kind if ok
                else "%s certificate FAILED replay" % kind)
