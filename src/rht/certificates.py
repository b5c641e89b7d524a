"""Self-contained text form of formality certificates.

A certificate file embeds every model it mentions (workspace-format blocks),
so replay needs nothing from the producing session: parse, rebuild, re-verify.
"""

from .gca import Cdga, CdgaMorphism, Poly
from .quotient import ModelCohomology
from .formality import (FormalityVerdict, FreeCohomologyCert, KoszulCert,
                        TransferCert, BarObstructionCert, BigradedModel,
                        build_barred_model)
from .workspace import (print_algebra, parse_text, parse_polynomial,
                        WorkspaceError)

HEADER = "rht-certificate"


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
    elif isinstance(cert, TransferCert):
        lines.append(print_algebra(cert.f.source, "retract").rstrip("\n"))
        lines.append(print_algebra(cert.f.target, "big").rstrip("\n"))
        lines.append(_print_morphism(cert.f, "f", "retract", "big"))
        lines.append(_print_morphism(cert.g, "g", "big", "retract"))
        lines.append("inner-certificate")
        lines.append(serialize_verdict(cert.inner).rstrip("\n"))
        lines.append("end-inner")
    elif isinstance(cert, BarObstructionCert):
        lines.append("p %d" % cert.p)
        lines.append("witness %s" % cert.witness)
        lines.append(print_algebra(cert.y_model, "target_model").rstrip("\n"))
        lines.append(_print_bigraded(cert.bigraded, cert.y_model))
    else:
        raise CertificateError("cannot serialize certificate kind %r"
                               % getattr(cert, "kind", None))
    return "\n".join(lines) + "\n"


def _print_morphism(phi, name, src_label, tgt_label):
    lines = ["morphism %s %s %s" % (name, src_label, tgt_label)]
    for gname in phi.source.names:
        img = phi.images.get(gname, Poly())
        lines.append("image %s = %s" % (gname, phi.target.poly_str(img)))
    return "\n".join(lines)


def _print_bigraded(B, y_model):
    lines = ["bigraded base"]
    alg = B.cdga
    for gname in alg.names:
        lines.append("generator %s degree %d lower %d"
                     % (gname, alg.gen_degree(gname), B.lower[gname]))
    for gname in alg.names:
        img = alg.differential.images.get(gname)
        if img:
            lines.append("d %s = %s" % (gname, alg.poly_str(img)))
    ring = B.ring
    for gname in alg.names:
        e = B.rho_images.get(gname)
        if e is not None and not e.is_zero():
            rep = ring.element_poly(e)
            lines.append("rho %s = %s" % (gname, y_model.poly_str(rep)))
    lines.append("end-bigraded")
    return "\n".join(lines)


class _Cursor:
    def __init__(self, lines):
        self.lines = lines
        self.at = 0

    def peek(self):
        while self.at < len(self.lines) and not self.lines[self.at].strip():
            self.at += 1
        return self.lines[self.at].strip() if self.at < len(self.lines) else None

    def take(self):
        line = self.peek()
        if line is not None:
            self.at += 1
        return line


def parse_certificate(text):
    """Rebuild a FormalityVerdict (with live certificate) from its text."""
    cur = _Cursor(text.splitlines())
    return _parse_verdict(cur)


def _parse_verdict(cur):
    head = cur.take()
    if head is None or not head.startswith(HEADER + " "):
        raise CertificateError("missing %r header" % HEADER)
    kind = head[len(HEADER) + 1:].strip()
    vline = cur.take()
    if vline is None or not vline.startswith("verdict "):
        raise CertificateError("missing verdict line")
    verdict = vline.split()[1]
    bline = cur.take()
    if bline is None or not bline.startswith("bound "):
        raise CertificateError("missing bound line")
    bound = int(bline.split()[1])

    if kind == FreeCohomologyCert.kind:
        gline = cur.take()
        if gline is None or not gline.startswith("free-generators"):
            raise CertificateError("missing free-generators line")
        degrees = [int(x) for x in gline.split()[1:]]
        model = _parse_algebra_block(cur, "model")
        cert = FreeCohomologyCert(model, degrees, bound)
    elif kind == KoszulCert.kind:
        model = _parse_algebra_block(cur, "model")
        cert = KoszulCert(model, bound)
    elif kind == TransferCert.kind:
        retract = _parse_algebra_block(cur, "retract")
        big = _parse_algebra_block(cur, "big")
        f = _parse_morphism_block(cur, "f", retract, big)
        g = _parse_morphism_block(cur, "g", big, retract)
        if cur.take() != "inner-certificate":
            raise CertificateError("missing inner-certificate")
        inner = _parse_verdict(cur)
        if cur.take() != "end-inner":
            raise CertificateError("missing end-inner")
        cert = TransferCert(f, g, inner)
    elif kind == BarObstructionCert.kind:
        pline = cur.take()
        if pline is None or not pline.startswith("p "):
            raise CertificateError("missing p line")
        p = int(pline.split()[1])
        wline = cur.take()
        if wline is None or not wline.startswith("witness "):
            raise CertificateError("missing witness line")
        witness = wline.split()[1]
        y_model = _parse_algebra_block(cur, "target_model")
        H = ModelCohomology(y_model, bound)
        B = _parse_bigraded_block(cur, y_model, H, bound)
        barred = build_barred_model(B, p)
        cert = BarObstructionCert(y_model, B, barred, witness, bound)
    else:
        raise CertificateError("unknown certificate kind %r" % kind)
    return FormalityVerdict(verdict, bound, cert)


def _parse_algebra_block(cur, label):
    line = cur.take()
    if line != "algebra %s" % label:
        raise CertificateError("expected 'algebra %s', got %r" % (label, line))
    body = ["algebra %s" % label]
    while True:
        nxt = cur.peek()
        if nxt is None or nxt.split()[0] in ("algebra", "morphism", "bigraded",
                                             "inner-certificate", "end-inner",
                                             HEADER, "p", "witness",
                                             "free-generators"):
            break
        body.append(cur.take())
    try:
        ws = parse_text("\n".join(body))
    except WorkspaceError as exc:
        raise CertificateError("bad embedded model: %s" % exc)
    return ws.algebras[label]


def _parse_morphism_block(cur, name, source, target):
    line = cur.take()
    parts = line.split() if line else []
    if len(parts) != 4 or parts[0] != "morphism" or parts[1] != name:
        raise CertificateError("expected 'morphism %s ...', got %r" % (name, line))
    images = {}
    while True:
        nxt = cur.peek()
        if nxt is None or not nxt.startswith("image "):
            break
        line = cur.take()
        _, gname, _, rhs = line.split(None, 3)
        images[gname] = parse_polynomial(rhs, target, 0)
    return CdgaMorphism(source, target, images)


def _parse_bigraded_block(cur, y_model, H, bound):
    line = cur.take()
    if line != "bigraded base":
        raise CertificateError("expected 'bigraded base', got %r" % line)
    gens = []
    lower = {}
    dlines = []
    rholines = []
    while True:
        line = cur.take()
        if line is None:
            raise CertificateError("unterminated bigraded block")
        if line == "end-bigraded":
            break
        parts = line.split()
        if parts[0] == "generator":
            if len(parts) != 6 or parts[2] != "degree" or parts[4] != "lower":
                raise CertificateError("bad bigraded generator line %r" % line)
            gens.append((parts[1], int(parts[3])))
            lower[parts[1]] = int(parts[5])
        elif parts[0] == "d":
            _, gname, _, rhs = line.split(None, 3)
            dlines.append((gname, rhs))
        elif parts[0] == "rho":
            _, gname, _, rhs = line.split(None, 3)
            rholines.append((gname, rhs))
        else:
            raise CertificateError("unexpected %r in bigraded block" % parts[0])
    carrier = Cdga(gens, {}, bound + 1)
    images = {g: parse_polynomial(rhs, carrier, 0) for g, rhs in dlines}
    cdga = Cdga(gens, images, bound + 1)
    rho_images = {}
    for gname, rhs in rholines:
        rep = parse_polynomial(rhs, y_model, 0)
        rho_images[gname] = H.poly_class(rep)
    return BigradedModel(cdga, lower, rho_images, H)


def replay_certificate_text(text):
    """(ok, info) after parsing and re-verifying a serialized certificate."""
    try:
        verdict = parse_certificate(text)
    except (CertificateError, WorkspaceError, ValueError) as exc:
        return False, "parse failure: %s" % exc
    try:
        ok = verdict.certificate.replay()
    except Exception as exc:  # replay must never crash the verifier
        return False, "replay crashed: %s" % exc
    kind = verdict.certificate.kind
    return ok, ("%s certificate replayed" % kind if ok
                else "%s certificate FAILED replay" % kind)
