"""The plain-text workspace format.

Line-oriented blocks, diff-friendly, no external format dependency:

    algebra <name>
    truncation <n>
    generator <id> degree <n>
    d <id> = <polynomial>

    dgl <name>
    truncation <n>
    basis <id> degree <n>
    bracket [<id>,<id>] = <combination>
    d <id> = <combination>

    problem <name> X=<model> Y=<model> p=<n> [t=<id>] [m=<n>]

Polynomials are `coef*mon + ...` with `*` concatenation and `^` powers, e.g.
`x1*x2`, `3/2*x^2 - y`.  X-models are either the name of an all-odd free
algebra or a literal sphere `S<k>`.  Every printed model re-parses to an
equal object.
"""

import re
from fractions import Fraction

from .gca import Cdga, Poly
from .dgl import Dgl, FiniteCdga
from .linalg import combine

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
SPHERE = re.compile(r"S(\d+)$")


class WorkspaceError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


class ProblemDecl:
    def __init__(self, name, x_spec, y_spec, p, t=None, m=None, line=0):
        self.name = name
        self.x_spec = x_spec
        self.y_spec = y_spec
        self.p = p
        self.t = t
        self.m = m
        self.line = line


class Workspace:
    def __init__(self):
        self.algebras = {}
        self.dgls = {}
        self.problems = {}

    def resolve_x(self, spec, line=0):
        sphere = SPHERE.match(spec)
        if sphere:
            return FiniteCdga.sphere(int(sphere.group(1)))
        if spec in self.algebras:
            return FiniteCdga.from_free_odd(self.algebras[spec])
        raise WorkspaceError(line, "unknown X-model %r" % spec)

    def resolve_problem(self, name):
        from .mapmodel import MapSpaceProblem
        decl = self.problems[name]
        x = self.resolve_x(decl.x_spec, decl.line)
        y_cdga = self.algebras.get(decl.y_spec)
        y_dgl = self.dgls.get(decl.y_spec)
        if y_cdga is None and y_dgl is None:
            raise WorkspaceError(decl.line, "unknown Y-model %r" % decl.y_spec)
        return MapSpaceProblem(x, decl.p, y_cdga=y_cdga, y_dgl=y_dgl,
                               m=decl.m, t=decl.t, name=name)


def _parse_coefficient(tok, line):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise WorkspaceError(line, "bad coefficient %r" % tok)


def parse_polynomial(text, algebra, line):
    """`coef*mon + ...` into a Poly over the given algebra."""
    text = text.strip()
    if text == "0":
        return Poly()
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    terms = []
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise WorkspaceError(line, "dangling sign in polynomial")
        coeff = sign
        word = []
        for factor in chunk.split("*"):
            if not factor:
                raise WorkspaceError(line, "empty factor (stray '*')")
            if re.match(r"\d", factor):
                coeff *= _parse_coefficient(factor, line)
                continue
            if "^" in factor:
                base, _, exp = factor.partition("^")
                try:
                    e = int(exp)
                except ValueError:
                    raise WorkspaceError(line, "bad exponent %r" % exp)
                if e < 0:
                    raise WorkspaceError(line, "negative exponent")
            else:
                base, e = factor, 1
            if not IDENT.match(base):
                raise WorkspaceError(line, "bad generator reference %r" % base)
            if base not in algebra.index:
                raise WorkspaceError(line, "unknown generator %r" % base)
            word.append((base, e))
        terms.append((algebra.monomial_of_word(word).terms, coeff))
    return Poly(combine(terms))


def parse_lincomb(text, names, line):
    text = text.strip()
    terms = []
    if text == "0":
        return {}
    for chunk in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not chunk:
            continue
        sign = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        parts = chunk.split("*")
        coeff = sign
        name = None
        for factor in parts:
            if re.match(r"\d", factor):
                coeff *= _parse_coefficient(factor, line)
            elif IDENT.match(factor):
                if name is not None:
                    raise WorkspaceError(
                        line, "combinations are linear; unexpected %r" % factor)
                name = factor
            else:
                raise WorkspaceError(line, "bad term %r" % factor)
        if name is None:
            raise WorkspaceError(line, "missing basis element in combination")
        if name not in names:
            raise WorkspaceError(line, "unknown basis element %r" % name)
        terms.append(({name: coeff}, 1))
    return combine(terms)


def _require_ident(tok, line, what="name"):
    if not IDENT.match(tok):
        raise WorkspaceError(line, "bad %s %r" % (what, tok))
    return tok


def parse_text(text):
    ws = Workspace()
    lines = text.splitlines()
    blocks = []
    current = None
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("algebra", "dgl"):
            if len(tokens) != 2:
                raise WorkspaceError(i, "expected: %s <name>" % head)
            current = {"kind": head, "name": _require_ident(tokens[1], i),
                       "line": i, "body": []}
            blocks.append(current)
        elif head == "problem":
            blocks.append({"kind": "problem", "line": i, "tokens": tokens})
            current = None
        else:
            if current is None:
                raise WorkspaceError(
                    i, "expected a block header (algebra/dgl/problem), got %r"
                    % head)
            current["body"].append((i, tokens, line))

    seen = set()
    for block in blocks:
        if block["kind"] == "problem":
            _parse_problem(ws, block)
            continue
        name = block["name"]
        if name in seen:
            raise WorkspaceError(block["line"], "duplicate name %r" % name)
        seen.add(name)
        if block["kind"] == "algebra":
            ws.algebras[name] = _parse_algebra(block)
        else:
            ws.dgls[name] = _parse_dgl(block)
    for pname, decl in ws.problems.items():
        if decl.y_spec not in ws.algebras and decl.y_spec not in ws.dgls:
            raise WorkspaceError(decl.line, "unknown Y-model %r" % decl.y_spec)
        if not SPHERE.match(decl.x_spec) and decl.x_spec not in ws.algebras:
            raise WorkspaceError(decl.line, "unknown X-model %r" % decl.x_spec)
    return ws


def _parse_algebra(block):
    gens = []
    dlines = []
    truncation = None
    for i, tokens, line in block["body"]:
        if tokens[0] == "generator":
            if len(tokens) != 4 or tokens[2] != "degree":
                raise WorkspaceError(i, "expected: generator <id> degree <n>")
            name = _require_ident(tokens[1], i, "generator")
            try:
                deg = int(tokens[3])
            except ValueError:
                raise WorkspaceError(i, "bad degree %r" % tokens[3])
            if deg <= 0:
                raise WorkspaceError(i, "degree must be positive")
            if any(name == g for g, _ in gens):
                raise WorkspaceError(i, "duplicate generator %r" % name)
            gens.append((name, deg))
        elif tokens[0] == "d":
            m = re.match(r"d\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", line)
            if not m:
                raise WorkspaceError(i, "expected: d <id> = <polynomial>")
            dlines.append((i, m.group(1), m.group(2)))
        elif tokens[0] == "truncation":
            try:
                truncation = int(tokens[1])
            except (IndexError, ValueError):
                raise WorkspaceError(i, "expected: truncation <n>")
        else:
            raise WorkspaceError(i, "unexpected %r in algebra block" % tokens[0])
    if truncation is None:
        truncation = max((d for _, d in gens), default=1) + 1
    carrier = Cdga(gens, {}, max(truncation, max((d for _, d in gens),
                                                 default=0) + 1))
    images = {}
    for i, gname, poly_text in dlines:
        if gname not in carrier.index:
            raise WorkspaceError(i, "unknown generator %r" % gname)
        images[gname] = parse_polynomial(poly_text, carrier, i)
    try:
        return Cdga(gens, images, truncation)
    except Exception as exc:
        raise WorkspaceError(block["line"], str(exc))


def _parse_dgl(block):
    basis = []
    brackets = {}
    diff = {}
    truncation = None
    names = set()
    for i, tokens, line in block["body"]:
        if tokens[0] == "basis":
            if len(tokens) != 4 or tokens[2] != "degree":
                raise WorkspaceError(i, "expected: basis <id> degree <n>")
            name = _require_ident(tokens[1], i, "basis element")
            try:
                deg = int(tokens[3])
            except ValueError:
                raise WorkspaceError(i, "bad degree %r" % tokens[3])
            if deg <= 0:
                raise WorkspaceError(i, "degree must be positive")
            if name in names:
                raise WorkspaceError(i, "duplicate basis element %r" % name)
            names.add(name)
            basis.append((name, deg))
        elif tokens[0] == "bracket":
            m = re.match(r"bracket\s*\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*,"
                         r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\s*=\s*(.+)$", line)
            if not m:
                raise WorkspaceError(
                    i, "expected: bracket [<id>,<id>] = <combination>")
            a, b, rhs = m.group(1), m.group(2), m.group(3)
            for x in (a, b):
                if x not in names:
                    raise WorkspaceError(i, "unknown basis element %r" % x)
            brackets[(a, b)] = parse_lincomb(rhs, names, i)
        elif tokens[0] == "d":
            m = re.match(r"d\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", line)
            if not m:
                raise WorkspaceError(i, "expected: d <id> = <combination>")
            if m.group(1) not in names:
                raise WorkspaceError(i, "unknown basis element %r" % m.group(1))
            diff[m.group(1)] = parse_lincomb(m.group(2), names, i)
        elif tokens[0] == "truncation":
            try:
                truncation = int(tokens[1])
            except (IndexError, ValueError):
                raise WorkspaceError(i, "expected: truncation <n>")
        else:
            raise WorkspaceError(i, "unexpected %r in dgl block" % tokens[0])
    if truncation is None:
        truncation = max((d for _, d in basis), default=1)
    try:
        return Dgl(basis, brackets, diff, truncation)
    except Exception as exc:
        raise WorkspaceError(block["line"], str(exc))


def _parse_problem(ws, block):
    tokens = block["tokens"]
    i = block["line"]
    if len(tokens) < 3:
        raise WorkspaceError(i, "expected: problem <name> X=... Y=... p=...")
    name = _require_ident(tokens[1], i, "problem name")
    if name in ws.problems:
        raise WorkspaceError(i, "duplicate problem %r" % name)
    fields = {}
    for tok in tokens[2:]:
        if "=" not in tok:
            raise WorkspaceError(i, "expected key=value, got %r" % tok)
        key, _, value = tok.partition("=")
        fields[key] = value
    for key in ("X", "Y", "p"):
        if key not in fields:
            raise WorkspaceError(i, "problem needs %s=" % key)
    try:
        p = int(fields["p"])
    except ValueError:
        raise WorkspaceError(i, "bad p %r" % fields["p"])
    if p <= 0:
        raise WorkspaceError(i, "p must be positive")
    m = None
    if "m" in fields:
        try:
            m = int(fields["m"])
        except ValueError:
            raise WorkspaceError(i, "bad m %r" % fields["m"])
    ws.problems[name] = ProblemDecl(name, fields["X"], fields["Y"], p,
                                    t=fields.get("t"), m=m, line=i)


def parse_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- printing (round-trips through parse_text) ------------------------------

def print_algebra(cdga, name):
    lines = ["algebra %s" % name, "truncation %d" % cdga.truncation]
    for gname, deg in cdga.generators:
        lines.append("generator %s degree %d" % (gname, deg))
    for gname in cdga.names:
        img = cdga.differential.images.get(gname)
        if img:
            lines.append("d %s = %s" % (gname, cdga.poly_str(img)))
    return "\n".join(lines) + "\n"


def print_dgl(dgl, name):
    lines = ["dgl %s" % name, "truncation %d" % dgl.truncation]
    for bname in dgl.names:
        lines.append("basis %s degree %d" % (bname, dgl.degree_of[bname]))
    for (a, b), combo in dgl.brackets.items():
        lines.append("bracket [%s,%s] = %s" % (a, b, lincomb_str(combo)))
    for x, combo in dgl.differential.items():
        lines.append("d %s = %s" % (x, lincomb_str(combo)))
    return "\n".join(lines) + "\n"


def lincomb_str(combo):
    if not combo:
        return "0"
    chunks = []
    for name, c in sorted(combo.items()):
        mag = abs(c)
        body = name if mag == 1 else "%s*%s" % (mag, name)
        if not chunks:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


def cdga_equal(a, b):
    return (a.generators == b.generators and a.truncation == b.truncation
            and all(a.differential.images.get(n, Poly()) ==
                    b.differential.images.get(n, Poly()) for n in a.names))


def dgl_equal(a, b):
    if (list(zip(a.names, (a.degree_of[n] for n in a.names))) !=
            list(zip(b.names, (b.degree_of[n] for n in b.names)))):
        return False
    if a.truncation != b.truncation:
        return False
    for x in a.names:
        for y in a.names:
            if a.degree_of[x] + a.degree_of[y] <= a.truncation:
                if a.bracket(x, y) != b.bracket(x, y):
                    return False
    return all(a.differential.get(x, {}) == b.differential.get(x, {})
               for x in a.names)
