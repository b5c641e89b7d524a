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

    problem <name> X=<model> Y=<model> p=<n> [t=<id>]

Polynomials are `coef*mon + ...` with `*` concatenation and `^` powers, e.g.
`x1*x2`, `3/2*x^2 - y`; combinations are the linear case `coef*id + ...`.
X-models are either the name of an all-odd free algebra or a literal sphere
`S<k>`.  Every printed model re-parses to an equal object.  Blank lines and
`#` comments are skipped, and every error names its line in the file.

This module owns the line grammar: certificate files (``rht.certificates``)
read their embedded algebra blocks and their bigraded block with the same
line cursor, term reader and algebra-body parser.
"""

import re
from fractions import Fraction

from .gca import Cdga, FreeGCA, Poly, signed_sum
from .dgl import Dgl, FiniteCdga, check_x_basis_size
from .linalg import combine

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
SPHERE = re.compile(r"S(\d+)$")
TERM_START = re.compile(r"(?=[+-])")
ASSIGNMENT = re.compile(r"\S+\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
BLOCK_HEADS = ("algebra", "dgl", "problem")
# the first words of the body lines of an algebra block
ALGEBRA_BODY = ("truncation", "generator", "d")
# the keys of a problem line
PROBLEM_KEYS = ("X", "Y", "p", "t")


class WorkspaceError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


class ProblemDecl:
    def __init__(self, name, x_spec, y_spec, p, t=None, line=0):
        self.name = name
        self.x_spec = x_spec
        self.y_spec = y_spec
        self.p = p
        self.t = t
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
            check_x_basis_size(2 ** len(self.algebras[spec].names))
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
                               t=decl.t, name=name)


def _parse_coefficient(tok, line):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise WorkspaceError(line, "bad coefficient %r" % tok)


def parse_int(tok, line, what):
    try:
        return int(tok)
    except ValueError:
        raise WorkspaceError(line, "bad %s %r" % (what, tok))


def read_terms(text, line):
    """The terms of a signed sum `±coef*factor*... ± ...` as (coefficient,
    factors) pairs, factors being the non-numeric words of a term in order.
    `0` is the empty sum."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for chunk in TERM_START.split(text.replace(" ", "")):
        if not chunk:
            continue
        coeff = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                coeff = -coeff
            chunk = chunk[1:]
        if not chunk:
            raise WorkspaceError(line, "dangling sign")
        factors = []
        for factor in chunk.split("*"):
            if not factor:
                raise WorkspaceError(line, "empty factor (stray '*')")
            if factor[0].isdigit():
                coeff *= _parse_coefficient(factor, line)
            else:
                factors.append(factor)
        terms.append((coeff, factors))
    return terms


def parse_polynomial(text, algebra, line):
    """`coef*mon + ...` into a Poly over the given algebra."""
    terms = []
    for coeff, factors in read_terms(text, line):
        word = []
        for factor in factors:
            base, caret, exp = factor.partition("^")
            e = 1
            if caret:
                e = parse_int(exp, line, "exponent")
                if e < 0:
                    raise WorkspaceError(line, "negative exponent")
            if base not in algebra.index:
                raise WorkspaceError(line, "unknown generator %r" % base)
            word.append((base, e))
        sign, monomial = algebra.normalize_word(word)
        if sign:
            terms.append(({monomial: coeff}, sign))
    return Poly._of(combine(terms))


def parse_lincomb(text, names, line):
    """`coef*name + ...` into a sparse vector over the given names."""
    terms = []
    for coeff, factors in read_terms(text, line):
        if not factors:
            raise WorkspaceError(line, "missing basis element in combination")
        if len(factors) > 1:
            raise WorkspaceError(
                line, "combinations are linear; unexpected %r" % factors[1])
        if factors[0] not in names:
            raise WorkspaceError(line, "unknown basis element %r" % factors[0])
        terms.append(({factors[0]: coeff}, 1))
    return combine(terms)


def _require_ident(tok, line, what="name"):
    if not IDENT.match(tok):
        raise WorkspaceError(line, "bad %s %r" % (what, tok))
    return tok


class Lines:
    """Cursor over the numbered lines of a text: (file line, tokens, line)
    for each line that is neither blank nor a `#` comment."""

    def __init__(self, text):
        raw = text.splitlines()
        self.lines = [(i, line.split(), line)
                      for i, line in enumerate((r.strip() for r in raw), 1)
                      if line and not line.startswith("#")]
        self.end = len(raw) + 1
        self.at = 0

    def peek(self):
        return self.lines[self.at] if self.at < len(self.lines) else None

    def take(self, what):
        """The next line; `what` names it in the error at end of text."""
        if self.at == len(self.lines):
            raise WorkspaceError(self.end,
                                 "expected %s, got end of file" % what)
        self.at += 1
        return self.lines[self.at - 1]

    def take_while(self, keep):
        """The run of next lines whose first word passes keep."""
        start = self.at
        while self.at < len(self.lines) and keep(self.lines[self.at][1][0]):
            self.at += 1
        return self.lines[start:self.at]

    def expect(self, *words):
        """File line of the next line, which must read `words`."""
        i, tokens, line = self.take(repr(" ".join(words)))
        if tokens != list(words):
            raise WorkspaceError(i, "expected %r, got %r"
                                 % (" ".join(words), line))
        return i


def parse_text(text):
    ws = Workspace()
    lines = Lines(text)
    while lines.peek():
        i, tokens, _ = lines.take("a block")
        head = tokens[0]
        if head == "problem":
            _parse_problem(ws, i, tokens)
            continue
        if head not in ("algebra", "dgl"):
            raise WorkspaceError(
                i, "expected a block header (algebra/dgl/problem), got %r"
                % head)
        if len(tokens) != 2:
            raise WorkspaceError(i, "expected: %s <name>" % head)
        name = _require_ident(tokens[1], i)
        if name in ws.algebras or name in ws.dgls:
            raise WorkspaceError(i, "duplicate name %r" % name)
        body = lines.take_while(lambda word: word not in BLOCK_HEADS)
        if head == "algebra":
            ws.algebras[name] = parse_algebra_body(body, i)
        else:
            ws.dgls[name] = _parse_dgl(body, i)
    for pname, decl in ws.problems.items():
        if decl.y_spec not in ws.algebras and decl.y_spec not in ws.dgls:
            raise WorkspaceError(decl.line, "unknown Y-model %r" % decl.y_spec)
        if not SPHERE.match(decl.x_spec) and decl.x_spec not in ws.algebras:
            raise WorkspaceError(decl.line, "unknown X-model %r" % decl.x_spec)
    return ws


def _declare(i, tokens, what, degrees):
    """Enter the id and degree of a `<word> <id> degree <n>` line in the
    ordered dict degrees, where the id must be new."""
    if len(tokens) != 4 or tokens[2] != "degree":
        raise WorkspaceError(i, "expected: %s <id> degree <n>" % tokens[0])
    name = _require_ident(tokens[1], i, what)
    deg = parse_int(tokens[3], i, "degree")
    if deg <= 0:
        raise WorkspaceError(i, "degree must be positive")
    if name in degrees:
        raise WorkspaceError(i, "duplicate %s %r" % (what, name))
    degrees[name] = deg


def assigned(i, line, names, noun):
    """(id, right-hand side) of a `<word> <id> = <sum>` line whose id is one
    of names, each a `noun`."""
    m = ASSIGNMENT.match(line)
    if not m:
        raise WorkspaceError(i, "expected: %s <id> = <sum>" % line.split()[0])
    if m.group(1) not in names:
        raise WorkspaceError(i, "unknown %s %r" % (noun, m.group(1)))
    return m.group(1), m.group(2)


def _truncation(i, tokens):
    try:
        return int(tokens[1])
    except (IndexError, ValueError):
        raise WorkspaceError(i, "expected: truncation <n>")


def parse_algebra_body(body, line, truncation=None):
    """The Cdga of an algebra block headed at file line `line`, from the
    numbered lines of its body.  Without a truncation line the truncation
    is the given one, else one above the top generator degree."""
    degrees = {}
    dlines = []
    for i, tokens, text in body:
        if tokens[0] == "generator":
            _declare(i, tokens, "generator", degrees)
        elif tokens[0] == "d":
            dlines.append((i, text))
        elif tokens[0] == "truncation":
            truncation = _truncation(i, tokens)
        else:
            raise WorkspaceError(i, "unexpected %r in algebra block" % tokens[0])
    if truncation is None:
        truncation = max(degrees.values(), default=1) + 1
    gens = list(degrees.items())
    carrier = FreeGCA(gens)
    images = {}
    for i, text in dlines:
        gname, rhs = assigned(i, text, carrier.index, "generator")
        images[gname] = parse_polynomial(rhs, carrier, i)
    try:
        return Cdga(gens, images, truncation)
    except Exception as exc:
        raise WorkspaceError(line, str(exc))


def _parse_dgl(body, line):
    names = {}
    brackets = {}
    diff = {}
    truncation = None
    for i, tokens, text in body:
        if tokens[0] == "basis":
            _declare(i, tokens, "basis element", names)
        elif tokens[0] == "bracket":
            m = re.match(r"bracket\s*\[\s*([A-Za-z_][A-Za-z0-9_]*)\s*,"
                         r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\]\s*=\s*(.+)$", text)
            if not m:
                raise WorkspaceError(
                    i, "expected: bracket [<id>,<id>] = <combination>")
            a, b, rhs = m.group(1), m.group(2), m.group(3)
            for x in (a, b):
                if x not in names:
                    raise WorkspaceError(i, "unknown basis element %r" % x)
            brackets[(a, b)] = parse_lincomb(rhs, names, i)
        elif tokens[0] == "d":
            x, rhs = assigned(i, text, names, "basis element")
            diff[x] = parse_lincomb(rhs, names, i)
        elif tokens[0] == "truncation":
            truncation = _truncation(i, tokens)
        else:
            raise WorkspaceError(i, "unexpected %r in dgl block" % tokens[0])
    if truncation is None:
        truncation = max(names.values(), default=1)
    try:
        return Dgl(list(names.items()), brackets, diff, truncation)
    except Exception as exc:
        raise WorkspaceError(line, str(exc))


def _parse_problem(ws, i, tokens):
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
        if key not in PROBLEM_KEYS:
            raise WorkspaceError(i, "unknown problem key %r" % key)
        if key in fields:
            raise WorkspaceError(i, "repeated problem key %r" % key)
        fields[key] = value
    for key in ("X", "Y", "p"):
        if key not in fields:
            raise WorkspaceError(i, "problem needs %s=" % key)
    p = parse_int(fields["p"], i, "p")
    if p <= 0:
        raise WorkspaceError(i, "p must be positive")
    ws.problems[name] = ProblemDecl(name, fields["X"], fields["Y"], p,
                                    t=fields.get("t"), line=i)


def parse_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- printing (round-trips through parse_text) ------------------------------

def algebra_body_lines(cdga, lower=None):
    """The generator and d lines of an algebra block.  Given lower degrees,
    each generator line ends in ` lower <k>`, as in a bigraded block."""
    lines = []
    for gname, deg in cdga.generators:
        line = "generator %s degree %d" % (gname, deg)
        if lower is not None:
            line += " lower %d" % lower[gname]
        lines.append(line)
    for gname in cdga.names:
        img = cdga.differential.images.get(gname)
        if img:
            lines.append("d %s = %s" % (gname, cdga.poly_str(img)))
    return lines


def print_algebra(cdga, name):
    lines = ["algebra %s" % name, "truncation %d" % cdga.truncation]
    return "\n".join(lines + algebra_body_lines(cdga)) + "\n"


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
    return signed_sum(sorted(combo.items()))
