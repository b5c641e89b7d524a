"""Benchmark workloads: sizes, seeded inputs and the correctness oracle.

Each workload is one mapping-space problem F(X, Y) whose formality verdict,
certificate and replay load a different layer of ``rht``:

* ``koszul_s2``: the paper's section-4 example (X = S^2, Y = K(Q,4) v K(Q,4)),
  Sullivan route, Koszul verdict, N = 22.  Almost all time is exact
  elimination.
* ``barobs_s3``: X = S^3, Y with generators in degrees 5, 5, 9 and
  dy = x1*x2, N = 30.  The barred bigraded model has 134 generators, so
  monomial enumeration (``FreeGCA.degree_basis``) dominates; the lemma-3.6
  scan itself stays small below N = 36, where that model has 386.
* ``lie_reduction``: X = S^3 x S^2 (finite model with odd closed class t),
  Y = S^7 v S^7 as a free Lie algebra, N = 30 with Lie truncation 40.  Lie
  route: free Lie algebra, tensor model, Chevalley-Eilenberg cochains and
  the reduction to the 3-sphere.

The sizes keep one operation near or under a second, so that a run holds
enough operations for a steady statistic on a shared host: at N = 28 and
N = 36 one operation of ``koszul_s2`` or ``barobs_s3`` took 7 to 11 s, and at Lie truncation 48 ``linalg`` rather than ``dgl`` held most of
the ``lie_reduction`` time.  Replays are repeated (each in a fresh process)
where one per operation gives too few samples: twice for ``barobs_s3``,
whose replay is under half its verdict, and five times for
``lie_reduction``, whose replay takes about 15 ms.

The seed only rescales the single structure constant of the input, so every
seed keeps the verdict and certificate kind but changes the arithmetic.
"""

import math
import random
from fractions import Fraction

SULLIVAN = "sullivan"
LIE = "lie"


class Workload:
    def __init__(self, name, route, max_degree, verdict, kind, p=None,
                 exit_code=None, note=None, generators=(), x_sphere=None,
                 problem=None, lie_truncation=None, replays=1, hot=()):
        self.name = name
        self.route = route
        self.max_degree = max_degree
        self.lie_truncation = lie_truncation
        # untraced replays per operation
        self.replays = replays
        # Sullivan route: Y-model generators, X = S^x_sphere, problem name
        self.generators = tuple(generators)
        self.x_sphere = x_sphere
        self.problem = problem
        # oracle
        self.verdict = verdict
        self.kind = kind
        self.p = p
        self.exit_code = exit_code
        self.note = note
        # span names (or "layer." prefixes) this workload was chosen to load
        self.hot = tuple(hot)


WORKLOADS = {
    "koszul_s2": Workload(
        "koszul_s2", SULLIVAN, 22, "formal", "koszul-regular-sequence",
        exit_code=0, generators=(("x1", 4), ("x2", 4), ("y", 7)),
        x_sphere=2, problem="section4",
        hot=("linalg.", "gca.Cdga.cohomology", "gca.Cdga.d_matrix")),
    "barobs_s3": Workload(
        "barobs_s3", SULLIVAN, 30, "nonformal", "bar-linearity-obstruction",
        p=3, exit_code=3, generators=(("x1", 5), ("x2", 5), ("y", 9)),
        x_sphere=3, problem="odd", replays=2,
        hot=("gca.FreeGCA.degree_basis", "formality.lemma36_scan")),
    "lie_reduction": Workload(
        "lie_reduction", LIE, 30, "nonformal", "bar-linearity-obstruction",
        p=3, note="reduced to the 3-sphere", lie_truncation=40,
        replays=5, hot=("dgl.", "cefunctor.")),
}

# Sizes of the desk-scale self-test: (max degree, Lie truncation).
DESK_SIZES = {"koszul_s2": (12, None), "barobs_s3": (20, None),
              "lie_reduction": (14, 24)}

# Sizes of the opt-in scaling report.
SCALING_WORKLOADS = ("koszul_s2", "barobs_s3")
SCALING_DEGREES = (16, 24, 32, 40)

# The Y-model truncation written into the workspace file, as in the paper's
# section-4 file; the CLI raises it to N + 1.
WORKSPACE_TRUNCATION = 26

# Lie route: X = S^3 x S^2 (its finite model is built in child.py), of
# dimension p = 5 with odd closed class t, and the generators of the free
# Lie algebra modelling Y = S^7 v S^7.
LIE_P = 5
LIE_T = "t"
LIE_GENERATORS = (("a1", 6), ("a2", 6))


def coefficient(seed):
    """The seeded structure constant.

    Seed 0 is the paper's coefficient 1.  Any other seed draws c = a/b with
    |a| and b coprime and both from 5 to 9.  The cost of exact elimination
    grows with the size of the numbers it meets: over two runs at N = 28,
    koszul_s2 took 3.5 s at c = 1 and 3.6-3.7 s at c = -1/3, but 4.2-4.4 s
    at c = -5/3 or 6/7.  Drawing a and b from one narrow range keeps the
    cost of different seeds alike.
    """
    if seed == 0:
        return Fraction(1)
    rng = random.Random(seed)
    while True:
        a, b = rng.randint(5, 9), rng.randint(5, 9)
        if math.gcd(a, b) == 1:
            return Fraction(rng.choice((-1, 1)) * a, b)


def sullivan_workspace(wl, c):
    """Workspace text of a Sullivan-route workload with d y = c*x1*x2."""
    lines = ["algebra Y", "truncation %d" % WORKSPACE_TRUNCATION]
    lines += ["generator %s degree %d" % g for g in wl.generators]
    lines.append("d y = %s*x1*x2" % c)
    lines.append("")
    lines.append("problem %s X=S%d Y=Y p=%d"
                 % (wl.problem, wl.x_sphere, wl.x_sphere))
    return "\n".join(lines) + "\n"


def certificate_p(text):
    """The sphere degree p a bar-obstruction certificate records, or None."""
    for line in text.splitlines():
        if line.startswith("p "):
            return int(line[2:])
    return None


def check_produce(wl, produced, cert_text):
    """Problems with a produced verdict and certificate; empty when correct."""
    problems = []
    if produced.get("verdict") != wl.verdict:
        problems.append("verdict %r, expected %r"
                        % (produced.get("verdict"), wl.verdict))
    if produced.get("kind") != wl.kind:
        problems.append("certificate kind %r, expected %r"
                        % (produced.get("kind"), wl.kind))
    if wl.exit_code is not None and produced.get("exit") != wl.exit_code:
        problems.append("exit code %r, expected %r"
                        % (produced.get("exit"), wl.exit_code))
    if cert_text is None:
        problems.append("no certificate written")
    elif wl.p is not None and certificate_p(cert_text) != wl.p:
        problems.append("p = %r, expected %r"
                        % (certificate_p(cert_text), wl.p))
    if wl.note and not any(wl.note in n for n in produced.get("notes", ())):
        problems.append("missing note %r" % wl.note)
    return problems


def check_replay(wl, replayed):
    """Problems with a certificate replay; empty when it succeeded."""
    expected = "%s certificate replayed" % wl.kind
    if replayed.get("exit") != 0 or replayed.get("output", "").strip() != expected:
        return ["replay exit %r, output %r"
                % (replayed.get("exit"), replayed.get("output", "").strip())]
    return []
