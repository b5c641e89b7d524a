"""Models of mapping spaces out of a finite complex.

The Sullivan-level construction doubles the generators of a minimal model of
the target: each v acquires a companion Sv of degree |v| - p, S extends to an
algebra derivation of degree -p, and the differential on the new generators is

    d(Sv) = (-1)^p S(dv).

For odd p this is the classical -S(dv); for even p the sign flips (it must:
with -S(dv) and p even, d^2 != 0 already on three-generator examples, while
the displayed model of maps out of the 2-sphere uses +S(dy)).

The Lie-level route's odd-generator splitting lives here as well.  The
reduction to an odd sphere is that splitting: q, the retraction of X onto
the odd class t, is the one map whose check can fail; A (x) L itself is
built in formality.mapping_space_model.
"""

from fractions import Fraction

from .gca import Cdga, Derivation, Poly, CheckReport, TruncationError
from .dgl import FiniteCdga, FiniteCdgaMorphism, check_x_basis_size
from .linalg import homology

QONE = Fraction(1)


class SplitError(Exception):
    """Odd-generator splitting failed; carries the offending report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def bar_name(name):
    return name + "_bar"


class MapSpaceProblem:
    """The data of F(X, Y): a finite model of X, a model of Y, and p.

    Y may be given as a minimal Sullivan algebra (y_cdga) or a Lie model
    (y_dgl).  t optionally designates an odd closed basis element of X.
    """

    def __init__(self, x_model, p, y_cdga=None, y_dgl=None, t=None,
                 name=None):
        if (y_cdga is None) == (y_dgl is None):
            raise ValueError("give exactly one of y_cdga, y_dgl")
        self.x_model = x_model
        self.p = int(p)
        self.y_cdga = y_cdga
        self.y_dgl = y_dgl
        self.t = t
        self.name = name

    @property
    def m(self):
        """The connectivity of Y, read off its model: one below the lowest
        Sullivan generator degree, or the lowest Lie basis degree."""
        if self.y_cdga is not None:
            return min(self.y_cdga.degrees) - 1 if self.y_cdga.degrees else 0
        return min(self.y_dgl.degree_of.values()) if self.y_dgl.names else 0


class HypothesisReport:
    """The odd class t that check_hypotheses chose for the reduction to
    split off (None if there is none) and one message per violation."""

    def __init__(self, t, messages):
        self.t = t
        self.messages = messages

    @property
    def ok(self):
        return not self.messages

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "HypothesisReport(t=%r, messages=%r)" % (self.t, self.messages)


def finite_cohomology_rank(A, n):
    """Rank of H^n of a finite-dimensional model, straight from its tables."""
    def d_columns(k):
        pos = {z: i for i, z in enumerate(A.basis_in_degree(k + 1))}
        return [{pos[z]: c for z, c in A.d(x).items()}
                for x in A.basis_in_degree(k)]
    return len(homology(d_columns(n), d_columns(n - 1),
                        len(A.basis_in_degree(n)))[0])


def check_hypotheses(prob):
    """Valid X and Y models, connectivity m >= p+1 and H^p(X) != 0, and the
    one choice of the odd closed class t: prob.t when it designates one (a
    designated t that is not an odd closed basis class is a violation),
    otherwise the lowest odd closed class of X, or None when X has none,
    since the even-p path is allowed to run without one.  The report is ok
    exactly when it carries no message.  An X basis above MAX_X_BASIS raises
    ValueError before any check runs.

    This is where X and Y are checked, once: every model built from them
    downstream (the suspension model, A (x) L, its cochains) is valid by
    construction and is not checked again."""
    check_x_basis_size(len(prob.x_model.names))
    messages = []
    x_report = prob.x_model.validate()
    if not x_report:
        messages.append("invalid X model: %s" % x_report.message)
    y_report = (prob.y_cdga.check() if prob.y_cdga is not None
                else prob.y_dgl.validate())
    if not y_report:
        messages.append("invalid Y model: %s" % y_report.message)
    if prob.m < prob.p + 1:
        messages.append("connectivity m=%d < p+1=%d" % (prob.m, prob.p + 1))
    if not finite_cohomology_rank(prob.x_model, prob.p):
        messages.append("H^%d(X) = 0 at the declared top degree" % prob.p)
    odd = prob.x_model.odd_closed_classes()
    t = prob.t if prob.t is not None else (odd[0] if odd else None)
    if t is not None and t not in odd:
        messages.append("designated class %r is not odd and closed" % t)
        t = None
    return HypothesisReport(t, messages)


def suspension_bar_names(Y, p):
    """The bar name of each generator of Y, once Y and p admit a suspension
    model: p >= 1, Y minimal with every generator degree above p (so the
    bars stay in positive degree), no truncated generator and no bar name
    that is already a name of Y.  ValueError or TruncationError otherwise."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if not Y.is_minimal():
        raise ValueError("suspension model needs a minimal Sullivan algebra")
    if any(d <= p for d in Y.degrees):
        raise ValueError("generator degrees must exceed p")
    if Y.truncated_gens:
        # a bar of a truncated generator may land below the truncation and
        # its differential would be unknowable; never drop that silently
        raise TruncationError(
            "suspension needs the full differential of Y (truncated: %s)"
            % sorted(Y.truncated_gens))
    bar_of = {}
    for name in Y.names:
        b = bar_name(name)
        if b in Y.index:
            raise ValueError("bar name collision for %r" % name)
        bar_of[name] = b
    return bar_of


def suspension_model(Y, p):
    """Sullivan model Lambda(V + SV) of maps from the p-sphere into the space
    modelled by Y, for Y and p that suspension_bar_names accepts, truncated
    where Y is.  d(Sv) = (-1)^p S(dv), with S the degree -p derivation that
    sends each v to its bar Sv.
    """
    p = int(p)
    bar_of = suspension_bar_names(Y, p)
    gens = list(Y.generators) + [(bar_of[name], deg - p)
                                 for name, deg in Y.generators]
    carrier = Cdga(gens, {}, max(Y.truncation, max(d for _, d in gens) + 1))
    S = Derivation(carrier, -p, {n: carrier.gen(bar_of[n]) for n in Y.names})
    images = {}
    for name in Y.names:
        img = Y.differential.images.get(name, Poly())
        if img:
            images[name] = img  # same monomial encoding: Y's generators come first
        bimg = carrier.apply_derivation(S, img)
        if bimg:
            images[bar_of[name]] = bimg if p % 2 == 0 else Poly._of(
                {m: -c for m, c in bimg.items()})
    return Cdga(gens, images, Y.truncation)


def split_odd_generator(A, t):
    """Prop-style splitting off of an odd sphere inside a finite model.

    Returns (i, q) with i: (Lambda t, 0) -> A the inclusion and q the
    retraction that keeps 1 and t and kills every other basis element.  i is
    a cochain algebra map and q o i = Id by construction once t is odd and
    closed: i sends 1 and t to themselves, and t*t = 0 lies above the
    sphere's top degree.  q can fail to be a cochain algebra map (t
    decomposable, or t a term of some d(x)); that failure, like an even or
    non-closed t, is reported via SplitError, never repaired.
    """
    if A.degree_of[t] % 2 == 0:
        raise SplitError(CheckReport.violation("odd", "%s has even degree" % t))
    if A.d(t):
        raise SplitError(CheckReport.violation("closed", "d(%s) != 0" % t))
    T = FiniteCdga.sphere(A.degree_of[t])
    i = FiniteCdgaMorphism(T, A, {"1": {A.unit: QONE}, "t": {t: QONE}})
    q = FiniteCdgaMorphism(A, T, {A.unit: {"1": QONE}, t: {"t": QONE}})
    rep = q.check()
    if not rep:
        raise SplitError(rep)
    return i, q


def reduce_to_odd_sphere(A, t):
    """The degree of the odd sphere that the class t splits off X.

    A is the finite X-model and t the class check_hypotheses chose.  The
    reduction is the splitting: once q is a cochain algebra map, S^|t| is a
    retract of X, so F(S^|t|, Y) is a retract of F(X, Y) (its Lie model
    Lambda t (x) L is one of A (x) L through i (x) Id and q (x) Id, which are
    DGL maps by construction), and a retract of a formal space is formal.
    split_odd_generator's SplitError is the only way this can fail.
    """
    split_odd_generator(A, t)
    return A.degree_of[t]
