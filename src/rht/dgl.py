"""Differential graded Lie algebras presented by bases and structure constants.

Degrees are positive (lower grading), the differential has degree -1, and the
axioms used throughout are

    [x,y] = -(-1)^{|x||y|} [y,x]
    [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
    d[x,y] = [dx,y] + (-1)^{|x|} [x,dy]

Every algebra carries a truncation bound N; brackets and checks only exist for
total degree <= N and every consumer is expected to respect that.

The module also holds finite-dimensional CDGA models (basis-presented, not
free) and the tensor construction A (x) L that models the space of maps from
a finite complex into the space modelled by L.  A (x) L is functorial in A: a
map phi: A -> B gives phi (x) Id: A (x) L -> B (x) L (tensor_morphism), and
the fibration projection and section are the augmentation and the unit of A
tensored with L.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from .gca import CheckReport, Poly
from .linalg import EchelonSpan, combine

QONE = Fraction(1)
EMPTY = MappingProxyType({})


class DglError(Exception):
    pass


class ConnectivityError(DglError):
    """The tensor model produced an element of degree <= 0."""


class Dgl:
    """DGL with explicit degreewise basis, sparse bracket table and d."""

    def __init__(self, basis, brackets, differential, truncation):
        self.truncation = int(truncation)
        self.names = []
        self.degree_of = {}
        for name, deg in basis:
            if name in self.degree_of:
                raise ValueError("duplicate basis name %r" % name)
            if deg < 1:
                raise ValueError("basis element %r has degree %d < 1" % (name, deg))
            if deg > self.truncation:
                raise ValueError("basis element %r above truncation" % name)
            self.names.append(name)
            self.degree_of[name] = int(deg)
        self._order = {n: i for i, n in enumerate(self.names)}
        self.by_degree = {}
        for n in self.names:
            self.by_degree.setdefault(self.degree_of[n], []).append(n)
        self.brackets = {}
        for (a, b), combo in brackets.items():
            self._check_names(a, b)
            if self.degree_of[a] + self.degree_of[b] > self.truncation:
                raise ValueError("stored bracket [%s,%s] above truncation" % (a, b))
            combo = combine(((combo, 1),))
            if combo:
                self.brackets[(a, b)] = combo
        self.differential = {}
        for x, combo in differential.items():
            self._check_names(x)
            combo = combine(((combo, 1),))
            if combo:
                self.differential[x] = combo
        # two-sided bracket table name -> {name: combo}, each row in basis
        # order: a stored entry as stored, and where its mirror is not stored
        # the mirror given by antisymmetry
        rows = {n: {} for n in self.names}
        for (a, b), combo in self.brackets.items():
            rows[a][b] = combo
        for (a, b), combo in self.brackets.items():
            if a not in rows[b]:
                rows[b][a] = self._mirror(a, b, combo)
        self.table = {n: {b: row[b] for b in sorted(row, key=self._order.get)}
                      for n, row in rows.items()}
        # tensor-model bookkeeping, filled in by tensor_map_model
        self.factorization = None

    def _check_names(self, *names):
        for n in names:
            if n not in self.degree_of:
                raise KeyError("unknown basis element %r" % n)

    def _mirror(self, a, b, combo):
        """[b,a] = -(-1)^{|a||b|} [a,b], given combo = [a,b]."""
        if (self.degree_of[a] * self.degree_of[b]) % 2:
            return combo
        return {z: -c for z, c in combo.items()}

    def basis_in_degree(self, n):
        return list(self.by_degree.get(n, []))

    def dims(self):
        return {n: len(v) for n, v in sorted(self.by_degree.items())}

    def _entry(self, a, b):
        """The table's [a,b] (not a copy), after the name and degree checks."""
        self._check_names(a, b)
        if self.degree_of[a] + self.degree_of[b] > self.truncation:
            raise DglError("bracket [%s,%s] lies above the truncation" % (a, b))
        return self.table[a].get(b, EMPTY)

    def bracket(self, a, b):
        """[a,b] as a linear combination; antisymmetry fills missing mirrors."""
        return dict(self._entry(a, b))

    # -- validation -------------------------------------------------------

    def validate(self):
        """Exhaustive check of all DGL axioms up to truncation.

        Checks run in a fixed order over the basis order, so the violation
        reported is the first one.  A case whose two sides are both sums over
        zero brackets and zero differentials is 0 = 0 and is skipped.
        """
        N = self.truncation
        deg = self.degree_of
        names = self.names
        table = self.table
        diff = self.differential
        for (a, b), combo in self.brackets.items():
            want = deg[a] + deg[b]
            for z in combo:
                if deg[z] != want:
                    return CheckReport.violation(
                        "bracket-degree",
                        "[%s,%s] has a term %s of degree %d, expected %d"
                        % (a, b, z, deg[z], want))
        for x, combo in diff.items():
            want = deg[x] - 1
            if want < 1 and combo:
                return CheckReport.violation(
                    "differential-degree", "d(%s) must vanish in degree %d" % (x, want))
            for z in combo:
                if deg[z] != want:
                    return CheckReport.violation(
                        "differential-degree",
                        "d(%s) has a term %s of degree %d, expected %d"
                        % (x, z, deg[z], want))
        # only a pair with both orientations stored can break antisymmetry
        for a in names:
            for b, combo in table[a].items():
                if combo != self._mirror(b, a, table[b][a]):
                    return CheckReport.violation(
                        "antisymmetry", "[%s,%s] != -(-1)^(|%s||%s|) [%s,%s]"
                        % (a, b, a, b, b, a))
        for x in names:
            dx = diff.get(x)
            if dx and combine((diff.get(y, EMPTY), v) for y, v in dx.items()):
                return CheckReport.violation("d-squared", "d^2(%s) != 0" % x)
        for a in names:
            da, row_a, d_a = deg[a], table[a], diff.get(a, EMPTY)
            s = 1 if da % 2 else -1
            for b in names:
                if da + deg[b] > N:
                    continue
                ab, d_b = row_a.get(b, EMPTY), diff.get(b, EMPTY)
                if not (ab or d_a or d_b):
                    continue
                # d[a,b] - [da,b] - (-1)^|a| [a,db]
                if combine(chain(
                        ((diff.get(u, EMPTY), c) for u, c in ab.items()),
                        ((table[x].get(b, EMPTY), -v) for x, v in d_a.items()),
                        ((row_a.get(y, EMPTY), s * v) for y, v in d_b.items()))):
                    return CheckReport.violation(
                        "leibniz", "d[%s,%s] != [d%s,%s] + (-1)^|%s| [%s,d%s]"
                        % (a, b, a, b, a, a, b))
        levels = sorted(set(deg.values()))
        upto = [[c for c in names if deg[c] <= lv] for lv in levels]
        for a in names:
            da, row_a = deg[a], table[a]
            for b in names:
                db = deg[b]
                k = bisect_right(levels, N - da - db)
                if not k:
                    continue
                ab, row_b = row_a.get(b, EMPTY), table[b]
                odd = (da * db) % 2
                for c in upto[k - 1]:
                    bc, ac = row_b.get(c, EMPTY), row_a.get(c, EMPTY)
                    if not (ab or bc or ac):
                        continue
                    # [a,[b,c]] - [[a,b],c] - (-1)^(|a||b|) [b,[a,c]], with
                    # the loop of linalg.combine written out: this is the
                    # O(n^3) part
                    acc = {}
                    for w, v in bc.items():
                        for z, x in row_a.get(w, EMPTY).items():
                            t = v * x
                            prev = acc.get(z)
                            acc[z] = t if prev is None else prev + t
                    for u, v in ab.items():
                        for z, x in table[u].get(c, EMPTY).items():
                            t = v * x
                            prev = acc.get(z)
                            acc[z] = -t if prev is None else prev - t
                    for w, v in ac.items():
                        v = v if odd else -v
                        for z, x in row_b.get(w, EMPTY).items():
                            t = v * x
                            prev = acc.get(z)
                            acc[z] = t if prev is None else prev + t
                    if any(acc.values()):
                        return CheckReport.violation(
                            "jacobi", "Jacobi fails on (%s,%s,%s)" % (a, b, c))
        return CheckReport.good()


class BasisMorphism:
    """Linear map given by images (sparse combinations) of basis elements.

    A map of DGLs, as tensor_morphism builds it, is a BasisMorphism with
    no check of its own; FiniteCdgaMorphism adds the check for maps of
    finite models."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {x: combine(((images.get(x, EMPTY), 1),))
                       for x in source.names}

    def apply(self, combo):
        return combine((self.images[x], v) for x, v in combo.items())

    def compose(self, inner):
        """self o inner (inner applied first), of the same kind as self."""
        if inner.target is not self.source:
            raise ValueError("composition mismatch")
        return type(self)(inner.source, self.target,
                          {x: self.apply(inner.images[x])
                           for x in inner.source.names})

    def is_identity(self):
        return all(self.images[x] == {x: QONE} for x in self.source.names)


# -- finite-dimensional CDGA models ---------------------------------------

MAX_X_BASIS = 64


def check_x_basis_size(n):
    """ValueError when an X-model basis of n elements exceeds MAX_X_BASIS:
    FiniteCdga.validate is cubic in the basis, and a free odd algebra on k
    generators has 2^k basis elements."""
    if n > MAX_X_BASIS:
        raise ValueError("X model has %d basis elements, above the limit %d"
                         % (n, MAX_X_BASIS))


class FiniteCdga:
    """Finite-dimensional graded-commutative algebra with differential.

    Presented by an ordered basis with degrees, a multiplication table and a
    differential table; A^0 = Q.unit and A^n = 0 above the top degree.  This
    is the shape of X-model the tensor construction consumes.
    """

    def __init__(self, basis, unit, mult, diff=None):
        self.names = []
        self.degree_of = {}
        for name, deg in basis:
            if name in self.degree_of:
                raise ValueError("duplicate basis name %r" % name)
            self.names.append(name)
            self.degree_of[name] = int(deg)
        if unit not in self.degree_of or self.degree_of[unit] != 0:
            raise ValueError("unit must be a degree-0 basis element")
        if sum(1 for n in self.names if self.degree_of[n] == 0) != 1:
            raise ValueError("A^0 must be one-dimensional")
        self.unit = unit
        self.top_degree = max(self.degree_of.values())
        self.mult = {}
        for (a, b), combo in mult.items():
            combo = combine(((combo, 1),))
            if combo:
                self.mult[(a, b)] = combo
        self.diff = {}
        if diff:
            for a, combo in diff.items():
                combo = combine(((combo, 1),))
                if combo:
                    self.diff[a] = combo

    def product(self, a, b):
        if a == self.unit:
            return {b: QONE}
        if b == self.unit:
            return {a: QONE}
        return dict(self.mult.get((a, b), {}))

    def product_lin(self, ca, cb):
        return combine((self.product(a, b), va * vb)
                       for a, va in ca.items() for b, vb in cb.items())

    def d(self, a):
        return dict(self.diff.get(a, {}))

    def d_lin(self, c):
        return combine((self.diff.get(a, EMPTY), v) for a, v in c.items())

    def basis_in_degree(self, n):
        return [x for x in self.names if self.degree_of[x] == n]

    def is_sphere(self):
        """A model of a sphere: one basis element besides the unit."""
        return len(self.names) == 2

    def odd_closed_classes(self):
        """The odd closed basis elements, lowest (degree, name) first."""
        return sorted((x for x in self.names
                       if self.degree_of[x] % 2 == 1 and not self.diff.get(x)),
                      key=lambda x: (self.degree_of[x], x))

    def validate(self):
        deg = self.degree_of
        for (a, b), combo in self.mult.items():
            for z in combo:
                if deg[z] != deg[a] + deg[b]:
                    return CheckReport.violation(
                        "degree", "%s*%s has a term of wrong degree" % (a, b))
        for a in self.names:
            for b in self.names:
                if deg[a] + deg[b] > self.top_degree:
                    if self.product(a, b):
                        return CheckReport.violation(
                            "top-degree", "%s*%s nonzero above top degree" % (a, b))
                    continue
                sign = 1 if (deg[a] * deg[b]) % 2 == 0 else -1
                if self.product(a, b) != combine([(self.product(b, a), sign)]):
                    return CheckReport.violation(
                        "commutativity", "%s*%s != (-1)^(|%s||%s|) %s*%s"
                        % (a, b, a, b, b, a))
        for a in self.names:
            for b in self.names:
                for c in self.names:
                    if deg[a] + deg[b] + deg[c] > self.top_degree:
                        continue
                    lhs = self.product_lin(self.product(a, b), {c: QONE})
                    rhs = self.product_lin({a: QONE}, self.product(b, c))
                    if lhs != rhs:
                        return CheckReport.violation(
                            "associativity", "(%s %s)%s != %s(%s %s)"
                            % (a, b, c, a, b, c))
        for a, combo in self.diff.items():
            for z in combo:
                if deg[z] != deg[a] + 1:
                    return CheckReport.violation(
                        "differential-degree", "d(%s) has wrong degree" % a)
        for a in self.names:
            if self.d_lin(self.d(a)):
                return CheckReport.violation("d-squared", "d^2(%s) != 0" % a)
        for a in self.names:
            for b in self.names:
                if deg[a] + deg[b] + 1 > self.top_degree:
                    continue
                lhs = self.d_lin(self.product(a, b))
                rhs = combine([(self.product_lin(self.d(a), {b: QONE}), 1),
                               (self.product_lin({a: QONE}, self.d(b)),
                                (-1) ** deg[a])])
                if lhs != rhs:
                    return CheckReport.violation(
                        "leibniz", "d(%s*%s) fails Leibniz" % (a, b))
        return CheckReport.good()

    @classmethod
    def point(cls):
        return cls([("1", 0)], "1", {})

    @classmethod
    def sphere(cls, p):
        """H^*(S^p) = Q.1 + Q.t with t^2 = 0 and zero differential."""
        if p < 1:
            raise ValueError("sphere dimension must be >= 1")
        return cls([("1", 0), ("t", p)], "1", {("t", "t"): {}})

    @classmethod
    def from_free_odd(cls, cdga):
        """Tables of a free CDGA all of whose generators are odd (hence finite)."""
        for name in cdga.names:
            if cdga.gen_degree(name) % 2 == 0:
                raise ValueError("from_free_odd needs all generators odd")
        monos = []
        top = sum(cdga.degrees)
        if cdga.truncation < top:
            raise ValueError(
                "from_free_odd needs truncation >= %d, the top degree" % top)
        for n in range(0, top + 1):
            monos.extend(cdga.degree_basis(n))
        mono_name = {}
        for m in monos:
            nm = "1" if not m else "".join(cdga.names[i] for i, _ in m)
            if nm in mono_name.values():
                raise ValueError("basis name collision %r" % nm)
            mono_name[m] = nm
        basis = [(mono_name[m], cdga.monomial_degree(m)) for m in monos]
        mult = {}
        diff = {}
        for m1 in monos:
            for m2 in monos:
                s, m = cdga.mul_monomials(m1, m2)
                if s and m in mono_name:
                    mult[(mono_name[m1], mono_name[m2])] = {mono_name[m]: s}
            img = cdga.d(Poly({m1: QONE})) if cdga.monomial_degree(m1) + 1 <= cdga.truncation else Poly()
            combo = {}
            for mm, c in img.items():
                combo[mono_name[mm]] = c
            if combo:
                diff[mono_name[m1]] = combo
        return cls(basis, "1", mult, diff)


class FiniteCdgaMorphism(BasisMorphism):
    """Map of finite-dimensional models given on basis elements."""

    def check(self):
        deg_s, deg_t = self.source.degree_of, self.target.degree_of
        for a in self.source.names:
            for z in self.images[a]:
                if deg_t[z] != deg_s[a]:
                    return CheckReport.violation("degree", "image of %s" % a)
        if self.images[self.source.unit] != {self.target.unit: QONE}:
            return CheckReport.violation("unit", "unit is not preserved")
        for a in self.source.names:
            for b in self.source.names:
                if deg_s[a] + deg_s[b] > self.source.top_degree:
                    continue
                lhs = self.apply(self.source.product(a, b))
                rhs = self.target.product_lin(self.images[a], self.images[b])
                if lhs != rhs:
                    return CheckReport.violation(
                        "multiplicative", "q(%s*%s) != q(%s)q(%s)" % (a, b, a, b))
        for a in self.source.names:
            lhs = self.apply(self.source.d(a))
            rhs = self.target.d_lin(self.images[a])
            if lhs != rhs:
                return CheckReport.violation("cochain", "fails at %s" % a)
        return CheckReport.good()


# -- free graded Lie algebras inside the tensor algebra -------------------

def tensor_commutator(e1, d1, e2, d2):
    """[u,v] = uv - (-1)^{|u||v|} vu inside the tensor algebra, for tensors
    {word: coefficient} of degrees d1 and d2.  The coefficients are summed
    as they are: int tensors give an int tensor, Fraction ones a Fraction
    one.  Keys come in the order of the terms of uv, then of vu."""
    odd = (d1 * d2) % 2
    out = {}
    for u, v, flip in ((e1, e2, False), (e2, e1, not odd)):
        for wu, cu in u.items():
            if flip:
                cu = -cu
            for wv, cv in v.items():
                w = wu + wv
                t = cu * cv
                prev = out.get(w)
                out[w] = t if prev is None else prev + t
    return {w: c for w, c in out.items() if c}


def _tensor_coordinates(reps, names_by_degree):
    """coords(deg, e): the combination {name: c} of the degree-deg basis
    elements whose tensors reps[name] sum to the tensor e, or None if e is
    outside their span.  One tagged span per degree, as in
    gca.Cdga.class_coordinates: the k-th basis tensor is added with a 1 in
    tag column k, and the tag entries of a residue are minus the
    coordinates."""
    spans = {}

    def coords(deg, e):
        if deg not in spans:
            names = names_by_degree.get(deg, [])
            words = sorted({w for nm in names for w in reps[nm]})
            pos = {w: i for i, w in enumerate(words)}
            span = EchelonSpan(len(words) + len(names))
            for k, nm in enumerate(names):
                col = {pos[w]: c for w, c in reps[nm].items()}
                col[len(words) + k] = QONE
                span.add(col)
            spans[deg] = (names, pos, span)
        names, pos, span = spans[deg]
        if any(w not in pos for w in e):
            return None
        res = span.residue({pos[w]: c for w, c in e.items()})
        dim = len(pos)
        if min(res, default=dim) < dim:
            return None
        return {nm: -res[dim + k] for k, nm in enumerate(names)
                if dim + k in res}
    return coords


def _independent(tagged):
    """The (tag, tensor) pairs of one degree whose tensors are independent of
    the tensors before them."""
    words = sorted({w for _, e in tagged for w in e})
    pos = {w: i for i, w in enumerate(words)}
    span = EchelonSpan(len(words))
    return [(tag, e) for tag, e in tagged
            if span.add({pos[w]: c for w, c in e.items()})]


def free_lie(generators, truncation):
    """The free graded Lie algebra L(V) realized inside the tensor algebra.

    Basis per degree is grown by spanning iterated commutators of generators
    and eliminating linear dependence; the bracket table is read back as
    coordinates over the basis tensors.  Simple and provably correct at desk
    scale, no Lyndon-word machinery.

    Layer k, the brackets of k letters, is spanned by [v, e] for v a
    generator and e in layer k-1 alone: by the Jacobi identity
    [[u,w],e] = [u,[w,e]] - (-1)^{|u||w|} [w,[u,e]] and induction on the
    length of the left factor, every bracket of k letters is a combination
    of right-normed ones [v_1,[v_2,...,v_k]], so L_k = [V, L_{k-1}] in each
    degree.  Spanning by every [layer i, layer k-i] gives the same layer:
    its i = 1 candidates come first in each degree and already span, so the
    greedy pass keeps the same independent ones among them and rejects
    every later candidate.  Names, basis tensors and bracket table are the
    same.

    The candidates of a degree are a basis as they stand: layer k holds
    commutators of k letters, which live on words of length k, so tensors
    of different layers have disjoint supports; and every layer is an
    independent set per degree, layer 1 being distinct letters and each
    later one pruned.  Their union is independent, so it is never
    eliminated a second time.

    Iterated commutators of the letters {(i,): 1} have integer
    coefficients, so the spanning tensors are int tensors throughout.
    Fractions appear only in the basis tensors L.tensor_reps, each a
    spanning tensor e divided by its coefficient at its least word, and in
    the bracket table: the coordinates of the int commutator [e_a, e_b]
    divided by the two leading coefficients.
    """
    N = int(truncation)
    gens = [(name, int(deg)) for name, deg in generators]
    if any(deg < 1 for _, deg in gens):
        raise ValueError("generator degrees must be >= 1")
    if gens and max(deg for _, deg in gens) > N:
        raise ValueError("truncation below a generator degree")

    def prune(elems_with_degree):
        """Keep a linearly independent subset, degree by degree, in order."""
        by_deg = {}
        for d, e in elems_with_degree:
            by_deg.setdefault(d, []).append((d, e))
        kept = []
        for d in sorted(by_deg):
            kept.extend(_independent(by_deg[d]))
        return kept

    # spanning elements, layered by bracket length: layer k is spanned by
    # [generator, layer k-1]; [V, span S] spans [V, S], so pruning each
    # layer to an independent set is harmless
    layers = {1: [(deg, {(i,): 1}) for i, (_, deg) in enumerate(gens)]}
    max_len = N // min(deg for _, deg in gens) if gens else 0
    for k in range(2, max_len + 1):
        layer = []
        for d1, e1 in layers[1]:
            for d2, e2 in layers[k - 1]:
                if d1 + d2 > N:
                    continue
                e = tensor_commutator(e1, d1, e2, d2)
                if e:
                    layer.append((d1 + d2, e))
        layers[k] = prune(layer)

    # degreewise bases; generators keep their names, higher brackets are b<deg>_<i>
    basis = []
    reps = {}
    spanning = {}
    per_degree_count = {}
    for deg in range(1, N + 1):
        candidates = []
        for k in sorted(layers):
            for d, e in layers[k]:
                if d == deg:
                    candidates.append((k, e))
        for k, e in candidates:
            if k == 1:
                word = next(iter(e))
                name = gens[word[0]][0]
            else:
                i = per_degree_count.get(deg, 0)
                name = "b%d_%d" % (deg, i)
                per_degree_count[deg] = i + 1
            lead = e[min(e)]
            basis.append((name, deg))
            spanning[name] = (e, lead)
            reps[name] = {w: Fraction(c, lead) for w, c in e.items()}

    # bracket table as coordinates over the basis tensors
    names_by_degree = {}
    for name, deg in basis:
        names_by_degree.setdefault(deg, []).append(name)
    coords = _tensor_coordinates(reps, names_by_degree)
    brackets = {}
    order = {name: i for i, (name, _) in enumerate(basis)}
    for a, da in basis:
        ea, lead_a = spanning[a]
        for b, db in basis:
            if order[b] < order[a] or da + db > N:
                continue
            eb, lead_b = spanning[b]
            e = tensor_commutator(ea, da, eb, db)
            if not e:
                continue
            combo = coords(da + db, e)
            if combo is None:
                raise DglError("free Lie bracket escaped the computed basis")
            if combo:
                # [rep_a, rep_b] = e / (lead_a lead_b)
                scale = lead_a * lead_b
                brackets[(a, b)] = combo if scale == 1 else {
                    z: c / scale for z, c in combo.items()}
    L = Dgl(basis, brackets, {}, N)
    L.tensor_reps = reps
    return L


def add_differential(L, images):
    """Copy of L with the given differential (validated by the caller)."""
    out = Dgl(list(zip(L.names, (L.degree_of[n] for n in L.names))),
              L.brackets, images, L.truncation)
    out.factorization = L.factorization
    if hasattr(L, "tensor_reps"):
        out.tensor_reps = L.tensor_reps
    return out


def free_lie_differential(L, generator_images):
    """Free Lie algebra with the differential generated by generator values.

    generator_images maps generator names to linear combinations of basis
    elements of one degree lower; the differential is extended to every
    bracket basis element through the tensor-algebra Leibniz rule
    d(uv) = du v + (-1)^{|u|} u dv, so Leibniz and d^2 = 0 hold whenever
    they hold on the generators.
    """
    if not hasattr(L, "tensor_reps"):
        raise DglError("free_lie_differential needs a free_lie output")
    reps = L.tensor_reps
    gen_letter = {}
    for name, rep in reps.items():
        if len(rep) == 1:
            word = next(iter(rep))
            if len(word) == 1 and rep[word] == QONE:
                gen_letter[word[0]] = name
    letter_image = {}
    for gname, combo in generator_images.items():
        word = next(iter(reps[gname]))
        letter_image[word[0]] = combine((reps[n2], v)
                                        for n2, v in combo.items())

    def d_tensor(elt):
        # the loop of linalg.combine, written out: one term per image term
        out = {}
        for word, coeff in elt.items():
            prefix_deg = 0
            for i, letter in enumerate(word):
                img = letter_image.get(letter)
                if img:
                    sign = -1 if prefix_deg % 2 else 1
                    for w, c in img.items():
                        key = word[:i] + w + word[i + 1:]
                        t = sign * coeff * c
                        prev = out.get(key)
                        out[key] = t if prev is None else prev + t
                prefix_deg += L.degree_of[gen_letter[letter]]
        return {k: c for k, c in out.items() if c}

    names_by_degree = {}
    for n in L.names:
        names_by_degree.setdefault(L.degree_of[n], []).append(n)
    coords = _tensor_coordinates(reps, names_by_degree)
    images = {}
    for name in L.names:
        deg = L.degree_of[name]
        de = d_tensor(reps[name])
        if not de:
            continue
        combo = coords(deg - 1, de)
        if combo is None:
            raise DglError("differential escaped the free Lie basis at %s"
                           % name)
        if combo:
            images[name] = combo
    return add_differential(L, images)


# -- the tensor mapping-space model ----------------------------------------

def tensor_name(a_name, x_name, unit):
    return x_name if a_name == unit else "%s_%s" % (a_name, x_name)


def tensor_map_model(A, L):
    """Lie model A (x) L of the mapping space, with

        |a(x)l|  = -|a| + |l|
        [a(x)l, a'(x)l'] = (-1)^{|a'||l|} aa' (x) [l,l']
        D(a(x)l) = d_A a (x) l + (-1)^{|a|} a (x) d_L l

    Degrees <= 0 violate the connectivity hypothesis and raise.  The output
    is truncated at L.truncation - 2*top(A), the largest bound for which all
    brackets are computable from L's table.
    """
    p = A.top_degree
    N_out = L.truncation - 2 * p
    if N_out < 1:
        raise DglError("L's truncation is too small for top degree %d" % p)
    bad = []
    basis = []
    fact = {}
    name_of = {}
    for x in L.names:
        for a in A.names:
            deg = L.degree_of[x] - A.degree_of[a]
            if deg <= 0:
                bad.append((a, x, deg))
            elif deg <= N_out:
                nm = tensor_name(a, x, A.unit)
                basis.append((nm, deg))
                fact[nm] = (a, x)
                name_of[(a, x)] = nm
    if bad:
        raise ConnectivityError(
            "elements of nonpositive degree: %s"
            % ", ".join("%s(x)%s in degree %d" % t for t in bad))

    def embed(a_combo, x_combo):
        out = {}
        for a, va in a_combo.items():
            for x, vx in x_combo.items():
                key = (a, x)
                if key not in name_of:
                    raise DglError("tensor term %s(x)%s escaped the basis" % (a, x))
                out[name_of[key]] = va * vx
        return out

    brackets = {}
    order = {nm: i for i, (nm, _) in enumerate(basis)}
    for nm1, d1 in basis:
        a, x = fact[nm1]
        for nm2, d2 in basis:
            if order[nm2] < order[nm1] or d1 + d2 > N_out:
                continue
            a2, x2 = fact[nm2]
            lie = L.bracket(x, x2)
            if not lie:
                continue
            prod = A.product(a, a2)
            if not prod:
                continue
            sign = (-1) ** (A.degree_of[a2] * L.degree_of[x])
            combo = combine([(embed(prod, lie), sign)])
            if combo:
                brackets[(nm1, nm2)] = combo

    differential = {}
    for nm, d in basis:
        a, x = fact[nm]
        img = combine([(embed(A.d(a), {x: QONE}), 1),
                       (embed({a: QONE}, L.differential.get(x, {})),
                        (-1) ** A.degree_of[a])])
        if img:
            differential[nm] = img

    M = Dgl(basis, brackets, differential, N_out)
    M.factorization = (A, L, fact)
    return M


def tensor_morphism(phi, source, target):
    """phi (x) Id: A (x) L -> B (x) L for a map phi: A -> B of finite models.

    source and target are tensor_map_model outputs over A and B with the
    same L, possibly restricted; a(x)l goes to the sum of c.(b(x)l) over the
    terms c.b of phi(a).  A term outside the target's basis raises DglError.
    """
    if source.factorization is None:
        raise DglError("tensor_morphism needs a tensor_map_model source")
    fact = source.factorization[2]
    images = {}
    for nm in source.names:
        a, x = fact[nm]
        img = {}
        for b, c in phi.images[a].items():
            name = tensor_name(b, x, phi.target.unit)
            if name not in target.degree_of:
                raise DglError("tensor term %s(x)%s escaped the basis" % (b, x))
            img[name] = c
        images[nm] = img
    return BasisMorphism(source, target, images)


def fibration_model(M):
    """Projection to L (evaluation at the basepoint) and its section.

    proj is the augmentation A -> Q tensored with L, sect the unit Q -> A
    tensored with L; proj o sect = Id on L.
    """
    if M.factorization is None:
        raise DglError("fibration_model needs a tensor_map_model output")
    A, L, _ = M.factorization
    P = FiniteCdga.point()
    Lt = restrict_dgl(tensor_map_model(P, L), M.truncation)
    eps = FiniteCdgaMorphism(A, P, {A.unit: {P.unit: QONE}})
    unit = FiniteCdgaMorphism(P, A, {P.unit: {A.unit: QONE}})
    return tensor_morphism(eps, M, Lt), tensor_morphism(unit, Lt, M)


def restrict_dgl(L, truncation):
    """L with basis and tables cut down to the given lower truncation; a
    tensor model keeps its factorization on the names it keeps."""
    if truncation > L.truncation:
        raise ValueError("cannot extend a truncation")
    keep = [(n, L.degree_of[n]) for n in L.names if L.degree_of[n] <= truncation]
    brackets = {k: v for k, v in L.brackets.items()
                if L.degree_of[k[0]] + L.degree_of[k[1]] <= truncation}
    diff = {x: v for x, v in L.differential.items()
            if L.degree_of[x] <= truncation}
    out = Dgl(keep, brackets, diff, truncation)
    if L.factorization is not None:
        A, L0, fact = L.factorization
        out.factorization = (A, L0, {n: fact[n] for n, _ in keep})
    return out
