"""Reference DGL axiom check and cochain differential, kept as test oracles.

These are the plain versions that ``rht.dgl.Dgl.validate`` and
``rht.cefunctor.ce_cochains`` replaced: every bracket is read from the stored
pairs ``L.brackets`` (the missing mirror filled by antisymmetry on each
call), every case up to the truncation is computed, and the quadratic part
of the cochain differential runs over all ordered pairs of basis elements.
They are slow and obviously exhaustive; the tests require the library to
give the same report and the same cochain images.  ``ce_images_by_product``
is ``ce_cochains``' differential as it was assembled before the product of
two generators was written out, one ``mul_monomials`` call and one halved
term per table entry; ``ce_cochains`` must give its images term for term,
in key order.

``free_lie_brackets`` and ``free_lie_differential_images`` read the bracket
table and the differential of a ``free_lie`` output the way ``rht.dgl`` did
before its tagged spans: one dense solve per bracket or image, against the
basis tensors of the target degree.  ``lc`` and ``tensor_commutator`` are
the plain sums ``rht.dgl`` used before ``rht.linalg.combine``, kept here so
the oracle shares no arithmetic with the code it checks.
``free_lie_reference`` is ``free_lie`` as it was before it worked on int
tensors and before it spanned layer k by [generator, layer k-1] alone:
Fraction tensors from the generators on, layer k spanned by every
[layer i, layer k-i], the basis tensors e / e[lead] and the bracket table
read off their commutators.

``tensor_map_model_reference`` is ``tensor_map_model`` as it was before it
read L's bracket table and A's products directly: a loop over every pair of
basis elements, each bracket through ``Dgl.bracket``, ``FiniteCdga.product``,
an embedding into the tensor names and ``combine``.  The library must give
its brackets and differential term for term, in key order.

``ce_generators`` names the generators of C*(L) as ``ce_cochains`` does, for
the tests that match them with L's basis.

``reduction_images`` and ``fibration_images`` build the maps that a map of
X-models induces on A (x) L by hand, as the odd-sphere reduction and
``fibration_model`` did before ``rht.dgl.tensor_morphism``: one loop per map,
the factorization of the restricted sphere model rebuilt from tensor names.
The library's reduction is the split of t alone and builds no map on A (x) L;
the tests build its I = i (x) Id and Q = q (x) Id with ``tensor_morphism``
to check the retract argument.  ``dgl_map_report`` is the DGL-map check
that ``tensor_morphism`` outputs are held to, on the plain sums above.
"""

from fractions import Fraction

import dense_oracle
from rht.dgl import (ConnectivityError, Dgl, DglError, _independent,
                     _tensor_coordinates)
from rht.gca import CheckReport, FreeGCA, Poly
from rht.linalg import combine

QZERO = Fraction(0)
QONE = Fraction(1)
HALF = Fraction(1, 2)


def lc(pairs=None):
    out = {}
    if pairs:
        for name, c in (pairs.items() if isinstance(pairs, dict) else pairs):
            c = Fraction(c)
            if c:
                out[name] = out.get(name, QZERO) + c
                if not out[name]:
                    del out[name]
    return out


def tensor_commutator(e1, d1, e2, d2):
    """[u,v] = uv - (-1)^{|u||v|} vu inside the tensor algebra, as a dict of
    Fractions keyed in order of first appearance (the terms of uv, then of
    vu), zeros dropped at the end."""
    sign = -1 if (d1 * d2) % 2 == 0 else 1
    out = {}
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            out[w1 + w2] = out.get(w1 + w2, QZERO) + Fraction(c1) * c2
    for w2, c2 in e2.items():
        for w1, c1 in e1.items():
            out[w2 + w1] = out.get(w2 + w1, QZERO) + sign * Fraction(c2) * c1
    return {w: c for w, c in out.items() if c}


def lc_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, QZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def lc_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def bracket(L, a, b):
    if (a, b) in L.brackets:
        return dict(L.brackets[(a, b)])
    if (b, a) in L.brackets:
        sign = -1 if (L.degree_of[a] * L.degree_of[b]) % 2 == 0 else 1
        return lc_scale(L.brackets[(b, a)], sign)
    return {}


def bracket_lin(L, ca, cb):
    out = {}
    for a, va in ca.items():
        for b, vb in cb.items():
            out = lc_add(out, lc_scale(bracket(L, a, b), va * vb))
    return out


def d_lin(L, c):
    out = {}
    for x, v in c.items():
        out = lc_add(out, lc_scale(L.differential.get(x, {}), v))
    return out


def validate(L):
    """Exhaustive check of all DGL axioms up to truncation."""
    N = L.truncation
    for (a, b), combo in L.brackets.items():
        want = L.degree_of[a] + L.degree_of[b]
        for z in combo:
            if L.degree_of[z] != want:
                return CheckReport.violation(
                    "bracket-degree",
                    "[%s,%s] has a term %s of degree %d, expected %d"
                    % (a, b, z, L.degree_of[z], want))
    for x, combo in L.differential.items():
        want = L.degree_of[x] - 1
        if want < 1 and combo:
            return CheckReport.violation(
                "differential-degree", "d(%s) must vanish in degree %d" % (x, want))
        for z in combo:
            if L.degree_of[z] != want:
                return CheckReport.violation(
                    "differential-degree",
                    "d(%s) has a term %s of degree %d, expected %d"
                    % (x, z, L.degree_of[z], want))
    for a in L.names:
        for b in L.names:
            da, db = L.degree_of[a], L.degree_of[b]
            if da + db > N:
                continue
            sign = -1 if (da * db) % 2 == 0 else 1
            mirror = lc_scale(bracket(L, b, a), sign)
            if bracket(L, a, b) != mirror:
                return CheckReport.violation(
                    "antisymmetry", "[%s,%s] != -(-1)^(|%s||%s|) [%s,%s]"
                    % (a, b, a, b, b, a))
    for x in L.names:
        dx = L.differential.get(x, {})
        if dx and d_lin(L, dx):
            return CheckReport.violation("d-squared", "d^2(%s) != 0" % x)
    for a in L.names:
        for b in L.names:
            da, db = L.degree_of[a], L.degree_of[b]
            if da + db > N:
                continue
            lhs = d_lin(L, bracket(L, a, b))
            rhs = lc_add(bracket_lin(L, L.differential.get(a, {}), {b: QONE}),
                         lc_scale(bracket_lin(L, {a: QONE},
                                              L.differential.get(b, {})),
                                  (-1) ** da))
            if lhs != rhs:
                return CheckReport.violation(
                    "leibniz", "d[%s,%s] != [d%s,%s] + (-1)^|%s| [%s,d%s]"
                    % (a, b, a, b, a, a, b))
    for a in L.names:
        for b in L.names:
            for c in L.names:
                da, db, dc = (L.degree_of[a], L.degree_of[b], L.degree_of[c])
                if da + db + dc > N:
                    continue
                lhs = bracket_lin(L, {a: QONE}, bracket(L, b, c))
                rhs = lc_add(bracket_lin(L, bracket(L, a, b), {c: QONE}),
                             lc_scale(bracket_lin(L, {b: QONE}, bracket(L, a, c)),
                                      (-1) ** (da * db)))
                if lhs != rhs:
                    return CheckReport.violation(
                        "jacobi", "Jacobi fails on (%s,%s,%s)" % (a, b, c))
    return CheckReport.good()


def ce_generators(L, N):
    """The generators (name, degree) of C*(L) truncated at N, and the map
    from a basis element x of L to the name of its generator v_x: the
    i-th element of degree |x| is v<|x|+1>_<i>, for |x| + 1 <= N."""
    gens = []
    gen_of = {}
    counters = {}
    for x in L.names:
        d = L.degree_of[x] + 1
        if d > N:
            continue
        i = counters.get(d, 0)
        counters[d] = i + 1
        name = "v%d_%d" % (d, i)
        gens.append((name, d))
        gen_of[x] = name
    return gens, gen_of


def ce_images(L, N):
    """Generator name -> d(v) of C*(L) truncated at N, with no validation."""
    gens, gen_of = ce_generators(L, N)
    carrier = FreeGCA(gens)
    deg = L.degree_of
    images = {}
    for z in L.names:
        if z not in gen_of or deg[z] + 2 > N:
            continue
        img = Poly()
        for x in L.names:
            c = L.differential.get(x, {}).get(z)
            if c and x in gen_of:
                img = img + carrier.gen(gen_of[x]).scale(-c)
        for x in L.names:
            for y in L.names:
                if deg[x] + deg[y] != deg[z]:
                    continue
                if x not in gen_of or y not in gen_of:
                    continue
                c = bracket(L, x, y).get(z)
                if c:
                    tau = (-1) ** (deg[x] + 1)
                    term = carrier.multiply(carrier.gen(gen_of[x]),
                                            carrier.gen(gen_of[y]))
                    img = img + term.scale(HALF * tau * c)
        if img:
            images[gen_of[z]] = img
    return images


def ce_images_by_product(L, N):
    """Generator name -> d(v) of C*(L) truncated at N, assembled as
    ``rht.cefunctor.ce_cochains`` did before it wrote the product out: the
    linear part by a scan of d_L for each z, and a ``mul_monomials`` call,
    a halved Fraction and a one-term dict through ``combine`` for each
    quadratic term.  Its images, keys in order, are what ce_cochains must
    give on any input, valid or not."""
    gens, gen_of = ce_generators(L, N)
    carrier = FreeGCA(gens)
    deg = L.degree_of
    quadratic = {}
    for x in L.names:
        for y, combo in L.table[x].items():
            for z, c in combo.items():
                quadratic.setdefault(z, []).append((x, y, c))
    images = {}
    for z in L.names:
        if z not in gen_of or deg[z] + 2 > N:
            continue
        terms = []
        for x in L.names:
            c = L.differential.get(x, {}).get(z)
            if c and x in gen_of:
                terms.append(({((carrier.index[gen_of[x]], 1),): -c}, 1))
        for x, y, c in quadratic.get(z, ()):
            if deg[x] + deg[y] != deg[z]:
                continue
            s, m = carrier.mul_monomials(((carrier.index[gen_of[x]], 1),),
                                         ((carrier.index[gen_of[y]], 1),))
            if s:
                half = HALF if (s > 0) == (deg[x] % 2 == 1) else -HALF
                terms.append(({m: half * c}, 1))
        img = combine(terms)
        if img:
            images[gen_of[z]] = Poly(img)
    return images


def express_in_span(span_vectors, words, target):
    """Coordinates of target over span_vectors (dicts word->coeff), or None."""
    pos = {w: i for i, w in enumerate(words)}
    rows = [[QZERO] * len(span_vectors) for _ in words]
    for j, vec in enumerate(span_vectors):
        for w, c in vec.items():
            rows[pos[w]][j] = c
    b = [QZERO] * len(words)
    for w, c in target.items():
        b[pos[w]] = c
    return dense_oracle.solve(rows, b, len(span_vectors))


def _read_back(reps, targets, e):
    words = sorted({w for nm in targets for w in reps[nm]} | set(e))
    coords = express_in_span([reps[nm] for nm in targets], words, e)
    assert coords is not None, "escaped the basis"
    return {nm: c for nm, c in zip(targets, coords) if c}


def _names_by_degree(L):
    out = {}
    for n in L.names:
        out.setdefault(L.degree_of[n], []).append(n)
    return out


def free_lie_brackets(L):
    """The stored bracket table of a free_lie output, recomputed."""
    reps, deg = L.tensor_reps, L.degree_of
    by_degree = _names_by_degree(L)
    brackets = {}
    for i, a in enumerate(L.names):
        for b in L.names[i:]:
            if deg[a] + deg[b] > L.truncation:
                continue
            e = tensor_commutator(reps[a], deg[a], reps[b], deg[b])
            if e:
                combo = _read_back(reps, by_degree.get(deg[a] + deg[b], []), e)
                if combo:
                    brackets[(a, b)] = combo
    return brackets


def free_lie_differential_images(L, generator_images):
    """The differential images free_lie_differential(L, generator_images)
    stores, recomputed through the tensor-algebra Leibniz rule."""
    reps, deg = L.tensor_reps, L.degree_of
    letter_image, gen_letter = {}, {}
    for gname in L.names:
        word = next(iter(reps[gname]))
        if len(reps[gname]) == 1 and len(word) == 1:
            gen_letter[word[0]] = gname
    for gname, combo in generator_images.items():
        word = next(iter(reps[gname]))
        # basis tensors of one image may share words: their coefficients add
        image = {}
        for n2, v in lc(combo).items():
            for w, c in reps[n2].items():
                image[w] = image.get(w, QZERO) + c * v
        letter_image[word[0]] = {w: c for w, c in image.items() if c}
    images = {}
    for name in L.names:
        de = {}
        for word, coeff in reps[name].items():
            prefix_deg = 0
            for i, letter in enumerate(word):
                sign = -1 if prefix_deg % 2 else 1
                for w, c in letter_image.get(letter, {}).items():
                    key = word[:i] + w + word[i + 1:]
                    de[key] = de.get(key, QZERO) + sign * coeff * c
                prefix_deg += deg[gen_letter[letter]]
        de = {w: c for w, c in de.items() if c}
        if de:
            combo = _read_back(reps, _names_by_degree(L).get(deg[name] - 1, []),
                               de)
            if combo:
                images[name] = combo
    return images


def free_lie_reference(generators, truncation):
    """rht.dgl.free_lie as it was with Fraction tensors throughout: the
    same layers, candidate order and independence test, the basis tensors
    e / e[lead] and the bracket table read off [rep_a, rep_b]."""
    N = int(truncation)
    gens = [(name, int(deg)) for name, deg in generators]
    layers = {1: [(deg, {(i,): QONE}) for i, (_, deg) in enumerate(gens)]}
    max_len = N // min(deg for _, deg in gens) if gens else 0
    for k in range(2, max_len + 1):
        by_deg = {}
        for i in range(1, k):
            for d1, e1 in layers.get(i, []):
                for d2, e2 in layers.get(k - i, []):
                    if d1 + d2 > N:
                        continue
                    e = tensor_commutator(e1, d1, e2, d2)
                    if e:
                        by_deg.setdefault(d1 + d2, []).append((d1 + d2, e))
        layers[k] = [de for d in sorted(by_deg)
                     for de in _independent(by_deg[d])]
    basis, reps, per_degree_count = [], {}, {}
    for deg in range(1, N + 1):
        candidates = [(k, e) for k in sorted(layers)
                      for d, e in layers[k] if d == deg]
        for k, e in _independent(candidates):
            if k == 1:
                name = gens[next(iter(e))[0]][0]
            else:
                i = per_degree_count.get(deg, 0)
                name = "b%d_%d" % (deg, i)
                per_degree_count[deg] = i + 1
            lead = min(e)
            basis.append((name, deg))
            reps[name] = {w: c / e[lead] for w, c in e.items()}
    names_by_degree = {}
    for name, deg in basis:
        names_by_degree.setdefault(deg, []).append(name)
    coords = _tensor_coordinates(reps, names_by_degree)
    brackets = {}
    for i, (a, da) in enumerate(basis):
        for b, db in basis[i:]:
            if da + db > N:
                continue
            e = tensor_commutator(reps[a], da, reps[b], db)
            combo = coords(da + db, e) if e else {}
            assert combo is not None, "escaped the basis"
            if combo:
                brackets[(a, b)] = combo
    L = Dgl(basis, brackets, {}, N)
    L.tensor_reps = reps
    return L


def _tensor_name(a, x, unit):
    return x if a == unit else "%s_%s" % (a, x)


def _embed(B, a_combo, x):
    return {_tensor_name(a, x, B.unit): c for a, c in a_combo.items()}


def tensor_map_model_reference(A, L):
    """rht.dgl.tensor_map_model as it was before it read the bracket table
    and A's products directly: every pair of basis elements in basis order,
    each through L.bracket, A.product, an embedding of aa' (x) [l,l'] into
    the basis names and rht.linalg.combine with the sign (-1)^{|a'||l|}."""
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
                nm = _tensor_name(a, x, A.unit)
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


def reduction_images(i, q, M_A, M_T):
    """The images of I = i (x) Id: M_T -> M_A and Q = q (x) Id: M_A -> M_T
    for the splitting i: T -> A, q: A -> T of an odd sphere T."""
    T, A = i.source, i.target
    _, L, fact_A = M_A.factorization
    fact_T = {}
    for x in L.names:
        for a in T.names:
            nmx = _tensor_name(a, x, T.unit)
            if nmx in M_T.degree_of:
                fact_T[nmx] = (a, x)
    I_images = {}
    for nm in M_T.names:
        a, x = fact_T[nm]
        I_images[nm] = _embed(A, i.images[a], x)
    Q_images = {}
    for nm in M_A.names:
        a, x = fact_A[nm]
        Q_images[nm] = _embed(T, q.images[a], x)
    return I_images, Q_images


def fibration_images(M):
    """The images of the projection M -> L (the augmentation of A tensored
    with L) and of its section, with L cut to M's truncation."""
    A, L, fact = M.factorization
    proj_images = {}
    for nm in M.names:
        a, x = fact[nm]
        proj_images[nm] = {x: QONE} if a == A.unit else {}
    sect_images = {}
    for x in L.names:
        if L.degree_of[x] <= M.truncation:
            sect_images[x] = {_tensor_name(A.unit, x, A.unit): QONE}
    return proj_images, sect_images


def dgl_map_report(phi):
    """Degree 0, d phi = phi d and phi[x,y] = [phi x, phi y] up to the
    smaller truncation, for a map phi of DGLs given on basis elements."""
    L, M = phi.source, phi.target

    def apply(c):
        out = {}
        for x, v in c.items():
            out = lc_add(out, lc_scale(phi.images[x], v))
        return out

    for x in L.names:
        for z in phi.images[x]:
            if M.degree_of[z] != L.degree_of[x]:
                return CheckReport.violation(
                    "degree", "image of %s is not degree-preserving" % x)
    for x in L.names:
        if apply(L.differential.get(x, {})) != d_lin(M, phi.images[x]):
            return CheckReport.violation("cochain", "d phi != phi d at %s" % x)
    bound = min(L.truncation, M.truncation)
    for a in L.names:
        for b in L.names:
            if L.degree_of[a] + L.degree_of[b] > bound:
                continue
            if apply(bracket(L, a, b)) != bracket_lin(M, phi.images[a],
                                                      phi.images[b]):
                return CheckReport.violation(
                    "bracket", "phi[%s,%s] != [phi %s, phi %s]" % (a, b, a, b))
    return CheckReport.good()
