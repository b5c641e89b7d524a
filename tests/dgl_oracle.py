"""Reference DGL axiom check and cochain differential, kept as test oracles.

These are the plain versions that ``rht.dgl.Dgl.validate`` and
``rht.cefunctor.ce_cochains`` replaced: every bracket is read from the stored
pairs ``L.brackets`` (the missing mirror filled by antisymmetry on each
call), every case up to the truncation is computed, and the quadratic part
of the cochain differential runs over all ordered pairs of basis elements.
They are slow and obviously exhaustive; the tests require the library to
give the same report and the same cochain images.
"""

from fractions import Fraction

from rht.gca import CheckReport, FreeGCA, Poly

QZERO = Fraction(0)
QONE = Fraction(1)
HALF = Fraction(1, 2)


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


def ce_images(L, N):
    """Generator name -> d(v) of C*(L) truncated at N, with no validation."""
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
