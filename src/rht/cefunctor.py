"""Cochains on a DGL: the Sullivan algebra C*(L) of a DGL L, on objects only.

C*(L) has one generator v_x of degree |x|+1 per basis element x of L, and
d = d0 + d1 with d0 linear (dual of d_L) and d1 quadratic (dual of the
bracket).  The sign convention used on generator duals is

    d0(v_z) = - sum_x  <z, d_L x> v_x
    d1(v_z) = 1/2 sum_{x,y} (-1)^{|x|+1} <z, [x,y]> v_x v_y   (ordered pairs)

d^2 = 0 exactly when L satisfies the DGL axioms, and C* of the sphere tensor
model agrees on the nose with the bar/suspension construction on C*(L); both
facts are enforced by tests.  Any other consistent convention differs from
this one by rescaling generators.
"""

from fractions import Fraction

from .gca import Cdga, Poly, FreeGCA
from .linalg import combine

QONE = Fraction(1)
HALF = Fraction(1, 2)
MHALF = -HALF


class CeResult:
    """A Sullivan algebra with the dictionary back to the DGL basis."""

    def __init__(self, dgl, cdga, gen_of, basis_of):
        self.dgl = dgl            # the DGL whose cochains these are
        self.cdga = cdga
        self.gen_of = gen_of      # DGL basis name -> CDGA generator name
        self.basis_of = basis_of  # CDGA generator name -> DGL basis name


def ce_cochains(L, N):
    """C*(L, d_L) truncated at cohomological degree N <= L.truncation + 1.

    A plain builder: L is not validated here but where it enters
    (mapmodel.check_hypotheses).  d^2 = 0 holds whenever L is a DGL, and
    A (x) L is one for a valid X-model A and a valid L.
    """
    if N > L.truncation + 1:
        raise ValueError("N may exceed L's truncation by at most 1")

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
    basis_of = {v: x for x, v in gen_of.items()}
    carrier = FreeGCA(gens)
    deg = L.degree_of

    # z -> [(x, y, <z,[x,y]>)] over the nonzero entries of the bracket
    # table, (x, y) in basis order
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
            # a term of another degree can only come from invalid input;
            # deg[x], deg[y] < deg[z] <= N - 2 puts x and y in gen_of
            if deg[x] + deg[y] != deg[z]:
                continue
            s, m = carrier.mul_monomials(((carrier.index[gen_of[x]], 1),),
                                         ((carrier.index[gen_of[y]], 1),))
            if s:
                # s (-1)^(|x|+1) / 2, one Fraction product per term
                half = HALF if (s > 0) == (deg[x] % 2 == 1) else MHALF
                terms.append(({m: half * c}, 1))
        img = combine(terms)
        if img:
            images[gen_of[z]] = Poly(img)
    cdga = Cdga(gens, images, N)
    return CeResult(L, cdga, gen_of, basis_of)

