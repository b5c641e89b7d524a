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

from .gca import Cdga, Poly

HALF = Fraction(1, 2)


class CeResult:
    """The Sullivan algebra C*(L) that ce_cochains builds.  The generator
    of x is v<|x|+1>_<i>, x the i-th basis element of its degree."""

    def __init__(self, cdga):
        self.cdga = cdga


def ce_cochains(L, N):
    """C*(L, d_L) truncated at cohomological degree N <= L.truncation + 1.

    A plain builder: L is not validated here but where it enters
    (mapmodel.check_hypotheses).  d^2 = 0 holds whenever L is a DGL, and
    A (x) L is one for a valid X-model A and a valid L.
    """
    if N > L.truncation + 1:
        raise ValueError("N may exceed L's truncation by at most 1")

    deg = L.degree_of
    gens = []
    gen_of = {}
    slot = {}  # x -> the index of v_x among the generators
    counters = {}
    for x in L.names:
        d = deg[x] + 1
        if d > N:
            continue
        i = counters.get(d, 0)
        counters[d] = i + 1
        name = "v%d_%d" % (d, i)
        slot[x] = len(gens)
        gens.append((name, d))
        gen_of[x] = name
    live = [z for z in L.names if deg[z] + 2 <= N]

    # linear part, one transpose pass over d_L with x in basis order:
    # z -> {v_x: -<z, d_L x>}, a distinct monomial per x
    linear = {z: {} for z in live}
    for x in slot:
        for z, c in L.differential.get(x, {}).items():
            if z in linear:
                linear[z][((slot[x], 1),)] = -c
    # quadratic part over the nonzero entries of the bracket table, (x, y)
    # in basis order: z -> {v_x v_y: the sum of the signed <z,[x,y]>}.  A
    # term of another degree than |x|+|y| can only come from invalid input
    # and is skipped; |x| + |y| + 2 <= N puts x and y in slot.
    quadratic = {z: {} for z in live}
    for x in L.names:
        dx = deg[x]
        for y, combo in L.table[x].items():
            dz = dx + deg[y]
            if dz + 2 > N:
                continue
            # v_x v_y as a normalized monomial m, written out: v_x is odd
            # when |x| is even, and two odd letters swap with a sign
            i, j = slot[x], slot[y]
            if i == j:
                if dx % 2 == 0:
                    continue
                m, s = ((i, 2),), 1
            elif i < j:
                m, s = ((i, 1), (j, 1)), 1
            else:
                m = ((j, 1), (i, 1))
                s = -1 if dx % 2 == 0 and deg[y] % 2 == 0 else 1
            # the term is s (-1)^(|x|+1) <z,[x,y]> / 2
            if dx % 2 == 0:
                s = -s
            for z, c in combo.items():
                if deg.get(z) != dz:
                    continue
                acc = quadratic[z]
                t = c if s > 0 else -c
                prev = acc.get(m)
                acc[m] = t if prev is None else prev + t
    # d(v_z): the linear monomials, then the quadratic ones in order of
    # first appearance, each sum halved once: the sum of the (+-c)/2 is
    # the sum of the +-c, halved, exactly over Q
    images = {}
    for z in live:
        img = linear[z]
        for m, c in quadratic[z].items():
            if c:
                img[m] = c * HALF
        if img:
            images[gen_of[z]] = Poly(img)
    cdga = Cdga(gens, images, N)
    return CeResult(cdga)

