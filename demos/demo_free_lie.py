#!/usr/bin/env python3
# Free graded Lie algebras realized inside the tensor algebra, and their
# cochain algebras.  On one odd generator of degree 3 the bracket [a,a] is
# nonzero but [a,[a,a]] dies over Q (graded Jacobi gives 3[a,[a,a]] = 0),
# so the dimensions are 1, 1, 0 in degrees 3, 6, 9 -- and the cochains of
# the truncation realize the Sullivan model of the 4-sphere.

from rht.dgl import free_lie, free_lie_differential
from rht.cefunctor import ce_cochains

L = free_lie([("a", 3)], 9)
print("L(a), |a| = 3, dimensions by degree:", L.dims())
print("[a, a] =", L.bracket("a", "a"))
print("tensor representative of b6_0:", L.tensor_reps["b6_0"])
print("axioms check:", bool(L.validate()))

res = ce_cochains(free_lie([("a", 3)], 7), 8)
model = res.cdga
print("\ncochains of the degree-<=7 truncation:", model.generators)
print("d v7_0 =", model.poly_str(model.differential.images["v7_0"]),
      " (the 4-sphere)")
print("H ranks 0..6:", [model.cohomology(n)[0] for n in range(7)])

# two generators: three independent brackets in degree 6
L2 = free_lie([("a", 3), ("b", 3)], 6)
print("\nL(a, b): dimensions", L2.dims())

# a differential on generators propagates to the whole bracket basis
# through the tensor-level Leibniz rule (g odd, so [g,g] is nonzero)
L3 = free_lie([("g", 5), ("h", 11)], 22)
L3d = free_lie_differential(L3, {"h": L3.bracket("g", "g")})
print("\nL(g5, h11) with dh = [g,g]:")
for k, v in L3d.differential.items():
    print("  d %s = %s" % (k, v))
print("  axioms check:", bool(L3d.validate()))
