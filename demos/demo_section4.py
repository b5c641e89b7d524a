#!/usr/bin/env python3
# The flagship worked example, end to end: maps from the 2-sphere into
# Y = K(Q,4) v K(Q,4).  Y is not a product of Eilenberg-MacLane spaces
# (its cohomology Q[x1,x2]/(x1x2) retains a relation), and still the
# mapping space is formal -- certified by a regular sequence.

from rht.gca import Cdga, FreeGCA
from rht.mapmodel import suspension_model
from rht.quotient import ModelCohomology
from rht.formality import koszul_formality, regular_sequence_check
from rht.workspace import print_algebra

# the minimal Sullivan model of Y: Lambda(x1, x2, y) with dy = x1 x2
gens = [("x1", 4), ("x2", 4), ("y", 7)]
carrier = Cdga(gens, {}, 26)
Y = Cdga(gens, {"y": carrier.multiply(carrier.gen("x1"),
                                      carrier.gen("x2"))}, 26)

print("H*(Y) ranks up to 24 (1 in degree 0, 2 in degrees 4k):")
H = ModelCohomology(Y, 24)
print("   ", H.ranks())

# the model of F(S^2, Y): double the generators, d(Sv) = (+1) S(dv) for p = 2
model = suspension_model(Y, 2)
print("\nthe six-generator model of the mapping space:")
print(print_algebra(model, "F"))

# (dy, dybar) is a regular sequence in Q[x1, x2, x1bar, x2bar] ...
evens = FreeGCA([(g, model.gen_degree(g)) for g in
                 ("x1", "x2", "x1_bar", "x2_bar")])
f1 = evens.multiply(evens.gen("x1"), evens.gen("x2"))
f2 = evens.multiply(evens.gen("x1_bar"), evens.gen("x2")) + \
    evens.multiply(evens.gen("x1"), evens.gen("x2_bar"))
ok, _ = regular_sequence_check(evens, [f1, f2], 20)
print("regular sequence up to degree 20:", ok)

# ... so the model is a Koszul complex, hence formal; the certificate builds
# rho, the quasi-isomorphism onto the quotient ring, when asked, and here it
# is checked against the model's cohomology
verdict = koszul_formality(model, 16)
print("verdict:", verdict.verdict, "| certificate:", verdict.certificate.kind)
qis, _ = verdict.certificate.rho.is_quasi_iso(16)
print("rho is a quasi-isomorphism up to degree 16:", qis)
