#!/usr/bin/env python3
# The negative direction: maps from an ODD sphere into a target whose
# cohomology is not free are never formal.  The witness is structural: in
# the barred bigraded model every differential is bar-linear, while any
# Lemma-3.6 witness for an even barred generator would need a power of
# bar-length >= 2.

from random import Random

from rht.gca import Cdga
from rht.quotient import ModelCohomology
from rht.formality import (BigradedModel, bigraded_model,
                           bigraded_bar_obstruction, lemma36_scan,
                           formality_pipeline)
from rht.mapmodel import MapSpaceProblem, suspension_model, bar_name
from rht.dgl import FiniteCdga

gens = [("x1", 5), ("x2", 5), ("y", 9)]
carrier = Cdga(gens, {}, 24)
Y = Cdga(gens, {"y": carrier.multiply(carrier.gen("x1"),
                                      carrier.gen("x2"))}, 24)

H = ModelCohomology(Y, 20)
print("H*(Y) ranks:", H.ranks())
print("(rank 2 in degree 14: x1*y and x2*y are closed but not exact)")

B = bigraded_model(H, 20)
print("\nbigraded resolution of H*(Y):")
for n in B.cdga.names:
    img = B.cdga.differential.images.get(n)
    print("  %s: degree %d, lower %d%s"
          % (n, B.cdga.gen_degree(n), B.lower[n],
             ", d = " + B.cdga.poly_str(img) if img else ""))

# the barred model: the suspension of B, each bar in the lower degree of
# its generator
susp = suspension_model(B.cdga, 3)
lower = dict(B.lower)
lower.update((bar_name(n), k) for n, k in B.lower.items())
barred = BigradedModel(susp, lower, None, ModelCohomology(susp))
cert, notes = bigraded_bar_obstruction(B, 3, Y, 20)
print("\nobstruction witness:", cert.witness,
      "(degree %d, lower %d)" % (barred.cdga.gen_degree(cert.witness),
                                 barred.lower[cert.witness]))

entries = lemma36_scan(barred, 20, rng=Random(3), random_combos=1)
print("lemma-3.6 scan:")
for e in entries:
    print("  %-24s %s" % (e.w, e.status))

prob = MapSpaceProblem(FiniteCdga.sphere(3), 3, y_cdga=Y)
verdict = formality_pipeline(prob, 20)
print("\npipeline verdict:", verdict.verdict,
      "| certificate:", verdict.certificate.kind)

# for the EVEN sphere the same machinery correctly refuses to conclude
B2 = bigraded_model(ModelCohomology(Y, 16), 16)
cert2, notes2 = bigraded_bar_obstruction(B2, 2, Y, 16)
print("same target, 2-sphere instead:", cert2, "-", notes2[0])
