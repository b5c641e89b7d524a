#!/usr/bin/env python3
# Thom's case: maps into an Eilenberg-MacLane space.  The target K(Q,4) has
# an abelian one-dimensional Lie model; the tensor construction hands back a
# polynomial algebra with zero differential, so the mapping space is a
# product of Eilenberg-MacLane spaces and in particular formal.

from rht.dgl import Dgl, FiniteCdga, tensor_map_model, fibration_model
from rht.cefunctor import ce_cochains
from rht.mapmodel import MapSpaceProblem
from rht.formality import formality_pipeline
from rht.gca import FreeGCA
from rht.quotient import ModelCohomology

# L(K(Q,4)) is Q in degree 3; X = S^2 has the two-element model {1, t}
L = Dgl([("l", 3)], {}, {}, 16)
A = FiniteCdga.sphere(2)

M = tensor_map_model(A, L)
print("tensor model basis:", [(n, M.degree_of[n]) for n in M.names])

proj, sect = fibration_model(M)
print("projection kills t(x)l:", proj.images["t_l"] == {})
print("proj o sect = Id:", proj.compose(sect).is_identity())

res = ce_cochains(M, 13)
print("\ncochains:", res.cdga.generators, "differential:",
      {k: v for k, v in res.cdga.differential.images.items() if v} or "zero")

prob = MapSpaceProblem(A, 2, y_dgl=L)
verdict = formality_pipeline(prob, 12)
print("\nverdict:", verdict.verdict, "| certificate:", verdict.certificate.kind)
print("free generator degrees:", verdict.certificate.generator_degrees)

H = ModelCohomology(verdict.certificate.model, 12)
free = FreeGCA([("a", 2), ("b", 4)])
print("ranks vs the monomial-counting oracle:",
      H.ranks(12) == [free.dim(n) for n in range(13)])
