"""Exact-arithmetic models of mapping spaces and formality certificates."""

from .gca import Poly, FreeGCA, Derivation, Cdga, CdgaMorphism, TruncationError
from .linalg import EchelonSpan, kernel_basis
from .dgl import (Dgl, FiniteCdga, free_lie, free_lie_differential,
                  tensor_map_model, fibration_model)
from .cefunctor import ce_cochains
from .mapmodel import (MapSpaceProblem, check_hypotheses, suspension_model,
                       split_odd_generator, reduce_to_odd_sphere)
from .quotient import QuotientRing, ModelCohomology
from .formality import (formality_pipeline, free_cohomology_check,
                        regular_sequence_check, koszul_formality,
                        bigraded_model, lemma36_scan,
                        bigraded_bar_obstruction, FormalityVerdict)

__all__ = [
    "Poly", "FreeGCA", "Derivation", "Cdga", "CdgaMorphism", "TruncationError",
    "EchelonSpan", "kernel_basis",
    "Dgl", "FiniteCdga", "free_lie", "free_lie_differential",
    "tensor_map_model", "fibration_model",
    "ce_cochains",
    "MapSpaceProblem", "check_hypotheses", "suspension_model",
    "split_odd_generator", "reduce_to_odd_sphere",
    "QuotientRing", "ModelCohomology",
    "formality_pipeline", "free_cohomology_check", "regular_sequence_check",
    "koszul_formality", "bigraded_model", "lemma36_scan",
    "bigraded_bar_obstruction", "FormalityVerdict",
]
