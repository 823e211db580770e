"""Approximate solver for additive dynamic programs under packing
constraints, via reduction to perfect-binary-tree labeling, a compact LP,
and randomized rounding."""

__version__ = "0.1.0"

from .core import (AdditiveDpInstance, Choice, DiagnosticsReport, Problem,
                   SolutionWitness, WitnessNode, check_packing,
                   evaluate_witness, instance_from_json, instance_to_json,
                   make_witness, validate_instance, witness_size)
from .rounding import (RoundingParams, SolveResult, solve_additive_dp,
                       violation_bound)

__all__ = [
    "AdditiveDpInstance", "Choice", "Problem", "WitnessNode",
    "SolutionWitness", "DiagnosticsReport", "validate_instance",
    "evaluate_witness", "witness_size", "check_packing", "make_witness",
    "instance_to_json", "instance_from_json",
    "RoundingParams", "SolveResult", "solve_additive_dp", "violation_bound",
]
