"""Exact voting-power analysis for multicameral legislatures.

Closed-form member critical numbers, arbitrary semivalue power indices,
weak-desirability rankings, and an exhaustive enumeration of the seat-count
lattice (``lattice``) that cross-validates every closed form.  All arithmetic
is exact: big integers and rationals throughout, no floating point on any
decision path.
"""

from .chambers import (
    CaseClass,
    CertificationMismatchError,
    ChamberSpec,
    MulticamSpec,
    classify_bicameral,
    compare_members,
    crossover_sizes,
    majority_quota,
)
from .combinat import binomial, binomial_row, member_signs
from .counting import CountVector
from .semivalues import (
    Dominance,
    Relation,
    WeightingVector,
    banzhaf,
    evaluate,
    point_mass,
    shapley_shubik,
    weak_desirability,
)
from .uslike import (
    PlayerClass,
    UsSpec,
    ranking,
    supermajority_scan,
)

__version__ = "1.0.0"

__all__ = [
    "CaseClass",
    "CertificationMismatchError",
    "ChamberSpec",
    "CountVector",
    "Dominance",
    "MulticamSpec",
    "PlayerClass",
    "Relation",
    "UsSpec",
    "WeightingVector",
    "banzhaf",
    "binomial",
    "binomial_row",
    "classify_bicameral",
    "compare_members",
    "crossover_sizes",
    "evaluate",
    "majority_quota",
    "member_signs",
    "point_mass",
    "ranking",
    "shapley_shubik",
    "supermajority_scan",
    "weak_desirability",
]
