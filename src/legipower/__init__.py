"""Exact voting-power analysis for multicameral legislatures.

Closed-form member critical numbers, arbitrary semivalue power indices,
weak-desirability rankings, and a brute-force coalition-enumeration oracle
that cross-validates every closed form.  All arithmetic is exact: big
integers and rationals throughout, no floating point on any decision path.
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
    member_critical_vector,
)
from .combinat import (
    CertBasis,
    CertOutcome,
    CertVerdict,
    binomial,
    binomial_row,
    certify_comparison,
    count_ratio,
    critical_product_greater,
    growth_ratio,
)
from .counting import (
    CoalitionTemplate,
    CountVector,
    PoolConstraint,
    joint_quota_vector,
    sum_counts,
    template_counts,
)
from .semivalues import (
    Dominance,
    Relation,
    WeightingVector,
    banzhaf,
    distinguishing_indices,
    evaluate,
    point_mass,
    shapley_shubik,
    weak_desirability,
)
from .uslike import (
    PlayerClass,
    UsSpec,
    class_critical_vector,
    class_power,
    critical_templates,
    ranking,
    supermajority_scan,
    vp_rep_sign_table,
)

__version__ = "1.0.0"

__all__ = [
    "CaseClass",
    "CertBasis",
    "CertOutcome",
    "CertVerdict",
    "CertificationMismatchError",
    "ChamberSpec",
    "CoalitionTemplate",
    "CountVector",
    "Dominance",
    "MulticamSpec",
    "PlayerClass",
    "PoolConstraint",
    "Relation",
    "UsSpec",
    "WeightingVector",
    "banzhaf",
    "binomial",
    "binomial_row",
    "certify_comparison",
    "class_critical_vector",
    "class_power",
    "classify_bicameral",
    "compare_members",
    "count_ratio",
    "critical_product_greater",
    "critical_templates",
    "crossover_sizes",
    "distinguishing_indices",
    "evaluate",
    "growth_ratio",
    "joint_quota_vector",
    "majority_quota",
    "member_critical_vector",
    "point_mass",
    "ranking",
    "shapley_shubik",
    "sum_counts",
    "supermajority_scan",
    "template_counts",
    "vp_rep_sign_table",
    "weak_desirability",
]
