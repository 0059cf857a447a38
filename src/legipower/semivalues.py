"""Power indices as exact weighting vectors over coalition sizes.

An index assigns each player the weighted sum of their critical numbers,
with one nonnegative rational weight per coalition size, normalised so that
sum(weight[k] * C(n-1, k-1)) == 1.  All arithmetic is exact; ranking
conclusions are order-sensitive, so no tolerance is ever applied.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import groupby

from .combinat import binomial, binomial_row
from .counting import CountVector


def _weighted_sum(terms: Iterable[tuple[Fraction, int]]) -> Fraction:
    """sum(w * v) over (weight, count) pairs, exactly.

    Numerators are added as integers across each run of equal denominators,
    so a run costs one ``Fraction``: a uniform vector costs one in all.
    """
    total = Fraction(0)
    for den, run in groupby(terms, key=lambda t: t[0].denominator):
        total += Fraction(sum(w.numerator * v for w, v in run), den)
    return total


@dataclass(frozen=True)
class WeightingVector:
    """Per-size weights (index k-1 holds the weight for coalition size k)."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if not self.weights:
            raise ValueError("a weighting vector needs at least one entry")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        total = _weighted_sum(zip(self.weights, binomial_row(len(self.weights) - 1)))
        if total != 1:
            raise ValueError(f"weights do not normalise: sum is {total}, expected 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight(self, size: int) -> Fraction:
        if not 1 <= size <= self.n:
            raise ValueError(f"size must be in [1, {self.n}], got {size}")
        return self.weights[size - 1]


def banzhaf(n: int) -> WeightingVector:
    """Uniform weights 1 / 2^(n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    w = Fraction(1, 2 ** (n - 1))
    return WeightingVector((w,) * n)


def shapley_shubik(n: int) -> WeightingVector:
    """Weights 1 / (n * C(n-1, k-1)); the values of a game sum to 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return WeightingVector(tuple(Fraction(1, n * c) for c in binomial_row(n - 1)))


def point_mass(n: int, size: int) -> WeightingVector:
    """All weight on one coalition size: weight 1 / C(n-1, size-1) there, 0 elsewhere."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= size <= n:
        raise ValueError(f"size must be in [1, {n}], got {size}")
    weights = [Fraction(0)] * n
    weights[size - 1] = Fraction(1, binomial(n - 1, size - 1))
    return WeightingVector(tuple(weights))


def evaluate(w: WeightingVector, cv: CountVector) -> Fraction:
    """Index value of a player with critical vector ``cv``: sum of weight(k) * cv[k]."""
    lo, hi = cv.k_min, cv.k_max
    if lo is not None and (lo < 1 or hi > w.n):
        raise ValueError(
            f"critical vector support [{lo}, {hi}] exceeds the index's player count {w.n}"
        )
    return _weighted_sum((w.weights[k - 1], v) for k, v in cv.items())


def competition_ranks(values: dict) -> list[tuple[int, object, Fraction]]:
    """(rank, key, value) from the highest value to the lowest.

    Equal values share the best rank of their group and the next group's rank
    skips past them (1, 2, 2, 4); tied keys stay in the order of ``values``.
    """
    ranked: list[tuple[int, object, Fraction]] = []
    for position, (key, value) in enumerate(sorted(values.items(), key=lambda kv: -kv[1]), 1):
        tied = ranked and ranked[-1][2] == value
        ranked.append((ranked[-1][0] if tied else position, key, value))
    return ranked


class Dominance(Enum):
    STRICTLY_ABOVE = "strictly-above"
    WEAKLY_ABOVE = "weakly-above"
    EQUAL = "equal"
    WEAKLY_BELOW = "weakly-below"
    STRICTLY_BELOW = "strictly-below"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Relation:
    """Outcome of the coordinatewise comparison of two critical vectors.

    ``witness`` is set only for INCOMPARABLE: the smallest size where the
    first vector is strictly ahead and the smallest where it is strictly
    behind.
    """

    kind: Dominance
    witness: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.kind is Dominance.INCOMPARABLE):
            raise ValueError("witness is present exactly for INCOMPARABLE relations")


def size_signs(ci: CountVector, cj: CountVector) -> dict[int, int]:
    """Sign of ci[k] - cj[k] at every size, ascending, where either vector is nonzero."""
    sizes = sorted(set(ci.support()) | set(cj.support()))
    return {k: (ci[k] > cj[k]) - (ci[k] < cj[k]) for k in sizes}


def weak_desirability(ci: CountVector, cj: CountVector) -> Relation:
    """Coordinatewise comparison of two critical vectors.

    STRICTLY_ABOVE requires ci[k] > cj[k] at every size where the two are not
    both zero; WEAKLY_ABOVE requires ci[k] >= cj[k] everywhere with a tie at
    some such size.  The BELOW kinds are the mirror images, and INCOMPARABLE
    reports a witness pair of sizes won by opposite sides.
    """
    signs = size_signs(ci, cj)
    above = [k for k, s in signs.items() if s > 0]
    below = [k for k, s in signs.items() if s < 0]
    if above and below:
        return Relation(Dominance.INCOMPARABLE, (above[0], below[0]))
    if not above and not below:
        return Relation(Dominance.EQUAL)
    strict = 0 not in signs.values()
    if above:
        return Relation(Dominance.STRICTLY_ABOVE if strict else Dominance.WEAKLY_ABOVE)
    return Relation(Dominance.STRICTLY_BELOW if strict else Dominance.WEAKLY_BELOW)
