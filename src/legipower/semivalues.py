"""Power indices as exact weighting vectors over coalition sizes.

An index assigns each player the weighted sum of their critical numbers,
with one nonnegative rational weight per coalition size, normalised so that
sum(weight[k] * C(n-1, k-1)) == 1.  All arithmetic is exact; ranking
conclusions are order-sensitive, so no tolerance is ever applied.

A ``WeightingVector`` holds its weights as integer numerators over one
positive denominator, in lowest terms, so the normalisation check and every
index value are one integer dot product and one ``Fraction``.  Shapley-Shubik
needs no large common denominator: since n*C(n-1, k-1) = k*C(n, k) and
lcm_k C(n, k) = lcm(1..n+1)/(n+1) (Farhi, Amer. Math. Monthly 116, 2009),
its weights 1/(n*C(n-1, k-1)) share the denominator lcm(1..n).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

from .combinat import FrozenValue, binomial, binomial_row
from .counting import CountVector


class WeightingVector(FrozenValue):
    """Per-size weights numerators[k-1] / denominator for coalition size k.

    The constructor brings the weights to lowest terms, so two vectors are
    equal exactly when their weights are.

    >>> WeightingVector((2, 1, 2), 6).weights
    (Fraction(1, 3), Fraction(1, 6), Fraction(1, 3))
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: Iterable[int], denominator: int) -> None:
        nums, den = tuple(numerators), denominator
        if not nums:
            raise ValueError("a weighting vector needs at least one entry")
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        if any(x < 0 for x in nums):
            raise ValueError("weights must be nonnegative")
        # Smallest first: the common factor shrinks fastest that way, and
        # ``math.gcd`` skips the rest once it reaches 1.
        common = math.gcd(den, *sorted(nums, key=int.bit_length))
        if common > 1:
            nums, den = tuple(x // common for x in nums), den // common
        super().__init__(nums, den)
        total = sum(x * c for x, c in zip(nums, binomial_row(len(nums) - 1)) if x)
        if total != den:
            raise ValueError(
                f"weights do not normalise: sum is {Fraction(total, den)}, expected 1")

    @classmethod
    def from_fractions(cls, weights: Iterable) -> WeightingVector:
        """The vector of exact rationals ``weights``, over the lcm of their denominators."""
        fractions = [Fraction(w) for w in weights]
        den = math.lcm(*(w.denominator for w in fractions))
        return cls(tuple(w.numerator * (den // w.denominator) for w in fractions), den)

    @property
    def n(self) -> int:
        return len(self.numerators)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    def weight(self, size: int) -> Fraction:
        if not 1 <= size <= self.n:
            raise ValueError(f"size must be in [1, {self.n}], got {size}")
        return Fraction(self.numerators[size - 1], self.denominator)


def banzhaf(n: int) -> WeightingVector:
    """Uniform weights 1 / 2^(n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return WeightingVector((1,) * n, 2 ** (n - 1))


def _lcm_upto(n: int) -> int:
    """lcm(1..n), as the product over primes p <= n of the largest power of p
    that is <= n; the primes come from a sieve of n + 1 bytes.

    >>> _lcm_upto(10)
    2520
    """
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    lcm = 1
    for p in itertools.compress(range(n + 1), sieve):
        power = p
        while power * p <= n:
            power *= p
        lcm *= power
    return lcm


def shapley_shubik(n: int) -> WeightingVector:
    """Weights 1 / (n * C(n-1, k-1)); the values of a game sum to 1.

    Over L = lcm(1..n) the numerator at size 1 is L/n, and each next one
    follows by the exact small-integer step of C(n-1, k-1) / C(n-1, k) = k/(n-k).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    den = _lcm_upto(n)
    nums = [den // n]
    for k in range(1, n):
        nums.append(nums[-1] * k // (n - k))
    return WeightingVector(tuple(nums), den)


def point_mass(n: int, size: int) -> WeightingVector:
    """All weight on one coalition size: weight 1 / C(n-1, size-1) there, 0 elsewhere."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 1 <= size <= n:
        raise ValueError(f"size must be in [1, {n}], got {size}")
    nums = [0] * n
    nums[size - 1] = 1
    return WeightingVector(tuple(nums), binomial(n - 1, size - 1))


def evaluate(w: WeightingVector, cv: CountVector) -> Fraction:
    """Index value of a player with critical vector ``cv``: sum of weight(k) * cv[k]."""
    lo, hi = cv.k_min, cv.k_max
    if lo is not None and (lo < 1 or hi > w.n):
        raise ValueError(
            f"critical vector support [{lo}, {hi}] exceeds the index's player count {w.n}"
        )
    return Fraction(sum(w.numerators[k - 1] * v for k, v in cv.items()), w.denominator)


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


class Relation(FrozenValue):
    """Outcome of the coordinatewise comparison of two critical vectors.

    ``witness`` is set only for INCOMPARABLE: the smallest size where the
    first vector is strictly ahead and the smallest where it is strictly
    behind.
    """

    __slots__ = ("kind", "witness")

    def __init__(self, kind: Dominance, witness: tuple[int, int] | None = None) -> None:
        super().__init__(kind, witness)
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
