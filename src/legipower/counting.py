"""Counting families of coalitions built from fixed members plus pool picks.

A coalition family is described by a template: some members present in every
coalition, plus independent picks from pairwise-disjoint pools, each pick
constrained to a range.  Per-size counts are exact integers obtained by
convolving the pools' binomial rows.  ``box_critical_vector`` counts a
player's critical coalitions, in a game whose winning seat counts form a union
of boxes, as a signed sum of such families.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal

from .combinat import binomial, binomial_row

# Rows up to this many entries are convolved entry by entry; when both rows
# are longer, one big multiplication of the packed rows is faster (measured
# crossovers lie between 16 and 64 entries).
KRONECKER_MIN_LEN = 48

# Big enough for any product that fits in memory, and every loss of digits
# raises: the packed product is exact or the call fails.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


class CountVector:
    """Exact per-coalition-size counts, stored sparsely with interval bounds.

    Built from a mapping or from (size, count) pairs; pairs at a repeated size
    are summed, which is how disjoint coalition families are added up.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = counts.items() if isinstance(counts, Mapping) else counts
        store: dict[int, int] = {}
        for k, v in items:
            if k < 0:
                raise ValueError(f"coalition size must be >= 0, got {k}")
            if v < 0:
                raise ValueError(f"count at size {k} must be >= 0, got {v}")
            if v:
                store[k] = store.get(k, 0) + v
        self._counts = store

    def __getitem__(self, k: int) -> int:
        return self._counts.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CountVector):
            return self._counts == other._counts
        if isinstance(other, Mapping):
            return self._counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"CountVector({{{inner}}})"

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._counts.items())

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._counts))

    @property
    def k_min(self) -> int | None:
        return min(self._counts) if self._counts else None

    @property
    def k_max(self) -> int | None:
        return max(self._counts) if self._counts else None

    def total(self) -> int:
        return sum(self._counts.values())

    def to_dict(self) -> dict[int, int]:
        return dict(self._counts)


@dataclass(frozen=True)
class PoolConstraint:
    """Pick between min_pick and max_pick members from a pool of pool_size."""

    pool_size: int
    min_pick: int
    max_pick: int

    def __post_init__(self) -> None:
        if not 0 <= self.min_pick <= self.max_pick <= self.pool_size:
            raise ValueError(
                f"need 0 <= min_pick <= max_pick <= pool_size, got "
                f"({self.pool_size}, {self.min_pick}, {self.max_pick})"
            )


@dataclass(frozen=True)
class CoalitionTemplate:
    """Fixed members plus constrained picks from disjoint pools."""

    fixed_count: int
    pools: tuple[PoolConstraint, ...] = ()

    def __post_init__(self) -> None:
        if self.fixed_count < 0:
            raise ValueError(f"fixed_count must be >= 0, got {self.fixed_count}")
        object.__setattr__(self, "pools", tuple(self.pools))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Exact convolution of two non-empty rows of non-negative integers."""
    if min(len(a), len(b)) <= KRONECKER_MIN_LEN:
        out = [0] * (len(a) + len(b) - 1)
        width = len(b)
        for i, x in enumerate(a):
            out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], b)]
        return out
    return _kronecker_convolve(a, b)


def _kronecker_convolve(a: list[int], b: list[int]) -> list[int]:
    """Kronecker substitution: write each row as the base-10^w digits of one
    number, multiply once, and read the convolution off the product's digits.

    Every output entry is at most max(a) * max(b) * min(len(a), len(b)),
    which is below 10^w, so no entry carries into the next.  The rows travel
    as decimal strings through ``decimal`` (whose multiplication of large
    operands is a number-theoretic transform), which converts to and from
    ``int`` without the interpreter's limit on int-string conversion.
    """
    bits = (max(a) * max(b) * min(len(a), len(b))).bit_length()
    w = bits * 30103 // 100000 + 1  # 0.30103 > log10(2), so 10^w > 2^bits

    def pack(row: list[int]) -> Decimal:
        return Decimal("".join(str(Decimal(x)).zfill(w) for x in row))

    n_out = len(a) + len(b) - 1
    digits = str(_EXACT.multiply(pack(a), pack(b))).zfill(n_out * w)
    return [int(Decimal(digits[i:i + w])) for i in range(0, n_out * w, w)]


def template_counts(template: CoalitionTemplate) -> CountVector:
    """Per-size counts of the template's coalition family.

    The count at size k is the number of ways to pick a_p members from each
    pool p within its range with fixed_count + sum(a_p) == k: the convolution
    of the pools' binomial rows, shifted by the fixed members.
    """
    offset, acc = template.fixed_count, [1]
    for pool in template.pools:
        offset += pool.min_pick
        acc = _convolve(acc, binomial_row(pool.pool_size)[pool.min_pick:pool.max_pick + 1])
    return CountVector(enumerate(acc, offset))


def box_critical_vector(seats: Sequence[int], boxes: Iterable[Sequence[tuple[int, int]]],
                        axis: int) -> CountVector:
    """Exact critical numbers of one player on ``axis`` when a coalition with
    a_i seats on each axis i passes exactly when some box has lo_i <= a_i <= hi_i
    on every axis.

    Boxes are clipped to 0..seats.  The union must be monotone along ``axis``
    (one more seat there never loses), so the player is critical exactly where
    the union's indicator steps up along that axis.  By inclusion-exclusion the
    indicator is a signed sum of the boxes' intersections, each a box; equal
    intersections merge and zero signs drop.  Inside one box the step is +1 in
    the slice a_axis = lo and -1 in the slice a_axis = hi + 1; a slice at a
    seats, empty unless 1 <= a <= m, counts C(m-1, a-1) times
    ``template_counts`` of the other axes' ranges.  That core stays a scalar:
    as a pool of m-1 seats it would build the whole binomial row of m-1 (see
    ``test_one_large_chamber_at_the_bound_runs_in_bounded_memory``).
    """
    signs: dict[tuple[tuple[int, int], ...], int] = {}
    for box in boxes:
        box = tuple((max(lo, 0), min(hi, m)) for (lo, hi), m in zip(box, seats))
        if any(lo > hi for lo, hi in box):
            continue
        for other, sign in list(signs.items()):
            meet = tuple((max(a, c), min(b, d)) for (a, b), (c, d) in zip(box, other))
            if all(lo <= hi for lo, hi in meet):
                signs[meet] = signs.get(meet, 0) - sign
        signs[box] = signs.get(box, 0) + 1
        signs = {b: s for b, s in signs.items() if s}
    m, counts = seats[axis], {}
    for box, sign in signs.items():
        lo, hi = box[axis]
        slices = [(a, s * binomial(m - 1, a - 1)) for a, s in ((lo, sign), (hi + 1, -sign))
                  if 0 < a <= m]
        if not slices:
            continue
        rest = template_counts(CoalitionTemplate(0, tuple(
            PoolConstraint(n, *box[i]) for i, n in enumerate(seats) if i != axis)))
        for a, core in slices:
            for k, v in rest.items():
                counts[k + a] = counts.get(k + a, 0) + core * v
    # Summed first: single products may be negative, their sums are not.
    return CountVector(counts)
