"""Exact critical numbers in games whose winning seat counts are a union of up-sets.

Members of one axis (a chamber, or a one-seat executive) are interchangeable,
so a coalition is counted by its seats on each axis.  The winning seat counts
are given by lower corners: a coalition wins when, for some corner, it holds
at least the corner's seats on every axis.  ``box_critical_vector`` counts a
player's critical coalitions, per coalition size, as a signed sum over the
corners' meets, each their coordinatewise max (``_terms``).  Each term is a
core, one binomial on the player's own axis, times the product of the other
axes' binomial row tails S(t) = sum_{lo<=x<=m} C(m, x) t^x, so every count
is an exact integer.

No row is built whole.  A tail satisfies (1+t) S' - m S = lo C(m, lo) t^(lo-1),
so the product of a set T of tails has a first-order recurrence whose right
side is products of its subsets, each a run of the same recurrence seeded
with one monomial's coefficient, down to single tails, which are ratio walks
c <- c (m - x) / (x + 1) (``_product``).  Every step of every run is a
small-integer multiply, an addition and a checked exact division, so no step
multiplies two big numbers, and every run must end at its seed, as every
C(m, m) is 1.  Runs grow as 2^|T|, so ``_counts`` lets a tail join T only
while it is long enough to pay for the doubling, and convolves the rest in
entry by entry (``_convolve``).

``box_critical_digits`` runs the same arithmetic in ``decimal`` under
``_EXACT``, which traps every rounding.  Every step is then linear in the
digits, as ``str`` of an integral ``Decimal`` is, where ``str`` of an
``int`` is quadratic; reports print from these digits.  ``SeatGame``, the
base of both spec types, derives a spec's classes, critical vectors and
their digits from its ``axes()`` and ``corners()``.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterable, Iterator, Mapping, Sequence
from decimal import Decimal
from operator import le

from .combinat import FrozenValue, binomial

# Big enough for any count that fits in memory, and every loss of digits
# raises: the digits run is exact or the call fails.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


class CountVector:
    """Exact per-coalition-size counts, stored sparsely with interval bounds."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[int, int] | None = None):
        self._counts: dict[int, int] = {}
        for k, v in (counts or {}).items():
            if k < 0:
                raise ValueError(f"coalition size must be >= 0, got {k}")
            if v < 0:
                raise ValueError(f"count at size {k} must be >= 0, got {v}")
            if v:
                self._counts[k] = v

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


def _convolve(a: list, b: list) -> list:
    """Exact convolution of two non-empty rows, entry by entry."""
    out = [0] * (len(a) + len(b) - 1)
    width = len(b)
    for i, x in enumerate(a):
        out[i:i + width] = [o + x * y for o, y in zip(out[i:i + width], b)]
    return out


_Corner = tuple[int, ...]
_Slice = tuple[int, int]  # (m, lo): C(m, lo..m)
_Term = tuple[int, int, list[_Slice]]  # (first size, core, slices)


def _plan(slices: tuple[_Slice, ...], seed, runs: list, index: dict) -> int:
    """Place in ``runs`` of the run of ``slices`` seeded with ``seed``, added
    after every run it reads.

    A run is (length, first exponent, sum of the m_i, first coefficient,
    seed, places of the runs it reads, slices).  Its first coefficient is
    seed C(m_1, lo_1) ... C(m_r, lo_r) and its last the seed, as every
    C(m_i, m_i) is 1.  A run is fixed by its slices and seed, so equal runs
    are planned once (``index``).
    """
    key = (slices, seed)
    if key not in index:
        num = type(seed)
        reads = []
        if len(slices) > 1:
            # R_i P_{T-i} starts one power below P_T: a run one step ahead.
            # A full row's R_i is 0.
            for i, (m, lo) in enumerate(slices):
                if lo:
                    child_seed = seed * num(lo * binomial(m, lo))
                    reads.append(_plan(slices[:i] + slices[i + 1:], child_seed, runs, index))
        first = seed
        for m, lo in slices:
            first *= num(binomial(m, lo))
        index[key] = len(runs)
        runs.append((sum(m - lo for m, lo in slices) + 1, sum(lo for _, lo in slices),
                     sum(m for m, _ in slices), first, seed, reads, slices))
    return index[key]


def _product(seed, slices: Sequence[_Slice]) -> list:
    """Coefficients lo_1+...+lo_r .. m_1+...+m_r of seed S_1 ... S_r, where
    the slices are tails (m_i, lo_i) and S_i(t) = sum_{lo_i<=x<=m_i} C(m_i, x) t^x.

    Each tail satisfies (1+t) S_i' - m_i S_i = R_i with R_i = lo_i C(m_i, lo_i)
    t^(lo_i-1), so for a set T of tails P_T = prod_{i in T} S_i satisfies
    (1+t) P_T' - (sum_{i in T} m_i) P_T = sum_{i in T} R_i P_{T-i}, and
    coefficient by coefficient

        (j+1) P_T[j+1] = (M_T - j) P_T[j] + [sum_{i in T} R_i P_{T-i}]_j.

    Each R_i P_{T-i} is a run of the same recurrence over T-i, seeded with the
    seed times the monomial's coefficient; a run of one tail reads nothing:
    it is the ratio walk c <- c (m - x) / (x + 1).  All runs step together,
    each after the runs it reads, so only the newest coefficient of each is
    held.  Every step is a small-integer multiply, an addition and a
    division by a small integer, in ``int``, or in ``Decimal`` under
    ``_EXACT`` when ``seed`` is a ``Decimal``.  A remainder, or a run that
    does not end at its seed, raises ``ArithmeticError``.  A tail from
    lo > 0 doubles the runs, and a full row (R_i = 0) adds none.

    >>> _product(2, [(4, 1)])
    [8, 12, 8, 2]
    >>> _product(1, [(3, 2), (2, 0)])
    [3, 7, 5, 1]
    """
    runs: list = []
    _plan(tuple(slices), seed, runs, {})
    values = [0] * len(runs)
    rounds = runs[-1][0] + 1  # the last run is the longest; + 1: its end checked
    steps = [_steps(k, values, rounds, *run) for k, run in enumerate(runs)]
    out = [values[-1] for _ in zip(*steps)]  # each round steps every run, in plan order
    return out[:-1]


def _steps(k: int, values: list, rounds: int, n: int, first: int, total: int, start, seed,
           reads: list[int], slices: tuple[_Slice, ...]) -> Iterator[None]:
    """One run of ``_product`` over ``rounds`` steps, one coefficient per step,
    kept in ``values[k]`` and read there from ``values[reads]``; 0 after its end."""
    name = f"walk along row {slices[0][0]}" if len(slices) == 1 else "slice product"
    get = values.__getitem__
    values[k] = v = start
    yield
    for j in range(first, first + n - 1):
        v *= total - j
        if reads:
            v += sum(map(get, reads))
        v, rem = divmod(v, j + 1)
        if rem:
            raise ArithmeticError(f"{name} is not exact at t^{j + 1}")
        values[k] = v
        yield
    if v != seed:
        raise ArithmeticError(f"{name} does not end at its seed")
    values[k] = 0
    for _ in range(rounds - n):
        yield


def _signed_meets(corners: Iterable[_Corner]) -> dict[_Corner, int]:
    """The union's indicator as a signed sum of the corners' meets, each the
    coordinatewise max of some corners, by inclusion-exclusion; equal meets
    merge and zero signs drop."""
    signs: dict[_Corner, int] = {}
    for corner in corners:
        for other, sign in list(signs.items()):
            meet = tuple(map(max, corner, other))
            signs[meet] = signs.get(meet, 0) - sign
        signs[corner] = signs.get(corner, 0) + 1
        signs = {c: s for c, s in signs.items() if s}
    return signs


def _terms(seats: Sequence[int], corners: Iterable[Sequence[int]], axis: int) -> list[_Term]:
    """(first size, core, slices) per term of a player's critical numbers when a
    coalition with a_i seats on each axis i passes exactly when some corner
    has a_i >= c_i on every axis; the term counts core S_1 ... S_r from that
    size on, each S_i(t) = sum_{c_i<=x<=m_i} C(m_i, x) t^x given as
    (m_i, c_i), longest first.

    A corner above an axis's seats holds no cell and is dropped.  A union of
    up-sets is monotone, so the player is critical exactly where the union's
    indicator steps up along ``axis``.  By inclusion-exclusion the indicator
    is a signed sum of the corners' meets, each an up-set, which steps up
    only in its layer a_axis = c_axis; unless c_axis is 0, that layer has the
    core +-C(m-1, c_axis-1) and the other axes' tails from the meet.
    """
    m = seats[axis]
    terms = []
    for corner, sign in _signed_meets(tuple(c) for c in corners if all(map(le, c, seats))).items():
        if a := corner[axis]:
            others = sorted(((seats[i], c) for i, c in enumerate(corner) if i != axis),
                            key=lambda s: s[0] - s[1], reverse=True)
            terms.append((sum(c for _, c in others) + a, sign * binomial(m - 1, a - 1), others))
    return terms


def _counts(terms: list[_Term], num: type) -> dict:
    """Every term summed, by size, in the number type ``num``: ``int``, or
    ``Decimal`` under ``_EXACT``.

    A tail of one entry (lo = m) is a factor of 1.  The others, longest
    first, join the set ``_product`` multiplies by its recurrence while the
    k-th such tail has at least 2^(k-1) entries, since each doubles the runs;
    a full row (lo = 0, R = 0) joins without a run of its own.  The remaining
    short tails are convolved into that product entry by entry.
    """
    counts: dict = {}
    for first, core, slices in terms:
        joint, short, runs = [], [], 1
        for m, lo in slices:
            if lo == m:
                continue
            if not lo:
                joint.append((m, lo))
            elif m - lo + 1 >= runs:
                joint.append((m, lo))
                runs *= 2
            else:
                short.append((m, lo))
        rest = _product(num(core), joint)
        for tail in short:
            rest = _convolve(rest, _product(num(1), [tail]))
        for k, v in enumerate(rest, first):
            counts[k] = counts.get(k, 0) + v
    return counts


def box_critical_vector(seats: Sequence[int], corners: Iterable[Sequence[int]],
                        axis: int) -> CountVector:
    """Exact critical numbers of one player on ``axis`` when a coalition with
    a_i seats on each axis i passes exactly when some corner has a_i >= c_i
    on every axis; ``_terms`` states the sum, ``_counts`` sums it.

    A single term's products may be negative, their sums are not.
    """
    return CountVector(_counts(_terms(seats, corners, axis), int))


def box_critical_digits(seats: Sequence[int], corners: Iterable[Sequence[int]],
                        axis: int) -> Iterator[tuple[int, str]]:
    """``box_critical_vector``'s counts as (size, decimal digits), by ascending size.

    The same runs go in ``decimal`` under ``_EXACT``, whose every step is
    linear in the digits, as ``str`` of an integral ``Decimal`` is; only the
    seeds convert from ``int``.  The caller's decimal context and int-string
    digit limit play no part.  Each count's digits are made as its pair is
    taken and the count dropped, so a caller that elides them never holds a
    class's digits at once.
    """
    with decimal.localcontext(_EXACT):
        counts = _counts(_terms(seats, corners, axis), Decimal)
    for k in sorted(counts):
        v = counts.pop(k)
        if v:
            yield k, str(v)


class SeatGame(FrozenValue):
    """A simple game counted in seats, stated by two methods of its subclass.

    ``axes()`` gives (class id, seats) per seat-count axis, in bit order.
    ``corners()`` gives the winning seat counts as lower corners, one seat
    count per axis: a coalition wins when, for some corner, it holds at least
    the corner's seats on every axis, so one more seat never loses.
    A subclass is a ``FrozenValue`` whose fields are its ``__slots__``.
    """

    __slots__ = ()

    @property
    def total_players(self) -> int:
        return sum(seats for _, seats in self.axes())

    def class_ids(self) -> tuple[str, ...]:
        """The ids of the axes with at least one seat, in axis order."""
        return tuple(name for name, seats in self.axes() if seats)

    def _corner_args(self, class_id: str) -> tuple[tuple[int, ...], list, int]:
        if class_id not in self.class_ids():
            raise ValueError(f"no player class {class_id!r}; the classes are "
                             f"{', '.join(self.class_ids())}")
        names, seats = zip(*self.axes())
        return seats, self.corners(), names.index(class_id)

    def critical_vector(self, class_id: str) -> CountVector:
        """Exact critical numbers of one player of the class, for every size."""
        return box_critical_vector(*self._corner_args(class_id))

    def critical_digits(self, class_id: str) -> Iterator[tuple[int, str]]:
        """``critical_vector(class_id)``'s counts as (size, decimal digits), by
        ascending size, in time linear in the digits (``box_critical_digits``)."""
        return box_critical_digits(*self._corner_args(class_id))
