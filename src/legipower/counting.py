"""Exact critical numbers in games whose winning seat counts form a union of boxes.

Members of one axis (a chamber, or a one-seat executive) are interchangeable,
so a coalition is counted by its seats on each axis.  ``box_critical_vector``
counts a player's critical coalitions, per coalition size, as a signed sum
over the boxes' intersections (``_terms``).  Each term is a core, one
binomial on the player's own axis, times the product of the other axes'
binomial row slices S(t) = sum_{lo<=x<=hi} C(m, x) t^x, so every count is
an exact integer.

No row is built whole.  A slice satisfies
(1+t) S' - m S = lo C(m, lo) t^(lo-1) - (m-hi) C(m, hi) t^hi, so the
product of a set T of slices has a first-order recurrence whose right side
is products of its subsets, each a run of the same recurrence, down to
single slices, which are ratio walks c <- c (m - x) / (x + 1) (``_product``).
Every step of every run is a small-integer multiply, an addition and a
checked exact division, so no step multiplies two big numbers, and every
run's last entry is compared with ``math.comb``.  Runs grow as 2^|T|, so
``_counts`` lets a slice join T only while it is long enough to pay for the
doubling, and convolves the rest in entry by entry (``_convolve``).

``box_critical_digits`` runs the same arithmetic in ``decimal`` under
``_EXACT``, which traps every rounding.  Every step is then linear in the
digits, as ``str`` of an integral ``Decimal`` is, where ``str`` of an
``int`` is quadratic; reports print from these digits.  ``SeatGame``, the
base of both spec types, derives a spec's classes, critical vectors and
their digits from its ``axes()`` and ``boxes()``.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterable, Iterator, Mapping, Sequence
from decimal import Decimal
from math import comb, prod

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


_Box = tuple[tuple[int, int], ...]
_Slice = tuple[int, int, int]  # (m, lo, hi): C(m, lo..hi)
_Term = tuple[int, int, list[_Slice]]  # (first size, core, slices)


def _plan(slices: tuple[_Slice, ...], seed, delay: int, runs: list, index: dict) -> int:
    """Place in ``runs`` of the run of ``slices`` seeded with ``seed`` and
    started ``delay`` steps late, added after every run it reads.

    A run is (delay, length, first exponent, sum of the m_i, first and last
    coefficient, places of the runs it reads, slices).  Its first coefficient
    is seed C(m_1, lo_1) ... C(m_r, lo_r), its last seed C(m_1, hi_1) ...
    C(m_r, hi_r) by ``math.comb``.  A run is fixed by its slices, seed and
    delay, so equal runs are planned once (``index``).
    """
    key = (slices, seed, delay)
    if key not in index:
        num = type(seed)
        reads = []
        if len(slices) > 1:
            for i, (m, lo, hi) in enumerate(slices):
                rest = slices[:i] + slices[i + 1:]
                # R_i P_{T-i}: t^(lo-1) reads the run one step ahead, t^hi
                # one started hi - lo + 1 steps late.
                for c, x, lag in ((lo, lo, 0), (hi - m, hi, hi - lo + 1)):
                    if c:
                        child_seed = seed * num(c * binomial(m, x))
                        reads.append(_plan(rest, child_seed, delay + lag, runs, index))
        first, last = seed, seed
        for m, lo, hi in slices:
            first *= num(binomial(m, lo))
            last *= num(comb(m, hi))
        index[key] = len(runs)
        runs.append((delay, sum(hi - lo for _, lo, hi in slices) + 1,
                     sum(lo for _, lo, _ in slices), sum(m for m, _, _ in slices),
                     first, last, reads, slices))
    return index[key]


def _product(seed, slices: Sequence[_Slice]) -> list:
    """Coefficients lo_1+...+lo_r .. hi_1+...+hi_r of seed S_1 ... S_r, where
    the slices are (m_i, lo_i, hi_i) and S_i(t) = sum_{lo_i<=x<=hi_i} C(m_i, x) t^x.

    Each slice satisfies (1+t) S_i' - m_i S_i = R_i with R_i = lo_i C(m_i, lo_i)
    t^(lo_i-1) - (m_i-hi_i) C(m_i, hi_i) t^hi_i, so for a set T of slices
    P_T = prod_{i in T} S_i satisfies (1+t) P_T' - (sum_{i in T} m_i) P_T =
    sum_{i in T} R_i P_{T-i}, and coefficient by coefficient

        (j+1) P_T[j+1] = (M_T - j) P_T[j] + [sum_{i in T} R_i P_{T-i}]_j.

    Each R_i P_{T-i} is a run of the same recurrence over T-i, seeded with the
    seed times the monomial's coefficient; a run of one slice reads nothing:
    it is the ratio walk c <- c (m - x) / (x + 1).  All runs step together,
    each after the runs it reads, so only the newest coefficient of each is
    held.  Every step is a small-integer multiply, an addition and a
    division by a small integer, in ``int``, or in ``Decimal`` under
    ``_EXACT`` when ``seed`` is a ``Decimal``.  A remainder, or a run's last
    coefficient other than its ``math.comb`` value, raises
    ``ArithmeticError``.  A slice whose R_i is one monomial, as a quota..size
    slice's is, doubles the runs, one with two monomials at most triples
    them, and a full row (R_i = 0) adds none.

    >>> _product(2, [(4, 1, 4)])
    [8, 12, 8, 2]
    >>> _product(1, [(3, 1, 2), (2, 0, 2)])
    [3, 9, 9, 3]
    """
    runs: list = []
    _plan(tuple(slices), seed, 0, runs, {})
    values = [0] * len(runs)
    rounds = max(run[0] + run[1] for run in runs) + 1  # + 1: every run's end checked
    steps = [_steps(k, values, rounds, *run) for k, run in enumerate(runs)]
    out = [values[-1] for _ in zip(*steps)]  # each round steps every run, in plan order
    return out[:runs[-1][1]]


def _steps(k: int, values: list, rounds: int, delay: int, n: int, first: int, total: int,
           start, end, reads: list[int], slices: tuple[_Slice, ...]) -> Iterator[None]:
    """One run of ``_product`` over ``rounds`` steps, one coefficient per step,
    kept in ``values[k]`` and read there from ``values[reads]``; 0 before and after."""
    name = f"walk along row {slices[0][0]}" if len(slices) == 1 else "slice product"
    get = values.__getitem__
    for _ in range(delay):
        yield
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
    if v != end:
        ends = " ".join(f"C({m}, {hi})" for m, _, hi in slices)
        raise ArithmeticError(f"{name} ends off {ends}")
    values[k] = 0
    for _ in range(rounds - delay - n):
        yield


def _signed_meets(boxes: Iterable[_Box]) -> dict[_Box, int]:
    """The union's indicator as a signed sum of the boxes' intersections, each
    a box, by inclusion-exclusion; equal intersections merge and zero signs drop."""
    signs: dict[_Box, int] = {}
    for box in boxes:
        for other, sign in list(signs.items()):
            meet = tuple((max(a, c), min(b, d)) for (a, b), (c, d) in zip(box, other))
            if all(lo <= hi for lo, hi in meet):
                signs[meet] = signs.get(meet, 0) - sign
        signs[box] = signs.get(box, 0) + 1
        signs = {b: s for b, s in signs.items() if s}
    return signs


def _cells(signs: Mapping[_Box, int]) -> int:
    """Number of lattice cells in the union a signed sum of boxes describes."""
    return sum(s * prod(hi - lo + 1 for lo, hi in box) for box, s in signs.items())


def _terms(seats: Sequence[int], boxes: Iterable[Sequence[tuple[int, int]]],
           axis: int) -> list[_Term]:
    """(first size, core, slices) per term of a player's critical numbers when a
    coalition with a_i seats on each axis i passes exactly when some box has
    lo_i <= a_i <= hi_i on every axis; the term counts core S_1 ... S_r from
    that size on, each S_i(t) = sum_{lo_i<=x<=hi_i} C(m_i, x) t^x given as
    (m_i, lo_i, hi_i), longest first.

    Boxes are clipped to 0..seats.  The union must be monotone along ``axis``
    (one more seat there never loses), so the player is critical exactly where
    the union's indicator steps up along that axis.  It is monotone there
    exactly when it has as many cells as the union of the boxes' up-closures
    along ``axis`` (each box's hi there raised to the axis's seats), which
    contains it; otherwise a ``RuntimeError`` names the first box whose
    up-closure leaves the union (the spec's boxes are at fault, not its
    input).  By inclusion-exclusion the indicator is a signed sum of the
    boxes' intersections, each a box.  Inside one box the step is +1 in the
    layer a_axis = lo and -1 in the layer a_axis = hi + 1; a layer at a
    seats, empty unless 1 <= a <= m, has the core +-C(m-1, a-1) and the other
    axes' slices, each cut to the box's range on its axis.
    """
    clipped = [tuple((max(lo, 0), min(hi, m)) for (lo, hi), m in zip(box, seats))
               for box in boxes]
    clipped = [box for box in clipped if all(lo <= hi for lo, hi in box)]
    m = seats[axis]

    def up(box: _Box) -> _Box:
        return box[:axis] + ((box[axis][0], m),) + box[axis + 1:]

    signs = _signed_meets(clipped)
    cells = _cells(signs)
    if _cells(_signed_meets(map(up, clipped))) != cells:
        first = next(b for b in clipped if _cells(_signed_meets([*clipped, up(b)])) != cells)
        raise RuntimeError(f"the boxes' union is not monotone along axis {axis}: box {first}, "
                           f"raised to its {m} seats there, leaves the union")
    terms = []
    for box, sign in signs.items():
        lo, hi = box[axis]
        others = sorted(((seats[i], lo_i, hi_i) for i, (lo_i, hi_i) in enumerate(box)
                         if i != axis), key=lambda s: s[2] - s[1], reverse=True)
        offset = sum(lo_i for _, lo_i, _ in others)
        terms += [(offset + a, s * binomial(m - 1, a - 1), others)
                  for a, s in ((lo, sign), (hi + 1, -sign)) if 0 < a <= m]
    return terms


def _counts(terms: list[_Term], num: type) -> dict:
    """Every term summed, by size, in the number type ``num``: ``int``, or
    ``Decimal`` under ``_EXACT``.

    A slice of one entry is a factor of the core.  The others, longest first,
    join the set ``_product`` multiplies by its recurrence while the k-th
    such slice has at least 2^(k-1) entries, since each doubles the runs; a
    full row (R = 0) joins without a run of its own.  The remaining short
    slices are convolved into that product entry by entry.
    """
    counts: dict = {}
    for first, core, slices in terms:
        seed, joint, short, runs = num(core), [], [], 1
        for m, lo, hi in slices:
            if lo == hi:
                seed *= num(binomial(m, lo))
            elif (lo, hi) == (0, m):
                joint.append((m, lo, hi))
            elif hi - lo + 1 >= runs:
                joint.append((m, lo, hi))
                runs *= 2
            else:
                short.append((m, lo, hi))
        rest = _product(seed, joint)
        for m, lo, hi in short:
            rest = _convolve(rest, _product(num(1), [(m, lo, hi)]))
        for k, v in enumerate(rest, first):
            counts[k] = counts.get(k, 0) + v
    return counts


def box_critical_vector(seats: Sequence[int], boxes: Iterable[Sequence[tuple[int, int]]],
                        axis: int) -> CountVector:
    """Exact critical numbers of one player on ``axis`` when a coalition with
    a_i seats on each axis i passes exactly when some box has lo_i <= a_i <= hi_i
    on every axis; ``_terms`` states the sum and its checks, ``_counts`` sums it.

    A single term's products may be negative, their sums are not.
    """
    return CountVector(_counts(_terms(seats, boxes, axis), int))


def box_critical_digits(seats: Sequence[int], boxes: Iterable[Sequence[tuple[int, int]]],
                        axis: int) -> Iterator[tuple[int, str]]:
    """``box_critical_vector``'s counts as (size, decimal digits), by ascending size.

    The same runs go in ``decimal`` under ``_EXACT``, whose every step is
    linear in the digits, as ``str`` of an integral ``Decimal`` is; only the
    seeds and the checked ends convert from ``int``.  The caller's decimal
    context and int-string digit limit play no part.  Each count's digits are
    made as its pair is taken and the count dropped, so a caller that elides
    them never holds a class's digits at once.
    """
    with decimal.localcontext(_EXACT):
        counts = _counts(_terms(seats, boxes, axis), Decimal)
    for k in sorted(counts):
        v = counts.pop(k)
        if v:
            yield k, str(v)


class SeatGame(FrozenValue):
    """A simple game counted in seats, stated by two methods of its subclass.

    ``axes()`` gives (class id, seats) per seat-count axis, in bit order.
    ``boxes()`` gives the winning seat counts as a union of boxes, one
    (lo, hi) range per axis; the union must be monotone along every axis (one
    more seat on any axis never turns a win into a loss), as
    ``box_critical_vector`` requires; it checks the axis of the class asked for.
    A subclass is a ``FrozenValue`` whose fields are its ``__slots__``.
    """

    __slots__ = ()

    @property
    def total_players(self) -> int:
        return sum(seats for _, seats in self.axes())

    def class_ids(self) -> tuple[str, ...]:
        """The ids of the axes with at least one seat, in axis order."""
        return tuple(name for name, seats in self.axes() if seats)

    def _box_args(self, class_id: str) -> tuple[tuple[int, ...], list, int]:
        if class_id not in self.class_ids():
            raise ValueError(f"no player class {class_id!r}; the classes are "
                             f"{', '.join(self.class_ids())}")
        names, seats = zip(*self.axes())
        return seats, self.boxes(), names.index(class_id)

    def critical_vector(self, class_id: str) -> CountVector:
        """Exact critical numbers of one player of the class, for every size."""
        return box_critical_vector(*self._box_args(class_id))

    def critical_digits(self, class_id: str) -> Iterator[tuple[int, str]]:
        """``critical_vector(class_id)``'s counts as (size, decimal digits), by
        ascending size, in time linear in the digits (``box_critical_digits``)."""
        return box_critical_digits(*self._box_args(class_id))
