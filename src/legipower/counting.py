"""Exact critical numbers in games whose winning seat counts form a union of boxes.

Members of one axis (a chamber, or a one-seat executive) are interchangeable,
so a coalition is counted by its seats on each axis.  ``box_critical_vector``
counts a player's critical coalitions, per coalition size, as a signed sum
over the boxes' intersections.  Each term is one binomial on the player's own
axis times the product of the other axes' binomial row slices
S(t) = sum_{lo<=x<=hi} C(m, x) t^x, so every count is an exact integer.

A slice satisfies (1+t) S' - m S = lo C(m, lo) t^(lo-1) - (m-hi) C(m, hi) t^hi,
so the product of two slices has a first-order recurrence whose every step
is a small-integer multiply and an exact division (``_slice_product``); the
two longest slices of a term are multiplied that way.  Any further slice is
convolved in by ``_convolve``: entry by entry when a row is short, and by
Kronecker substitution when both are longer than ``KRONECKER_MIN_LEN``, so
only for a term with three or more other slices that long.  ``SeatGame``, the
base of both spec types, derives a spec's classes and critical vectors from
its ``axes()`` and ``boxes()``.
"""

from __future__ import annotations

import decimal
import sys
from collections.abc import Iterable, Mapping, Sequence
from decimal import Decimal
from math import prod

from .combinat import FrozenValue, binomial, binomial_row

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
    which is below 10^w, so no entry carries into the next.  The packed rows
    are multiplied in ``decimal`` (a number-theoretic transform for large
    operands).  Entries and chunks of w digits convert with ``str`` and
    ``int`` while w is within the interpreter's limit on int-string
    conversion; past it they go through ``Decimal``, which has no limit but
    converts in quadratic time.
    """
    bits = (max(a) * max(b) * min(len(a), len(b))).bit_length()
    w = bits * 30103 // 100000 + 1  # 0.30103 > log10(2), so 10^w > 2^bits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or w <= limit:
        to_str, to_int = str, int
    else:
        to_str, to_int = (lambda x: str(Decimal(x))), (lambda s: int(Decimal(s)))

    def pack(row: list[int]) -> Decimal:
        return Decimal("".join(to_str(x).zfill(w) for x in row))

    n_out = len(a) + len(b) - 1
    digits = str(_EXACT.multiply(pack(a), pack(b))).zfill(n_out * w)
    return [to_int(digits[i:i + w]) for i in range(0, n_out * w, w)]


def _slice_product(m1: int, lo1: int, a: list[int], m2: int, lo2: int, b: list[int]
                   ) -> list[int]:
    """Coefficients lo1+lo2 .. hi1+hi2 of S1 * S2, where ``a`` = [C(m1, lo1),
    ..., C(m1, hi1)] and ``b`` = [C(m2, lo2), ..., C(m2, hi2)] are non-empty
    slices of binomial rows.

    Each slice S_i(t) = sum_{lo_i<=x<=hi_i} C(m_i, x) t^x satisfies
    (1+t) S_i' - m_i S_i = R_i with R_i = lo_i C(m_i, lo_i) t^(lo_i-1)
    - (m_i-hi_i) C(m_i, hi_i) t^hi_i, so P = S1 * S2 satisfies
    (1+t) P' - (m1+m2) P = R1 S2 + R2 S1, and coefficient by coefficient

        (j+1) P[j+1] = (m1+m2-j) P[j] + [R1 S2]_j + [R2 S1]_j

    from P[lo1+lo2] = C(m1, lo1) C(m2, lo2).  The right-hand terms are a few
    products of a row entry with a constant, and the division is exact: a
    remainder, or a last coefficient other than C(m1, hi1) C(m2, hi2), means
    the slices were not binomial, and raises ``ArithmeticError``.

    >>> _slice_product(3, 1, [3, 3], 2, 0, [1, 2, 1])
    [3, 9, 9, 3]
    """
    hi1, hi2 = lo1 + len(a) - 1, lo2 + len(b) - 1
    # rhs[i] = [R1 S2 + R2 S1] at t^(lo1+lo2+i), built one shifted row at a time.
    rhs = [0] * (len(a) + len(b) - 1)
    for c, row, start in ((lo1 * a[0], b[1:], 0), (-(m1 - hi1) * a[-1], b, len(a) - 1),
                          (lo2 * b[0], a[1:], 0), (-(m2 - hi2) * b[-1], a, len(b) - 1)):
        if c:
            end = start + len(row)
            rhs[start:end] = [x + c * y for x, y in zip(rhs[start:end], row)]
    p = a[0] * b[0]
    out = [p]
    for j, r in zip(range(lo1 + lo2, hi1 + hi2), rhs):
        p, rem = divmod((m1 + m2 - j) * p + r, j + 1)
        if rem:
            raise ArithmeticError(f"slice product step {j + 1} is not exact")
        out.append(p)
    if p != a[-1] * b[-1]:
        raise ArithmeticError(f"slice product ends at {p}, not C({m1}, {hi1}) C({m2}, {hi2})")
    return out


_Box = tuple[tuple[int, int], ...]


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


def box_critical_vector(seats: Sequence[int], boxes: Iterable[Sequence[tuple[int, int]]],
                        axis: int) -> CountVector:
    """Exact critical numbers of one player on ``axis`` when a coalition with
    a_i seats on each axis i passes exactly when some box has lo_i <= a_i <= hi_i
    on every axis.

    Boxes are clipped to 0..seats.  The union must be monotone along ``axis``
    (one more seat there never loses), so the player is critical exactly where
    the union's indicator steps up along that axis.  It is monotone there
    exactly when it has as many cells as the union of the boxes' up-closures
    along ``axis`` (each box's hi there raised to the axis's seats), which
    contains it; otherwise a ``ValueError`` names the first box whose
    up-closure leaves the union.  By inclusion-exclusion the indicator is a
    signed sum of the boxes' intersections, each a box.  Inside one box the
    step is +1 in the layer a_axis = lo and -1 in the layer a_axis = hi + 1;
    a layer at a seats, empty unless 1 <= a <= m, counts C(m-1, a-1) times
    the product of the other axes' binomial row slices
    S_i(t) = sum_{lo_i<=x<=hi_i} C(m_i, x) t^x, each cut to the box's range
    on its axis.  That core stays a scalar: as a slice of the row of m-1 it
    would build the whole row (see
    ``test_one_large_chamber_at_the_bound_runs_in_bounded_memory``).

    Since (1+t) S_i' - m_i S_i = lo_i C(m_i, lo_i) t^(lo_i-1)
    - (m_i-hi_i) C(m_i, hi_i) t^hi_i, the two longest slices are multiplied
    by their exact first-order recurrence (``_slice_product``).  Each further
    slice is convolved in by ``_convolve``, which uses Kronecker substitution
    only when both rows are longer than ``KRONECKER_MIN_LEN``: a box needs
    three other axes that long, four large chambers in all.
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
        raise ValueError(f"the boxes' union is not monotone along axis {axis}: box {first}, "
                         f"raised to its {m} seats there, leaves the union")
    counts = {}
    for box, sign in signs.items():
        lo, hi = box[axis]
        layers = [(a, s * binomial(m - 1, a - 1)) for a, s in ((lo, sign), (hi + 1, -sign))
                  if 0 < a <= m]
        if not layers:
            continue
        others = sorted(((seats[i], lo_i, binomial_row(seats[i])[lo_i:hi_i + 1])
                         for i, (lo_i, hi_i) in enumerate(box) if i != axis),
                        key=lambda other: len(other[2]), reverse=True)
        offset = sum(lo_i for _, lo_i, _ in others)
        if len(others) >= 2:
            rest = _slice_product(*others[0], *others[1])
        else:
            rest = others[0][2] if others else [1]
        for _, _, row in others[2:]:
            rest = _convolve(rest, row)
        for a, core in layers:
            for k, v in enumerate(rest, offset + a):
                counts[k] = counts.get(k, 0) + core * v
    # Summed first: single products may be negative, their sums are not.
    return CountVector(counts)


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

    def critical_vector(self, class_id: str) -> CountVector:
        """Exact critical numbers of one player of the class, for every size."""
        if class_id not in self.class_ids():
            raise ValueError(f"no player class {class_id!r}; the classes are "
                             f"{', '.join(self.class_ids())}")
        names, seats = zip(*self.axes())
        return box_critical_vector(seats, self.boxes(), names.index(class_id))
