"""Exact critical numbers in games whose winning seat counts form a union of boxes.

Members of one axis (a chamber, or a one-seat executive) are interchangeable,
so a coalition is counted by its seats on each axis.  ``box_critical_vector``
counts a player's critical coalitions, per coalition size, as a signed sum
over the boxes' intersections (``_terms``).  Each term is a core, one
binomial on the player's own axis, times the product of the other axes'
binomial row slices S(t) = sum_{lo<=x<=hi} C(m, x) t^x, so every count is
an exact integer.

No row is built whole: a slice, scaled, is one ratio walk
c <- c (m - x) / (x + 1) from its first entry, every division checked and
the last entry compared with ``math.comb`` (``_walk``).  A term of one
slice is one walk seeded with the core.  A slice satisfies
(1+t) S' - m S = lo C(m, lo) t^(lo-1) - (m-hi) C(m, hi) t^hi, so the
product of two slices has a first-order recurrence whose every step is a
small-integer multiply and an exact division, its right side four walks
seeded with the core (``_slice_product``).  So no step of a term of one or
two slices multiplies two big numbers.  Any further slice is convolved into
the product of the two longest by ``_convolve``, and the core multiplied in
last: entry by entry when a row is short, and by Kronecker substitution when
both are longer than ``KRONECKER_MIN_LEN``, so only for a term with three or
more other slices that long.

``box_critical_digits`` runs the same walks in ``decimal`` under
``_EXACT``, which traps every rounding.  Every step is then linear in the
digits, as ``str`` of an integral ``Decimal`` is, where ``str`` of an
``int`` is quadratic; reports print from these digits.  A class on the
Kronecker path is not multiplied again in ``decimal``: its digits are
``str`` of its int counts.  ``SeatGame``, the base of both spec types,
derives a spec's classes, critical vectors and their digits from its
``axes()`` and ``boxes()``.
"""

from __future__ import annotations

import decimal
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from decimal import Decimal
from math import comb, prod

from .combinat import FrozenValue, binomial

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


_Box = tuple[tuple[int, int], ...]
_Slice = tuple[int, int, int]  # (m, lo, hi): C(m, lo..hi)
_Term = tuple[int, int, list[_Slice]]  # (first size, core, slices)


def _walk(scale, m: int, lo: int, hi: int) -> list:
    """[scale C(m, lo), ..., scale C(m, hi)]: one ratio walk c <- c (m - x) / (x + 1)
    from scale C(m, lo), with C(m, lo) from ``binomial``.

    Each step is a small-integer multiply and a division by a small integer,
    in ``int``, or in ``Decimal`` under ``_EXACT`` when ``scale`` is a
    ``Decimal``.  A remainder, or a last entry other than scale C(m, hi) by
    ``math.comb``, raises ``ArithmeticError``.

    >>> _walk(2, 4, 1, 4)
    [8, 12, 8, 2]
    """
    num = type(scale)
    c = scale * num(binomial(m, lo))
    out = [c]
    for x in range(lo, hi):
        c, rem = divmod(c * (m - x), x + 1)
        if rem:
            raise ArithmeticError(f"walk along row {m} is not exact at C({m}, {x + 1})")
        out.append(c)
    if c != scale * num(comb(m, hi)):
        raise ArithmeticError(f"walk along row {m} ends off C({m}, {hi})")
    return out


def _slice_product(core, first: _Slice, second: _Slice) -> list:
    """Coefficients lo1+lo2 .. hi1+hi2 of core S1 S2, where ``first`` and
    ``second`` are (m_i, lo_i, hi_i) and S_i(t) = sum_{lo_i<=x<=hi_i} C(m_i, x) t^x.

    Each slice satisfies (1+t) S_i' - m_i S_i = R_i with R_i = lo_i C(m_i, lo_i)
    t^(lo_i-1) - (m_i-hi_i) C(m_i, hi_i) t^hi_i, so P = core S1 S2 satisfies
    (1+t) P' - (m1+m2) P = core (R1 S2 + R2 S1), and coefficient by coefficient

        (j+1) P[j+1] = (m1+m2-j) P[j] + core [R1 S2 + R2 S1]_j

    from P[lo1+lo2] = core C(m1, lo1) C(m2, lo2).  Each of the right side's
    (up to) four rows is one checked walk (``_walk``) along one slice, scaled
    by the monomial's small factor, the core and the other slice's binomial,
    so no step multiplies two big numbers.  A remainder, or a last
    coefficient other than core C(m1, hi1) C(m2, hi2) by ``math.comb``,
    raises ``ArithmeticError``.  ``core`` is an ``int``, or a ``Decimal``
    under ``_EXACT``, and so is every coefficient.

    >>> _slice_product(1, (3, 1, 2), (2, 0, 2))
    [3, 9, 9, 3]
    """
    (m1, lo1, hi1), (m2, lo2, hi2) = first, second
    num = type(core)
    len1, len2 = hi1 - lo1 + 1, hi2 - lo2 + 1
    # rhs[i] = core [R1 S2 + R2 S1] at t^(lo1+lo2+i), built one shifted row at a time.
    rhs = [0] * (len1 + len2 - 1)
    for c, (m, x), along, skip, start in (
            (lo1, (m1, lo1), second, 1, 0), (hi1 - m1, (m1, hi1), second, 0, len1 - 1),
            (lo2, (m2, lo2), first, 1, 0), (hi2 - m2, (m2, hi2), first, 0, len2 - 1)):
        if c:
            row = _walk(c * core * num(binomial(m, x)), *along)[skip:]
            end = start + len(row)
            rhs[start:end] = [r + y for r, y in zip(rhs[start:end], row)]
    p = core * num(binomial(m1, lo1)) * num(binomial(m2, lo2))
    out = [p]
    for j, r in zip(range(lo1 + lo2, hi1 + hi2), rhs):
        p, rem = divmod((m1 + m2 - j) * p + r, j + 1)
        if rem:
            raise ArithmeticError(f"slice product step {j + 1} is not exact")
        out.append(p)
    if p != core * num(comb(m1, hi1)) * num(comb(m2, hi2)):
        raise ArithmeticError(f"slice product ends off C({m1}, {hi1}) C({m2}, {hi2})")
    return out


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


def _kronecker(terms: list[_Term]) -> bool:
    """Whether ``_convolve`` multiplies some term by Kronecker substitution: the
    product of a term's two longest slices is at least as long as any other
    slice, so exactly when its third-longest is longer than ``KRONECKER_MIN_LEN``."""
    return any(len(slices) > 2 and slices[2][2] - slices[2][1] >= KRONECKER_MIN_LEN
               for _, _, slices in terms)


def _counts(terms: list[_Term], num: type) -> dict:
    """Every term summed, by size, in the number type ``num``: ``int``, or
    ``Decimal`` under ``_EXACT``.  A term of no slice is its core; one or two
    slices are walked with the core as their seed's scale."""
    counts: dict = {}
    for first, core, slices in terms:
        core = num(core)
        # Past two slices the core is multiplied in last: as a seed it would
        # widen every entry that ``_convolve`` multiplies.
        scale = core if len(slices) <= 2 else num(1)
        if len(slices) >= 2:
            rest = _slice_product(scale, *slices[:2])
        else:
            rest = _walk(scale, *slices[0]) if slices else [scale]
        for m, lo, hi in slices[2:]:
            rest = _convolve(rest, _walk(num(1), m, lo, hi))
        if scale is not core:
            rest = [core * v for v in rest]
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
                        axis: int, vector: CountVector | None = None
                        ) -> Iterator[tuple[int, str]]:
    """``box_critical_vector``'s counts as (size, decimal digits), by ascending size.

    The same walks run in ``decimal`` under ``_EXACT``, whose every step is
    linear in the digits, as ``str`` of an integral ``Decimal`` is; only the
    seeds and the checked ends convert from ``int``.  The caller's decimal
    context and int-string digit limit play no part.  Each count's digits are
    made as its pair is taken and the count dropped, so a caller that elides
    them never holds a class's digits at once.  A class whose terms take the
    Kronecker path is not multiplied again in ``decimal``: its counts,
    ``vector`` when given (the caller's copy of them), go through ``str``, so
    past the interpreter's int-string digit limit that raises ``ValueError``.
    """
    terms = _terms(seats, boxes, axis)
    if _kronecker(terms):
        vector = vector if vector is not None else CountVector(_counts(terms, int))
        yield from ((k, str(v)) for k, v in vector.items())
        return
    with decimal.localcontext(_EXACT):
        counts = _counts(terms, Decimal)
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

    def critical_digits(self, class_id: str,
                        vector: CountVector | None = None) -> Iterator[tuple[int, str]]:
        """``critical_vector(class_id)``'s counts as (size, decimal digits), by
        ascending size, in time linear in the digits (``box_critical_digits``);
        ``vector``, the class's critical vector if the caller holds it, saves
        recounting it on the Kronecker path."""
        return box_critical_digits(*self._box_args(class_id), vector)
