"""Exhaustive enumeration over seat counts, and the passage rules it shares.

Members of one chamber are interchangeable, so whether a coalition passes
depends only on how many seats it holds in each chamber, and for a US-style
spec on whether it holds the president and the vice president.  A cell
(a_1, ..., a_c) of that lattice stands for prod C(m_i, a_i) coalitions; a
present president or vice president is an axis of one seat, an absent one an
axis of length one.  A member of class j is critical in a cell when the cell
wins and the same cell with a_j - 1 loses, and the cell then holds
C(m_j - 1, a_j - 1) * prod_{i != j} C(m_i, a_i) such coalitions of size
sum a_i.  This is the type counting of Bilbao, Fernandez, Jimenez Losada and
Lopez, "Generating functions for computing power indices efficiently"
(TOP 8, 2000), used here as an enumeration: every cell is visited, so the
module needs ``math.comb`` and the passage rule only, and shares nothing with
the closed forms it validates.

The passage rules are written once, with ``&``, ``|``, ``>=`` and ``==``
only, so the same functions decide a cell of Python ints here and, in the
test suite, every bitmask of a popcount array at once.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product
from math import comb, prod

from .chambers import MulticamSpec
from .counting import CountVector
from .uslike import UsSpec


class RuleAxiomError(RuntimeError):
    """A spec's passage rule breaks a simple-game axiom.

    Spec validation keeps every quota within 1..size, which makes every spec a
    simple game, so this is an internal contradiction, not bad input.
    """


def multicam_wins(spec: MulticamSpec, counts):
    """Whether seat counts (one per chamber, in chamber order) meet every quota."""
    wins = True
    for chamber, count in zip(spec.chambers, counts):
        wins = wins & (count >= chamber.quota)
    return wins


def us_wins(spec: UsSpec, p, v, s, r):
    """Whether a coalition passes a US-style spec, from whether it holds the
    president (``p``) and the vice president (``v``), and its senate (``s``)
    and house (``r``) seat counts.

    The override track needs both override quotas.  The signature track needs
    the president, the house quota, and the senate quota met outright or one
    short at an exact tie of the senate with the vice president's vote.
    """
    q_s = spec.senate_quota
    override = (s >= spec.senate_override) & (r >= spec.house_override)
    tie_break = v & (s == q_s - 1) & (q_s - 1 == spec.senate_size // 2)
    signature = p & ((s >= q_s) | tie_break) & (r >= spec.house_quota)
    return override | signature


def axes(spec: MulticamSpec | UsSpec) -> tuple[tuple[tuple[str, int], ...], Callable[..., object]]:
    """The spec's own ``axes()``, (class id, seats) per lattice axis, and the
    passage rule on a cell.

    The axis order is also the bit order of the test suite's bitmask table,
    lowest bits first: axis j's seats take the bits just above axis j - 1's.
    """
    if isinstance(spec, MulticamSpec):
        return spec.axes(), lambda *cell: multicam_wins(spec, cell)
    if isinstance(spec, UsSpec):
        return spec.axes(), lambda *cell: us_wins(spec, *cell)
    raise TypeError(f"expected MulticamSpec or UsSpec, got {type(spec).__name__}")


def cell_count(spec: MulticamSpec | UsSpec) -> int:
    """The number of cells the enumeration visits: prod (m_i + 1) over the axes."""
    layout, _ = axes(spec)
    return prod(seats + 1 for _, seats in layout)


def critical_vectors(spec: MulticamSpec | UsSpec) -> dict[str, CountVector]:
    """Every class's exact critical numbers, by one sweep of the seat-count lattice.

    The sweep also audits the axioms on the lattice (the empty cell loses, the
    full cell wins, and winning is monotone in every coordinate) and raises
    ``RuleAxiomError`` with the first broken one.  It has no size bound:
    the work is ``cell_count(spec)`` rule calls, and binomials made only in
    critical cells (a whole row of 10^6 seats would not fit in memory).
    """
    layout, wins = axes(spec)
    seats = [m for _, m in layout]
    ranges = [range(m + 1) for m in seats]
    won = [bool(wins(*cell)) for cell in product(*ranges)]
    if won[0]:
        raise RuleAxiomError(f"empty-cell-wins: {tuple(0 for _ in seats)}")
    if not won[-1]:
        raise RuleAxiomError(f"full-cell-loses: {tuple(seats)}")
    # The index of a cell in product order, and so of its neighbour a_j - 1.
    strides = [prod(m + 1 for m in seats[j + 1:]) for j in range(len(seats))]
    # Each binomial is one step from C(m, a - 1) where that one is known.
    binoms: dict[tuple[int, int], int] = {}

    def binom(m: int, a: int) -> int:
        if (m, a) not in binoms:
            below = binoms.get((m, a - 1))
            binoms[m, a] = comb(m, a) if below is None else below * (m - a + 1) // a
        return binoms[m, a]

    counts: list[dict[int, int]] = [{} for _ in seats]
    for index, cell in enumerate(product(*ranges)):
        here = won[index]
        for j, a in enumerate(cell):
            if not a or won[index - strides[j]] == here:
                continue
            if not here:
                lower = cell[:j] + (a - 1,) + cell[j + 1:]
                raise RuleAxiomError(f"not-monotone: cell {lower} wins but {cell} loses")
            # C(m_j - 1, a_j - 1) = C(m_j, a_j) * a_j / m_j, exactly.
            weight = prod(binom(m, c) for m, c in zip(seats, cell)) * a // seats[j]
            size = sum(cell)
            counts[j][size] = counts[j].get(size, 0) + weight
    return {name: CountVector(counts[j]) for j, (name, m) in enumerate(layout) if m}
