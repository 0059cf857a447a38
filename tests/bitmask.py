"""The 2^n bitmask table: every coalition's outcome, the tests' ground truth.

Bit i-1 of a mask set means player i is in the coalition.  Building a game
audits the simple-game axioms (empty coalition loses, grand coalition wins,
monotonicity) on every mask.  A spec's table broadcasts the ``lattice``
passage rule over ``lattice.axes(spec)``, one popcount vector per axis (an
axis holds a contiguous range of bits), so the table and the seat-count
lattice enumerate one layout and one rule; the critical sweep here goes
coalition by coalition.  A table holds 2^n outcomes, so its builders stop at
25 players.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from legipower import CountVector, MulticamSpec, UsSpec
from legipower.lattice import axes


class GameAxiomError(ValueError):
    """The win table violates the simple-game axioms."""


@dataclass(frozen=True)
class Violation:
    """Witness of a broken axiom: the offending coalition(s), as player indices."""

    axiom: str  # "empty-coalition-wins" | "grand-coalition-loses" | "not-monotone"
    coalition: tuple[int, ...]
    superset: tuple[int, ...] | None = None

    def __str__(self) -> str:
        if self.superset is not None:
            return f"{self.axiom}: {set(self.coalition) or '{}'} wins but {set(self.superset)} loses"
        return f"{self.axiom}: witness {set(self.coalition) or '{}'}"


def _players_of_mask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _popcounts(bits: int) -> np.ndarray:
    """The number of set bits of every mask below 2^bits, as uint8, by doubling."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        counts = np.concatenate((counts, counts + 1))
    return counts


def _split(table: np.ndarray, pos: int) -> np.ndarray:
    """The table indexed [high, bit, low] by the mask's bits above, at and below ``pos``."""
    return table.reshape(-1, 2, 1 << pos)


def _violations(table: np.ndarray, n: int) -> list[Violation]:
    violations: list[Violation] = []
    if table[0]:
        violations.append(Violation("empty-coalition-wins", ()))
    if not table[-1]:
        violations.append(Violation("grand-coalition-loses", tuple(range(1, n + 1))))
    for pos in range(n):
        halves = _split(table, pos)
        bad = halves[:, 0] & ~halves[:, 1]
        if bad.any():
            # Row-major order of (high, low) is mask order: the smallest witness.
            high, low = divmod(int(np.argmax(bad)), 1 << pos)
            mask = (high << (pos + 1)) | low
            violations.append(Violation(
                "not-monotone", _players_of_mask(mask), _players_of_mask(mask | 1 << pos)
            ))
    return violations


def rule_table(n: int, win: Callable[[int], bool]) -> np.ndarray:
    """The predicate's value on every bitmask of n players, one call per mask."""
    assert n <= 25, f"a table of {n} players would hold 2^{n} outcomes"
    return np.fromiter((bool(win(m)) for m in range(1 << n)), dtype=bool, count=1 << n)


def find_violations(labels: Sequence[str], win: Callable[[int], bool]) -> list[Violation]:
    """Witnesses of a win predicate's broken axioms (the smallest mask per bit), or []."""
    return _violations(rule_table(len(labels), win), len(labels))


class SimpleGame:
    """The game whose bitmask m wins iff ``table[m]``; building it audits the
    axioms and raises ``GameAxiomError`` on a violation."""

    def __init__(self, labels: Sequence[str], table: np.ndarray):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        violations = _violations(table, self.n)
        if violations:
            raise GameAxiomError("; ".join(str(v) for v in violations[:3]))
        self.table = table

    def players(self, label: str | None = None) -> tuple[int, ...]:
        return tuple(i + 1 for i, lab in enumerate(self.labels) if label is None or lab == label)

    def wins(self, coalition: Iterable[int]) -> bool:
        return bool(self.table[sum(1 << (player - 1) for player in set(coalition))])


def critical_vector(game: SimpleGame, player: int) -> CountVector:
    """Exact counts, per size, of winning coalitions that lose without ``player``."""
    halves = _split(game.table, player - 1)
    # Indexed by the coalition's mask with the player's bit taken out.
    critical = (halves[:, 1] & ~halves[:, 0]).ravel()
    sizes = np.bincount(_popcounts(game.n - 1)[critical], minlength=game.n)
    return CountVector({k + 1: int(count) for k, count in enumerate(sizes)})


def minimal_winning(game: SimpleGame) -> set[frozenset[int]]:
    """All winning coalitions none of whose proper subsets win."""
    minimal = game.table.copy()
    for pos in range(game.n):
        with_player = _split(minimal, pos)[:, 1]
        with_player &= ~_split(game.table, pos)[:, 0]
    return {frozenset(_players_of_mask(int(m))) for m in np.flatnonzero(minimal)}


def from_spec(spec: MulticamSpec | UsSpec) -> SimpleGame:
    """A spec as a labelled game, its table broadcast from ``lattice.axes``."""
    layout, wins = axes(spec)
    assert spec.total_players <= 25, f"a table of {spec.total_players} players"
    labels = [name for name, seats in layout for _ in range(seats)]
    # Axis j takes the bits above axes 0..j-1: the broadcast axis just
    # outside theirs, as broadcasting aligns axes from the right.  An absent
    # executive is an axis of no seats, whose one entry is "absent".
    counts = [_popcounts(seats).reshape((-1,) + (1,) * j) for j, (_, seats) in enumerate(layout)]
    return SimpleGame(labels, np.asarray(wins(*counts), dtype=bool).ravel())
