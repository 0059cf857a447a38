"""Brute-force ground truth for simple games over labelled players.

Games are stored as an explicit win table over all 2^n coalitions, and the
three axioms (empty coalition loses, grand coalition wins, monotonicity) are
checked exhaustively at construction.  The table bounds games to
``MAX_PLAYERS`` (25) players; the bound is the table's own, as ``lattice``
enumerates seat counts with none.  A user's win predicate is evaluated
on every bitmask.  A spec's table is built with numpy instead, from the axes
``lattice.axes`` gives: every axis (a chamber, or a president or vice
president) holds a contiguous range of bits, so one popcount vector per axis
and a broadcast of the passage rule over the axes give all 2^n outcomes.
The rule and the axes are the ones ``lattice`` enumerates seat counts on, so
the bitmask table and the seat-count lattice are two enumerations of one
layout and one rule.  Everything downstream of the table is a full sweep of
the subset space; nothing here shares code with the closed forms it
validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .chambers import MulticamSpec
from .counting import CountVector
from .lattice import axes
from .uslike import UsSpec

# A win table holds 2^n outcomes, so it is built up to this many players.
MAX_PLAYERS = 25


class GameSizeError(ValueError):
    """The game exceeds the bitmask table's player bound."""


class GameAxiomError(ValueError):
    """The win predicate violates the simple-game axioms."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations[:3]))


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
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _popcounts(bits: int) -> np.ndarray:
    """The number of set bits of every mask below 2^bits, as uint8, by doubling."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        counts = np.concatenate((counts, counts + 1))
    return counts


def _split(table: np.ndarray, pos: int) -> np.ndarray:
    """A view of the table indexed [high, bit, low] by the mask's bits above,
    at and below ``pos``."""
    return table.reshape(-1, 2, 1 << pos)


def _table_violations(table: np.ndarray, n: int) -> list[Violation]:
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


def _check_players(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise GameSizeError(f"player count must be in [1, {MAX_PLAYERS}], got {n}")


def _win_table(n: int, win: Callable[[int], bool]) -> np.ndarray:
    """The predicate's value on every bitmask of n players, after the size check."""
    _check_players(n)
    return np.fromiter((bool(win(m)) for m in range(1 << n)), dtype=bool, count=1 << n)


def find_violations(labels: Sequence[str], win: Callable[[int], bool]) -> list[Violation]:
    """Exhaustively audit a win predicate without constructing a game.

    ``win`` receives a bitmask; bit i-1 set means player i is in the
    coalition.  Returns witnesses for every broken axiom (one per bit
    direction for monotonicity, the smallest violating mask), or an empty
    list.
    """
    return _table_violations(_win_table(len(labels), win), len(labels))


class SimpleGame:
    """An explicit simple game; construction validates the axioms exhaustively.

    ``win`` receives a bitmask; bit i-1 set means player i is in the
    coalition.  ``from_table`` takes the outcomes of all bitmasks at once.
    """

    def __init__(self, labels: Sequence[str], win: Callable[[int], bool]):
        self._adopt(labels, _win_table(len(labels), win))

    @classmethod
    def from_table(cls, labels: Sequence[str], table: np.ndarray) -> "SimpleGame":
        """The game whose bitmask m wins iff ``table[m]``; the game keeps the array."""
        game = cls.__new__(cls)
        game._adopt(labels, table)
        return game

    def _adopt(self, labels: Sequence[str], table: np.ndarray) -> None:
        n = len(labels)
        _check_players(n)
        table = np.asarray(table)
        if table.dtype != bool or table.shape != (1 << n,):
            raise ValueError(
                f"a win table of {n} players is a bool array of shape ({1 << n},), "
                f"got {table.dtype} {table.shape}"
            )
        violations = _table_violations(table, n)
        if violations:
            raise GameAxiomError(violations)
        self._n = n
        self._labels = tuple(labels)
        self._table = table

    @property
    def n(self) -> int:
        return self._n

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def players(self, label: str | None = None) -> tuple[int, ...]:
        if label is None:
            return tuple(range(1, self._n + 1))
        return tuple(i + 1 for i, lab in enumerate(self._labels) if lab == label)

    def label_of(self, player: int) -> str:
        return self._labels[player - 1]

    def wins(self, coalition: Iterable[int]) -> bool:
        mask = 0
        for player in coalition:
            if not 1 <= player <= self._n:
                raise ValueError(f"player index {player} out of range [1, {self._n}]")
            mask |= 1 << (player - 1)
        return bool(self._table[mask])

    def validate(self) -> list[Violation]:
        """Re-run the exhaustive axiom audit (empty for any constructed game)."""
        return _table_violations(self._table, self._n)


def critical_vector(game: SimpleGame, player: int) -> CountVector:
    """Exact counts, per size, of winning coalitions that lose without ``player``."""
    if not 1 <= player <= game.n:
        raise ValueError(f"player index {player} out of range [1, {game.n}]")
    halves = _split(game._table, player - 1)
    # Indexed by the coalition's mask with the player's bit taken out.
    critical = (halves[:, 1] & ~halves[:, 0]).ravel()
    others = _popcounts(game.n - 1)[critical]
    return CountVector((k + 1, int(np.count_nonzero(others == k))) for k in range(game.n))


def minimal_winning(game: SimpleGame) -> set[frozenset[int]]:
    """All winning coalitions none of whose proper subsets win."""
    minimal = game._table.copy()
    for pos in range(game.n):
        with_player = _split(minimal, pos)[:, 1]
        with_player &= ~_split(game._table, pos)[:, 0]
    return {frozenset(_players_of_mask(int(m))) for m in np.flatnonzero(minimal)}


def from_spec(spec: MulticamSpec | UsSpec) -> SimpleGame:
    """Instantiate a spec as a labelled game with its exact passage rule.

    The player bound is checked before any per-seat label or table is built,
    so refusing a huge spec costs nothing that grows with its seats.
    """
    layout, wins = axes(spec)
    if spec.total_players > MAX_PLAYERS:
        raise GameSizeError(
            f"spec has {spec.total_players} players, exhaustive bound is {MAX_PLAYERS}"
        )
    labels = [name for name, seats in layout for _ in range(seats)]
    # Axis j takes the bits above axes 0..j-1: the broadcast axis just
    # outside theirs, as broadcasting aligns axes from the right.  An absent
    # executive is an axis of no seats, whose one entry is "absent".
    counts = [_popcounts(seats).reshape((-1,) + (1,) * j) for j, (_, seats) in enumerate(layout)]
    return SimpleGame.from_table(labels, np.asarray(wins(*counts), dtype=bool).ravel())
