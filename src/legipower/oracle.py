"""Brute-force ground truth for simple games over labelled players.

Games are stored as an explicit win table over all 2^n coalitions, built by
evaluating the win predicate on every bitmask, and the three axioms (empty
coalition loses, grand coalition wins, monotonicity) are checked exhaustively
at construction.  Everything downstream of the table is a full sweep of the
subset space; nothing here shares code with the closed forms it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .chambers import MulticamSpec
from .counting import CountVector
from .uslike import PlayerClass, UsSpec

MAX_PLAYERS = 25


class GameSizeError(ValueError):
    """The game exceeds the exhaustive-enumeration player bound."""


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


def _table_violations(table: np.ndarray, n: int) -> list[Violation]:
    violations: list[Violation] = []
    if table[0]:
        violations.append(Violation("empty-coalition-wins", ()))
    if not table[-1]:
        violations.append(Violation("grand-coalition-loses", tuple(range(1, n + 1))))
    idx = np.arange(1 << n, dtype=np.uint32)
    for pos in range(n):
        bit = 1 << pos
        lower = idx[(idx & bit) == 0]
        bad = table[lower] & ~table[lower | bit]
        if bad.any():
            mask = int(lower[np.argmax(bad)])
            violations.append(Violation(
                "not-monotone", _players_of_mask(mask), _players_of_mask(mask | bit)
            ))
    return violations


def _win_table(n: int, win: Callable[[int], bool]) -> np.ndarray:
    """The predicate's value on every bitmask of n players, after the size check."""
    if not 1 <= n <= MAX_PLAYERS:
        raise GameSizeError(f"player count must be in [1, {MAX_PLAYERS}], got {n}")
    return np.fromiter((bool(win(m)) for m in range(1 << n)), dtype=bool, count=1 << n)


def find_violations(labels: Sequence[str], win: Callable[[int], bool]) -> list[Violation]:
    """Exhaustively audit a win predicate without constructing a game.

    ``win`` receives a bitmask; bit i-1 set means player i is in the
    coalition.  Returns witnesses for every broken axiom (one per bit
    direction for monotonicity), or an empty list.
    """
    return _table_violations(_win_table(len(labels), win), len(labels))


class SimpleGame:
    """An explicit simple game; construction validates the axioms exhaustively."""

    def __init__(self, labels: Sequence[str], win: Callable[[int], bool]):
        n = len(labels)
        table = _win_table(n, win)
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
    bit = 1 << (player - 1)
    idx = np.arange(1 << game.n, dtype=np.uint32)
    members = idx[(idx & bit) != 0]
    crit = game._table[members] & ~game._table[members ^ bit]
    sizes = np.bitwise_count(members[crit]).astype(np.int64)
    counts = np.bincount(sizes)
    return CountVector({int(k): int(c) for k, c in enumerate(counts) if c})


def minimal_winning(game: SimpleGame) -> set[frozenset[int]]:
    """All winning coalitions none of whose proper subsets win."""
    idx = np.arange(1 << game.n, dtype=np.uint32)
    minimal = game._table.copy()
    for pos in range(game.n):
        bit = 1 << pos
        members = idx[(idx & bit) != 0]
        minimal[members] &= ~game._table[members ^ bit]
    return {frozenset(_players_of_mask(int(m))) for m in idx[minimal]}


def _multicam_win(spec: MulticamSpec) -> tuple[list[str], Callable[[int], bool]]:
    labels: list[str] = []
    chamber_masks: list[tuple[int, int]] = []
    offset = 0
    for chamber in spec.chambers:
        labels.extend([chamber.name] * chamber.size)
        mask = ((1 << chamber.size) - 1) << offset
        chamber_masks.append((mask, chamber.quota))
        offset += chamber.size

    def win(m: int) -> bool:
        return all((m & mask).bit_count() >= quota for mask, quota in chamber_masks)

    return labels, win


def _us_win(spec: UsSpec) -> tuple[list[str], Callable[[int], bool]]:
    labels: list[str] = []
    offset = 0
    p_bit = v_bit = 0
    if spec.has_president:
        labels.append(PlayerClass.PRESIDENT.value)
        p_bit = 1 << offset
        offset += 1
    if spec.has_vp:
        labels.append(PlayerClass.VICE_PRESIDENT.value)
        v_bit = 1 << offset
        offset += 1
    labels.extend([PlayerClass.SENATOR.value] * spec.senate_size)
    s_mask = ((1 << spec.senate_size) - 1) << offset
    offset += spec.senate_size
    labels.extend([PlayerClass.REPRESENTATIVE.value] * spec.house_size)
    r_mask = ((1 << spec.house_size) - 1) << offset

    q_s, q_r = spec.senate_quota, spec.house_quota
    o_s, o_r = spec.senate_override, spec.house_override
    tie_count = spec.senate_size // 2

    def win(m: int) -> bool:
        s = (m & s_mask).bit_count()
        r = (m & r_mask).bit_count()
        if s >= o_s and r >= o_r:
            return True
        if not (p_bit and m & p_bit):
            return False
        senate_ok = s >= q_s or (bool(v_bit and m & v_bit) and s == q_s - 1 and q_s - 1 == tie_count)
        return senate_ok and r >= q_r

    return labels, win


def from_spec(spec: MulticamSpec | UsSpec) -> SimpleGame:
    """Instantiate a spec as a labelled game with its exact passage rule.

    The player bound is checked before any per-seat label or chamber mask is
    built, so refusing a huge spec costs nothing that grows with its seats.
    """
    if isinstance(spec, MulticamSpec):
        build = _multicam_win
    elif isinstance(spec, UsSpec):
        build = _us_win
    else:
        raise TypeError(f"expected MulticamSpec or UsSpec, got {type(spec).__name__}")
    if spec.total_players > MAX_PLAYERS:
        raise GameSizeError(
            f"spec has {spec.total_players} players, exhaustive bound is {MAX_PLAYERS}"
        )
    return SimpleGame(*build(spec))
