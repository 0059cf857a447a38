"""US-style legislative systems: two chambers, a president, a tie-breaking VP.

A bill passes either on the signature track (president present, house quota
met, and the senate quota met outright or via the vice president breaking an
exact tie) or on the override track (both override quotas met, president not
needed).  For each membership pattern of the president and vice president
the winning (senate count, house count) cells form a staircase, given by the
fewest house seats that pass with each senate count.  A class's critical
family is read off two such staircases, with and without one of its players,
and counted exactly through coalition templates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .counting import CoalitionTemplate, CountVector, PoolConstraint, template_counts
from .semivalues import Relation, WeightingVector, competition_ranks, evaluate, weak_desirability


class PlayerClass(Enum):
    PRESIDENT = "president"
    VICE_PRESIDENT = "vice_president"
    SENATOR = "senator"
    REPRESENTATIVE = "representative"


@dataclass(frozen=True)
class UsSpec:
    """Sizes, signature-track quotas, override quotas, and executive flags.

    The override quotas may sit on either side of the signature quotas; both
    tracks are always evaluated.  Defaults model the familiar 537-player
    system: 100 senators (quotas 51/67), 435 representatives (quotas 218/290),
    a president, and a tie-breaking vice president.
    """

    senate_size: int = 100
    house_size: int = 435
    senate_quota: int = 51
    house_quota: int = 218
    senate_override: int = 67
    house_override: int = 290
    has_president: bool = True
    has_vp: bool = True
    senate_name: str = "senate"
    house_name: str = "house"

    def __post_init__(self) -> None:
        if self.senate_size < 1 or self.house_size < 1:
            raise ValueError("chamber sizes must be >= 1")
        names = [self.senate_name, self.house_name]
        if not all(names) or names[0] == names[1]:
            raise ValueError(f"chamber names must be nonempty and unique, got {names}")
        for label, quota, size in (
            ("senate_quota", self.senate_quota, self.senate_size),
            ("house_quota", self.house_quota, self.house_size),
            ("senate_override", self.senate_override, self.senate_size),
            ("house_override", self.house_override, self.house_size),
        ):
            if not 1 <= quota <= size:
                raise ValueError(f"{label} must be in [1, {size}], got {quota}")

    @property
    def total_players(self) -> int:
        return self.senate_size + self.house_size + self.has_president + self.has_vp

    @property
    def tie_break_active(self) -> bool:
        """Whether the VP's senate vote can ever matter: the quota shortfall of
        one must be an exact tie of the chamber."""
        return (
            self.has_vp
            and self.has_president
            and self.senate_quota - 1 == self.senate_size // 2
        )

    def classes(self) -> tuple[PlayerClass, ...]:
        out = []
        if self.has_president:
            out.append(PlayerClass.PRESIDENT)
        if self.has_vp:
            out.append(PlayerClass.VICE_PRESIDENT)
        out.append(PlayerClass.SENATOR)
        out.append(PlayerClass.REPRESENTATIVE)
        return tuple(out)

    def class_ids(self) -> tuple[str, ...]:
        """The classes' ids; the senators' and representatives' come last, in
        chamber order."""
        return tuple(cls.value for cls in self.classes())

    def critical_vector(self, class_id: str) -> CountVector:
        return class_critical_vector(self, PlayerClass(class_id))

    def to_document(self) -> dict:
        """The spec-file document describing this system."""
        return {
            "chambers": [
                {"name": self.senate_name, "size": self.senate_size, "quota": self.senate_quota},
                {"name": self.house_name, "size": self.house_size, "quota": self.house_quota},
            ],
            "executive": {
                "president": self.has_president,
                "vice_president": self.has_vp,
                "override": {self.senate_name: self.senate_override,
                             self.house_name: self.house_override},
            },
        }


# What one player of each class adds to a coalition: (president flag, VP flag,
# senate seats, house seats).
_FOCAL = {
    PlayerClass.PRESIDENT: (1, 0, 0, 0),
    PlayerClass.VICE_PRESIDENT: (0, 1, 0, 0),
    PlayerClass.SENATOR: (0, 0, 1, 0),
    PlayerClass.REPRESENTATIVE: (0, 0, 0, 1),
}


def _r_min(spec: UsSpec, p: int, v: int, s: int) -> int:
    """The fewest house seats that pass with s senate seats and the given
    president and VP flags; ``house_size + 1`` when none do."""
    fewest = spec.house_size + 1
    if s >= spec.senate_override:
        fewest = spec.house_override
    tie_break = v and spec.tie_break_active and s == spec.senate_quota - 1
    if p and (s >= spec.senate_quota or tie_break):
        fewest = min(fewest, spec.house_quota)
    return fewest


def critical_templates(spec: UsSpec, cls: PlayerClass) -> tuple[CoalitionTemplate, ...]:
    """Disjoint coalition-template rows whose union is the class's critical family.

    With the president and VP flags p and v fixed, the winning (senate count,
    house count) cells form a staircase: s senate seats pass with r house
    seats exactly when r >= ``_r_min(spec, p, v, s)``.  A player is critical
    where the coalition wins with it and loses without it, so a player that
    adds (dp, dv, ds, dr) to a coalition is critical, at senate count s, for
    the house counts r with

        max(r_min(p, v, s), dr) <= r <= min(r_min(p-dp, v-dv, s-ds) + dr - 1, house_size).

    Runs of senate counts with the same house interval become one template,
    whose pools leave out the player's own seat.
    """
    if cls not in spec.classes():
        raise ValueError(f"spec has no {cls.value.replace('_', ' ')}")
    dp, dv, ds, dr = _FOCAL[cls]
    m_s, m_r = spec.senate_size, spec.house_size
    rows: list[CoalitionTemplate] = []
    for p in range(dp, spec.has_president + 1):
        for v in range(dv, spec.has_vp + 1):
            def house_interval(s: int) -> tuple[int, int]:
                return (max(_r_min(spec, p, v, s), dr),
                        min(_r_min(spec, p - dp, v - dv, s - ds) + dr - 1, m_r))

            for (r_lo, r_hi), run in groupby(range(ds, m_s + 1), key=house_interval):
                if r_lo > r_hi:
                    continue
                senate = list(run)
                rows.append(CoalitionTemplate(p + v + ds + dr, (
                    PoolConstraint(m_s - ds, senate[0] - ds, senate[-1] - ds),
                    PoolConstraint(m_r - dr, r_lo - dr, r_hi - dr),
                )))
    return tuple(rows)


def class_critical_vector(spec: UsSpec, cls: PlayerClass) -> CountVector:
    """Exact critical numbers of one player of the given class, for every size."""
    # The rows are disjoint families; the constructor sums their counts per size.
    return CountVector(kv for t in critical_templates(spec, cls)
                       for kv in template_counts(t).items())


def ranking(spec: UsSpec, w: WeightingVector) -> tuple[tuple[PlayerClass, Fraction], ...]:
    """Classes with their index values, sorted from most to least powerful.

    Sorting is by exact value; classes with equal values appear adjacent, in
    declaration order, and report layers render them as ties.
    """
    if w.n != spec.total_players:
        raise ValueError(
            f"weighting vector sized for {w.n} players, spec has {spec.total_players}"
        )
    values = {cls: evaluate(w, class_critical_vector(spec, cls)) for cls in spec.classes()}
    return tuple((cls, value) for _, cls, value in competition_ranks(values))


def supermajority_scan(
    spec: UsSpec, senate_quotas: Iterable[int]
) -> list[tuple[int, Relation, Relation]]:
    """Weak-desirability verdicts as the senate signature quota varies.

    For each quota value, returns (quota, senator-versus-representative
    relation, president-versus-senator relation), computed from exact critical
    vectors with everything else unchanged.
    """
    out = []
    for quota in senate_quotas:
        scanned = replace(spec, senate_quota=quota)
        cs = class_critical_vector(scanned, PlayerClass.SENATOR)
        cr = class_critical_vector(scanned, PlayerClass.REPRESENTATIVE)
        sr = weak_desirability(cs, cr)
        if scanned.has_president:
            cp = class_critical_vector(scanned, PlayerClass.PRESIDENT)
            ps = weak_desirability(cp, cs)
        else:
            ps = weak_desirability(CountVector(), cs)
        out.append((quota, sr, ps))
    return out
