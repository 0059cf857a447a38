"""US-style legislative systems: two chambers, a president, a tie-breaking VP.

A bill passes either on the signature track (president present, house quota
met, and the senate quota met outright or via the vice president breaking an
exact tie) or on the override track (both override quotas met, president not
needed).  Counted in seats on the axes (president, vice president, senate,
house), the winning coalitions are a union of boxes: the override box, the
signature box, and, when the tie break is active, the vice president's tie
row at exactly one seat short of the senate quota.  ``UsSpec.boxes()`` states
them, and ``SeatGame.critical_vector`` counts every class's critical numbers
from them.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction

from .counting import CountVector, SeatGame
from .semivalues import Relation, WeightingVector, competition_ranks, evaluate, weak_desirability


class PlayerClass(Enum):
    PRESIDENT = "president"
    VICE_PRESIDENT = "vice_president"
    SENATOR = "senator"
    REPRESENTATIVE = "representative"


class UsSpec(SeatGame):
    """Sizes, signature-track quotas, override quotas, and executive flags.

    The override quotas may sit on either side of the signature quotas; both
    tracks are always evaluated.  Defaults model the familiar 537-player
    system: 100 senators (quotas 51/67), 435 representatives (quotas 218/290),
    a president, and a tie-breaking vice president.
    """

    __slots__ = ("senate_size", "house_size", "senate_quota", "house_quota", "senate_override",
                 "house_override", "has_president", "has_vp", "senate_name", "house_name")

    def __init__(self, senate_size: int = 100, house_size: int = 435, senate_quota: int = 51,
                 house_quota: int = 218, senate_override: int = 67, house_override: int = 290,
                 has_president: bool = True, has_vp: bool = True,
                 senate_name: str = "senate", house_name: str = "house") -> None:
        super().__init__(senate_size, house_size, senate_quota, house_quota, senate_override,
                         house_override, has_president, has_vp, senate_name, house_name)
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

    def axes(self) -> tuple[tuple[str, int], ...]:
        """(class id, seats) per seat-count axis, in bit order and in
        ``PlayerClass`` order; an absent president or vice president is an
        axis of 0 seats."""
        return ((PlayerClass.PRESIDENT.value, int(self.has_president)),
                (PlayerClass.VICE_PRESIDENT.value, int(self.has_vp)),
                (PlayerClass.SENATOR.value, self.senate_size),
                (PlayerClass.REPRESENTATIVE.value, self.house_size))

    def boxes(self) -> list[tuple[tuple[int, int], ...]]:
        """The winning seat counts on ``axes()``: the override box, the
        signature box and, when the tie break is active, the VP's tie row."""
        m_s, m_r, q_s, q_r = self.senate_size, self.house_size, self.senate_quota, self.house_quota
        boxes = [((0, 1), (0, 1), (self.senate_override, m_s), (self.house_override, m_r)),
                 ((1, 1), (0, 1), (q_s, m_s), (q_r, m_r))]
        if self.tie_break_active:
            boxes.append(((1, 1), (1, 1), (q_s - 1, q_s - 1), (q_r, m_r)))
        return boxes

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
        """The classes with at least one seat, in ``PlayerClass`` order."""
        return tuple(map(PlayerClass, self.class_ids()))

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


def ranking(spec: UsSpec, w: WeightingVector) -> tuple[tuple[PlayerClass, Fraction], ...]:
    """Classes with their index values, sorted from most to least powerful.

    Sorting is by exact value; classes with equal values appear adjacent, in
    declaration order, and report layers render them as ties.
    """
    if w.n != spec.total_players:
        raise ValueError(
            f"weighting vector sized for {w.n} players, spec has {spec.total_players}"
        )
    values = {cls: evaluate(w, spec.critical_vector(cls.value)) for cls in spec.classes()}
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
        scanned = spec.replace(senate_quota=quota)
        cs = scanned.critical_vector(PlayerClass.SENATOR.value)
        cr = scanned.critical_vector(PlayerClass.REPRESENTATIVE.value)
        sr = weak_desirability(cs, cr)
        if scanned.has_president:
            cp = scanned.critical_vector(PlayerClass.PRESIDENT.value)
            ps = weak_desirability(cp, cs)
        else:
            ps = weak_desirability(CountVector(), cs)
        out.append((quota, sr, ps))
    return out
