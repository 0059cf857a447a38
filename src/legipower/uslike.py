"""US-style legislative systems: two chambers, a president, a tie-breaking VP.

A bill passes either on the signature track (president present, house quota
met, and the senate quota met outright or via the vice president breaking an
exact tie) or on the override track (both override quotas met, president not
needed).  Critical coalition families for each player class are derived as
rectangles in the (senate count, house count) grid, one set per membership
pattern of the president and vice president, and counted exactly through
coalition templates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .counting import CoalitionTemplate, CountVector, PoolConstraint, sum_counts, template_counts
from .semivalues import (
    Relation,
    WeightingVector,
    competition_ranks,
    evaluate,
    size_signs,
    weak_desirability,
)


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


# A rectangle of (senate count, house count) cells, all bounds inclusive.
@dataclass(frozen=True)
class _Rect:
    s_lo: int
    s_hi: int
    r_lo: int
    r_hi: int


def _intersect(a: _Rect, b: _Rect) -> _Rect | None:
    s_lo, s_hi = max(a.s_lo, b.s_lo), min(a.s_hi, b.s_hi)
    r_lo, r_hi = max(a.r_lo, b.r_lo), min(a.r_hi, b.r_hi)
    if s_lo > s_hi or r_lo > r_hi:
        return None
    return _Rect(s_lo, s_hi, r_lo, r_hi)


def _subtract(a: _Rect, b: _Rect) -> list[_Rect]:
    mid = _intersect(a, b)
    if mid is None:
        return [a]
    out = []
    if a.s_lo <= mid.s_lo - 1:
        out.append(_Rect(a.s_lo, mid.s_lo - 1, a.r_lo, a.r_hi))
    if mid.s_hi + 1 <= a.s_hi:
        out.append(_Rect(mid.s_hi + 1, a.s_hi, a.r_lo, a.r_hi))
    if a.r_lo <= mid.r_lo - 1:
        out.append(_Rect(mid.s_lo, mid.s_hi, a.r_lo, mid.r_lo - 1))
    if mid.r_hi + 1 <= a.r_hi:
        out.append(_Rect(mid.s_lo, mid.s_hi, mid.r_hi + 1, a.r_hi))
    return out


def _region_subtract(region: list[_Rect], rects: list[_Rect]) -> list[_Rect]:
    for b in rects:
        region = [piece for a in region for piece in _subtract(a, b)]
    return region


def _region_union(a: list[_Rect], b: list[_Rect]) -> list[_Rect]:
    return a + _region_subtract(b, a)


def _win_region(spec: UsSpec, p_in: bool, v_in: bool) -> list[_Rect]:
    """Winning (senate count, house count) cells for a P/V membership pattern."""
    region: list[_Rect] = []
    if spec.has_president and p_in:
        floor_s = spec.senate_quota
        if v_in and spec.tie_break_active:
            floor_s = spec.senate_quota - 1
        if floor_s <= spec.senate_size and spec.house_quota <= spec.house_size:
            region = [_Rect(floor_s, spec.senate_size, spec.house_quota, spec.house_size)]
    override = _Rect(spec.senate_override, spec.senate_size,
                     spec.house_override, spec.house_size)
    return _region_union(region, [override])


def _shift(region: list[_Rect], ds: int, dr: int, m_s: int, m_r: int) -> list[_Rect]:
    # Cells whose neighbour (ds, dr) below lies in the region.
    bounds = _Rect(0, m_s, 0, m_r)
    moved = (_intersect(_Rect(r.s_lo + ds, r.s_hi + ds, r.r_lo + dr, r.r_hi + dr), bounds)
             for r in region)
    return [r for r in moved if r is not None]


def _patterns(spec: UsSpec) -> list[tuple[bool, bool]]:
    p_opts = (False, True) if spec.has_president else (False,)
    v_opts = (False, True) if spec.has_vp else (False,)
    return [(p, v) for p in p_opts for v in v_opts]


# What one player of each class adds to a coalition: (president flag, VP flag,
# senate seats, house seats).
_FOCAL = {
    PlayerClass.PRESIDENT: (1, 0, 0, 0),
    PlayerClass.VICE_PRESIDENT: (0, 1, 0, 0),
    PlayerClass.SENATOR: (0, 0, 1, 0),
    PlayerClass.REPRESENTATIVE: (0, 0, 0, 1),
}


def critical_templates(spec: UsSpec, cls: PlayerClass) -> tuple[CoalitionTemplate, ...]:
    """Disjoint coalition-template rows whose union is the class's critical family.

    A player is critical where the coalition wins with it and loses without
    it.  For each membership pattern of the president and vice president that
    contains the focal player, the critical cells are the winning (senate
    count, house count) cells minus those that still win once the focal
    player leaves: for the president or vice president that clears a flag,
    for a chamber member it moves the cell one seat down and takes the member
    out of its own chamber's pool.
    """
    if cls not in spec.classes():
        raise ValueError(f"spec has no {cls.value.replace('_', ' ')}")
    dp, dv, ds, dr = _FOCAL[cls]
    m_s, m_r = spec.senate_size, spec.house_size
    rows: list[CoalitionTemplate] = []
    for p_in, v_in in _patterns(spec):
        if p_in < dp or v_in < dv:
            continue
        win = _win_region(spec, p_in, v_in)
        without = _shift(_win_region(spec, p_in - dp, v_in - dv), ds, dr, m_s, m_r)
        for r in _region_subtract(win, without):
            cell = _intersect(r, _Rect(ds, m_s, dr, m_r))
            if cell is None:
                continue
            rows.append(CoalitionTemplate(p_in + v_in + ds + dr, (
                PoolConstraint(m_s - ds, cell.s_lo - ds, cell.s_hi - ds),
                PoolConstraint(m_r - dr, cell.r_lo - dr, cell.r_hi - dr),
            )))
    return tuple(rows)


def class_critical_vector(spec: UsSpec, cls: PlayerClass) -> CountVector:
    """Exact critical numbers of one player of the given class, for every size."""
    return sum_counts(template_counts(t) for t in critical_templates(spec, cls))


def class_power(spec: UsSpec, cls: PlayerClass, w: WeightingVector) -> Fraction:
    """Index value of one player of the class under the given weighting vector."""
    if w.n != spec.total_players:
        raise ValueError(
            f"weighting vector sized for {w.n} players, spec has {spec.total_players}"
        )
    return evaluate(w, class_critical_vector(spec, cls))


def ranking(spec: UsSpec, w: WeightingVector) -> tuple[tuple[PlayerClass, Fraction], ...]:
    """Classes with their index values, sorted from most to least powerful.

    Sorting is by exact value; classes with equal values appear adjacent, in
    declaration order, and report layers render them as ties.
    """
    values = {cls: class_power(spec, cls, w) for cls in spec.classes()}
    return tuple((cls, value) for _, cls, value in competition_ranks(values))


def vp_rep_sign_table(spec: UsSpec) -> dict[int, int]:
    """Sign of (VP critical number minus representative critical number) per size.

    Covers every size where either vector is nonzero; +1 means the vice
    president is ahead, -1 the representative, 0 an exact tie.
    """
    return size_signs(class_critical_vector(spec, PlayerClass.VICE_PRESIDENT),
                      class_critical_vector(spec, PlayerClass.REPRESENTATIVE))


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
