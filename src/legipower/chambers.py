"""Closed-form member critical numbers for multicameral legislatures.

A legislature passes a motion when every chamber meets its quota: counted in
seats, the winning coalitions are the up-set of one corner, the quotas.
``MulticamSpec.corners()`` states it, and ``SeatGame.critical_vector`` counts
a member's critical coalitions from it: at size k, C(m-1, q-1) * U(k - q),
where U counts the quota-meeting picks from the other chambers.
``compare_members`` compares two classes of any spec, a ``UsSpec`` too, as
``weak_desirability`` does; on two chambers the per-size signs are
cross-checked against ``combinat.member_signs``.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

from .combinat import FrozenValue, member_signs
from .counting import SeatGame
from .semivalues import Relation, size_signs


def majority_quota(size: int) -> int:
    """Smallest strict majority of a chamber: ceil((size + 1) / 2)."""
    if size < 1:
        raise ValueError(f"chamber size must be >= 1, got {size}")
    return (size + 2) // 2


class ChamberSpec(FrozenValue):
    """One chamber: a name, its member count, and its passage quota."""

    __slots__ = ("name", "size", "quota")

    def __init__(self, name: str, size: int, quota: int) -> None:
        super().__init__(name, size, quota)
        if not self.name:
            raise ValueError("chamber name must be nonempty")
        if self.size < 1:
            raise ValueError(f"chamber {self.name!r}: size must be >= 1, got {self.size}")
        if not 1 <= self.quota <= self.size:
            raise ValueError(
                f"chamber {self.name!r}: need 1 <= quota <= size, "
                f"got quota={self.quota}, size={self.size}"
            )

    @classmethod
    def simple_majority(cls, name: str, size: int) -> "ChamberSpec":
        return cls(name, size, majority_quota(size))


class MulticamSpec(SeatGame):
    """A legislature of one or more chambers; passage needs every quota met."""

    __slots__ = ("chambers",)

    def __init__(self, chambers: Iterable[ChamberSpec]) -> None:
        super().__init__(tuple(chambers))
        if not self.chambers:
            raise ValueError("a legislature needs at least one chamber")
        names = [c.name for c in self.chambers]
        if len(set(names)) != len(names):
            raise ValueError(f"chamber names must be unique, got {names}")

    def axes(self) -> tuple[tuple[str, int], ...]:
        """(class id, seats) per seat-count axis, in bit order: one per
        chamber, named after it, in chamber order."""
        return tuple((c.name, c.size) for c in self.chambers)

    def corners(self) -> list[tuple[int, ...]]:
        """The winning seat counts: one corner, the quotas."""
        return [tuple(c.quota for c in self.chambers)]

    def to_document(self) -> dict:
        """The spec-file document describing this legislature."""
        return {"chambers": [{"name": c.name, "size": c.size, "quota": c.quota}
                             for c in self.chambers]}


class CertificationMismatchError(RuntimeError):
    """The two-chamber sign stream contradicted the critical vectors; the
    implementation is wrong."""


def _member_signs(spec: SeatGame, a: str, b: str) -> dict[int, int]:
    """``size_signs`` of a player of class ``a`` minus one of class ``b``.

    On a two-chamber ``MulticamSpec`` they must equal ``member_signs``, the
    second route.
    """
    if a == b:
        raise ValueError("compare needs two distinct classes")
    signs = size_signs(spec.critical_vector(a), spec.critical_vector(b))
    if isinstance(spec, MulticamSpec) and len(spec.chambers) == 2:
        by_name = {c.name: c for c in spec.chambers}
        ca, cb = by_name[a], by_name[b]
        stream = member_signs(ca.size, ca.quota, cb.size, cb.quota)
        if stream != signs:
            k = min(k for k in signs.keys() | stream.keys() if signs.get(k) != stream.get(k))
            raise CertificationMismatchError(
                f"sign stream gives {stream.get(k)} at size {k}, the critical vectors "
                f"give {signs.get(k)}"
            )
    return signs


def compare_members(spec: SeatGame, a: str, b: str) -> Relation:
    """``weak_desirability`` of a player of class ``a`` against one of class ``b``,
    on a ``MulticamSpec`` or a ``UsSpec``.

    On two chambers the sign stream cross-checks the comparison first.
    Swapping the arguments mirrors the relation.
    """
    return Relation.from_signs(_member_signs(spec, a, b))


class CaseClass(Enum):
    """Parity/gap classification of a two-chamber legislature, smaller first."""

    BOTH_ODD = "both-odd"
    BOTH_EVEN = "both-even"
    SMALL_EVEN_LARGE_ODD = "small-even-large-odd"
    SMALL_ODD_LARGE_EVEN_WIDE = "small-odd-large-even-wide"          # large > 2 * small
    SMALL_ODD_LARGE_EVEN_DOUBLE = "small-odd-large-even-double"      # large == 2 * small
    SMALL_ODD_LARGE_EVEN_ADJACENT = "small-odd-large-even-adjacent"  # large == small + 1
    SMALL_ODD_LARGE_EVEN_BETWEEN = "small-odd-large-even-between"


def classify_bicameral(m_small: int, m_large: int) -> CaseClass:
    """Classify a two-chamber majority-rule legislature by parity and size gap."""
    if not 1 <= m_small < m_large:
        raise ValueError(f"need 1 <= m_small < m_large, got {m_small}, {m_large}")
    small_odd = m_small % 2 == 1
    large_odd = m_large % 2 == 1
    if small_odd and large_odd:
        return CaseClass.BOTH_ODD
    if not small_odd and not large_odd:
        return CaseClass.BOTH_EVEN
    if not small_odd:
        return CaseClass.SMALL_EVEN_LARGE_ODD
    if m_large > 2 * m_small:
        return CaseClass.SMALL_ODD_LARGE_EVEN_WIDE
    if m_large == 2 * m_small:
        return CaseClass.SMALL_ODD_LARGE_EVEN_DOUBLE
    if m_large == m_small + 1:
        return CaseClass.SMALL_ODD_LARGE_EVEN_ADJACENT
    return CaseClass.SMALL_ODD_LARGE_EVEN_BETWEEN


def crossover_sizes(m_small: int, q_small: int, m_large: int, q_large: int) -> frozenset[int]:
    """Sizes where the larger chamber's member is strictly ahead.

    Read off the stream-checked signs that ``compare_members`` uses.  The
    result is one run of consecutive sizes starting at the larger chamber's
    member's first critical size, possibly empty, at every quota: proved by
    the lemma in the ``combinat`` module docstring.
    """
    if not m_small < m_large:
        raise ValueError(f"need m_small < m_large, got {m_small}, {m_large}")
    spec = MulticamSpec((ChamberSpec("small", m_small, q_small),
                         ChamberSpec("large", m_large, q_large)))
    signs = _member_signs(spec, "small", "large")
    return frozenset(k for k, s in signs.items() if s < 0)
