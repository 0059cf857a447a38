"""Closed-form member critical numbers for multicameral legislatures.

A legislature passes a motion when every chamber meets its quota.  A member's
critical number at size k factors into the member's own quota core times the
joint quota count of the remaining chambers; member-versus-member comparisons
are computed exactly and cross-checked against the certificate route where it
applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .combinat import CertOutcome, binomial, certify_comparison
from .counting import CountVector, joint_quota_vector
from .semivalues import size_signs


def majority_quota(size: int) -> int:
    """Smallest strict majority of a chamber: ceil((size + 1) / 2)."""
    if size < 1:
        raise ValueError(f"chamber size must be >= 1, got {size}")
    return (size + 2) // 2


@dataclass(frozen=True)
class ChamberSpec:
    """One chamber: a name, its member count, and its passage quota."""

    name: str
    size: int
    quota: int

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class MulticamSpec:
    """A legislature of one or more chambers; passage needs every quota met."""

    chambers: tuple[ChamberSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chambers", tuple(self.chambers))
        if not self.chambers:
            raise ValueError("a legislature needs at least one chamber")
        names = [c.name for c in self.chambers]
        if len(set(names)) != len(names):
            raise ValueError(f"chamber names must be unique, got {names}")

    @property
    def total_players(self) -> int:
        return sum(c.size for c in self.chambers)

    def class_ids(self) -> tuple[str, ...]:
        """One player class per chamber, named after it, in chamber order."""
        return tuple(c.name for c in self.chambers)

    def critical_vector(self, class_id: str) -> CountVector:
        return member_critical_vector(self, class_id)

    def to_document(self) -> dict:
        """The spec-file document describing this legislature."""
        return {"chambers": [{"name": c.name, "size": c.size, "quota": c.quota}
                             for c in self.chambers]}

    def chamber(self, name: str) -> ChamberSpec:
        for c in self.chambers:
            if c.name == name:
                return c
        raise KeyError(f"no chamber named {name!r}")

    def others(self, name: str) -> tuple[ChamberSpec, ...]:
        self.chamber(name)
        return tuple(c for c in self.chambers if c.name != name)


def member_critical_vector(spec: MulticamSpec, chamber: str) -> CountVector:
    """Exact critical numbers of one member of the named chamber.

    At size k the member is critical in C(m-1, q-1) * U(k - q) coalitions,
    where U counts joint quota-meeting picks from the remaining chambers
    (U(0) = 1 for a single-chamber legislature).
    """
    own = spec.chamber(chamber)
    core = binomial(own.size - 1, own.quota - 1)
    rest = joint_quota_vector((c.size, c.quota) for c in spec.others(chamber))
    return CountVector({k + own.quota: core * v for k, v in rest.items()})


class MemberRelation(Enum):
    STRICT_DOMINANCE = "strict-dominance"
    WEAK_DOMINANCE = "weak-dominance"
    EQUAL = "equal"
    CROSSOVER = "crossover"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of comparing two chambers' member critical vectors.

    ``dominant`` names the chamber ahead overall (for CROSSOVER, the side
    ahead at the top of the shared range); ``crossover_sizes`` lists the sizes
    where the other side is strictly ahead, and is empty unless the relation
    is CROSSOVER.  ``per_k`` gives the sign of (first minus second) at every
    size where either vector is nonzero.
    """

    relation: MemberRelation
    dominant: str | None
    crossover_sizes: frozenset[int]
    per_k: tuple[tuple[int, int], ...]


class CertificationMismatchError(RuntimeError):
    """A certificate contradicted direct evaluation; the implementation is wrong."""


def _cross_check_certificate(spec: MulticamSpec, a: ChamberSpec, b: ChamberSpec,
                             signs: dict[int, int]) -> None:
    if len(spec.chambers) != 2:
        return
    if not (1 < a.quota < a.size and 1 < b.quota < b.size):
        return
    for k, verdict in certify_comparison(a.size, a.quota, b.size, b.quota).items():
        if verdict.outcome is CertOutcome.CERTIFIED_GREATER and signs.get(k, 0) <= 0:
            raise CertificationMismatchError(
                f"certificate says {a.name} member ahead at size {k}, evaluation disagrees"
            )
        if verdict.outcome is CertOutcome.CERTIFIED_EQUAL and signs.get(k, 0) != 0:
            raise CertificationMismatchError(
                f"certificate says equality at size {k}, evaluation disagrees"
            )


def compare_members(spec: MulticamSpec, a: str, b: str) -> ComparisonVerdict:
    """Compare one member of chamber ``a`` against one member of chamber ``b``.

    STRICT_DOMINANCE means the first member's critical number is strictly
    larger at every size where the two are not both zero; WEAK_DOMINANCE
    allows ties.  Swapping the arguments inverts the verdict.
    """
    if a == b:
        raise ValueError("compare_members needs two distinct chambers")
    ca = spec.chamber(a)
    cb = spec.chamber(b)
    va = member_critical_vector(spec, a)
    vb = member_critical_vector(spec, b)

    signs = size_signs(va, vb)
    _cross_check_certificate(spec, ca, cb, signs)

    per_k = tuple(signs.items())
    has_pos = any(s > 0 for s in signs.values())
    has_neg = any(s < 0 for s in signs.values())

    if not has_pos and not has_neg:
        return ComparisonVerdict(MemberRelation.EQUAL, None, frozenset(), per_k)
    if has_pos and has_neg:
        top_sign = next(s for _, s in reversed(per_k) if s != 0)
        dominant = a if top_sign > 0 else b
        cross = frozenset(k for k, s in signs.items() if s == -top_sign)
        return ComparisonVerdict(MemberRelation.CROSSOVER, dominant, cross, per_k)
    dominant = a if has_pos else b
    strict = 0 not in signs.values()
    relation = MemberRelation.STRICT_DOMINANCE if strict else MemberRelation.WEAK_DOMINANCE
    return ComparisonVerdict(relation, dominant, frozenset(), per_k)


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

    Read off ``compare_members`` (so the certificate cross-check runs too); by
    the single-crossing behaviour of the underlying comparison the result is a
    prefix of the range where the larger chamber's member is critical
    (possibly empty, possibly all of it).
    """
    if not m_small < m_large:
        raise ValueError(f"need m_small < m_large, got {m_small}, {m_large}")
    spec = MulticamSpec((ChamberSpec("small", m_small, q_small),
                         ChamberSpec("large", m_large, q_large)))
    return frozenset(k for k, s in compare_members(spec, "small", "large").per_k if s < 0)
