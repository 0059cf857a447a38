"""Exact combinatorics for comparing products of binomial coefficients.

In a two-chamber voting game with sizes (m_a, m_b) and quotas (q_a, q_b), a
chamber-A member is critical in C(m_a-1, q_a-1) * C(m_b, k-q_a) coalitions
of size k, and a chamber-B member in C(m_b-1, q_b-1) * C(m_a, k-q_b).
Dividing both products by the two cores, A is ahead at overshoot
i = k - q_a - q_b exactly when B's ratio C(m_b, q_b+i) / C(m_b-1, q_b-1)
beats A's C(m_a, q_a+i) / C(m_a-1, q_a-1).  Each ratio starts at m/q and
grows by the small-integer factor (m-q-i)/(q+i+1) per step, so comparing
starting points and growth factors decides the comparison from sizes and
quotas alone: ``certify_comparison`` never touches a big binomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def binomial(n: int, k: int) -> int:
    """Number of k-subsets of an n-set; 0 when k is outside [0, n].

    The out-of-range convention lets counting sums skip boundary special cases.

    >>> binomial(4, 2)
    6
    >>> binomial(5, 6)
    0
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_row(n: int) -> list[int]:
    """[C(n, 0), C(n, 1), ..., C(n, n)] in one pass.

    Built with C(n, a+1) = C(n, a) * (n - a) // (a + 1), which is exact at
    every step, up to the middle and mirrored from there: one multiplication
    and one division by a small integer per entry instead of a fresh
    ``math.comb`` each.

    >>> binomial_row(4)
    [1, 4, 6, 4, 1]
    """
    if n < 0:
        raise ValueError(f"binomial_row requires n >= 0, got n={n}")
    row = [1] * (n + 1)
    c = 1
    for a in range(n // 2):
        c = c * (n - a) // (a + 1)
        row[a + 1] = row[n - a - 1] = c
    return row


def _check_quota_interior(m: int, q: int, side: str) -> None:
    if not 1 < q < m:
        raise ValueError(f"need 1 < quota < size for chamber {side}, got quota={q}, size={m}")


class CertOutcome(Enum):
    CERTIFIED_GREATER = "certified-greater"
    CERTIFIED_EQUAL = "certified-equal"
    NOT_CERTIFIED = "not-certified"


class CertBasis(Enum):
    """Which small-integer test justified a verdict."""

    MIN_SIZE_RATIO = "min-size-ratio"      # quota-share comparison at the minimal size
    SEED_PAIR = "seed-pair"                # both entry conditions hold: lead covers the whole range
    SINGLE_CROSSING = "single-crossing"    # lead established at the second size persists upward
    NONE = "none"


@dataclass(frozen=True)
class CertVerdict:
    outcome: CertOutcome
    basis: CertBasis


_NOT_CERTIFIED = CertVerdict(CertOutcome.NOT_CERTIFIED, CertBasis.NONE)


def certify_comparison(m_a: int, q_a: int, m_b: int, q_b: int) -> dict[int, CertVerdict]:
    """Certified verdicts on whether A's product beats B's, for every relevant size.

    The products compared at size k are C(m_a-1, q_a-1) * C(m_b, k-q_a) and
    C(m_b-1, q_b-1) * C(m_a, k-q_b).  Returns a map over all sizes k where at
    least one of them is nonzero, i.e. q_a + q_b <= k <= max(q_a + m_b,
    q_b + m_a).  Verdicts come only from exact small-integer conditions:

    * At the minimal size the comparison reduces to quota shares:
      greater iff q_a*m_b > q_b*m_a, equal iff the products match.
    * If additionally (m_b-q_b)*(q_a+1) > (m_a-q_a)*(q_b+1) and m_a < m_b,
      the chamber-A lead persists at every later size.
    * Failing that, if the second size favours chamber A
      ((m_b-q_b)*m_b*(q_a+1)*q_a > (m_a-q_a)*m_a*(q_b+1)*q_b) while the
      minimal size does not, the comparison crosses exactly once and A stays
      ahead from the second size on (again requires m_a < m_b).

    Sizes beyond the shorter support, where only chamber A's product can be
    nonzero, inherit the active range verdict.  Where no condition applies the
    verdict is NOT_CERTIFIED; big binomials are never evaluated.
    """
    _check_quota_interior(m_a, q_a, "A")
    _check_quota_interior(m_b, q_b, "B")

    k_min = q_a + q_b
    top_a = q_a + m_b
    top_b = q_b + m_a
    k_both = min(top_a, top_b)
    k_max = max(top_a, top_b)

    min_lhs = q_a * m_b
    min_rhs = q_b * m_a
    growth_gt = (m_b - q_b) * (q_a + 1) > (m_a - q_a) * (q_b + 1)
    seed_lhs = (m_b - q_b) * m_b * (q_a + 1) * q_a
    seed_rhs = (m_a - q_a) * m_a * (q_b + 1) * q_b
    ordered = m_a < m_b

    whole_range = ordered and min_lhs > min_rhs and growth_gt
    crossed = ordered and min_lhs <= min_rhs and seed_lhs > seed_rhs

    greater_seed = CertVerdict(CertOutcome.CERTIFIED_GREATER, CertBasis.SEED_PAIR)
    greater_cross = CertVerdict(CertOutcome.CERTIFIED_GREATER, CertBasis.SINGLE_CROSSING)

    verdicts: dict[int, CertVerdict] = {}
    for k in range(k_min, k_max + 1):
        if k == k_min:
            if min_lhs > min_rhs:
                verdicts[k] = CertVerdict(CertOutcome.CERTIFIED_GREATER, CertBasis.MIN_SIZE_RATIO)
            elif min_lhs == min_rhs:
                verdicts[k] = CertVerdict(CertOutcome.CERTIFIED_EQUAL, CertBasis.MIN_SIZE_RATIO)
            else:
                verdicts[k] = _NOT_CERTIFIED
        elif k <= k_both:
            if whole_range:
                verdicts[k] = greater_seed
            elif crossed:
                verdicts[k] = greater_cross
            elif k == k_min + 1 and seed_lhs > seed_rhs:
                verdicts[k] = greater_cross
            elif k == k_min + 1 and seed_lhs == seed_rhs:
                verdicts[k] = CertVerdict(CertOutcome.CERTIFIED_EQUAL, CertBasis.SINGLE_CROSSING)
            else:
                verdicts[k] = _NOT_CERTIFIED
        else:
            # Only one product can be nonzero out here; chamber A's side wins
            # exactly when its support is the longer one.
            if top_a > top_b and whole_range:
                verdicts[k] = greater_seed
            elif top_a > top_b and crossed:
                verdicts[k] = greater_cross
            else:
                verdicts[k] = _NOT_CERTIFIED
    return verdicts
