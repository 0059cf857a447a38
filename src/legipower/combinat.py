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

The tests of ``certify_comparison`` give the paper's bicameral result.
Put the smaller house s in chamber A and the larger l in B, with majority
quotas: 2a+1 seats have q = a+1 and m-q = a, and 2a seats have q = a+1 and
m-q = a-1.  The minimal-size test q_s*m_l > q_l*m_s and the growth test
(m_l-q_l)(q_s+1) > (m_s-q_s)(q_l+1) then reduce, per ``CaseClass``, to:

* BOTH_ODD, 2a+1 < 2b+1: both tests to b > a.
* BOTH_EVEN, 2a < 2b: minimal size to b > a, growth to 3b > 3a.
* SMALL_EVEN_LARGE_ODD, 2a < 2b+1 so a <= b: minimal size to 2b+1 > a, growth to 3b+2 > 2a.
* SMALL_ODD_LARGE_EVEN_WIDE, 2b > 4a+2: minimal size to b > 2a+1, growth to 2b > 3a+2 (b >= 2a+2).
* SMALL_ODD_LARGE_EVEN_DOUBLE, 2b = 4a+2: minimal sizes tie; the seed test to 2(a+2) > 2a+3.
* SMALL_ODD_LARGE_EVEN_ADJACENT, 2b = 2a+2: b > 2a+1 fails, so l leads at the minimal size.
* SMALL_ODD_LARGE_EVEN_BETWEEN, 2a+2 < 2b < 4a+2: b > 2a+1 fails, as in the adjacent case.

So outside the last two cases the smaller house's member is ahead at every
size, hence under every semivalue; in the double case it ties at the minimal
size and is ahead at every other.  ``tests/test_chambers.py::TestBicameralSplit``
checks each case.
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


def _verdict(lhs: int, rhs: int, basis: CertBasis) -> CertVerdict:
    """Greater, equal or not certified, as lhs compares with rhs."""
    if lhs > rhs:
        return CertVerdict(CertOutcome.CERTIFIED_GREATER, basis)
    if lhs == rhs:
        return CertVerdict(CertOutcome.CERTIFIED_EQUAL, basis)
    return _NOT_CERTIFIED


def certify_comparison(m_a: int, q_a: int, m_b: int, q_b: int) -> dict[int, CertVerdict]:
    """Certified verdicts on whether A's product beats B's, for every relevant size.

    The products compared at size k are C(m_a-1, q_a-1) * C(m_b, k-q_a) and
    C(m_b-1, q_b-1) * C(m_a, k-q_b).  Returns a map over all sizes k where at
    least one of them is nonzero, i.e. q_a + q_b <= k <= max(q_a + m_b,
    q_b + m_a).  Verdicts come only from three exact small-integer tests:

    * minimal size: the comparison reduces to quota shares, greater iff
      q_a*m_b > q_b*m_a, equal iff the two match;
    * growth: (m_b-q_b)*(q_a+1) > (m_a-q_a)*(q_b+1), so with m_a < m_b a
      lead at the minimal size persists at every later size;
    * seed, the exact comparison at the second size:
      (m_b-q_b)*m_b*(q_a+1)*q_a against (m_a-q_a)*m_a*(q_b+1)*q_b.  With
      m_a < m_b and no lead at the minimal size, a lead here crosses exactly
      once and A stays ahead from the second size on.

    Sizes beyond the shorter support, where only one product can be nonzero,
    inherit the range verdict when chamber A's support is the longer one.
    Where no test applies the verdict is NOT_CERTIFIED; big binomials are
    never evaluated.

    >>> certify_comparison(3, 2, 5, 3)[5].outcome
    <CertOutcome.CERTIFIED_GREATER: 'certified-greater'>
    """
    _check_quota_interior(m_a, q_a, "A")
    _check_quota_interior(m_b, q_b, "B")

    first = _verdict(q_a * m_b, q_b * m_a, CertBasis.MIN_SIZE_RATIO)
    seed = _verdict((m_b - q_b) * m_b * (q_a + 1) * q_a,
                    (m_a - q_a) * m_a * (q_b + 1) * q_b, CertBasis.SINGLE_CROSSING)
    growth = (m_b - q_b) * (q_a + 1) > (m_a - q_a) * (q_b + 1)
    lead_first = first.outcome is CertOutcome.CERTIFIED_GREATER
    if m_a < m_b and lead_first and growth:
        whole = CertVerdict(CertOutcome.CERTIFIED_GREATER, CertBasis.SEED_PAIR)
    elif m_a < m_b and not lead_first and seed.outcome is CertOutcome.CERTIFIED_GREATER:
        whole = seed
    else:
        whole = _NOT_CERTIFIED
    second = seed if whole is _NOT_CERTIFIED else whole
    tail = whole if q_a + m_b > q_b + m_a else _NOT_CERTIFIED

    # Interior quotas put the second size inside both supports.
    k_min = q_a + q_b
    k_both = min(q_a + m_b, q_b + m_a)
    k_max = max(q_a + m_b, q_b + m_a)
    return {k_min: first, k_min + 1: second,
            **dict.fromkeys(range(k_min + 2, k_both + 1), whole),
            **dict.fromkeys(range(k_both + 1, k_max + 1), tail)}
