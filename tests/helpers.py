"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's code paths: binomials come
from the Pascal recurrence or ``math.comb``, a box union's critical counts
from explicit subset enumeration, and the passage rules below are evaluated
one bitmask at a time, the way ``bitmask.rule_table`` defines a table, against
which ``bitmask.from_spec``'s broadcast tables are checked.  The hypothesis
strategies at the end draw spec-file documents.
"""

from __future__ import annotations

import math
from typing import Callable

from hypothesis import strategies as st

from legipower import MulticamSpec, UsSpec

# Small US-style systems (at most 14 players) covering both executive flags
# and every ordering of signature versus override quotas.
MINI_US_SPECS = [
    UsSpec(4, 5, 3, 3, 4, 4, True, True),
    UsSpec(3, 4, 2, 3, 3, 4, True, True),
    UsSpec(3, 5, 2, 3, 3, 4, True, True),
    UsSpec(4, 4, 3, 3, 4, 4, True, True),
    UsSpec(5, 5, 3, 3, 4, 4, True, True),
    UsSpec(3, 4, 2, 3, 3, 4, True, False),
    UsSpec(3, 4, 2, 3, 3, 4, False, True),
    UsSpec(3, 4, 2, 3, 3, 4, False, False),
    UsSpec(4, 5, 4, 3, 3, 4, True, True),    # signature quota above the override quota
    UsSpec(4, 5, 2, 4, 3, 3, True, True),    # house quotas inverted
    UsSpec(4, 5, 3, 3, 3, 3, True, True),    # override equals signature
    UsSpec(4, 6, 3, 6, 4, 6, True, True),    # unanimity house
    UsSpec(4, 5, 1, 1, 4, 4, True, True),    # tiny quotas
]


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) via the addition recurrence, never via factorials or math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def product_sign(m_a: int, q_a: int, m_b: int, q_b: int, k: int) -> int:
    """Sign of C(m_a-1, q_a-1) * C(m_b, k-q_a) - C(m_b-1, q_b-1) * C(m_a, k-q_b).

    The two-chamber critical products at size k >= q_a + q_b, evaluated in
    full (``math.comb`` is 0 past the top of a row).
    """
    lhs = math.comb(m_a - 1, q_a - 1) * math.comb(m_b, k - q_a)
    rhs = math.comb(m_b - 1, q_b - 1) * math.comb(m_a, k - q_b)
    return (lhs > rhs) - (lhs < rhs)


def plain_convolve(a: list[int], b: list[int]) -> list[int]:
    """Convolution of two rows by the textbook double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def box_union_critical_counts(seats: list[int], corners, axis: int) -> dict[int, int]:
    """Per-size counts of the coalitions that pass and fail without player 0
    of ``axis``, where a coalition passes when its seats on every axis reach
    one corner's, so lie in the box from the corner to the seats; every
    subset of a labelled universe is checked."""
    offsets = [sum(seats[:i]) for i in range(len(seats))]

    def wins(mask: int) -> bool:
        counts = [((mask >> o) & ((1 << m) - 1)).bit_count() for o, m in zip(offsets, seats)]
        return any(all(a >= c for a, c in zip(counts, corner)) for corner in corners)

    player = 1 << offsets[axis]
    critical: dict[int, int] = {}
    for mask in range(1 << sum(seats)):
        if mask & player and wins(mask) and not wins(mask ^ player):
            critical[mask.bit_count()] = critical.get(mask.bit_count(), 0) + 1
    return critical


def multicam_rule(spec: MulticamSpec) -> tuple[list[str], Callable[[int], bool]]:
    """Labels and per-bitmask passage rule of a multicameral spec; the first
    chamber takes the lowest bits."""
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


def us_rule(spec: UsSpec) -> tuple[list[str], Callable[[int], bool]]:
    """Labels and per-bitmask passage rule of a US-style spec; the president,
    the vice president, the senators and the representatives take the bits
    from the lowest up."""
    labels: list[str] = []
    offset = 0
    p_bit = v_bit = 0
    if spec.has_president:
        labels.append("president")
        p_bit = 1 << offset
        offset += 1
    if spec.has_vp:
        labels.append("vice_president")
        v_bit = 1 << offset
        offset += 1
    labels.extend(["senator"] * spec.senate_size)
    s_mask = ((1 << spec.senate_size) - 1) << offset
    offset += spec.senate_size
    labels.extend(["representative"] * spec.house_size)
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


names = st.text(alphabet="abcxyzAB_-", min_size=1, max_size=6)


@st.composite
def _chamber_docs(draw, count):
    chambers = []
    for name in draw(st.lists(names, min_size=count, max_size=count, unique=True)):
        size = draw(st.integers(1, 40))
        chambers.append({"name": name, "size": size, "quota": draw(st.integers(1, size))})
    return chambers


@st.composite
def spec_documents(draw):
    """A multicameral document of 1 to 4 chambers, or a US-style one of two,
    every chamber of 1 to 40 seats at any quota."""
    if draw(st.booleans()):
        return {"chambers": draw(_chamber_docs(draw(st.integers(1, 4))))}
    chambers = draw(_chamber_docs(2))
    return {
        "chambers": chambers,
        "executive": {
            "president": draw(st.booleans()),
            "vice_president": draw(st.booleans()),
            "override": {c["name"]: draw(st.integers(1, c["size"])) for c in chambers},
        },
    }
