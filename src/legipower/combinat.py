"""Exact combinatorics: binomials, binomial rows and the two-chamber sign stream.

In a two-chamber voting game with sizes (m_a, m_b) and quotas (q_a, q_b), a
chamber-A member is critical in C(m_a-1, q_a-1) * C(m_b, k-q_a) coalitions
of size k, and a chamber-B member in C(m_b-1, q_b-1) * C(m_a, k-q_b).
Dividing both products by the two cores and clearing denominators, A's
member is ahead at overshoot i = k - q_a - q_b exactly when P > Q, where P
starts at m_b*q_a and Q at m_a*q_b, and each step from i to i+1 multiplies

    P by (m_b-q_b-i)(q_a+i+1)    and    Q by (m_a-q_a-i)(q_b+i+1).

The two step factors differ by D0 + i*(m_b-m_a), where
D0 = (m_b-q_b)(q_a+1) - (m_a-q_a)(q_b+1): the i*i terms cancel.  With
m_a <= m_b that difference never falls as i grows, so once P/Q rises it
keeps rising.  ``member_signs`` walks i over the common support, 0..last
with last = min(m_a-q_a, m_b-q_b), and stops early in three cases:

* A leads: A leads for the rest of the common support.  A lead at i = 0
  means q_a(m_b-q_b) > q_b(m_a-q_a), which with m_a <= m_b forces
  m_b-q_b >= m_a-q_a and so D0 > 0; a lead taken later is taken on a rising
  step.  Either way P/Q rises from there on.
* B leads and D0 + (last-1)*(m_b-m_a) <= 0: P's factors are at most Q's up
  to the last step, so B leads for the rest of the common support.
* Identical chambers, m_a = m_b and D0 = 0 (so q_a = q_b): the two step
  factors are equal at every step, so the tie at i = 0 holds to the end.

Past the common support only the member with the longer support is
critical, so it leads.  Hence, for m_a < m_b, the sizes where B's member
leads are one run from the minimal size, possibly empty.  If A leads or
ties there, D0 >= 0 as above, so P/Q never falls and A's support is at
least as long.  If B's support is the longer,
D0 + (last-1)*(m_b-m_a) = (q_a-q_b) - (m_a-q_a-m_b+q_b)*m_b < 0, so B leads
at every size.  ``tests/test_chambers.py::TestBicameralSplit``
reads the paper's bicameral split off the stream for every majority pair of
chambers of 3 to 150 seats.
"""

from __future__ import annotations

import math


class FrozenValue:
    """An immutable value whose fields are its class's ``__slots__``, in order.

    Instances of one class are equal, and hash alike, when their fields are;
    an instance of another class is never equal.  They print as
    ``Name(field=value, ...)`` and refuse assignment with ``AttributeError``.
    ``replace(**changes)`` builds a copy through the class's constructor, so
    its checks run again; pickling and ``copy`` rebuild through it too.  The
    base constructor takes every field, positionally.  Only the classes that
    are instantiated name fields; a class between them and this base, such as
    ``counting.SeatGame``, declares ``__slots__ = ()``.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def replace(self, **changes: object):
        """A copy with the named fields changed."""
        new = type(self)(*(changes.pop(name, getattr(self, name)) for name in self.__slots__))
        if changes:
            raise TypeError(f"{type(self).__qualname__} has no field {next(iter(changes))!r}")
        return new


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


def member_signs(m_a: int, q_a: int, m_b: int, q_b: int) -> dict[int, int]:
    """Sign of A's member minus B's at every size where either is critical.

    Exactly ``semivalues.size_signs`` of the two members' critical vectors in
    the two-chamber game, for any quotas in 1..m, ascending from q_a + q_b to
    max(q_a + m_b, q_b + m_a).  Computed by the stream of the module
    docstring, with chamber A the smaller (swap and negate otherwise).

    >>> member_signs(5, 3, 8, 5)
    {8: -1, 9: -1, 10: 1, 11: 1}
    >>> member_signs(3, 2, 6, 4)
    {6: 0, 7: 1, 8: 1}
    """
    for m, q, side in ((m_a, q_a, "A"), (m_b, q_b, "B")):
        if not 1 <= q <= m:
            raise ValueError(f"need 1 <= quota <= size for chamber {side}, got quota={q}, size={m}")
    if m_a > m_b:
        return {k: -s for k, s in member_signs(m_b, q_b, m_a, q_a).items()}
    last = min(m_a - q_a, m_b - q_b)
    d0 = (m_b - q_b) * (q_a + 1) - (m_a - q_a) * (q_b + 1)
    b_keeps_lead = d0 + (last - 1) * (m_b - m_a) <= 0
    lhs, rhs = m_b * q_a, m_a * q_b
    signs = []
    for i in range(last + 1):
        s = (lhs > rhs) - (lhs < rhs)
        signs.append(s)
        if s > 0 or s < 0 and b_keeps_lead or m_a == m_b and d0 == 0:
            signs += [s] * (last - i)
            break
        lhs *= (m_b - q_b - i) * (q_a + i + 1)
        rhs *= (m_a - q_a - i) * (q_b + i + 1)
    tail = (m_b - q_b) - (m_a - q_a)
    signs += [1 if tail > 0 else -1] * abs(tail)
    return dict(enumerate(signs, q_a + q_b))
