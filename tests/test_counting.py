import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from legipower import (
    CoalitionTemplate,
    CountVector,
    PoolConstraint,
    binomial_row,
    template_counts,
)
from legipower.counting import KRONECKER_MIN_LEN, _convolve
from helpers import enumerate_template_counts, plain_convolve


class TestCountVector:
    def test_missing_entries_read_as_zero(self):
        vec = CountVector({5: 2})
        assert vec[5] == 2
        assert vec[6] == 0

    def test_zero_entries_dropped(self):
        assert CountVector({3: 0, 4: 1}).support() == (4,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountVector({3: -1})
        with pytest.raises(ValueError):
            CountVector({-1: 2})

    def test_bounds_and_total(self):
        vec = CountVector({5: 20, 7: 2, 6: 10})
        assert (vec.k_min, vec.k_max) == (5, 7)
        assert vec.total() == 32
        assert vec.items() == [(5, 20), (6, 10), (7, 2)]

    def test_empty(self):
        vec = CountVector()
        assert not vec
        assert vec.k_min is None and vec.k_max is None

    def test_pairs_at_one_size_are_summed(self):
        assert CountVector([(5, 2), (5, 3), (6, 1)]) == {5: 5, 6: 1}

    def test_pairs_at_distinct_sizes_are_kept(self):
        assert CountVector([(3, 1), (4, 1), (5, 1)]) == {3: 1, 4: 1, 5: 1}

    def test_no_pairs_is_empty(self):
        assert CountVector([]) == CountVector()


class TestPoolConstraint:
    @pytest.mark.parametrize("pool", [(2, -1, 1), (2, 2, 1), (2, 1, 3)])
    def test_invalid_rejected(self, pool):
        with pytest.raises(ValueError):
            PoolConstraint(*pool)


class TestTemplateCounts:
    def test_two_pool_example(self):
        template = CoalitionTemplate(1, (PoolConstraint(2, 1, 1), PoolConstraint(5, 3, 5)))
        expected = enumerate_template_counts(template)
        assert expected == {5: 20, 6: 10, 7: 2}
        assert template_counts(template) == expected

    def test_empty_product(self):
        assert template_counts(CoalitionTemplate(0, ())) == {0: 1}

    def test_single_pool_shifted_row(self):
        template = CoalitionTemplate(2, (PoolConstraint(3, 0, 3),))
        assert template_counts(template) == {2: 1, 3: 3, 4: 3, 5: 1}


class TestJointQuotaCounts:
    def test_two_chambers(self):
        template = CoalitionTemplate(0, (PoolConstraint(3, 2, 3), PoolConstraint(4, 3, 4)))
        assert enumerate_template_counts(template)[5] == 12
        assert template_counts(template)[5] == 12

    def test_everyone_needed_at_the_top(self):
        template = CoalitionTemplate(0, (PoolConstraint(3, 2, 3), PoolConstraint(4, 3, 4)))
        assert template_counts(template)[7] == 1

    def test_below_quota_is_zero(self):
        assert template_counts(CoalitionTemplate(0, (PoolConstraint(3, 2, 3),)))[1] == 0

    def test_empty_chamber_list(self):
        assert template_counts(CoalitionTemplate(0)) == {0: 1}

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            PoolConstraint(3, 4, 3)


_pools = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).map(
        lambda t: PoolConstraint(max(t[0], t[1], t[2]), min(t[1], t[2]), max(t[1], t[2]))
    ),
    min_size=0,
    max_size=3,
)


def _small_templates(pools, fixed):
    template = CoalitionTemplate(fixed, tuple(pools))
    if sum(p.pool_size for p in template.pools) > 14:
        return None
    return template


class TestTemplateProperties:
    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_matches_exhaustive_enumeration(self, pools, fixed):
        template = _small_templates(pools, fixed)
        if template is None:
            return
        assert template_counts(template) == enumerate_template_counts(template)

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_total_mass(self, pools, fixed):
        template = CoalitionTemplate(fixed, tuple(pools))
        expected = math.prod(
            sum(math.comb(p.pool_size, a) for a in range(p.min_pick, p.max_pick + 1))
            for p in template.pools
        )
        assert template_counts(template).total() == expected

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_pool_order_irrelevant(self, pools, fixed):
        template = CoalitionTemplate(fixed, tuple(pools))
        reordered = CoalitionTemplate(fixed, tuple(reversed(template.pools)))
        assert template_counts(template) == template_counts(reordered)

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_support_is_an_interval(self, pools, fixed):
        support = template_counts(CoalitionTemplate(fixed, tuple(pools))).support()
        assert list(support) == list(range(support[0], support[-1] + 1))


def _rows(max_len):
    entries = st.one_of(st.just(0), st.integers(0, 10 ** 80))
    return st.integers(1, max_len).flatmap(
        lambda n: st.lists(entries, min_size=n, max_size=n))


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int-to-string conversion, as a
    library caller that never goes through ``cli.main`` has it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class TestConvolve:
    CUT = KRONECKER_MIN_LEN

    @settings(max_examples=60, deadline=None)
    @given(a=_rows(3 * CUT), b=_rows(3 * CUT))
    @example(a=[5], b=[7])
    @example(a=[3], b=[1] * 200)
    @example(a=[0] * (CUT + 1), b=[0] * (CUT + 1))
    @example(a=[2] * CUT, b=[3] * 400)
    @example(a=[2] * (CUT + 1), b=[3] * (CUT + 1))
    @example(a=[10 ** 30 - 1] * 400, b=[10 ** 30 - 1] * (CUT + 1))
    @example(a=[2 ** 100 - 1] * 64, b=[0, 2 ** 100 - 1] * 40)
    def test_equals_the_double_loop(self, a, b):
        assert _convolve(a, b) == plain_convolve(a, b)

    def test_past_the_int_string_digit_limit(self, default_digit_limit):
        # C(15001, k) near the middle has about 4514 digits.
        row = binomial_row(15001)
        a, b = row[7450:7550], row[7000:7100]
        out = _convolve(a, b)
        assert out == plain_convolve(a, b)
        assert max(out) > 10 ** 9000
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(ValueError):
                str(max(out))
