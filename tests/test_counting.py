import math

import pytest
from hypothesis import given, settings, strategies as st

from legipower import (
    CoalitionTemplate,
    CountVector,
    PoolConstraint,
    joint_quota_vector,
    sum_counts,
    template_counts,
)
from helpers import enumerate_template_counts


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
        assert joint_quota_vector([(3, 2), (4, 3)])[5] == 12

    def test_everyone_needed_at_the_top(self):
        assert joint_quota_vector([(3, 2), (4, 3)])[7] == 1

    def test_below_quota_is_zero(self):
        assert joint_quota_vector([(3, 2)])[1] == 0

    def test_empty_chamber_list(self):
        assert joint_quota_vector(()) == {0: 1}

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            joint_quota_vector([(3, 0)])[2]
        with pytest.raises(ValueError):
            joint_quota_vector([(3, 4)])[2]


class TestSumCounts:
    def test_pointwise(self):
        total = sum_counts([CountVector({5: 2}), CountVector({5: 3, 6: 1})])
        assert total == {5: 5, 6: 1}

    def test_empty_list(self):
        assert sum_counts([]) == CountVector()

    def test_disjoint_supports(self):
        vecs = [CountVector({3: 1}), CountVector({4: 1}), CountVector({5: 1})]
        assert sum_counts(vecs) == {3: 1, 4: 1, 5: 1}


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
