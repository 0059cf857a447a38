import math
from fractions import Fraction

import pytest

from legipower import binomial, binomial_row, member_signs
from helpers import pascal_binomial, product_sign


class TestBinomial:
    def test_small_cases(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 0) == 1
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_large_value_against_pascal_oracle(self):
        expected = 100891344545564193334812497256
        assert pascal_binomial(100, 50) == expected
        assert binomial(100, 50) == expected

    def test_pascal_identity_grid(self):
        for n in range(60):
            for k in range(n):
                assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)

    def test_ratio_recurrence_grid(self):
        for n in range(1, 61):
            for k in range(n):
                assert binomial(n, k + 1) * (k + 1) == binomial(n, k) * (n - k)


class TestBinomialRow:
    def test_matches_math_comb(self):
        for n in [*range(201), 1999, 4000]:
            assert binomial_row(n) == [math.comb(n, k) for k in range(n + 1)], n

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial_row(-1)


def _count_ratio(size, quota, overshoot):
    # Chamber's ways to supply quota + overshoot members, over the ways to
    # complete one member's quota core: the ratio member_signs compares.
    return Fraction(binomial(size, quota + overshoot), binomial(size - 1, quota - 1))


class TestRatioFacts:
    # The facts member_signs rests on: each chamber's ratio starts at
    # size/quota and grows by (size-quota-i)/(quota+i+1) per unit of overshoot.
    def test_count_ratio_values(self):
        assert _count_ratio(5, 2, 0) == Fraction(5, 2)
        assert _count_ratio(5, 2, 1) == Fraction(10, 4)
        assert _count_ratio(6, 3, 1) == Fraction(3, 2)

    def test_count_ratio_at_zero_overshoot_is_size_over_quota(self):
        for size in range(2, 20):
            for quota in range(1, size):
                assert _count_ratio(size, quota, 0) == Fraction(size, quota)

    def test_growth_factor_values(self):
        assert _count_ratio(5, 2, 1) / _count_ratio(5, 2, 0) == 1
        assert _count_ratio(5, 2, 2) / _count_ratio(5, 2, 1) == Fraction(1, 2)
        assert _count_ratio(10, 4, 3) / _count_ratio(10, 4, 2) == Fraction(4, 7)

    def test_growth_identity_grid(self):
        for size in range(2, 41):
            for quota in range(1, size):
                for overshoot in range(size - quota - 1):
                    assert _count_ratio(size, quota, overshoot + 1) == Fraction(
                        size - quota - overshoot, quota + overshoot + 1
                    ) * _count_ratio(size, quota, overshoot)


def _direct_signs(m_a, q_a, m_b, q_b):
    # product_sign at every size where either member is critical, ascending.
    sizes = range(q_a + q_b, max(q_a + m_b, q_b + m_a) + 1)
    return {k: product_sign(m_a, q_a, m_b, q_b, k) for k in sizes}


class TestMemberSigns:
    def test_dominant_pair_ahead_everywhere(self):
        assert member_signs(3, 2, 5, 3) == {5: 1, 6: 1, 7: 1}

    def test_tied_minimum_then_ahead(self):
        assert member_signs(3, 2, 6, 4) == {6: 0, 7: 1, 8: 1}

    def test_examples_against_direct_products(self):
        # 20 > 18, 8 < 9 and 30 == 30: product_sign and the stream agree.
        assert product_sign(3, 2, 5, 3, 5) == member_signs(3, 2, 5, 3)[5] == 1
        assert product_sign(3, 2, 4, 3, 5) == member_signs(3, 2, 4, 3)[5] == -1
        assert member_signs(4, 3, 3, 2)[5] == 1
        assert product_sign(3, 2, 6, 4, 6) == member_signs(3, 2, 6, 4)[6] == 0

    @pytest.mark.parametrize("m_a,q_a,m_b,q_b", [
        (3, 0, 5, 3), (3, 4, 5, 3), (3, 2, 5, 0), (3, 2, 5, 6), (0, 0, 5, 3),
    ])
    def test_quota_preconditions(self, m_a, q_a, m_b, q_b):
        with pytest.raises(ValueError, match="1 <= quota <= size"):
            member_signs(m_a, q_a, m_b, q_b)

    @pytest.mark.parametrize("m_a,q_a,m_b,q_b", [
        (3, 1, 5, 3), (3, 2, 5, 5), (3, 3, 5, 3), (3, 2, 5, 1), (1, 1, 1, 1), (1, 1, 7, 7),
    ])
    def test_boundary_quotas_accepted(self, m_a, q_a, m_b, q_b):
        assert member_signs(m_a, q_a, m_b, q_b) == _direct_signs(m_a, q_a, m_b, q_b)

    def test_exceptional_minimum_decided(self):
        # The larger chamber's member leads at the minimal size 77 only; the
        # stream decides every size, matching direct evaluation.
        signs = member_signs(51, 26, 100, 51)
        assert (signs[77], signs[78]) == (-1, 1)
        assert signs == _direct_signs(51, 26, 100, 51)

    def test_adjacent_pair_at_scale(self):
        # The second stopping rule decides the whole support at once: the
        # larger house's member leads at all 50,001 sizes.
        signs = member_signs(100_001, 50_001, 100_002, 50_002)
        assert list(signs) == list(range(100_003, 150_004))
        assert set(signs.values()) == {-1}

    def test_identical_chambers_at_scale(self):
        # The third stopping rule: equal step factors keep the first tie to
        # the end.  Stepping through all 100,001 sizes, multiplying ever
        # larger integers, would take seconds.
        signs = member_signs(200_001, 100_001, 200_001, 100_001)
        assert list(signs) == list(range(200_002, 300_003))
        assert set(signs.values()) == {0}

    def test_equals_direct_products_exhaustive(self):
        # Every quadruple of sizes up to 26 seats, every quota 1..m, either
        # chamber order: the stream is product_sign at every size, in order.
        quadruples = 0
        for m_a in range(1, 27):
            for q_a in range(1, m_a + 1):
                for m_b in range(1, 27):
                    for q_b in range(1, m_b + 1):
                        signs = member_signs(m_a, q_a, m_b, q_b)
                        direct = _direct_signs(m_a, q_a, m_b, q_b)
                        assert list(signs.items()) == list(direct.items()), (m_a, q_a, m_b, q_b)
                        quadruples += 1
        assert quadruples == 123_201
