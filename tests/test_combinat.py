import math
from fractions import Fraction

import pytest

from legipower import (
    CertBasis,
    CertOutcome,
    binomial,
    binomial_row,
    certify_comparison,
)
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
    # complete one member's quota core: the ratio certify_comparison compares.
    return Fraction(binomial(size, quota + overshoot), binomial(size - 1, quota - 1))


class TestRatioFacts:
    # The facts certify_comparison rests on: each chamber's ratio starts at
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


class TestCertification:
    def test_dominant_pair_certified_everywhere(self):
        verdicts = certify_comparison(3, 2, 5, 3)
        assert sorted(verdicts) == [5, 6, 7]
        assert all(v.outcome is CertOutcome.CERTIFIED_GREATER for v in verdicts.values())
        assert verdicts[5].basis is CertBasis.MIN_SIZE_RATIO
        assert verdicts[6].basis is CertBasis.SEED_PAIR
        assert verdicts[7].basis is CertBasis.SEED_PAIR

    def test_tied_minimum_then_crossing(self):
        verdicts = certify_comparison(3, 2, 6, 4)
        assert sorted(verdicts) == [6, 7, 8]
        assert verdicts[6].outcome is CertOutcome.CERTIFIED_EQUAL
        assert verdicts[6].basis is CertBasis.MIN_SIZE_RATIO
        assert verdicts[7].outcome is CertOutcome.CERTIFIED_GREATER
        assert verdicts[7].basis is CertBasis.SINGLE_CROSSING
        assert verdicts[8].outcome is CertOutcome.CERTIFIED_GREATER

    def test_examples_against_direct_products(self):
        # 20 > 18, 8 < 9 and 30 == 30: product_sign and the certificates agree.
        assert product_sign(3, 2, 5, 3, 5) == 1
        assert certify_comparison(3, 2, 5, 3)[5].outcome is CertOutcome.CERTIFIED_GREATER
        assert product_sign(3, 2, 4, 3, 5) == -1
        assert certify_comparison(4, 3, 3, 2)[5].outcome is CertOutcome.CERTIFIED_GREATER
        assert product_sign(3, 2, 6, 4, 6) == 0
        assert certify_comparison(3, 2, 6, 4)[6].outcome is CertOutcome.CERTIFIED_EQUAL

    @pytest.mark.parametrize("m_a,q_a,m_b,q_b", [
        (3, 1, 5, 3), (3, 2, 5, 5), (3, 0, 5, 3), (3, 3, 5, 3),
        (3, 2, 5, 1), (3, 2, 5, 6),
    ])
    def test_quota_preconditions(self, m_a, q_a, m_b, q_b):
        with pytest.raises(ValueError):
            certify_comparison(m_a, q_a, m_b, q_b)

    def test_failed_minimum_not_certified(self):
        verdicts = certify_comparison(51, 26, 100, 51)
        assert verdicts[77].outcome is CertOutcome.NOT_CERTIFIED
        assert verdicts[77].basis is CertBasis.NONE

    def test_failed_minimum_later_sizes_match_direct_evaluation(self):
        # The same parameters cross at the second size; every certified verdict
        # must agree with full evaluation of the products.
        verdicts = certify_comparison(51, 26, 100, 51)
        for k, verdict in verdicts.items():
            if verdict.outcome is CertOutcome.CERTIFIED_GREATER:
                assert product_sign(51, 26, 100, 51, k) > 0, k

    def test_soundness_and_single_crossing_exhaustive(self):
        # Every certificate agrees with direct evaluation, and the direct
        # comparison switches from false to true at most once over the range
        # where both products are nonzero.
        for m_a in range(3, 20):
            for m_b in range(m_a + 1, 21):
                for q_a in range(2, m_a):
                    for q_b in range(2, m_b):
                        verdicts = certify_comparison(m_a, q_a, m_b, q_b)
                        k_lo = q_a + q_b
                        k_both = min(q_a + m_b, q_b + m_a)
                        k_hi = max(q_a + m_b, q_b + m_a)
                        assert sorted(verdicts) == list(range(k_lo, k_hi + 1))
                        signs = {k: product_sign(m_a, q_a, m_b, q_b, k)
                                 for k in range(k_lo, k_hi + 1)}
                        for k, verdict in verdicts.items():
                            if verdict.outcome is CertOutcome.CERTIFIED_GREATER:
                                assert signs[k] > 0, (m_a, q_a, m_b, q_b, k)
                            elif verdict.outcome is CertOutcome.CERTIFIED_EQUAL:
                                assert signs[k] == 0, (m_a, q_a, m_b, q_b, k)
                        flags = [signs[k] > 0 for k in range(k_lo, k_both + 1)]
                        assert flags == sorted(flags), (m_a, q_a, m_b, q_b)

    def test_soundness_at_every_interior_quota(self):
        # Callers certify at any interior quotas, in either chamber order:
        # every certificate must agree with direct evaluation of the products.
        sizes = 0
        for m_a in range(3, 21):
            for q_a in range(2, m_a):
                for m_b in range(3, 21):
                    for q_b in range(2, m_b):
                        args = (m_a, q_a, m_b, q_b)
                        for k, verdict in certify_comparison(*args).items():
                            sizes += 1
                            if verdict.outcome is CertOutcome.CERTIFIED_GREATER:
                                assert product_sign(*args, k) > 0, (args, k)
                            elif verdict.outcome is CertOutcome.CERTIFIED_EQUAL:
                                assert product_sign(*args, k) == 0, (args, k)
        assert sizes == 295_887
