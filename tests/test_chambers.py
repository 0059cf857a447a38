from itertools import groupby, permutations

import pytest
from hypothesis import given, settings, strategies as st

from legipower import (
    CaseClass,
    CertificationMismatchError,
    ChamberSpec,
    Dominance,
    MulticamSpec,
    Relation,
    classify_bicameral,
    compare_members,
    crossover_sizes,
    majority_quota,
    member_signs,
)
from legipower import chambers
from legipower.semivalues import size_signs, weak_desirability
from legipower.specfile import parse_spec
from bitmask import critical_vector, from_spec
from helpers import spec_documents


def _bicam(m_a, q_a, m_b, q_b):
    return MulticamSpec((ChamberSpec("a", m_a, q_a), ChamberSpec("b", m_b, q_b)))


class TestMajorityQuota:
    @pytest.mark.parametrize("size,quota", [
        (100, 51), (435, 218), (5, 3), (1, 1), (2, 2), (101, 51), (150, 76),
    ])
    def test_values(self, size, quota):
        assert majority_quota(size) == quota

    def test_rejects_empty_chamber(self):
        with pytest.raises(ValueError):
            majority_quota(0)


class TestSpecs:
    def test_chamber_quota_bounds(self):
        with pytest.raises(ValueError):
            ChamberSpec("a", 3, 0)
        with pytest.raises(ValueError):
            ChamberSpec("a", 3, 4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("a", 4, 3)))

    def test_simple_majority_constructor(self):
        assert ChamberSpec.simple_majority("a", 100).quota == 51


class TestMemberCriticalVector:
    def test_smaller_chamber_example(self):
        assert _bicam(3, 2, 5, 3).critical_vector("a") == {5: 20, 6: 10, 7: 2}

    def test_larger_chamber_example(self):
        assert _bicam(3, 2, 5, 3).critical_vector("b") == {5: 18, 6: 6}

    def test_single_chamber_is_plain_majority_game(self):
        spec = MulticamSpec((ChamberSpec("only", 3, 2),))
        assert spec.critical_vector("only") == {2: 2}

    def test_unknown_chamber(self):
        with pytest.raises(ValueError, match="'c'.*a, b"):
            _bicam(3, 2, 5, 3).critical_vector("c")

    def test_support_range_law_on_grid(self):
        # For two chambers the support runs from the joint quota to the own
        # quota plus the other chamber's size.
        for m_a in range(1, 8):
            for m_b in range(1, 8):
                for q_a in range(1, m_a + 1):
                    for q_b in range(1, m_b + 1):
                        spec = _bicam(m_a, q_a, m_b, q_b)
                        vec = spec.critical_vector("a")
                        assert vec.k_min == q_a + q_b
                        assert vec.k_max == q_a + m_b
                        assert vec.support() == tuple(range(q_a + q_b, q_a + m_b + 1))

    def test_majority_support_containment(self):
        # Under majority quotas the smaller chamber member's support contains
        # the larger chamber member's support.
        for m_a in range(1, 26):
            for m_b in range(m_a + 1, 26):
                spec = MulticamSpec((
                    ChamberSpec.simple_majority("a", m_a),
                    ChamberSpec.simple_majority("b", m_b),
                ))
                small = set(spec.critical_vector("a").support())
                large = set(spec.critical_vector("b").support())
                assert large <= small

    def test_three_chambers_match_oracle(self):
        spec = MulticamSpec((
            ChamberSpec("a", 3, 2), ChamberSpec("b", 4, 3), ChamberSpec("c", 5, 3),
        ))
        game = from_spec(spec)
        for chamber in spec.chambers:
            player = game.players(chamber.name)[0]
            assert spec.critical_vector(chamber.name) == critical_vector(game, player)


_MIRROR = {
    Dominance.STRICTLY_ABOVE: Dominance.STRICTLY_BELOW,
    Dominance.WEAKLY_ABOVE: Dominance.WEAKLY_BELOW,
    Dominance.EQUAL: Dominance.EQUAL,
    Dominance.WEAKLY_BELOW: Dominance.WEAKLY_ABOVE,
    Dominance.STRICTLY_BELOW: Dominance.STRICTLY_ABOVE,
    Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
}


def _signs(spec, a, b):
    return size_signs(spec.critical_vector(a), spec.critical_vector(b))


class TestCompareMembers:
    def test_both_odd_strict(self):
        assert compare_members(_bicam(3, 2, 5, 3), "a", "b") == Relation(Dominance.STRICTLY_ABOVE)

    def test_adjacent_sizes_favour_larger_chamber(self):
        relation = compare_members(_bicam(3, 2, 4, 3), "a", "b")
        assert relation.kind is Dominance.STRICTLY_BELOW

    def test_double_size_weak_dominance(self):
        spec = _bicam(3, 2, 6, 4)
        assert compare_members(spec, "a", "b").kind is Dominance.WEAKLY_ABOVE
        signs = _signs(spec, "a", "b")
        assert signs[6] == 0
        assert signs[7] == 1

    def test_crossover_relation(self):
        spec = _bicam(5, 3, 8, 5)  # odd/even with 5 < 8 < 10: a middle case
        relation = compare_members(spec, "a", "b")
        assert relation == Relation(Dominance.INCOMPARABLE, witness=(10, 8))
        signs = _signs(spec, "a", "b")
        assert {k for k, s in signs.items() if s < 0} == {8, 9}
        assert signs[max(signs)] == 1  # "a" is ahead at the top size

    def test_antisymmetry(self):
        for args in [(3, 2, 5, 3), (3, 2, 4, 3), (3, 2, 6, 4), (5, 3, 8, 5)]:
            spec = _bicam(*args)
            forward = compare_members(spec, "a", "b")
            backward = compare_members(spec, "b", "a")
            assert backward.kind is _MIRROR[forward.kind]
            assert backward.witness == (forward.witness and forward.witness[::-1])
            assert _signs(spec, "b", "a") == {
                k: -s for k, s in _signs(spec, "a", "b").items()}

    def test_identical_chambers_equal(self):
        assert compare_members(_bicam(4, 3, 4, 3), "a", "b") == Relation(Dominance.EQUAL)

    def test_same_chamber_rejected(self):
        with pytest.raises(ValueError, match="^compare needs two distinct classes$"):
            compare_members(_bicam(3, 2, 5, 3), "a", "a")

    def test_unknown_chamber_rejected(self):
        with pytest.raises(ValueError, match="'c'.*a, b"):
            compare_members(_bicam(3, 2, 5, 3), "a", "c")

    def test_certificate_contradiction_raises(self, monkeypatch):
        # (3, 2, 5, 3) is strict dominance for "a"; a stream of ties at every
        # size contradicts it first at the minimal size.
        def wrong(m_a, q_a, m_b, q_b):
            return dict.fromkeys(range(q_a + q_b, max(q_a + m_b, q_b + m_a) + 1), 0)

        monkeypatch.setattr(chambers, "member_signs", wrong)
        with pytest.raises(CertificationMismatchError,
                           match="gives 0 at size 5, the critical vectors give 1"):
            compare_members(_bicam(3, 2, 5, 3), "a", "b")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_stream_equals_the_vectors(self, data):
        # Two chambers of up to a few hundred seats, any quotas 1..m.
        m_a, m_b = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        q_a, q_b = data.draw(st.integers(1, m_a)), data.draw(st.integers(1, m_b))
        assert member_signs(m_a, q_a, m_b, q_b) == _signs(_bicam(m_a, q_a, m_b, q_b), "a", "b")

    @settings(max_examples=100, deadline=None)
    @given(doc=spec_documents())
    def test_every_class_pair_of_every_spec(self, doc):
        # US-style specs of up to 82 players and one to four chambers.
        spec = parse_spec(doc)
        vectors = {c: spec.critical_vector(c) for c in spec.class_ids()}
        for a, b in permutations(vectors, 2):
            assert compare_members(spec, a, b) == weak_desirability(vectors[a], vectors[b])

    def test_quota_share_dominance_on_grid(self):
        # Whenever the smaller chamber needs the larger share of its members
        # and its member support contains the other side's, its member
        # strictly dominates.  Interior quotas, sizes up to 20.
        for m_a in range(3, 20):
            for m_b in range(m_a + 1, 21):
                for q_a in range(2, m_a):
                    for q_b in range(2, m_b):
                        if q_a * m_b <= q_b * m_a:
                            continue
                        if m_b - q_b < m_a - q_a:
                            continue
                        relation = compare_members(_bicam(m_a, q_a, m_b, q_b), "a", "b")
                        assert relation.kind is Dominance.STRICTLY_ABOVE, (m_a, q_a, m_b, q_b)


class TestClassifyBicameral:
    @pytest.mark.parametrize("sizes,expected", [
        ((3, 5), CaseClass.BOTH_ODD),
        ((4, 6), CaseClass.BOTH_EVEN),
        ((4, 7), CaseClass.SMALL_EVEN_LARGE_ODD),
        ((3, 8), CaseClass.SMALL_ODD_LARGE_EVEN_WIDE),
        ((3, 6), CaseClass.SMALL_ODD_LARGE_EVEN_DOUBLE),
        ((3, 4), CaseClass.SMALL_ODD_LARGE_EVEN_ADJACENT),
        ((101, 150), CaseClass.SMALL_ODD_LARGE_EVEN_BETWEEN),
    ])
    def test_cases(self, sizes, expected):
        assert classify_bicameral(*sizes) is expected

    def test_requires_strict_ordering(self):
        with pytest.raises(ValueError):
            classify_bicameral(5, 5)
        with pytest.raises(ValueError):
            classify_bicameral(6, 5)


# The paper's bicameral split as runs of the smaller house's member's sign
# minus the larger's: ahead at every size outside the three cases listed.
SPLIT_RUNS = {
    CaseClass.SMALL_ODD_LARGE_EVEN_DOUBLE: [0, 1],
    CaseClass.SMALL_ODD_LARGE_EVEN_ADJACENT: [-1],
    CaseClass.SMALL_ODD_LARGE_EVEN_BETWEEN: [-1, 1],
}


class TestBicameralSplit:
    @pytest.mark.parametrize("case", list(CaseClass), ids=lambda c: c.value)
    def test_stream_decides_the_paper_split(self, case):
        """The paper's bicameral result, from the sign stream alone.

        Outside the exceptional case the smaller house's member is ahead at
        every size; twice the seats ties at the minimal size and is ahead at
        every other; adjacent sizes put the larger house's member ahead at
        every size, so under every semivalue; strictly between, the larger
        house's member leads on one run of sizes and the smaller on the rest.
        """
        pairs = [(m_s, m_l) for m_s in range(3, 151) for m_l in range(m_s + 1, 151)
                 if classify_bicameral(m_s, m_l) is case]
        assert pairs
        for m_s, m_l in pairs:
            signs = member_signs(m_s, majority_quota(m_s), m_l, majority_quota(m_l))
            runs = [sign for sign, _ in groupby(signs.values())]
            assert runs == SPLIT_RUNS.get(case, [1]), (m_s, m_l)


class TestCrossoverSizes:
    def test_middle_case_example(self):
        assert crossover_sizes(101, 51, 150, 76) == frozenset({127, 128})

    def test_dominant_case_has_no_crossover(self):
        assert crossover_sizes(3, 2, 5, 3) == frozenset()

    def test_adjacent_case_covers_entire_range(self):
        assert crossover_sizes(3, 2, 4, 3) == frozenset({5, 6})

    def test_requires_ordered_sizes(self):
        with pytest.raises(ValueError):
            crossover_sizes(5, 3, 5, 3)

    def test_one_run_from_the_first_critical_size(self):
        # The larger member's first critical size is the joint quota.
        specs = 0
        for m_s in range(1, 20):
            for m_l in range(m_s + 1, 21):
                for q_s in range(1, m_s + 1):
                    for q_l in range(1, m_l + 1):
                        cross = sorted(crossover_sizes(m_s, q_s, m_l, q_l))
                        start = q_s + q_l
                        assert cross == list(range(start, start + len(cross))), (m_s, q_s, m_l, q_l)
                        specs += 1
        assert specs == 20_615

    def test_exceptional_case_shapes(self):
        # Odd smaller size, even larger size, at most double: the crossover
        # set is a prefix of the larger member's support; it is the whole
        # shared range exactly in the adjacent case, and empty with a single
        # leading tie exactly in the double case; strictly between, it is a
        # nonempty proper prefix.
        for m_a in range(3, 40, 2):
            for m_b in range(m_a + 1, min(2 * m_a, 40) + 1, 2):
                q_a = majority_quota(m_a)
                q_b = majority_quota(m_b)
                spec = _bicam(m_a, q_a, m_b, q_b)
                small = spec.critical_vector("a")
                large = spec.critical_vector("b")
                cross = crossover_sizes(m_a, q_a, m_b, q_b)
                support = list(large.support())
                prefix = support[:len(cross)]
                assert sorted(cross) == prefix, (m_a, m_b)
                case = classify_bicameral(m_a, m_b)
                if case is CaseClass.SMALL_ODD_LARGE_EVEN_ADJACENT:
                    assert sorted(cross) == support
                elif case is CaseClass.SMALL_ODD_LARGE_EVEN_DOUBLE:
                    assert not cross
                    assert small[support[0]] == large[support[0]]
                else:
                    assert case is CaseClass.SMALL_ODD_LARGE_EVEN_BETWEEN
                    assert cross and len(cross) < len(support)
