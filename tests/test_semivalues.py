import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from legipower import (
    ChamberSpec,
    CountVector,
    Dominance,
    MulticamSpec,
    PlayerClass,
    UsSpec,
    WeightingVector,
    banzhaf,
    binomial,
    evaluate,
    point_mass,
    shapley_shubik,
    weak_desirability,
)
from legipower.cli import _resolve_index
from legipower.semivalues import competition_ranks
from bitmask import critical_vector, from_spec


@pytest.fixture(scope="module")
def us_vectors():
    spec = UsSpec()
    return {cls: spec.critical_vector(cls.value) for cls in spec.classes()}


class TestConstructors:
    def test_uniform_small(self):
        assert banzhaf(3).weights == (Fraction(1, 4),) * 3
        assert banzhaf(1).weights == (Fraction(1),)

    def test_efficient_small(self):
        assert shapley_shubik(3).weights == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 3))
        assert shapley_shubik(2).weights == (Fraction(1, 2), Fraction(1, 2))

    def test_point_mass_small(self):
        assert point_mass(3, 2).weights == (Fraction(0), Fraction(1, 2), Fraction(0))
        assert point_mass(5, 5).weights == (0, 0, 0, 0, 1)

    def test_full_size_constructions(self):
        assert banzhaf(537).weight(1) == Fraction(1, 2 ** 536)
        assert shapley_shubik(537).weight(270) == Fraction(1, 537 * binomial(536, 269))
        assert point_mass(9, 6).weight(6) == Fraction(1, binomial(8, 5))

    def test_normalisation_enforced(self):
        with pytest.raises(ValueError):
            WeightingVector.from_fractions((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightingVector.from_fractions((Fraction(3, 2), Fraction(0), Fraction(-1, 4)))

    def test_point_mass_bounds(self):
        with pytest.raises(ValueError):
            point_mass(3, 0)
        with pytest.raises(ValueError):
            point_mass(3, 4)

    @pytest.mark.parametrize("size", [1, 2000])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_normalisation_has_no_tolerance_at_4000_players(self, size, sign):
        n = 4000
        weights = [Fraction(1, 2 ** (n - 1))] * n
        weights[size - 1] += sign * Fraction(1, 2 ** (n - 1)) ** 2
        with pytest.raises(ValueError, match="do not normalise"):
            WeightingVector.from_fractions(weights)

    def test_normalisation_identity_holds_for_constructors(self):
        for n in (1, 2, 3, 7, 12, 40):
            for w in (banzhaf(n), shapley_shubik(n), point_mass(n, (n + 1) // 2)):
                total = sum(w.weight(k) * binomial(n - 1, k - 1) for k in range(1, n + 1))
                assert total == 1


_SPECS = [
    MulticamSpec((ChamberSpec("a", 7, 4),)),
    MulticamSpec((ChamberSpec("a", 5, 3), ChamberSpec("b", 8, 5))),
    MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("b", 6, 4), ChamberSpec("c", 9, 5))),
    MulticamSpec((ChamberSpec("a", 2, 2), ChamberSpec("b", 3, 2), ChamberSpec("c", 5, 3),
                  ChamberSpec("d", 7, 4))),
    UsSpec(5, 11, 3, 6, 4, 8),
    UsSpec(9, 21, 5, 11, 6, 14, True, False),
    UsSpec(13, 45, 7, 23, 9, 30),
]


def _fraction_weights(selector: str, n: int, file_weights: list[Fraction]) -> list[Fraction]:
    """The index's weights at sizes 1..n, each written as its own ``Fraction``."""
    if selector == "banzhaf":
        return [Fraction(1, 2 ** (n - 1))] * n
    if selector == "shapley":
        return [Fraction(1, n * binomial(n - 1, k - 1)) for k in range(1, n + 1)]
    if selector.startswith("pointmass:"):
        size = int(selector.split(":")[1])
        return [Fraction(1, binomial(n - 1, k - 1)) if k == size else Fraction(0)
                for k in range(1, n + 1)]
    return file_weights


class TestIntegerForm:
    """Weights held as integer numerators over one denominator."""

    @pytest.mark.parametrize("spec", _SPECS, ids=lambda s: f"{type(s).__name__}-{s.total_players}")
    def test_every_selector_equals_its_fraction_form(self, spec, tmp_path):
        n = spec.total_players
        raw = [Fraction(1 + k % 3, 1 + k % 4) for k in range(n)]
        total = sum(r * binomial(n - 1, k) for k, r in enumerate(raw))
        file_weights = [r / total for r in raw]
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{w}\n" for w in file_weights))
        vectors = [spec.critical_vector(c) for c in spec.class_ids()]
        for selector in ("banzhaf", "shapley", f"pointmass:{(n + 1) // 2}", f"file:{path}"):
            w = _resolve_index(selector, n)[1]
            expected = _fraction_weights(selector, n, file_weights)
            assert [w.weight(k) for k in range(1, n + 1)] == expected, selector
            for cv in vectors:
                plain = sum((expected[k - 1] * v for k, v in cv.items()), Fraction(0))
                assert evaluate(w, cv) == plain, selector

    def test_shapley_denominator_is_the_lcm_in_lowest_terms(self):
        for n in [*range(1, 301), 4001]:
            w = shapley_shubik(n)
            assert w.denominator == math.lcm(*range(1, n + 1))
            assert math.gcd(w.denominator, *w.numerators) == 1, n

    def test_constructor_reduces_so_equal_weights_are_equal_vectors(self):
        assert WeightingVector((2, 2, 2), 8) == banzhaf(3)
        assert WeightingVector((2, 2, 2), 8).denominator == 4
        assert WeightingVector.from_fractions(shapley_shubik(9).weights) == shapley_shubik(9)
        assert WeightingVector.from_fractions([1]) == banzhaf(1)

    def test_denominator_must_be_positive(self):
        with pytest.raises(ValueError, match="denominator must be positive"):
            WeightingVector((1,), 0)
        with pytest.raises(ValueError, match="denominator must be positive"):
            WeightingVector((-1,), -1)

    def test_unnormalised_sum_is_reported_in_lowest_terms(self):
        message = r"^weights do not normalise: sum is 3/2, expected 1$"
        with pytest.raises(ValueError, match=message):
            WeightingVector.from_fractions((Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)))


def _checked(w):
    """``w`` rebuilt through the public constructor, which reduces and checks."""
    return WeightingVector(w.numerators, w.denominator)


def _assert_same(proven, checked):
    assert (proven.numerators, proven.denominator) == (checked.numerators, checked.denominator)
    assert proven == checked and hash(proven) == hash(checked)


class TestProvenBuilders:
    """The built-in vectors skip the constructor's checks by proof; each must
    equal what the checked constructor makes of the same numbers."""

    @pytest.mark.parametrize("builder", [banzhaf, shapley_shubik])
    def test_banzhaf_and_shapley_equal_the_checked_vector(self, builder):
        for n in [*range(1, 301), 4001]:
            w = builder(n)
            _assert_same(w, _checked(w))

    def test_point_mass_equals_the_checked_vector(self):
        for n in range(1, 61):
            for size in range(1, n + 1):
                w = point_mass(n, size)
                _assert_same(w, _checked(w))
        for size in (1, 2001, 4001):
            w = point_mass(4001, size)
            _assert_same(w, _checked(w))

    @pytest.mark.parametrize("w", [banzhaf(9), shapley_shubik(9), point_mass(9, 4)],
                             ids=["banzhaf", "shapley", "pointmass"])
    def test_survives_pickle_copy_and_replace(self, w):
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w), w.replace()):
            _assert_same(twin, w)

    def test_replace_still_checks(self):
        with pytest.raises(ValueError, match="do not normalise"):
            banzhaf(3).replace(denominator=5)

    def test_broken_recurrence_is_refused(self, monkeypatch):
        from legipower import semivalues

        # Half of lcm(1..8) = 840 is 420, which 8 does not divide.
        monkeypatch.setattr(semivalues, "_lcm_upto", lambda n: math.lcm(*range(1, n + 1)) // 2)
        with pytest.raises(ArithmeticError, match=r"^shapley_shubik\(8\): "):
            shapley_shubik(8)

    def test_remainder_past_the_first_step_is_refused(self, monkeypatch):
        from legipower import semivalues

        # A wrong L = 30 at n = 6: 30 / 6 = 5 and 5 * 1 / 5 = 1 are exact,
        # then 1 * 2 / 4 leaves a remainder at size 3.
        monkeypatch.setattr(semivalues, "_lcm_upto", lambda n: 30)
        with pytest.raises(ArithmeticError, match=r"remainder at size 3$"):
            shapley_shubik(6)


@st.composite
def _weights_and_counts(draw):
    """A normalised vector with mixed denominators, runs and zeros, and a count vector."""
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(
        st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 4, 6, 9])),
        min_size=n, max_size=n,
    ).filter(any))
    total = sum(r * math.comb(n - 1, k) for k, r in enumerate(raw))
    weights = WeightingVector.from_fractions(r / total for r in raw)
    sizes = draw(st.lists(st.integers(1, n), unique=True))
    counts = CountVector({k: draw(st.integers(0, 10 ** 40)) for k in sizes})
    return weights, counts


class TestEvaluate:
    @settings(max_examples=300, deadline=None)
    @given(case=_weights_and_counts())
    def test_equals_the_plain_sum(self, case):
        w, cv = case
        assert evaluate(w, cv) == sum((w.weight(k) * v for k, v in cv.items()), Fraction(0))

    def test_uniform_on_majority_counts(self):
        assert evaluate(banzhaf(3), CountVector({2: 2})) == Fraction(1, 2)

    def test_efficient_on_majority_counts(self):
        assert evaluate(shapley_shubik(3), CountVector({2: 2})) == Fraction(1, 3)

    def test_empty_vector(self):
        assert evaluate(banzhaf(3), CountVector()) == 0

    def test_support_violation(self):
        with pytest.raises(ValueError):
            evaluate(banzhaf(3), CountVector({4: 1}))


class TestCompetitionRanks:
    def test_ties_share_a_rank_and_keep_their_order(self):
        values = {"a": Fraction(1, 4), "b": Fraction(1, 2), "c": Fraction(1, 2), "d": Fraction(0)}
        assert competition_ranks(values) == [
            (1, "b", Fraction(1, 2)),
            (1, "c", Fraction(1, 2)),
            (3, "a", Fraction(1, 4)),
            (4, "d", Fraction(0)),
        ]

    def test_empty(self):
        assert competition_ranks({}) == []


class TestWeakDesirability:
    def test_us_senator_vs_representative(self, us_vectors):
        rel = weak_desirability(us_vectors[PlayerClass.SENATOR],
                                us_vectors[PlayerClass.REPRESENTATIVE])
        assert rel.kind is Dominance.STRICTLY_ABOVE

    def test_us_senator_vs_vice_president(self, us_vectors):
        cs = us_vectors[PlayerClass.SENATOR]
        cv = us_vectors[PlayerClass.VICE_PRESIDENT]
        rel = weak_desirability(cs, cv)
        assert rel.kind is Dominance.WEAKLY_ABOVE
        assert all(cs[k] == cv[k] for k in range(270, 357))

    def test_us_vice_president_vs_representative(self, us_vectors):
        rel = weak_desirability(us_vectors[PlayerClass.VICE_PRESIDENT],
                                us_vectors[PlayerClass.REPRESENTATIVE])
        assert rel.kind is Dominance.INCOMPARABLE
        assert rel.witness == (270, 357)

    def test_mirror_relations(self, us_vectors):
        rel = weak_desirability(us_vectors[PlayerClass.REPRESENTATIVE],
                                us_vectors[PlayerClass.SENATOR])
        assert rel.kind is Dominance.STRICTLY_BELOW
        rel = weak_desirability(us_vectors[PlayerClass.VICE_PRESIDENT],
                                us_vectors[PlayerClass.SENATOR])
        assert rel.kind is Dominance.WEAKLY_BELOW

    def test_equal(self):
        vec = CountVector({3: 4, 4: 1})
        assert weak_desirability(vec, CountVector({3: 4, 4: 1})).kind is Dominance.EQUAL

    def test_witness_rejected_outside_incomparable(self):
        from legipower.semivalues import Relation

        with pytest.raises(ValueError):
            Relation(Dominance.EQUAL, (1, 2))


class TestDistinguishingIndices:
    # Point masses at an incomparable pair's two witness sizes rank it both ways.
    def test_none_for_comparable_vectors(self):
        assert weak_desirability(CountVector({2: 2}), CountVector({2: 2})).witness is None
        assert weak_desirability(CountVector({2: 3}), CountVector({2: 2})).witness is None

    def test_us_vp_vs_representative(self, us_vectors):
        cv = us_vectors[PlayerClass.VICE_PRESIDENT]
        cr = us_vectors[PlayerClass.REPRESENTATIVE]
        pro, contra = (point_mass(537, k) for k in weak_desirability(cv, cr).witness)
        assert pro.weight(270) > 0 and contra.weight(357) > 0
        assert evaluate(pro, cv) > evaluate(pro, cr)
        assert evaluate(contra, cv) < evaluate(contra, cr)

    def test_middle_case_bicameral_members(self):
        spec = MulticamSpec((ChamberSpec("small", 101, 51), ChamberSpec("large", 150, 76)))
        v_small = spec.critical_vector("small")
        v_large = spec.critical_vector("large")
        pro, contra = (point_mass(251, k) for k in weak_desirability(v_large, v_small).witness)
        assert pro.weight(127) > 0
        assert contra.weight(129) > 0
        assert evaluate(pro, v_large) > evaluate(pro, v_small)
        assert evaluate(contra, v_large) < evaluate(contra, v_small)


def _oracle_game_catalog():
    specs = [
        MulticamSpec((ChamberSpec("a", 3, 2),)),
        MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("b", 4, 3))),
        MulticamSpec((ChamberSpec("a", 4, 2), ChamberSpec("b", 5, 4))),
        MulticamSpec((ChamberSpec("a", 2, 1), ChamberSpec("b", 3, 3), ChamberSpec("c", 4, 2))),
        UsSpec(3, 4, 2, 3, 3, 4, True, True),
        UsSpec(4, 5, 3, 3, 4, 4, True, True),
        UsSpec(3, 4, 2, 2, 3, 3, True, False),
    ]
    return [from_spec(spec) for spec in specs]


class TestIndexProperties:
    def test_efficiency_of_the_marginal_index(self):
        # The per-size weights 1/(n*C(n-1,k-1)) make every game's values sum
        # to exactly 1; checked over the whole oracle catalog.
        for game in _oracle_game_catalog():
            w = shapley_shubik(game.n)
            total = sum(evaluate(w, critical_vector(game, p)) for p in game.players())
            assert total == 1, game.labels

    def test_uniform_index_counts_swings(self):
        for game in _oracle_game_catalog():
            w = banzhaf(game.n)
            for player in game.players():
                vec = critical_vector(game, player)
                assert evaluate(w, vec) * 2 ** (game.n - 1) == sum(v for _, v in vec.items())

    def test_monotone_evaluation_under_dominance(self, us_vectors):
        # A coordinatewise-dominant critical vector never evaluates lower,
        # whatever the index.
        pairs = []
        for game in _oracle_game_catalog():
            players = game.players()
            vectors = [critical_vector(game, p) for p in players[:4]]
            pairs.extend(
                (vectors[i], vectors[j], game.n)
                for i in range(len(vectors))
                for j in range(len(vectors))
                if i != j
            )
        pairs.append((us_vectors[PlayerClass.PRESIDENT], us_vectors[PlayerClass.SENATOR], 537))
        pairs.append((us_vectors[PlayerClass.SENATOR], us_vectors[PlayerClass.VICE_PRESIDENT], 537))
        for ci, cj, n in pairs:
            rel = weak_desirability(ci, cj)
            if rel.kind not in (Dominance.STRICTLY_ABOVE, Dominance.WEAKLY_ABOVE, Dominance.EQUAL):
                continue
            for w in (banzhaf(n), shapley_shubik(n), point_mass(n, max(1, n // 2))):
                assert evaluate(w, ci) >= evaluate(w, cj)
