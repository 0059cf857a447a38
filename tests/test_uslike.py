import pytest

from legipower import (
    ChamberSpec,
    Dominance,
    MulticamSpec,
    PlayerClass,
    UsSpec,
    banzhaf,
    binomial,
    evaluate,
    point_mass,
    ranking,
    shapley_shubik,
    supermajority_scan,
    weak_desirability,
)
from legipower.semivalues import size_signs
from bitmask import critical_vector, from_spec
from helpers import MINI_US_SPECS


@pytest.fixture(scope="module")
def default_vectors():
    spec = UsSpec()
    return {cls: spec.critical_vector(cls.value) for cls in spec.classes()}


class TestUsSpec:
    def test_defaults(self):
        spec = UsSpec()
        assert (spec.senate_size, spec.house_size) == (100, 435)
        assert (spec.senate_quota, spec.house_quota) == (51, 218)
        assert (spec.senate_override, spec.house_override) == (67, 290)
        assert spec.total_players == 537
        assert spec.tie_break_active

    def test_quota_bounds(self):
        with pytest.raises(ValueError):
            UsSpec(senate_quota=0)
        with pytest.raises(ValueError):
            UsSpec(house_override=436)

    def test_tie_break_needs_exact_tie_quota(self):
        assert not UsSpec(senate_quota=60).tie_break_active
        assert not UsSpec(has_vp=False).tie_break_active
        assert UsSpec(3, 4, 2, 3, 3, 4, True, True).tie_break_active

    def test_classes(self):
        assert UsSpec().classes() == (
            PlayerClass.PRESIDENT, PlayerClass.VICE_PRESIDENT,
            PlayerClass.SENATOR, PlayerClass.REPRESENTATIVE,
        )
        assert PlayerClass.PRESIDENT not in UsSpec(has_president=False).classes()

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="'vice_president'"):
            UsSpec(has_vp=False).critical_vector("vice_president")
        with pytest.raises(ValueError, match="'president'"):
            UsSpec(has_president=False).critical_vector("president")
        two_chambers = MulticamSpec((ChamberSpec("s", 3, 2), ChamberSpec("r", 4, 3)))
        with pytest.raises(ValueError, match="'senator'.*s, r"):
            two_chambers.critical_vector("senator")


class TestDefaultSpotValues:
    def test_senator_at_the_top_of_its_support(self, default_vectors):
        assert default_vectors[PlayerClass.SENATOR][503] == binomial(99, 66)

    def test_president_at_the_top_of_its_support(self, default_vectors):
        assert default_vectors[PlayerClass.PRESIDENT][503] == binomial(100, 66)

    def test_representative_at_the_override_entry_size(self, default_vectors):
        assert default_vectors[PlayerClass.REPRESENTATIVE][357] == \
            binomial(434, 289) * binomial(100, 67)

    def test_vice_president_formula(self, default_vectors):
        vec = default_vectors[PlayerClass.VICE_PRESIDENT]
        for k in range(270, 488):
            assert vec[k] == binomial(100, 50) * binomial(435, k - 52)
        assert vec[391] == binomial(100, 50) * binomial(435, 339)

    def test_supports_match_the_coalition_type_table(self, default_vectors):
        assert default_vectors[PlayerClass.PRESIDENT].support() == tuple(range(270, 504))
        assert default_vectors[PlayerClass.SENATOR].support() == tuple(range(270, 504))
        assert default_vectors[PlayerClass.VICE_PRESIDENT].support() == tuple(range(270, 488))
        assert default_vectors[PlayerClass.REPRESENTATIVE].support() == \
            tuple(range(270, 321)) + tuple(range(357, 392))

    def test_senator_equals_vp_below_the_override_sizes(self, default_vectors):
        cs = default_vectors[PlayerClass.SENATOR]
        cv = default_vectors[PlayerClass.VICE_PRESIDENT]
        for k in range(270, 357):
            assert cs[k] == cv[k]
        for k in range(357, 504):
            assert cs[k] > cv[k]

    def test_president_strictly_ahead_everywhere(self, default_vectors):
        cp = default_vectors[PlayerClass.PRESIDENT]
        for other in (PlayerClass.VICE_PRESIDENT, PlayerClass.SENATOR,
                      PlayerClass.REPRESENTATIVE):
            vec = default_vectors[other]
            assert set(vec.support()) <= set(cp.support())
            for k in cp.support():
                assert cp[k] > vec[k]

    def test_senator_strictly_ahead_of_representative(self, default_vectors):
        cs = default_vectors[PlayerClass.SENATOR]
        cr = default_vectors[PlayerClass.REPRESENTATIVE]
        assert set(cr.support()) <= set(cs.support())
        for k in cs.support():
            assert cs[k] > cr[k]


class TestOracleEquivalence:
    @pytest.mark.parametrize("spec", MINI_US_SPECS, ids=str)
    def test_every_class_matches_exhaustive_enumeration(self, spec):
        game = from_spec(spec)
        for cls in spec.classes():
            players = game.players(cls.value)
            expected = critical_vector(game, players[0])
            assert spec.critical_vector(cls.value) == expected, cls


class TestVpAgainstRepresentative:
    def test_default_runs(self, default_vectors):
        signs = size_signs(default_vectors[PlayerClass.VICE_PRESIDENT],
                           default_vectors[PlayerClass.REPRESENTATIVE])
        assert sorted(signs) == list(range(270, 488))
        assert all(signs[k] == 1 for k in range(270, 357))
        assert all(signs[k] == -1 for k in range(357, 380))
        assert all(signs[k] == 1 for k in range(380, 488))

    def test_flip_entry_values(self, default_vectors):
        cr = default_vectors[PlayerClass.REPRESENTATIVE]
        cv = default_vectors[PlayerClass.VICE_PRESIDENT]
        assert cv[357] == binomial(100, 50) * binomial(435, 305)
        assert cr[357] == binomial(434, 289) * binomial(100, 67)
        assert cr[357] > cv[357]
        assert cr[391] == binomial(434, 289)
        assert cv[391] > cr[391]

    def test_mini_spec_signs_match_oracle(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True)
        game = from_spec(spec)
        cv = critical_vector(game, game.players("vice_president")[0])
        cr = critical_vector(game, game.players("representative")[0])
        signs = size_signs(spec.critical_vector(PlayerClass.VICE_PRESIDENT.value),
                           spec.critical_vector(PlayerClass.REPRESENTATIVE.value))
        for k in signs:
            assert signs[k] == (cv[k] > cr[k]) - (cv[k] < cr[k])


class TestClassPower:
    def test_zero_outside_support(self):
        for _, value in ranking(UsSpec(), point_mass(537, 100)):
            assert value == 0

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            ranking(UsSpec(), banzhaf(536))

    def test_uniform_index_president_above_senator(self):
        spec = UsSpec()
        w = banzhaf(537)
        assert evaluate(w, spec.critical_vector(PlayerClass.PRESIDENT.value)) > \
            evaluate(w, spec.critical_vector(PlayerClass.SENATOR.value))


class TestRanking:
    @pytest.mark.parametrize("make_index", [banzhaf, shapley_shubik])
    def test_default_order(self, make_index):
        spec = UsSpec()
        ranked = ranking(spec, make_index(537))
        assert [cls for cls, _ in ranked] == [
            PlayerClass.PRESIDENT, PlayerClass.SENATOR,
            PlayerClass.VICE_PRESIDENT, PlayerClass.REPRESENTATIVE,
        ]
        values = [value for _, value in ranked]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == 4

    def test_point_mass_inside_the_override_window_flips_vp_and_rep(self):
        ranked = ranking(UsSpec(), point_mass(537, 370))
        assert [cls for cls, _ in ranked] == [
            PlayerClass.PRESIDENT, PlayerClass.SENATOR,
            PlayerClass.REPRESENTATIVE, PlayerClass.VICE_PRESIDENT,
        ]


class TestSupermajorityScan:
    def test_filibuster_quota(self):
        results = supermajority_scan(UsSpec(), [60])
        quota, senator_vs_rep, president_vs_senator = results[0]
        assert quota == 60
        assert senator_vs_rep.kind is Dominance.STRICTLY_ABOVE
        assert president_vs_senator.kind is Dominance.STRICTLY_ABOVE

    def test_house_supermajority_reverses_the_chamber_ranking(self):
        spec = UsSpec(house_quota=401, house_override=401)
        cs = spec.critical_vector(PlayerClass.SENATOR.value)
        cr = spec.critical_vector(PlayerClass.REPRESENTATIVE.value)
        rel = weak_desirability(cr, cs)
        assert rel.kind is Dominance.STRICTLY_ABOVE
        assert cr[503] == binomial(434, 400)
        assert cr[503] > binomial(100, 50)


class TestDegenerateExecutives:
    def test_no_president_reduces_to_override_track_bicameral(self):
        spec = UsSpec(3, 4, 2, 3, 3, 4, has_president=False, has_vp=False)
        two_chambers = MulticamSpec((ChamberSpec("s", 3, 3), ChamberSpec("r", 4, 4)))
        assert spec.critical_vector(PlayerClass.SENATOR.value) == \
            two_chambers.critical_vector("s")
        assert spec.critical_vector(PlayerClass.REPRESENTATIVE.value) == \
            two_chambers.critical_vector("r")

    def test_vp_without_president_is_a_null_player(self):
        spec = UsSpec(3, 4, 2, 3, 3, 4, has_president=False, has_vp=True)
        assert not spec.critical_vector(PlayerClass.VICE_PRESIDENT.value)

    def test_vp_without_tie_break_quota_is_null_on_the_signature_track(self):
        # With the senate quota away from the tie point, the VP never matters.
        spec = UsSpec(senate_quota=60)
        assert not spec.critical_vector(PlayerClass.VICE_PRESIDENT.value)
