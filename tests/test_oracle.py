import ast
import itertools
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legipower import (
    ChamberSpec,
    Dominance,
    MulticamSpec,
    UsSpec,
    lattice,
    majority_quota,
    supermajority_scan,
    weak_desirability,
)
from bitmask import (
    GameAxiomError,
    SimpleGame,
    critical_vector,
    find_violations,
    from_spec,
    minimal_winning,
    rule_table,
)
from helpers import MINI_US_SPECS, multicam_rule, us_rule


def _majority3(mask: int) -> bool:
    return mask.bit_count() >= 2


class TestValidation:
    def test_three_player_majority_is_valid(self):
        assert find_violations(["voter"] * 3, _majority3) == []
        SimpleGame(["voter"] * 3, rule_table(3, _majority3))

    def test_parity_rule_breaks_monotonicity(self):
        violations = find_violations(["voter"] * 3, lambda m: m.bit_count() % 2 == 1)
        axioms = {v.axiom for v in violations}
        assert "not-monotone" in axioms
        witness = next(v for v in violations if v.axiom == "not-monotone")
        assert set(witness.superset) > set(witness.coalition)

    def test_winning_empty_coalition_reported(self):
        violations = find_violations(["voter"] * 3, lambda m: True)
        assert any(v.axiom == "empty-coalition-wins" for v in violations)

    def test_losing_grand_coalition_reported(self):
        violations = find_violations(["voter"] * 3, lambda m: False)
        assert any(v.axiom == "grand-coalition-loses" for v in violations)

    def test_invalid_game_rejected_at_construction(self):
        with pytest.raises(GameAxiomError):
            SimpleGame(["voter"] * 3, rule_table(3, lambda m: m.bit_count() % 2 == 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_not_monotone_witness_is_the_smallest_violating_mask(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        # A weighted threshold game with a few outcomes flipped: violations
        # are then rare, so the smallest one is not simply mask 0 or 1.
        weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="weights")
        quota = data.draw(st.integers(0, sum(weights) + 1), label="quota")
        flips = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=4), label="flips")
        table = [
            (sum(w for i, w in enumerate(weights) if m >> i & 1) >= quota) != (m in flips)
            for m in range(1 << n)
        ]

        expected = []
        for pos in range(n):
            bit = 1 << pos
            for mask in range(1 << n):
                if not mask & bit and table[mask] and not table[mask | bit]:
                    expected.append((mask, mask | bit))
                    break

        def players(mask):
            return tuple(i + 1 for i in range(n) if mask >> i & 1)

        found = [
            (v.coalition, v.superset)
            for v in find_violations(["voter"] * n, table.__getitem__)
            if v.axiom == "not-monotone"
        ]
        assert found == [(players(a), players(b)) for a, b in expected]


class TestCriticalVector:
    def test_three_player_majority(self):
        game = SimpleGame(["voter"] * 3, rule_table(3, _majority3))
        assert critical_vector(game, 1) == {2: 2}

    def test_unanimity_four_players(self):
        game = SimpleGame(["voter"] * 4, rule_table(4, lambda m: m == 0b1111))
        for player in game.players():
            assert critical_vector(game, player) == {4: 1}

    def test_bicameral_senator_matches_closed_form(self):
        spec = MulticamSpec((ChamberSpec("senate", 3, 2), ChamberSpec("house", 5, 3)))
        game = from_spec(spec)
        senator = game.players("senate")[0]
        assert critical_vector(game, senator) == {5: 20, 6: 10, 7: 2}
        assert critical_vector(game, senator) == spec.critical_vector("senate")


class TestMinimalWinning:
    def test_three_player_majority(self):
        game = SimpleGame(["voter"] * 3, rule_table(3, _majority3))
        assert minimal_winning(game) == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
        }

    def test_unanimity(self):
        game = SimpleGame(["voter"] * 3, rule_table(3, lambda m: m == 0b111))
        assert minimal_winning(game) == {frozenset({1, 2, 3})}

    def test_mini_us_families(self):
        spec = UsSpec(4, 5, 3, 3, 4, 4, True, True)
        game = from_spec(spec)
        president = set(game.players("president"))
        vp = set(game.players("vice_president"))
        senators = set(game.players("senator"))
        reps = set(game.players("representative"))

        signature = set()
        override = set()
        for coalition in minimal_winning(game):
            s = len(coalition & senators)
            r = len(coalition & reps)
            if president <= coalition:
                assert r == 3
                assert (s == 3 and not coalition & vp) or (s == 2 and coalition & vp)
                signature.add(coalition)
            else:
                assert not coalition & vp
                assert (s, r) == (4, 4)
                override.add(coalition)
        assert len(signature) == 4 * 10 + 6 * 10
        assert len(override) == 5

    def test_winning_iff_contains_minimal(self):
        spec = UsSpec(3, 4, 2, 3, 3, 4, True, True)
        game = from_spec(spec)
        minimal = minimal_winning(game)
        for mask in range(1 << game.n):
            coalition = {i + 1 for i in range(game.n) if mask & (1 << i)}
            expected = any(m <= coalition for m in minimal)
            assert game.wins(coalition) == expected


class TestFromSpec:
    def test_two_chamber_spec(self):
        spec = MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("b", 5, 3)))
        game = from_spec(spec)
        assert game.n == 8

    def test_three_chamber_spec(self):
        spec = MulticamSpec((
            ChamberSpec("a", 3, 2), ChamberSpec("b", 4, 3), ChamberSpec("c", 5, 3),
        ))
        game = from_spec(spec)
        assert game.n == 12

    def test_mini_us_spec(self):
        game = from_spec(UsSpec(4, 5, 3, 3, 4, 4, True, True))
        assert game.n == 11

    @pytest.mark.parametrize("read", [from_spec, lattice.cell_count, lattice.critical_vectors],
                             ids=["from_spec", "cell_count", "critical_vectors"])
    def test_non_spec_is_a_type_error(self, read):
        with pytest.raises(TypeError, match="^expected MulticamSpec or UsSpec, got tuple$"):
            read((ChamberSpec("a", 3, 2),))

    def test_same_class_players_have_identical_vectors(self):
        for spec in (
            MulticamSpec((ChamberSpec("a", 3, 2), ChamberSpec("b", 4, 3))),
            UsSpec(3, 4, 2, 3, 3, 4, True, True),
        ):
            game = from_spec(spec)
            for label in set(game.labels):
                players = game.players(label)
                vectors = {critical_vector(game, p) for p in players}
                assert len(vectors) == 1, label


def _multicam_specs(max_players: int):
    """Every spec of one to three chambers with every quota: two chambers in
    both orders, three with sizes in non-decreasing order.  Every order of
    three chambers would take 8-14 s more and exercises no bit layout that
    the two-chamber specs and the unequal triples do not already."""
    for chambers in (1, 2, 3):
        for sizes in itertools.product(range(1, max_players + 1), repeat=chambers):
            if sum(sizes) > max_players or (chambers == 3 and list(sizes) != sorted(sizes)):
                continue
            for quotas in itertools.product(*(range(1, m + 1) for m in sizes)):
                yield MulticamSpec(tuple(
                    ChamberSpec(name, m, q) for name, m, q in zip("abc", sizes, quotas)
                ))


def _assert_table_matches_rule(spec, rule):
    game = from_spec(spec)
    labels, win = rule(spec)
    reference = SimpleGame(labels, rule_table(len(labels), win))
    assert game.labels == reference.labels, spec
    assert np.array_equal(game.table, reference.table), spec


class TestTableAgainstPerMaskRule:
    def test_every_multicameral_spec_to_12_players(self):
        count = 0
        for spec in _multicam_specs(12):
            _assert_table_matches_rule(spec, multicam_rule)
            count += 1
        assert count == 78 + 1001 + 1179

    @pytest.mark.parametrize("spec", MINI_US_SPECS, ids=str)
    def test_mini_us_specs(self, spec):
        _assert_table_matches_rule(spec, us_rule)

    def test_twenty_players_two_chambers(self):
        spec = MulticamSpec((ChamberSpec("senate", 9, 5), ChamberSpec("house", 11, 8)))
        _assert_table_matches_rule(spec, multicam_rule)

    def test_twenty_one_players_us_style(self):
        # A senate quota one above the tie, so the vice president's vote counts.
        spec = UsSpec(8, 11, 5, 6, 6, 8, True, True)
        assert spec.tie_break_active
        _assert_table_matches_rule(spec, us_rule)


def _quota_choices(size: int) -> list[int]:
    return sorted({1, majority_quota(size), size})


def _us_specs(max_players: int):
    """Every US-style spec of at most ``max_players`` players with each quota
    drawn from {1, majority, size}, under all four executive-flag patterns."""
    for president, vp in itertools.product((True, False), repeat=2):
        executive = president + vp
        for senate in range(1, max_players - executive):
            for house in range(1, max_players - executive - senate + 1):
                for q_s, o_s in itertools.product(_quota_choices(senate), repeat=2):
                    for q_r, o_r in itertools.product(_quota_choices(house), repeat=2):
                        yield UsSpec(senate, house, q_s, q_r, o_s, o_r, president, vp)


def _us_specs_of_every_quota():
    """Every US-style spec with chambers of 1 to 4 seats: every signature quota
    and every override, under all four executive-flag patterns."""
    for president, vp in itertools.product((True, False), repeat=2):
        for senate, house in itertools.product(range(1, 5), repeat=2):
            for q_s, o_s in itertools.product(range(1, senate + 1), repeat=2):
                for q_r, o_r in itertools.product(range(1, house + 1), repeat=2):
                    yield UsSpec(senate, house, q_s, q_r, o_s, o_r, president, vp)


class TestWideSweep:
    def test_every_small_us_spec_matches_the_closed_form(self):
        count = 0
        for spec in _us_specs(14):
            assert spec.total_players <= 14
            game = from_spec(spec)
            for cls in spec.classes():
                player = game.players(cls.value)[0]
                assert spec.critical_vector(cls.value) == critical_vector(game, player), \
                    (spec, cls)
            count += 1
        assert count == 15157

    def test_every_quota_of_chambers_to_four_seats(self):
        """Every signature quota and every override, including overrides below
        the signature quotas and quotas off the majority."""
        count = 0
        for spec in _us_specs_of_every_quota():
            game = from_spec(spec)
            counted = lattice.critical_vectors(spec)
            assert list(counted) == list(spec.class_ids()), spec
            assert lattice.cell_count(spec) == (spec.senate_size + 1) * (spec.house_size + 1) \
                * (1 + spec.has_president) * (1 + spec.has_vp), spec
            for cls in spec.classes():
                player = game.players(cls.value)[0]
                enumerated = critical_vector(game, player)
                assert spec.critical_vector(cls.value) == enumerated, (spec, cls)
                assert counted[cls.value] == enumerated, (spec, cls)
            count += 1
        assert count == 3600

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_multicameral_specs_to_22_players(self, data):
        chambers = data.draw(st.integers(1, 4), label="chambers")
        sizes = []
        for _ in range(chambers):
            room = 22 - sum(sizes) - (chambers - len(sizes) - 1)
            sizes.append(data.draw(st.integers(1, room)))
        spec = MulticamSpec(tuple(
            ChamberSpec(f"c{i}", m, data.draw(st.integers(1, m)))
            for i, m in enumerate(sizes)
        ))
        _assert_enumerations_match(spec)

    def test_max_players_two_chamber_spec(self):
        spec = MulticamSpec((ChamberSpec("senate", 12, 7), ChamberSpec("house", 13, 7)))
        assert spec.total_players == 25
        game = _assert_enumerations_match(spec)
        assert game.n == 25


def _assert_enumerations_match(spec: MulticamSpec) -> SimpleGame:
    """The bitmask table, the seat-count lattice and the closed form agree on
    every chamber; the spec's game is returned."""
    game = from_spec(spec)
    counted = lattice.critical_vectors(spec)
    assert list(counted) == list(spec.class_ids()), spec
    assert lattice.cell_count(spec) == prod(c.size + 1 for c in spec.chambers), spec
    for chamber in spec.chambers:
        enumerated = critical_vector(game, game.players(chamber.name)[0])
        assert enumerated == spec.critical_vector(chamber.name), spec
        assert counted[chamber.name] == enumerated, spec
    return game


def _lattice_sizes(data, chambers: int, most: int, cells: int = 40_000) -> list[int]:
    """Chamber sizes of at most ``most`` seats whose lattice, prod (m_i + 1),
    stays within ``cells``."""
    sizes = []
    for left in range(chambers - 1, -1, -1):
        # Leave two cells, one seat, for every chamber still to draw.
        m = data.draw(st.integers(1, min(most, cells // 2 ** left - 1)))
        cells //= m + 1
        sizes.append(m)
    return sizes


def _assert_lattice_matches_the_closed_forms(spec: MulticamSpec | UsSpec) -> None:
    counted = lattice.critical_vectors(spec)
    assert list(counted) == list(spec.class_ids()), spec
    for class_id in spec.class_ids():
        assert counted[class_id] == spec.critical_vector(class_id), (spec, class_id)


class TestLattice:
    @pytest.mark.parametrize("spec", [
        UsSpec(),
        UsSpec(senate_quota=66),
        UsSpec(senate_quota=67),
        UsSpec(senate_quota=100),
        UsSpec(house_quota=401, house_override=401),
    ], ids=["default", "senate-66", "senate-67", "senate-100", "house-401"])
    def test_paper_scale_matches_the_closed_forms(self, spec):
        counted = lattice.critical_vectors(spec)
        assert lattice.cell_count(spec) == 2 * 2 * 101 * 436
        for cls in spec.classes():
            assert counted[cls.value] == spec.critical_vector(cls.value), cls
        president, senator = counted["president"], counted["senator"]
        # The refuting values of the criterion-7 checks, by a route that
        # shares no code with the closed forms.
        if spec.senate_quota >= 66:
            relation = weak_desirability(president, senator)
            assert relation.kind is not Dominance.STRICTLY_ABOVE
        if spec.senate_quota == 66:
            assert president[503] == senator[503] == comb(100, 66)
        if spec.house_quota == 401:
            assert senator[503] == comb(99, 66)

    @pytest.mark.parametrize("quota", range(51, 101))
    def test_senate_quota_scan_matches_supermajority_scan(self, quota):
        # Every row of the criterion-7 scan, by the lattice instead of the
        # closed forms.
        [(_, senator_vs_rep, president_vs_senator)] = supermajority_scan(UsSpec(), [quota])
        counted = lattice.critical_vectors(UsSpec(senate_quota=quota))
        senator = counted["senator"]
        assert weak_desirability(senator, counted["representative"]) == senator_vs_rep
        assert weak_desirability(counted["president"], senator) == president_vs_senator

    @pytest.mark.parametrize("sizes, quotas", [
        ((100, 100, 1), (1, 1, 1)),
        ((120, 110, 3), (20, 30, 2)),
        ((60, 55, 50, 1), (1, 1, 1, 1)),
        ((24, 20, 16, 12, 1), (5, 7, 3, 6, 1)),
    ], ids=["100x100", "101x81", "60x55x50", "24x20x16x12"])
    def test_member_vector_of_long_slices(self, sizes, quotas):
        # The last chamber's member multiplies long slices by the subset
        # recurrence: two of them (100 x 100 and 101 x 81 entries), three (60,
        # 55 and 50 entries), or of four (20, 14, 14 and 7 entries) the three
        # longest, the fourth, short of 2^3 entries, convolved into their product.
        spec = MulticamSpec(tuple(
            ChamberSpec(f"c{i}", m, q) for i, (m, q) in enumerate(zip(sizes, quotas))))
        _assert_lattice_matches_the_closed_forms(spec)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multicameral_specs_of_hundreds_of_seats(self, data):
        chambers = data.draw(st.integers(2, 3), label="chambers")
        spec = MulticamSpec(tuple(
            ChamberSpec(f"c{i}", m, data.draw(st.integers(1, m)))
            for i, m in enumerate(_lattice_sizes(data, chambers, 300))
        ))
        _assert_lattice_matches_the_closed_forms(spec)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_us_style_specs_of_hundreds_of_seats(self, data):
        president, vp = data.draw(st.booleans()), data.draw(st.booleans())
        senate, house = _lattice_sizes(data, 2, 150, 40_000 // ((1 + president) * (1 + vp)))
        quota = lambda m: data.draw(st.integers(1, m))
        spec = UsSpec(senate, house, quota(senate), quota(house), quota(senate), quota(house),
                      president, vp)
        _assert_lattice_matches_the_closed_forms(spec)

    def test_boxes_describe_the_passage_rule(self):
        """On every cell of every small spec, the union of ``spec.boxes()``
        wins exactly where the lattice's passage rule does.  The lattice
        audits that rule for monotonicity, so the union meets
        ``box_critical_vector``'s precondition on these specs."""
        seat_quota = [(m, q) for m in range(1, 5) for q in range(1, m + 1)]
        multicam = [
            MulticamSpec(tuple(ChamberSpec(f"c{i}", m, q) for i, (m, q) in enumerate(chambers)))
            for c in range(1, 4) for chambers in itertools.product(seat_quota, repeat=c)
        ]
        us = list(_us_specs_of_every_quota())
        assert (len(multicam), len(us)) == (1110, 3600)
        for spec in multicam + us:
            layout, wins = lattice.axes(spec)
            boxes = spec.boxes()
            for cell in itertools.product(*(range(m + 1) for _, m in layout)):
                in_union = any(all(lo <= a <= hi for a, (lo, hi) in zip(cell, box))
                               for box in boxes)
                assert in_union == bool(wins(*cell)), (spec, cell)
            lattice.critical_vectors(spec)

    def test_imports_no_closed_form_and_no_numpy(self):
        source = Path(lattice.__file__).read_text()
        tree = ast.parse(source)
        imported = {(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
        assert imported == {
            ("__future__", "annotations"), ("collections.abc", "Callable"),
            ("itertools", "product"), ("math", "comb"), ("math", "prod"), ("chambers", "MulticamSpec"),
            ("counting", "CountVector"), ("uslike", "UsSpec"),
        }
        # The spec types carry the closed form as methods; the lattice must
        # not reach it through them.
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"boxes", "critical_vector", "box_critical_vector"}

    @pytest.mark.parametrize("rule, axiom", [
        (lambda spec, counts: True, "empty-cell-wins"),
        (lambda spec, counts: False, "full-cell-loses"),
        (lambda spec, counts: sum(counts) in (1, spec.total_players), "not-monotone"),
    ], ids=["empty-wins", "full-loses", "not-monotone"])
    def test_audit_names_the_broken_axiom(self, monkeypatch, rule, axiom):
        monkeypatch.setattr(lattice, "multicam_wins", rule)
        spec = MulticamSpec((ChamberSpec("a", 2, 1), ChamberSpec("b", 3, 2)))
        with pytest.raises(lattice.RuleAxiomError, match=f"^{axiom}: "):
            lattice.critical_vectors(spec)


PACKAGE = Path(lattice.__file__).parent


class TestNumpyFree:
    """numpy is a test dependency only: the bitmask table lives in the tests."""

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_module_imports_no_numpy(self, module):
        tree = ast.parse((PACKAGE / module).read_text())
        names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        names += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "numpy" not in {name.split(".")[0] for name in names}

    def test_no_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project.get("dependencies", []) == []
        assert any(r.startswith("numpy") for r in project["optional-dependencies"]["test"])
