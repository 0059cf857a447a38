"""Acceptance suite: one check per headline result, at zero tolerance.

Every check prints a single CRITERION line (visible under ``pytest -s`` and in
failure output).  Two checks assert stated dominance claims that exact
computation refutes; they are kept strict on purpose, fail, and their messages
carry the true values.  Everything else must pass exactly.
"""

import time
from fractions import Fraction

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
    certify_comparison,
    class_critical_vector,
    compare_members,
    critical_product_greater,
    count_ratio,
    crossover_sizes,
    growth_ratio,
    majority_quota,
    member_critical_vector,
    ranking,
    shapley_shubik,
    supermajority_scan,
    vp_rep_sign_table,
    weak_desirability,
    evaluate,
)
from legipower.combinat import CertOutcome
from legipower.oracle import critical_vector, from_spec
from helpers import MINI_US_SPECS


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {criterion}: {status}{suffix}")


def _us_vectors() -> dict[PlayerClass, CountVector]:
    spec = UsSpec()
    return {cls: class_critical_vector(spec, cls) for cls in spec.classes()}


def test_criterion_1_us_weak_desirability_relations():
    started = time.perf_counter()
    vectors = _us_vectors()
    cp = vectors[PlayerClass.PRESIDENT]
    cv = vectors[PlayerClass.VICE_PRESIDENT]
    cs = vectors[PlayerClass.SENATOR]
    cr = vectors[PlayerClass.REPRESENTATIVE]

    relations = {
        "president/senator": weak_desirability(cp, cs).kind,
        "president/vice_president": weak_desirability(cp, cv).kind,
        "president/representative": weak_desirability(cp, cr).kind,
        "senator/representative": weak_desirability(cs, cr).kind,
    }
    ok = all(kind is Dominance.STRICTLY_ABOVE for kind in relations.values())
    sv = weak_desirability(cs, cv)
    ok = ok and sv.kind is Dominance.WEAKLY_ABOVE
    ok = ok and all(cs[k] == cv[k] for k in range(270, 357))
    ok = ok and all(cs[k] > cv[k] for k in range(357, 504))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10
    _report("1 weak desirability in the default system", ok, f"{elapsed:.2f}s")
    assert ok, (relations, sv.kind, elapsed)


def test_criterion_2_banzhaf_and_shapley_rankings():
    expected = [
        PlayerClass.PRESIDENT, PlayerClass.SENATOR,
        PlayerClass.VICE_PRESIDENT, PlayerClass.REPRESENTATIVE,
    ]
    spec = UsSpec()
    timings = []
    for name, make_index in (("banzhaf", banzhaf), ("shapley", shapley_shubik)):
        started = time.perf_counter()
        ranked = ranking(spec, make_index(537))
        elapsed = time.perf_counter() - started
        timings.append(f"{name} {elapsed:.2f}s")
        order = [cls for cls, _ in ranked]
        values = [value for _, value in ranked]
        assert order == expected, name
        assert all(a > b for a, b in zip(values, values[1:])), name
        assert elapsed < 10, name
    _report("2 banzhaf and shapley rankings", True, ", ".join(timings))


def test_criterion_3_vp_versus_representative_sign_table():
    signs = vp_rep_sign_table(UsSpec())
    cr = class_critical_vector(UsSpec(), PlayerClass.REPRESENTATIVE)
    ok = all(signs[k] == 1 for k in range(270, 357))
    ok = ok and all(signs[k] == -1 for k in range(357, 380))
    ok = ok and all(signs[k] == 1 for k in range(380, 488))
    ok = ok and cr.k_max == 391
    _report("3 vp/representative sign flips at 357 and 380", ok)
    assert ok


def test_criterion_4_exceptional_case_crossover_sizes():
    sizes = crossover_sizes(101, 51, 150, 76)
    ok = sizes == frozenset({127, 128})
    _report("4 crossover sizes of the 101/150 pair", ok, str(sorted(sizes)))
    assert ok


def _non_exceptional_pairs(limit: int):
    for m_small in range(1, limit):
        for m_large in range(m_small + 1, limit + 1):
            if m_small % 2 == 1 and m_large % 2 == 0 and m_large <= 2 * m_small:
                continue
            yield m_small, m_large


def test_criterion_5_parity_grid_smaller_chamber_dominates():
    started = time.perf_counter()
    for m_small, m_large in _non_exceptional_pairs(40):
        spec = MulticamSpec((
            ChamberSpec.simple_majority("small", m_small),
            ChamberSpec.simple_majority("large", m_large),
        ))
        relation = compare_members(spec, "small", "large")
        assert relation.kind is Dominance.STRICTLY_ABOVE, (m_small, m_large)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    _report("5 parity grid to size 40", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_6_exceptional_case_extremes():
    for m_small in range(3, 40, 2):  # adjacent sizes: the larger house wins outright
        m_large = m_small + 1
        spec = MulticamSpec((
            ChamberSpec.simple_majority("small", m_small),
            ChamberSpec.simple_majority("large", m_large),
        ))
        relation = compare_members(spec, "large", "small")
        assert relation.kind is Dominance.STRICTLY_ABOVE, (m_small, m_large)

    for m_small in range(1, 20, 2):  # doubled size: one tie, then the smaller house
        m_large = 2 * m_small
        spec = MulticamSpec((
            ChamberSpec.simple_majority("small", m_small),
            ChamberSpec.simple_majority("large", m_large),
        ))
        v_small = member_critical_vector(spec, "small")
        v_large = member_critical_vector(spec, "large")
        minimal = v_small.k_min
        assert v_small[minimal] == v_large[minimal], (m_small, m_large)
        for k in v_small.support():
            if k > minimal:
                assert v_small[k] > v_large[k], (m_small, m_large, k)
    _report("6 exceptional-case extremes", True)


def test_criterion_7_senate_quota_scan_senator_over_representative():
    results = supermajority_scan(UsSpec(), range(51, 101))
    bad = [(q, sr.kind) for q, sr, _ in results if sr.kind is not Dominance.STRICTLY_ABOVE]
    ok = not bad
    _report("7 senator over representative for senate quotas 51..100", ok, str(bad[:3]))
    assert ok, bad


def test_criterion_7_senate_quota_scan_president_over_senator():
    # Stated claim: the president strictly dominates a senator at every senate
    # quota in [51, 100].  Exact computation refutes it: at quota 66 the two
    # critical numbers tie at size 503 (both C(100, 66)), and from quota 67 on
    # the senator's override-track criticality reaches sizes the president
    # cannot, making the pair incomparable.  The assertion is kept strict and
    # the discrepancy recorded here.
    results = supermajority_scan(UsSpec(), range(51, 101))
    bad = [(q, ps.kind.value) for q, _, ps in results if ps.kind is not Dominance.STRICTLY_ABOVE]
    ok = not bad
    _report("7 president over senator for senate quotas 51..100", ok,
            f"fails at {len(bad)} quotas, first {bad[:2]}")
    assert ok, f"president does not strictly dominate a senator at quotas {bad}"


def test_criterion_7_house_supermajority_reversal():
    spec = UsSpec(house_quota=401, house_override=401)
    cs = class_critical_vector(spec, PlayerClass.SENATOR)
    cr = class_critical_vector(spec, PlayerClass.REPRESENTATIVE)
    rel = weak_desirability(cr, cs)
    ok = rel.kind is Dominance.STRICTLY_ABOVE
    ok = ok and cr[503] == binomial(434, 400)
    ok = ok and cr[503] > binomial(100, 50)
    _report("7 house quota 401 puts representatives over senators", ok, rel.kind.value)
    assert ok


def test_criterion_7_house_supermajority_endpoint_senator_value():
    # Stated claim: with house quotas at 401 the senator's critical number at
    # size 503 equals C(100, 50).  The exact value is C(99, 66): the only
    # senator-critical coalitions of size 503 are override-track ones (the
    # senator, 66 other senators, the vice president, and the full house).
    # The assertion is kept strict and the discrepancy recorded here.
    spec = UsSpec(house_quota=401, house_override=401)
    cs = class_critical_vector(spec, PlayerClass.SENATOR)
    ok = cs[503] == binomial(100, 50)
    _report("7 house quota 401 endpoint senator value", ok,
            f"computed C(99,66)={cs[503]}, stated C(100,50)={binomial(100, 50)}")
    assert ok, f"senator critical number at 503 is {cs[503]}, not C(100,50)"


def test_criterion_8a_two_chamber_grid_matches_enumeration():
    started = time.perf_counter()
    games = 0
    for m_a in range(1, 16):
        for m_b in range(m_a, 16):
            if m_a + m_b > 16:
                break
            for q_a in range(1, m_a + 1):
                for q_b in range(1, m_b + 1):
                    spec = MulticamSpec((
                        ChamberSpec("a", m_a, q_a), ChamberSpec("b", m_b, q_b),
                    ))
                    game = from_spec(spec)
                    games += 1
                    for name in ("a", "b"):
                        player = game.players(name)[0]
                        assert member_critical_vector(spec, name) == \
                            critical_vector(game, player), (m_a, q_a, m_b, q_b, name)
    elapsed = time.perf_counter() - started
    _report("8a two-chamber grid versus enumeration", True,
            f"{games} games, {elapsed:.1f}s")


def _three_chamber_catalog() -> list[MulticamSpec]:
    # Every size triple with at most 14 players under majority quotas, plus a
    # few non-majority quota mixes.
    specs = []
    for a in range(1, 13):
        for b in range(a, 13):
            for c in range(b, 13):
                if a + b + c <= 14:
                    specs.append(MulticamSpec(tuple(
                        ChamberSpec.simple_majority(name, size)
                        for name, size in zip("abc", (a, b, c))
                    )))
    specs.append(MulticamSpec((
        ChamberSpec("a", 3, 1), ChamberSpec("b", 4, 4), ChamberSpec("c", 5, 2),
    )))
    specs.append(MulticamSpec((
        ChamberSpec("a", 4, 2), ChamberSpec("b", 4, 3), ChamberSpec("c", 4, 4),
    )))
    specs.append(MulticamSpec((
        ChamberSpec("a", 2, 2), ChamberSpec("b", 5, 1), ChamberSpec("c", 6, 4),
    )))
    return specs


def test_criterion_8b_three_chamber_catalog_matches_enumeration():
    catalog = _three_chamber_catalog()
    assert len(catalog) >= 20
    for spec in catalog:
        assert spec.total_players <= 14
        game = from_spec(spec)
        for chamber in spec.chambers:
            player = game.players(chamber.name)[0]
            assert member_critical_vector(spec, chamber.name) == \
                critical_vector(game, player), (spec, chamber.name)
    _report("8b three-chamber catalog versus enumeration", True, f"{len(catalog)} specs")


def test_criterion_8c_mini_us_specs_match_enumeration():
    assert len(MINI_US_SPECS) >= 5
    for spec in MINI_US_SPECS:
        assert spec.total_players <= 14
        game = from_spec(spec)
        for cls in spec.classes():
            player = game.players(cls.value)[0]
            assert class_critical_vector(spec, cls) == critical_vector(game, player), \
                (spec, cls)
    _report("8c mini us-style specs versus enumeration", True,
            f"{len(MINI_US_SPECS)} specs")


def test_criterion_9_ratio_identity_and_certificates():
    # Growth identity over the full ratio grid.
    for size in range(2, 41):
        for quota in range(1, size):
            for overshoot in range(size - quota - 1):
                assert count_ratio(size, quota, overshoot + 1) == \
                    growth_ratio(size, quota, overshoot) * count_ratio(size, quota, overshoot)

    # Certificates never contradict direct evaluation, and the direct
    # comparison is single-crossing, over the majority-quota grid to size 40.
    for m_small in range(3, 40):
        for m_large in range(m_small + 1, 41):
            q_small = majority_quota(m_small)
            q_large = majority_quota(m_large)
            if not (1 < q_small < m_small and 1 < q_large < m_large):
                continue
            verdicts = certify_comparison(m_small, q_small, m_large, q_large)
            for k, verdict in verdicts.items():
                direct = critical_product_greater(m_small, q_small, m_large, q_large, k)
                if verdict.outcome is CertOutcome.CERTIFIED_GREATER:
                    assert direct, (m_small, m_large, k)
                elif verdict.outcome is CertOutcome.CERTIFIED_EQUAL:
                    assert not direct
                    assert not critical_product_greater(
                        m_large, q_large, m_small, q_small, k), (m_small, m_large, k)
            k_both = min(q_small + m_large, q_large + m_small)
            flags = [
                critical_product_greater(m_small, q_small, m_large, q_large, k)
                for k in range(q_small + q_large, k_both + 1)
            ]
            assert flags == sorted(flags), (m_small, m_large)
    _report("9 ratio identity, certificate soundness, single crossing", True)


def test_criterion_10_semivalue_sanity():
    for n in (1, 2, 3, 11, 40, 537):
        for w in (banzhaf(n), shapley_shubik(n)):
            assert sum(w.weight(k) * binomial(n - 1, k - 1) for k in range(1, n + 1)) == 1
    manual = WeightingVector((Fraction(1, 2), Fraction(1, 8), Fraction(1, 4)))
    assert sum(manual.weight(k) * binomial(2, k - 1) for k in (1, 2, 3)) == 1

    games = [from_spec(spec) for spec in MINI_US_SPECS if spec.total_players <= 12]
    games.append(from_spec(MulticamSpec((ChamberSpec("a", 3, 2),))))
    games.append(from_spec(MulticamSpec((ChamberSpec("a", 5, 3), ChamberSpec("b", 6, 4)))))
    assert len(games) >= 5
    for game in games:
        w = shapley_shubik(game.n)
        total = sum(evaluate(w, critical_vector(game, p)) for p in game.players())
        assert total == 1, game.labels
    _report("10 semivalue normalisation and efficiency", True, f"{len(games)} games")
