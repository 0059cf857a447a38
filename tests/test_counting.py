import contextlib
import decimal
import itertools
import json
import math
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from legipower import ChamberSpec, CountVector, MulticamSpec, UsSpec, binomial
from legipower import counting
from legipower.counting import _EXACT, _convolve, _product, box_critical_vector
from legipower.specfile import load_spec_file
from helpers import box_union_critical_counts, plain_convolve


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
        assert sum(v for _, v in vec.items()) == 32
        assert vec.items() == [(5, 20), (6, 10), (7, 2)]

    def test_empty(self):
        vec = CountVector()
        assert not vec
        assert vec.k_min is None and vec.k_max is None

    def test_no_pairs_is_empty(self):
        assert CountVector({}) == CountVector()

    def test_equal_to_a_mapping_up_to_zero_entries(self):
        assert CountVector({5: 1}) == {5: 1, 6: 0}
        assert CountVector({5: 1}) != {5: 2}

    def test_equal_vectors_hash_alike(self):
        assert hash(CountVector({3: 1, 4: 2})) == hash(CountVector({4: 2, 3: 1, 5: 0}))


def _pick_counts(fixed, pools):
    """Per-size counts of the coalitions of ``fixed`` members plus, from each
    pool (m, lo, hi), between lo and hi of its m members: the critical numbers
    of a one-seat axis whose only box holds the pools' ranges."""
    seats = [1] + [m for m, _, _ in pools]
    box = ((1, 1),) + tuple((lo, hi) for _, lo, hi in pools)
    vec = box_critical_vector(seats, [box], 0)
    return CountVector({k - 1 + fixed: v for k, v in vec.items()})


def _enumerated_pick_counts(fixed, pools):
    """The same counts, from every subset of a labelled universe."""
    seats = [1] + [m for m, _, _ in pools]
    box = ((1, 1),) + tuple((lo, hi) for _, lo, hi in pools)
    return {k - 1 + fixed: v for k, v in box_union_critical_counts(seats, [box], 0).items()}


class TestPoolConstraint:
    @pytest.mark.parametrize("pool", [(2, -1, 1), (2, 2, 1), (2, 1, 3)])
    def test_invalid_rejected(self, pool):
        # Picks outside 0..m, or from an empty range, are never counted.
        m, lo, hi = pool
        vec = _pick_counts(0, [pool])
        assert vec == _pick_counts(0, [(m, max(lo, 0), min(hi, m))])
        assert vec == _enumerated_pick_counts(0, [pool])
        assert bool(vec) == (lo <= hi)


class TestTemplateCounts:
    def test_two_pool_example(self):
        pools = [(2, 1, 1), (5, 3, 5)]
        expected = _enumerated_pick_counts(1, pools)
        assert expected == {5: 20, 6: 10, 7: 2}
        assert _pick_counts(1, pools) == expected

    def test_empty_product(self):
        assert _pick_counts(0, []) == {0: 1}

    def test_single_pool_shifted_row(self):
        assert _pick_counts(2, [(3, 0, 3)]) == {2: 1, 3: 3, 4: 3, 5: 1}


class TestQuotaTemplates:
    def test_two_chambers(self):
        pools = [(3, 2, 3), (4, 3, 4)]
        assert _enumerated_pick_counts(0, pools)[5] == 12
        assert _pick_counts(0, pools)[5] == 12

    def test_everyone_needed_at_the_top(self):
        assert _pick_counts(0, [(3, 2, 3), (4, 3, 4)])[7] == 1

    def test_below_quota_is_zero(self):
        assert _pick_counts(0, [(3, 2, 3)])[1] == 0

    def test_empty_chamber_list(self):
        assert _pick_counts(0, []) == {0: 1}

    def test_invalid_quota_rejected(self):
        # A quota above the chamber's size admits no coalition.
        assert not _pick_counts(0, [(3, 4, 3)])


_pools = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).map(
        lambda t: (max(t), min(t[1], t[2]), max(t[1], t[2]))
    ),
    min_size=0,
    max_size=3,
)


class TestTemplateProperties:
    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_matches_exhaustive_enumeration(self, pools, fixed):
        if sum(m for m, _, _ in pools) > 14:
            return
        assert _pick_counts(fixed, pools) == _enumerated_pick_counts(fixed, pools)

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_total_mass(self, pools, fixed):
        expected = math.prod(sum(math.comb(m, a) for a in range(lo, hi + 1))
                             for m, lo, hi in pools)
        assert sum(v for _, v in _pick_counts(fixed, pools).items()) == expected

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_pool_order_irrelevant(self, pools, fixed):
        assert _pick_counts(fixed, pools) == _pick_counts(fixed, pools[::-1])

    @settings(max_examples=80, deadline=None)
    @given(pools=_pools, fixed=st.integers(0, 3))
    def test_support_is_an_interval(self, pools, fixed):
        support = _pick_counts(fixed, pools).support()
        assert list(support) == list(range(support[0], support[-1] + 1))


def _rows(max_len):
    entries = st.one_of(st.just(0), st.integers(0, 10 ** 80))
    return st.integers(1, max_len).flatmap(
        lambda n: st.lists(entries, min_size=n, max_size=n))


@contextlib.contextmanager
def _digit_limit(limit):
    """The interpreter's limit on int-to-string conversion set to ``limit``
    (0: none) for the block, where the interpreter has the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int-to-string conversion, as a
    library caller that never goes through ``cli.main`` has it."""
    with _digit_limit(4300):
        yield


class TestConvolve:
    @settings(max_examples=60, deadline=None)
    @given(a=_rows(144), b=_rows(144))
    @example(a=[5], b=[7])
    @example(a=[3], b=[1] * 200)
    @example(a=[0] * 49, b=[0] * 49)
    @example(a=[2] * 48, b=[3] * 400)
    @example(a=[2] * 49, b=[3] * 49)
    @example(a=[10 ** 30 - 1] * 400, b=[10 ** 30 - 1] * 49)
    @example(a=[2 ** 100 - 1] * 64, b=[0, 2 ** 100 - 1] * 40)
    def test_equals_the_double_loop(self, a, b):
        assert _convolve(a, b) == plain_convolve(a, b)


def _comb_row(m, lo, hi):
    """[C(m, lo), ..., C(m, hi)] by ``math.comb``."""
    return [math.comb(m, x) for x in range(lo, hi + 1)]


@st.composite
def _slices(draw, max_seats):
    m = draw(st.integers(0, max_seats))
    lo = draw(st.integers(0, m))
    return m, lo, draw(st.integers(lo, m))


def _in_decimal(fn, core, *args):
    """``fn(Decimal(core), *args)`` under ``_EXACT``: the digits run's arithmetic."""
    with decimal.localcontext(_EXACT):
        return fn(Decimal(core), *args)


def _binomial_off_by_one(monkeypatch, n, k):
    """``counting.binomial``, the walks' seed source, one too large at (n, k) only."""
    exact = counting.binomial
    monkeypatch.setattr(counting, "binomial", lambda a, b: exact(a, b) + ((a, b) == (n, k)))


class TestWalk:
    """``_product`` of one slice: one ratio walk."""

    def test_every_scaled_slice_up_to_eight_seats(self):
        for m in range(9):
            for lo, hi in itertools.combinations_with_replacement(range(m + 1), 2):
                expected = [-3 * v for v in _comb_row(m, lo, hi)]
                assert _product(-3, [(m, lo, hi)]) == expected, (m, lo, hi)
                assert _in_decimal(_product, -3, [(m, lo, hi)]) == expected, (m, lo, hi)

    @pytest.mark.parametrize("num", [int, Decimal])
    def test_seed_that_is_not_binomial_raises(self, monkeypatch, num):
        # C(12, 3) + 1 = 221 = 13 * 17: 221 * 9 / 4 leaves a remainder.
        _binomial_off_by_one(monkeypatch, 12, 3)
        with pytest.raises(ArithmeticError, match=r"walk along row 12 is not exact at t\^4"):
            if num is Decimal:
                _in_decimal(_product, 1, [(12, 3, 9)])
            else:
                _product(1, [(12, 3, 9)])

    @pytest.mark.parametrize("num", [int, Decimal])
    def test_exact_walk_to_a_wrong_end_raises(self, monkeypatch, num):
        # Twice C(6, 1) walks exactly, to twice C(6, 6); math.comb says once.
        exact = counting.binomial
        monkeypatch.setattr(counting, "binomial", lambda a, b: 2 * exact(a, b))
        with pytest.raises(ArithmeticError, match=r"walk along row 6 ends off C\(6, 6\)"):
            if num is Decimal:
                _in_decimal(_product, 1, [(6, 1, 6)])
            else:
                _product(1, [(6, 1, 6)])


def _product_reference(core, slices):
    """``core`` times the slices' rows, convolved by ``plain_convolve``."""
    row = [core]
    for m, lo, hi in slices:
        row = plain_convolve(row, _comb_row(m, lo, hi))
    return row


def _both_runs(core, slices):
    """``_product`` in ``int`` and in ``Decimal``, checked equal."""
    out = _product(core, slices)
    assert _in_decimal(_product, core, slices) == out
    return out


class TestProduct:
    SLICES = [(m, lo, hi) for m in range(6) for lo in range(m + 1) for hi in range(lo, m + 1)]

    @pytest.mark.parametrize("num", [int, Decimal])
    @pytest.mark.parametrize("core", [1, -6])
    def test_every_set_of_up_to_three_slices_of_five_seats(self, num, core):
        sets = [s for r in (1, 2, 3) for s in itertools.combinations(self.SLICES, r)]
        assert len(sets) == 29316
        for slices in sets:
            out = _in_decimal(_product, core, slices) if num is Decimal else _product(core, slices)
            assert out == _product_reference(core, slices), (core, slices)

    def test_no_slice_is_the_core(self):
        assert _product(-6, []) == [-6]
        assert _in_decimal(_product, -6, []) == [-6]

    def test_repeated_slices(self):
        # Equal slices give equal runs, which are planned once.
        for slices in ([(5, 2, 5)] * 4, [(4, 1, 3)] * 3 + [(3, 0, 3)], [(6, 2, 4), (6, 2, 4)]):
            assert _both_runs(-3, slices) == _product_reference(-3, slices), slices

    @settings(max_examples=40, deadline=None)
    @given(slices=st.lists(_slices(300), min_size=1, max_size=5),
           core=st.integers(-10 ** 60, 10 ** 60))
    @example(slices=[(300, 151, 300), (299, 150, 299)], core=math.comb(99, 50))
    @example(slices=[(400, 0, 400), (1, 1, 1)], core=1)
    @example(slices=[(400, 10, 390), (350, 20, 300)], core=-7)
    @example(slices=[(200, 101, 200), (199, 100, 199), (198, 100, 198), (197, 99, 197),
                     (196, 99, 196)], core=1)
    @example(slices=[(200, 10, 190), (150, 20, 100), (120, 60, 61), (100, 0, 100),
                     (90, 45, 80)], core=-(10 ** 40))
    def test_slices_of_hundreds_of_seats(self, slices, core):
        assert _both_runs(core, slices) == _product_reference(core, slices)

    def test_four_slices_past_the_int_string_digit_limit(self, default_digit_limit):
        # The core C(15000, 7500) has 4514 digits and C(4000, k) near the middle
        # about 1200, so each coefficient has about 9300; neither run converts
        # an int to a string, and the Decimal run's digits print under the limit.
        slices = [(4001, 1990, 2009), (4000, 1800, 1819), (3999, 2100, 2114), (3998, 2000, 2009)]
        core = math.comb(15000, 7500)
        out = _product(core, slices)
        assert out == _product_reference(core, slices)
        assert min(map(abs, out)) > 10 ** 9000
        digits = _in_decimal(_product, core, slices)
        assert digits == out
        assert len(str(digits[0])) > 9000
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(ValueError):
                str(out[0])

    @pytest.mark.parametrize("num", [int, Decimal])
    @pytest.mark.parametrize("wrong", [(12, 3), (10, 2), (9, 4), (12, 9), (10, 8), (9, 7)])
    def test_seed_that_is_not_binomial_raises(self, monkeypatch, num, wrong):
        # One seed binomial off by one makes some walk or step inexact, or
        # some run end off its math.comb value.
        _binomial_off_by_one(monkeypatch, *wrong)
        slices = [(12, 3, 9), (10, 2, 8), (9, 4, 7)]
        with pytest.raises(ArithmeticError, match="walk along row|slice product"):
            if num is Decimal:
                _in_decimal(_product, 1, slices)
            else:
                _product(1, slices)


def _spy_on_product(monkeypatch):
    """The slices of every ``_product`` call from here on, in call order: per
    term, the slices of the recurrence, then each short slice on its own."""
    calls = []
    product = counting._product

    def spy(seed, slices):
        calls.append(list(slices))
        return product(seed, slices)

    monkeypatch.setattr(counting, "_product", spy)
    return calls


def _member_reference(chambers, i):
    """A member of chamber i's critical numbers, for (size, quota) chambers:
    its quota core times the other chambers' quota..size rows, by ``plain_convolve``."""
    m, q = chambers[i]
    others = [(m_j, q_j, m_j) for j, (m_j, q_j) in enumerate(chambers) if j != i]
    row = _product_reference(math.comb(m - 1, q - 1), others)
    return dict(enumerate(row, q + sum(q_j for _, q_j, _ in others)))


class TestSplitRule:
    """Which slices ``_counts`` multiplies by the subset recurrence: the k-th
    longest only with at least 2^(k-1) entries, since each doubles the runs."""

    def test_twenty_short_chambers_beside_a_long_one(self, monkeypatch):
        chambers = [(3000, 1501)] + [(3, 2)] * 20
        spec = MulticamSpec(ChamberSpec(f"c{i}", m, q) for i, (m, q) in enumerate(chambers))
        calls = _spy_on_product(monkeypatch)
        for i in (0, 1):
            assert spec.critical_vector(f"c{i}") == _member_reference(chambers, i)
        # Per member, the 1,501-entry slice and one 2-entry slice, or two
        # 2-entry slices, in the recurrence; the other 18 slices are convolved
        # in, each one walk.
        assert [len(slices) for slices in calls] == ([2] + [1] * 18) * 2

    def test_one_seat_chambers_fold_into_the_core(self, monkeypatch):
        chambers = [(40, 21), (1, 1), (30, 16), (1, 1), (1, 1), (25, 5)]
        spec = MulticamSpec(ChamberSpec(f"c{i}", m, q) for i, (m, q) in enumerate(chambers))
        calls = _spy_on_product(monkeypatch)
        for i in range(len(chambers)):
            assert spec.critical_vector(f"c{i}") == _member_reference(chambers, i)
        assert [sorted(m for m, _, _ in slices) for slices in calls] == \
            [[25, 30], [25, 30, 40], [25, 40], [25, 30, 40], [25, 30, 40], [30, 40]]


class TestBoxCriticalVector:
    def test_one_orthant_is_the_quota_formula(self):
        seats, box = [3, 4], ((2, 3), (3, 4))
        expected = {2 + a: binomial(2, 1) * binomial(4, a) for a in (3, 4)}
        assert box_union_critical_counts(seats, [box], 0) == expected
        assert box_critical_vector(seats, [box], 0) == expected

    def test_ranges_past_the_seats_are_clipped(self):
        seats = [3, 4]
        clipped = box_critical_vector(seats, [((2, 3), (0, 4))], 1)
        assert box_critical_vector(seats, [((2, 9), (-1, 9))], 1) == clipped
        assert clipped == box_union_critical_counts(seats, [((2, 3), (0, 4))], 1)

    def test_identical_boxes_count_once(self):
        seats, box = [3, 4, 2], ((1, 3), (1, 3), (0, 1))
        vec = box_critical_vector(seats, [box, box], 0)
        assert vec == box_critical_vector(seats, [box], 0)
        assert vec == box_union_critical_counts(seats, [box], 0)

    def test_disjoint_boxes_add(self):
        seats, low, high = [3, 5], ((2, 3), (0, 1)), ((2, 3), (3, 5))
        union = box_critical_vector(seats, [low, high], 0)
        parts = [dict(box_critical_vector(seats, [b], 0).items()) for b in (low, high)]
        assert union == {k: parts[0].get(k, 0) + parts[1].get(k, 0) for k in range(9)}
        assert union == box_union_critical_counts(seats, [low, high], 0)

    def test_upper_bound_on_the_own_axis(self):
        # A row at 2 own seats that the main box continues from 3 up, as the
        # vice president's tie row continues into the signature box.
        seats, boxes = [4, 3], [((2, 2), (2, 3)), ((3, 4), (1, 3))]
        vec = box_critical_vector(seats, boxes, 0)
        assert vec == box_union_critical_counts(seats, boxes, 0)
        assert vec != box_critical_vector(seats, boxes[1:], 0)

    def test_box_empty_after_clipping_counts_nothing(self):
        seats, orthant, empty = [3, 4], ((2, 3), (3, 4)), ((2, 3), (5, 9))
        assert not box_critical_vector(seats, [empty], 0)
        assert box_critical_vector(seats, [empty, orthant], 0) == \
            box_critical_vector(seats, [orthant], 0)

    def test_union_not_monotone_on_the_axis_is_refused(self):
        # The range on axis 1 stops at 3 of its 4 seats, so one more seat there
        # can lose; on axis 0 the range reaches the top and the union is monotone.
        seats, box = [3, 4, 2], ((1, 3), (1, 3), (0, 1))
        with pytest.raises(RuntimeError, match=r"axis 1: box \(\(1, 3\), \(1, 3\), \(0, 1\)\)"):
            box_critical_vector(seats, [box], 1)
        assert box_critical_vector(seats, [box], 0) == box_union_critical_counts(seats, [box], 0)

    def test_first_box_leaving_the_union_is_named(self):
        seats, whole, capped = [3, 4], ((2, 3), (2, 4)), ((1, 1), (0, 4))
        with pytest.raises(RuntimeError, match=r"box \(\(1, 1\), \(0, 4\)\)"):
            box_critical_vector(seats, [whole, capped], 0)

    def test_own_axis_from_zero_is_a_null_player(self):
        # Every coalition in the box passes without the player as well.
        seats, box = [3, 4], ((0, 3), (2, 4))
        assert not box_union_critical_counts(seats, [box], 0)
        assert not box_critical_vector(seats, [box], 0)


def _span(draw, m, clipped=False):
    """A random [lo, hi]: inside 0..m when ``clipped``, else possibly empty or
    reaching past 0..m."""
    lo = draw(st.integers(0, m) if clipped else st.integers(-1, m + 1))
    return lo, draw(st.integers(lo, m) if clipped else st.integers(lo - 1, m + 1))


_seats = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 10)


@st.composite
def _open_unions(draw):
    """1 to 3 boxes with no upper bound on the player's axis: monotone there."""
    seats = draw(_seats)
    axis = draw(st.integers(0, len(seats) - 1))
    boxes = [tuple((draw(st.integers(0, m + 1)), m) if i == axis else _span(draw, m)
                   for i, m in enumerate(seats))
             for _ in range(draw(st.integers(1, 3)))]
    return seats, boxes, axis


@st.composite
def _capped_chains(draw):
    """1 to 3 boxes whose own-axis ranges start in order, each reaching at
    least to one seat below the next one's start and the last to the top,
    while their other ranges widen: the union is monotone on the player's axis
    though every box but the last may stop below its top."""
    seats = draw(_seats)
    axis, n = draw(st.integers(0, len(seats) - 1)), draw(st.integers(1, 3))
    m = seats[axis]
    starts = sorted(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)))
    tops = [draw(st.integers(nxt - 1, m)) for nxt in starts[1:]] + [m]
    others, boxes = [_span(draw, s, clipped=True) for s in seats], []
    for lo, hi in zip(starts, tops):
        boxes.append(tuple((lo, hi) if i == axis else r for i, r in enumerate(others)))
        others = [(min(a, c), max(b, d)) for (a, b), (c, d) in
                  zip(others, [_span(draw, s, clipped=True) for s in seats])]
    return seats, draw(st.permutations(boxes)), axis


@st.composite
def _any_unions(draw):
    """1 to 4 boxes of any ranges, monotone on the player's axis or not."""
    seats = draw(_seats)
    axis = draw(st.integers(0, len(seats) - 1))
    boxes = [tuple(_span(draw, m) for m in seats) for _ in range(draw(st.integers(1, 4)))]
    return seats, boxes, axis


def _monotone_along(seats, boxes, axis):
    """Whether one more seat on ``axis`` never turns a winning cell into a losing one."""
    def wins(cell):
        return any(all(lo <= a <= hi for a, (lo, hi) in zip(cell, box)) for box in boxes)
    return all(not wins(cell) or wins(cell[:axis] + (cell[axis] + 1,) + cell[axis + 1:])
               for cell in itertools.product(*(range(m + 1) for m in seats))
               if cell[axis] < seats[axis])


class TestBoxUnionProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=_open_unions())
    def test_open_unions_match_every_coalition(self, case):
        seats, boxes, axis = case
        assert box_critical_vector(seats, boxes, axis) == \
            box_union_critical_counts(seats, boxes, axis)

    @settings(max_examples=200, deadline=None)
    @given(case=_any_unions())
    def test_refused_exactly_when_not_monotone_on_the_axis(self, case):
        seats, boxes, axis = case
        if _monotone_along(seats, boxes, axis):
            assert box_critical_vector(seats, boxes, axis) == \
                box_union_critical_counts(seats, boxes, axis)
        else:
            with pytest.raises(RuntimeError, match="not monotone"):
                box_critical_vector(seats, boxes, axis)

    @settings(max_examples=100, deadline=None)
    @given(case=_capped_chains())
    def test_capped_chains_match_every_coalition(self, case):
        seats, boxes, axis = case
        assert box_critical_vector(seats, boxes, axis) == \
            box_union_critical_counts(seats, boxes, axis)


def _as_str(spec, class_id):
    return {k: str(v) for k, v in spec.critical_vector(class_id).items()}


def _majority_chambers(*sizes):
    return MulticamSpec(ChamberSpec(f"c{i}", m, m // 2 + 1) for i, m in enumerate(sizes))


class TestCriticalDigits:
    """The digits run equals ``str`` of the int run, size by size, in ascending order."""

    @staticmethod
    def _check(spec):
        for class_id in spec.class_ids():
            expected = _as_str(spec, class_id)
            pairs = list(spec.critical_digits(class_id))
            assert dict(pairs) == expected, (spec, class_id)
            assert [k for k, _ in pairs] == sorted(expected)

    def test_every_spec_of_up_to_three_chambers_of_six_seats(self):
        chambers = [(m, q) for m in range(1, 7) for q in range(1, m + 1)]
        for count in (1, 2, 3):
            for picks in itertools.product(chambers, repeat=count):
                self._check(MulticamSpec(ChamberSpec(f"c{i}", m, q)
                                         for i, (m, q) in enumerate(picks)))

    def test_every_golden_spec(self):
        # Every spec file a golden command line reads and succeeds on.
        golden = Path(__file__).parent / "golden"
        entries = json.loads((golden / "manifest.json").read_text())
        names = sorted({entry["argv"][1] for entry in entries if entry["exit"] == 0
                        and entry["argv"][0] in ("analyze", "compare", "oracle")})
        assert names == ["bicam.json", "over_bound.json", "tricam.json", "twins.json",
                         "us_full.json", "us_novp.json", "us_vp.json"]
        for name in names:
            self._check(load_spec_file(str(golden / name)))

    @pytest.mark.parametrize("changes", [
        {}, {"senate_quota": 60}, {"senate_quota": 66}, {"senate_quota": 67},
        {"senate_quota": 100}, {"senate_override": 51}, {"senate_override": 100},
        {"senate_quota": 80, "senate_override": 60},
    ])
    def test_us_system_and_its_quota_variants(self, changes):
        self._check(UsSpec().replace(**changes))

    def test_four_chambers_in_one_recurrence(self, monkeypatch):
        # Each member's three other slices, of 60 to 62 entries, are all
        # multiplied by the subset recurrence, in the int run and the digits run.
        spec = _majority_chambers(120, 121, 122, 123)
        calls = _spy_on_product(monkeypatch)
        self._check(spec)
        assert [len(slices) for slices in calls] == [3] * 8

    def test_a_short_slice_is_convolved_into_the_recurrence(self, monkeypatch):
        # Beside slices of 125 and 20 entries, the 3-seat chamber's 2-entry
        # slice is short of the 4 a third slice needs.
        spec = _majority_chambers(300, 250, 40, 3)
        calls = _spy_on_product(monkeypatch)
        self._check(spec)
        assert [len(slices) for slices in calls] == [2, 1] * 6 + [3, 3]

    @settings(max_examples=15, deadline=None)
    @given(chambers=st.lists(st.integers(100, 400).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, m))), min_size=1, max_size=3))
    def test_specs_of_hundreds_of_seats(self, chambers):
        self._check(MulticamSpec(ChamberSpec(f"c{i}", m, q) for i, (m, q) in enumerate(chambers)))

    @settings(max_examples=10, deadline=None)
    @given(senate=st.integers(3, 120), house=st.integers(3, 300), data=st.data())
    def test_us_specs_of_hundreds_of_seats(self, senate, house, data):
        quota = lambda m: data.draw(st.integers(1, m))  # noqa: E731
        self._check(UsSpec(senate, house, quota(senate), quota(house), quota(senate),
                           quota(house), data.draw(st.booleans()), data.draw(st.booleans())))


class TestDigitsIgnoreCallerSettings:
    # C(15000, 7500) has 4514 digits, past the default int-string limit; the
    # second spec's 'hall' counts also walk, so a run that rounds goes wrong.
    ONE = MulticamSpec([ChamberSpec("hall", 15001, 7501)])
    TWO = MulticamSpec([ChamberSpec("hall", 15001, 7501), ChamberSpec("annex", 3, 2)])

    def test_default_int_string_digit_limit(self, default_digit_limit):
        digits = {spec: dict(spec.critical_digits("hall")) for spec in (self.ONE, self.TWO)}
        with _digit_limit(0):
            assert digits == {spec: _as_str(spec, "hall") for spec in (self.ONE, self.TWO)}
        assert [len(v) for v in digits[self.ONE].values()] == [4514]
        assert len(digits[self.TWO]) == 2

    def test_caller_decimal_context_with_traps_cleared(self):
        spec = _majority_chambers(300, 250, 40)
        with decimal.localcontext(decimal.Context(prec=5, traps=[])):
            digits = {class_id: dict(spec.critical_digits(class_id))
                      for class_id in spec.class_ids()}
            digits["hall"] = dict(self.TWO.critical_digits("hall"))
        with _digit_limit(0):
            expected = {class_id: _as_str(spec, class_id) for class_id in spec.class_ids()}
            expected["hall"] = _as_str(self.TWO, "hall")
        assert digits == expected
