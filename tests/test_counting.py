import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from legipower import CountVector, binomial, binomial_row
from legipower.counting import (
    KRONECKER_MIN_LEN, _convolve, _slice_product, box_critical_vector)
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

    @pytest.mark.parametrize("row_len, below", [(7000, True), (7300, False)])
    def test_either_side_of_the_int_string_digit_limit(self, default_digit_limit,
                                                      row_len, below):
        # Chunks of w digits are within the default 4300-digit limit at
        # C(7000, k) near the middle and past it at C(7300, k).
        row, length = binomial_row(row_len), self.CUT + 1
        mid = row_len // 2 - length
        a, b = row[mid:mid + length], row[mid + 10:mid + 10 + length]
        w = (max(a) * max(b) * length).bit_length() * 30103 // 100000 + 1
        assert (w < 4300) == below
        assert _convolve(a, b) == plain_convolve(a, b)


def _row_slice(m, lo, hi):
    """(m, lo, [C(m, lo), ..., C(m, hi)]): the arguments of one slice."""
    return m, lo, binomial_row(m)[lo:hi + 1]


@st.composite
def _row_slices(draw, max_seats):
    m = draw(st.integers(0, max_seats))
    lo = draw(st.integers(0, m))
    return _row_slice(m, lo, draw(st.integers(lo, m)))


class TestSliceProduct:
    def test_every_pair_of_slices_up_to_six_seats(self):
        slices = [_row_slice(m, lo, hi) for m in range(7)
                  for lo in range(m + 1) for hi in range(lo, m + 1)]
        assert len(slices) ** 2 == 7056
        for first, second in itertools.product(slices, repeat=2):
            assert _slice_product(*first, *second) == plain_convolve(first[2], second[2]), \
                (first, second)

    @settings(max_examples=40, deadline=None)
    @given(first=_row_slices(400), second=_row_slices(400))
    @example(first=_row_slice(300, 151, 300), second=_row_slice(299, 150, 299))
    @example(first=_row_slice(400, 0, 400), second=_row_slice(1, 1, 1))
    def test_slices_of_hundreds_of_seats(self, first, second):
        assert _slice_product(*first, *second) == _convolve(first[2], second[2])

    def test_past_the_int_string_digit_limit(self, default_digit_limit):
        # C(15001, k) near the middle has about 4514 digits; the recurrence
        # converts no integer to a string.
        first, second = _row_slice(15001, 7450, 7549), _row_slice(15001, 7000, 7099)
        out = _slice_product(*first, *second)
        assert out == plain_convolve(first[2], second[2])
        assert max(out) > 10 ** 9000

    @pytest.mark.parametrize("entry", [0, -1])
    def test_slice_that_is_not_binomial_raises(self, entry):
        # One entry off by one makes some step's division inexact, or the
        # last coefficient wrong.
        m, lo, row = _row_slice(12, 3, 9)
        row[entry] += 1
        with pytest.raises(ArithmeticError, match="slice product"):
            _slice_product(m, lo, row, *_row_slice(10, 2, 8))


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
