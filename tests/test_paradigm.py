import random
import sys
from fractions import Fraction
from itertools import product

import pytest
import hypothesis.strategies as hs
from hypothesis import given

import strategies as s

from ultraword import (
    DevelopmentalParadigm,
    EventSpace,
    InadmissibleIndex,
    IndexPair,
    IntervalKind,
    PartialSequence,
    PartitionScheme,
    TooFewMembers,
    TruncationBounds,
    decompose,
    is_admissible_prefix,
    is_paradigm,
    segment_window,
    ultraword,
    window_indices,
    word_closure_contains,
)
from ultraword.paradigm import window_rows

SPACE = EventSpace.of({"F", "d1", "d2"}, "F")


def dp_for(kind, K=1):
    return DevelopmentalParadigm(PartitionScheme(K, kind))


class TestAdmissiblePrefix:
    def test_base_case(self):
        assert is_admissible_prefix(PartialSequence(("F", "d1")), SPACE)

    def test_wrong_start(self):
        assert not is_admissible_prefix(PartialSequence(("d1", "d2")), SPACE)

    def test_three_step_unfolding(self):
        assert is_admissible_prefix(PartialSequence(("F", "d1", "d2", "d1")), SPACE)

    def test_value_outside_range(self):
        assert not is_admissible_prefix(PartialSequence(("F", "junk")), SPACE)

    def test_length_one_not_in_any_stage(self):
        assert not is_admissible_prefix(PartialSequence(("F",)), SPACE)

    def test_start_need_not_be_in_range(self):
        space = EventSpace.of({"d1"}, "F")
        assert is_admissible_prefix(PartialSequence(("F", "d1")), space)

    def test_characterization_by_start_value(self):
        for size in (1, 2, 3):
            events = tuple(f"e{k}" for k in range(size))
            space = EventSpace.of(events, events[0])
            for n in range(1, 4):
                for values in product(events, repeat=n + 1):
                    seq = PartialSequence(values)
                    assert is_admissible_prefix(seq, space) == (
                        values[0] == space.start
                    )


class TestParadigmOracle:
    def test_constant_start_sequence(self):
        assert is_paradigm(lambda k: "F", SPACE, horizon=12)

    def test_wrong_first_value(self):
        assert not is_paradigm(lambda k: "d1", SPACE, horizon=3)

    def test_agrees_with_closed_form_on_random_sequences(self):
        rng = random.Random(7)
        pool = ["F", "d1", "d2", "junk"]
        for _ in range(200):
            values = [rng.choice(pool) for _ in range(11)]
            oracle = values[0] == "F" and all(
                v in SPACE.events for v in values[1:]
            )
            assert is_paradigm(lambda k: values[k], SPACE, horizon=10) == oracle

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            is_paradigm(lambda k: "F", SPACE, horizon=0)


def naive_admissible(values, space):
    """The inductive definition, unfolded one restriction at a time."""
    if len(values) < 2:
        return False
    if len(values) == 2:
        return values[0] == space.start and values[1] in space.events
    return naive_admissible(values[:-1], space) and values[-1] in space.events


class TestSingleScan:
    @given(values=s.event_sequences())
    def test_prefix_matches_unfolded_induction(self, values):
        seq = PartialSequence(tuple(values))
        assert is_admissible_prefix(seq, SPACE) == naive_admissible(values, SPACE)

    @given(values=s.event_sequences().filter(lambda v: len(v) >= 2))
    def test_paradigm_matches_per_prefix_reference(self, values):
        horizon = len(values) - 1
        expected = values[0] == SPACE.start and all(
            naive_admissible(values[: k + 1], SPACE) for k in range(1, horizon + 1)
        )
        assert is_paradigm(lambda k: values[k], SPACE, horizon) == expected

    def test_long_horizon_needs_no_recursion(self):
        assert sys.getrecursionlimit() < 5000
        assert is_paradigm(lambda k: "F", SPACE, horizon=5000)
        late_junk = lambda k: "junk" if k == 5000 else "F"
        assert not is_paradigm(late_junk, SPACE, horizon=5000)
        assert is_admissible_prefix(PartialSequence(("F",) * 5001), SPACE)


class TestTruncationBounds:
    def test_bounded_kind_fixes_m(self):
        kind = IntervalKind.bounded(Fraction(2), 2)
        TruncationBounds(kind, 2, 0)
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(kind, 1, 0)

    def test_nonnegative_kind(self):
        TruncationBounds(IntervalKind.nonnegative(), 0, 0)
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.nonnegative(), -1, 0)

    def test_nonpositive_kind(self):
        TruncationBounds(IntervalKind.nonpositive(), -2, 1)
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.nonpositive(), 1, 0)

    def test_full_line_needs_p(self):
        TruncationBounds(IntervalKind.full_line(), -1, 0, p=1)
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.full_line(), -1, 0)
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.full_line(), 1, 0, p=2)

    def test_p_forbidden_elsewhere(self):
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.nonnegative(), 0, 0, p=1)

    def test_negative_n_rejected(self):
        with pytest.raises(InadmissibleIndex):
            TruncationBounds(IntervalKind.nonnegative(), 0, -1)


def definition_i_range(kind, m, p):
    """The subinterval range each kind's bounds stand for, per the docstring."""
    return {1: (0, kind.m), 2: (0, m), 3: (m, 0), 4: (m, p)}[kind.q]


def bounds_valid(kind, m, n, p):
    """The per-kind rules of TruncationBounds, written out by kind."""
    if n < 0 or (p is not None) != (kind.q == 4):
        return False
    if kind.q == 1 and m != kind.m:
        return False
    i_lo, i_hi = definition_i_range(kind, m, p)
    return i_lo <= 0 <= i_hi


bound_values = dict(
    m=hs.integers(-4, 5), n=hs.integers(-1, 3), p=hs.none() | hs.integers(-2, 4)
)


@hs.composite
def valid_bounds(draw):
    """A scheme and the bound values of ``bound_values`` that its kind admits,
    drawn directly: filtering ``bound_values`` rejects most draws."""
    sch = draw(s.schemes())
    m = {1: hs.just(sch.kind.m), 2: hs.integers(0, 5)}.get(
        sch.kind.q, hs.integers(-4, 0)
    )
    p = hs.integers(0, 4) if sch.kind.q == 4 else hs.none()
    return sch, draw(m), draw(hs.integers(0, 3)), draw(p)


class TestBoundsModel:
    @given(sch=s.schemes(), **bound_values)
    def test_accepts_exactly_the_documented_rules(self, sch, m, n, p):
        if bounds_valid(sch.kind, m, n, p):
            bounds = TruncationBounds(sch.kind, m, n, p)
            assert bounds.i_range == definition_i_range(sch.kind, m, p)
        else:
            with pytest.raises(InadmissibleIndex):
                TruncationBounds(sch.kind, m, n, p)

    @given(valid_bounds())
    def test_window_indices_are_the_rectangle_over_i_range(self, drawn):
        sch, m, n, p = drawn
        assert bounds_valid(sch.kind, m, n, p)
        bounds = TruncationBounds(sch.kind, m, n, p)
        i_lo, i_hi = definition_i_range(sch.kind, m, p)
        closed = {1: sch.kind.m, 3: 0}.get(sch.kind.q)
        assert window_indices(bounds) == [
            IndexPair(i, j)
            for i in range(i_lo, i_hi + 1)
            for j in range(n + 1)
            if i != closed or j == 0
        ]


class TestWindowIndices:
    def test_bounded_shape(self):
        bounds = TruncationBounds(IntervalKind.bounded(Fraction(2), 2), 2, 1)
        assert window_indices(bounds) == [
            IndexPair(0, 0),
            IndexPair(0, 1),
            IndexPair(1, 0),
            IndexPair(1, 1),
            IndexPair(2, 0),
        ]

    def test_nonpositive_shape(self):
        bounds = TruncationBounds(IntervalKind.nonpositive(), -2, 1)
        assert window_indices(bounds) == [
            IndexPair(-2, 0),
            IndexPair(-2, 1),
            IndexPair(-1, 0),
            IndexPair(-1, 1),
            IndexPair(0, 0),
        ]

    def test_full_line_shares_zero(self):
        bounds = TruncationBounds(IntervalKind.full_line(), -1, 0, p=1)
        assert window_indices(bounds) == [
            IndexPair(-1, 0),
            IndexPair(0, 0),
            IndexPair(1, 0),
        ]

    def test_single_index(self):
        bounds = TruncationBounds(IntervalKind.nonnegative(), 0, 0)
        assert window_indices(bounds) == [IndexPair(0, 0)]


class TestSegmentWindow:
    def test_bounded_count(self):
        dp = dp_for(IntervalKind.bounded(Fraction(2), 2))
        bounds = TruncationBounds(dp.scheme.kind, 2, 1)
        assert len(segment_window(dp, bounds)) == 2 * (1 + 1) + 1

    def test_full_line_count(self):
        dp = dp_for(IntervalKind.full_line())
        bounds = TruncationBounds(dp.scheme.kind, -1, 0, p=1)
        assert len(segment_window(dp, bounds)) == (1 - (-1) + 1) * (0 + 1)

    def test_membership_shape(self):
        dp = dp_for(IntervalKind.nonnegative(), K=2)
        bounds = TruncationBounds(dp.scheme.kind, 2, 1)
        window = segment_window(dp, bounds)
        for i in range(4):
            for j in range(3):
                inside = i <= 2 and j <= 1
                assert (dp.segment(IndexPair(i, j)) in window) == inside

    def test_monotone_growth_full_line(self):
        dp = dp_for(IntervalKind.full_line())
        kind = dp.scheme.kind
        small = segment_window(dp, TruncationBounds(kind, -1, 1, p=1))
        large = segment_window(dp, TruncationBounds(kind, -2, 2, p=2))
        assert small <= large

    def test_monotone_growth_nonnegative(self):
        dp = dp_for(IntervalKind.nonnegative())
        kind = dp.scheme.kind
        for m, n, m2, n2 in [(0, 0, 2, 0), (1, 1, 1, 3), (0, 2, 3, 3)]:
            small = segment_window(dp, TruncationBounds(kind, m, n))
            large = segment_window(dp, TruncationBounds(kind, m2, n2))
            assert small <= large

    def test_monotone_growth_nonpositive(self):
        dp = dp_for(IntervalKind.nonpositive())
        kind = dp.scheme.kind
        small = segment_window(dp, TruncationBounds(kind, -1, 1))
        large = segment_window(dp, TruncationBounds(kind, -3, 2))
        assert small <= large

    def test_monotone_growth_bounded_in_n(self):
        dp = dp_for(IntervalKind.bounded(Fraction(2), 2))
        kind = dp.scheme.kind
        small = segment_window(dp, TruncationBounds(kind, 2, 0))
        large = segment_window(dp, TruncationBounds(kind, 2, 3))
        assert small <= large

    def test_kind_mismatch_rejected(self):
        dp = dp_for(IntervalKind.nonnegative())
        bounds = TruncationBounds(IntervalKind.full_line(), -1, 0, p=0)
        with pytest.raises(InadmissibleIndex):
            segment_window(dp, bounds)

    def test_rows_shape(self):
        dp = dp_for(IntervalKind.nonnegative(), K=2)
        rows = window_rows(dp, TruncationBounds(dp.scheme.kind, 0, 1))
        assert rows == [
            {"i": 0, "j": 0, "t": "0", "clause": "This description is named ⌈0⌉."},
            {
                "i": 0,
                "j": 1,
                "t": "1/4",
                "clause": "This description is named ⌈1/4⌉.",
            },
        ]


class TestUltraword:
    def test_two_segment_word(self):
        dp = dp_for(IntervalKind.bounded(Fraction(1), 1))
        word = ultraword(dp, TruncationBounds(dp.scheme.kind, 1, 0))
        assert [str(t) for t in word.time_ids] == ["0", "1"]

    def test_window_contained_in_word_closure(self):
        dp = dp_for(IntervalKind.bounded(Fraction(2), 2))
        bounds = TruncationBounds(dp.scheme.kind, 2, 1)
        word = ultraword(dp, bounds)
        window = segment_window(dp, bounds)
        assert len(word.conjuncts) == 5
        assert window <= decompose(word).members()
        assert all(word_closure_contains(word, member) for member in window)

    def test_singleton_window_has_no_word(self):
        dp = dp_for(IntervalKind.nonnegative())
        with pytest.raises(TooFewMembers):
            ultraword(dp, TruncationBounds(dp.scheme.kind, 0, 0))
