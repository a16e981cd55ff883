from fractions import Fraction

import pytest
from hypothesis import given

import strategies as s

from ultraword import (
    InadmissibleIndex,
    IndexPair,
    IntervalKind,
    PartitionScheme,
    verify_order_embedding,
)

FULL = IntervalKind.full_line()


def scheme(K=1, kind=FULL, rule=None):
    return PartitionScheme(K, kind, rule)


class TestLexOrder:
    def test_smaller_i_wins(self):
        assert IndexPair(-1, 5) < IndexPair(0, 0)

    def test_same_i_compares_j(self):
        assert IndexPair(2, 3) < IndexPair(2, 7)

    def test_equality(self):
        a, b = IndexPair(4, 1), IndexPair(4, 1)
        assert a == b and not a < b and not b < a

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            IndexPair(0, -1)

    def test_total_order_exhaustively(self):
        pairs = [IndexPair(i, j) for i in range(-8, 9) for j in range(9)]
        ranked = sorted(pairs, key=lambda p: p.key)
        rank = {p: k for k, p in enumerate(ranked)}
        for a in pairs:
            for b in pairs:
                assert (a < b, a == b, a > b) == (
                    rank[a] < rank[b], rank[a] == rank[b], rank[a] > rank[b]
                )

    def test_transitivity_directly(self):
        pairs = [IndexPair(i, j) for i in range(-2, 3) for j in range(3)]
        for a in pairs:
            for b in pairs:
                if not a < b:
                    continue
                for c in pairs:
                    if b < c:
                        assert a < c


class TestPartitionPoint:
    def test_subinterval_start(self):
        assert scheme(K=1).point(IndexPair(0, 0)) == 0

    def test_direct_evaluation(self):
        assert scheme(K=2).point(IndexPair(3, 2)) == Fraction(15, 8)

    def test_negative_subinterval(self):
        assert scheme(K=1).point(IndexPair(-1, 3)) == Fraction(-1, 8)

    def test_j_zero_is_subinterval_start(self):
        for K in (1, 2, 5):
            sch = scheme(K=K)
            for i in range(-4, 5):
                assert sch.point(IndexPair(i, 0)) == Fraction(i, K)

    def test_bounded_endpoint_is_b(self):
        sch = scheme(K=2, kind=IntervalKind.bounded(Fraction(3, 2), 3))
        assert sch.point(IndexPair(3, 0)) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "kind,idx",
        [
            (IntervalKind.bounded(Fraction(2), 2), IndexPair(2, 1)),
            (IntervalKind.bounded(Fraction(2), 2), IndexPair(3, 0)),
            (IntervalKind.bounded(Fraction(2), 2), IndexPair(-1, 0)),
            (IntervalKind.nonnegative(), IndexPair(-1, 0)),
            (IntervalKind.nonpositive(), IndexPair(0, 1)),
            (IntervalKind.nonpositive(), IndexPair(1, 0)),
        ],
    )
    def test_inadmissible_indices(self, kind, idx):
        with pytest.raises(InadmissibleIndex):
            PartitionScheme(1, kind).point(idx)

    def test_nonpositive_closed_endpoint(self):
        assert scheme(kind=IntervalKind.nonpositive()).point(IndexPair(0, 0)) == 0


class TestWindow:
    def test_single_subinterval(self):
        rows = scheme(K=1, kind=IntervalKind.nonnegative()).window(0, 0, 1)
        assert rows == [
            (IndexPair(0, 0), Fraction(0)),
            (IndexPair(0, 1), Fraction(1, 2)),
        ]

    def test_j_zero_row(self):
        rows = scheme(K=1, kind=IntervalKind.bounded(Fraction(1), 1)).window(0, 1, 0)
        assert rows == [(IndexPair(0, 0), Fraction(0)), (IndexPair(1, 0), Fraction(1))]

    def test_six_point_window_strictly_increasing(self):
        rows = scheme(K=3).window(-1, 0, 2)
        expected = [
            (IndexPair(-1, 0), Fraction(-1, 3)),
            (IndexPair(-1, 1), Fraction(-1, 6)),
            (IndexPair(-1, 2), Fraction(-1, 12)),
            (IndexPair(0, 0), Fraction(0)),
            (IndexPair(0, 1), Fraction(1, 6)),
            (IndexPair(0, 2), Fraction(1, 4)),
        ]
        assert rows == expected
        values = [t for _, t in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bounded_window_includes_single_endpoint_index(self):
        sch = scheme(K=1, kind=IntervalKind.bounded(Fraction(2), 2))
        rows = sch.window(0, 2, 3)
        assert len(rows) == 2 * 4 + 1
        assert rows[-1] == (IndexPair(2, 0), Fraction(2))

    def test_nonpositive_window_includes_single_zero_index(self):
        rows = scheme(kind=IntervalKind.nonpositive()).window(-2, 0, 1)
        assert [r[0] for r in rows] == [
            IndexPair(-2, 0),
            IndexPair(-2, 1),
            IndexPair(-1, 0),
            IndexPair(-1, 1),
            IndexPair(0, 0),
        ]

    def test_empty_range_rejected(self):
        with pytest.raises(InadmissibleIndex):
            scheme().window(1, 0, 0)

    def test_out_of_kind_range_rejected(self):
        with pytest.raises(InadmissibleIndex):
            scheme(kind=IntervalKind.nonnegative()).window(-1, 1, 0)


# Each kind's least and greatest subinterval and its closed endpoint, read off
# its interval shape: [0, b] closed at m, [0, +inf), (-inf, 0] closed at 0,
# and the full line.
SHAPES = {
    1: lambda m: (0, m, m),
    2: lambda m: (0, None, None),
    3: lambda m: (None, 0, 0),
    4: lambda m: (None, None, None),
}


def inside(kind, i):
    lo, hi, _ = SHAPES[kind.q](kind.m)
    return (lo is None or lo <= i) and (hi is None or i <= hi)


def definition_admits(kind, i, j):
    """Inside the kind's ends, with only j = 0 at its closed endpoint."""
    return inside(kind, i) and (i != SHAPES[kind.q](kind.m)[2] or j == 0)


def definition_window(kind, i_lo, i_hi, j_max):
    """The rectangle's indices inside the kind, or None when it leaves the kind."""
    if i_lo > i_hi or j_max < 0 or not (inside(kind, i_lo) and inside(kind, i_hi)):
        return None
    return [
        IndexPair(i, j)
        for i in range(i_lo, i_hi + 1)
        for j in range(j_max + 1)
        if definition_admits(kind, i, j)
    ]


class TestIndexModel:
    def test_ends_per_kind(self):
        for kind in (IntervalKind.bounded(3, 3), IntervalKind(2), IntervalKind(3), FULL):
            lo, hi, closed = SHAPES[kind.q](kind.m)
            assert (kind.lo, kind.hi, kind.closed) == (lo, hi, closed)

    @given(sch=s.schemes(), rect=s.rectangles())
    def test_indices_and_window_follow_definition(self, sch, rect):
        expected = definition_window(sch.kind, *rect)
        if expected is None:
            with pytest.raises(InadmissibleIndex):
                sch.kind.indices(*rect)
            with pytest.raises(InadmissibleIndex):
                sch.window(*rect)
            return
        assert sch.kind.indices(*rect) == expected
        assert sch.window(*rect) == [(idx, sch.point(idx)) for idx in expected]

    @given(sch=s.schemes(), rect=s.rectangles())
    def test_admissible_matches_definition(self, sch, rect):
        i_lo, i_hi, j_max = rect
        for i in range(i_lo, i_hi + 1):
            for j in range(max(j_max, 0) + 1):
                assert sch.admissible(IndexPair(i, j)) == definition_admits(sch.kind, i, j)


class TestOrderEmbedding:
    def test_default_rule_embeds(self):
        assert verify_order_embedding(scheme(K=1), -2, 2, 6)

    def test_constant_rule_fails(self):
        flat = scheme(rule=lambda i, j: Fraction(i, 1))
        assert not verify_order_embedding(flat, 0, 1, 2)

    def test_single_point_vacuous(self):
        assert verify_order_embedding(scheme(), 0, 0, 0)


def all_pairs_embedding(sch, i_lo, i_hi, j_max):
    """The definition: on every pair of rows, point order matches index order."""
    rows = sch.window(i_lo, i_hi, j_max)
    return all(
        (t_a <= t_b) == (idx_a <= idx_b) for idx_a, t_a in rows for idx_b, t_b in rows
    )


class TestOrderEmbeddingScan:
    @given(case=s.point_tables())
    def test_matches_all_pairs_definition(self, case):
        i_lo, i_hi, j_max, table = case
        sch = scheme(rule=lambda i, j: table[(i, j)])
        assert verify_order_embedding(sch, i_lo, i_hi, j_max) == all_pairs_embedding(
            sch, i_lo, i_hi, j_max
        )

    def test_tie_across_subintervals_fails(self):
        tie = scheme(rule=lambda i, j: Fraction(i) + (Fraction(1) if j else 0))
        assert not all_pairs_embedding(tie, 0, 1, 1)
        assert not verify_order_embedding(tie, 0, 1, 1)

    def test_descent_within_subinterval_fails(self):
        descent = scheme(rule=lambda i, j: Fraction(i) + (Fraction(1, 2) if j == 1 else 0))
        assert not all_pairs_embedding(descent, 0, 1, 2)
        assert not verify_order_embedding(descent, 0, 1, 2)

    def test_rising_custom_rule_embeds(self):
        rising = scheme(rule=lambda i, j: Fraction(10 * i + j))
        assert all_pairs_embedding(rising, -1, 1, 3)
        assert verify_order_embedding(rising, -1, 1, 3)


class TestResidualAndMonotonicity:
    def test_residual_identity(self):
        for K in (1, 2, 3):
            sch = scheme(K=K)
            for i in range(-4, 5):
                for j in range(8):
                    residual = Fraction(i + 1, K) - sch.point(IndexPair(i, j))
                    assert residual == Fraction(1, K * 2**j)

    def test_monotone_in_j(self):
        sch = scheme(K=2)
        for i in range(-3, 4):
            for j in range(6):
                assert sch.point(IndexPair(i, j)) < sch.point(IndexPair(i, j + 1))

    def test_subintervals_do_not_overlap(self):
        sch = scheme(K=2)
        for i in range(-3, 3):
            low = [sch.point(IndexPair(i, j)) for j in range(6)]
            high = [sch.point(IndexPair(i + 1, j)) for j in range(6)]
            assert max(low) < min(high)


class TestSchemeValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            PartitionScheme(0, FULL)

    def test_bounded_kind_requires_consistent_b(self):
        with pytest.raises(ValueError):
            PartitionScheme(2, IntervalKind.bounded(Fraction(2), 3))

    def test_bounded_kind_requires_fields(self):
        with pytest.raises(ValueError):
            IntervalKind(1)
        with pytest.raises(ValueError):
            IntervalKind(2, b=Fraction(1))

    def test_invalid_kind_number(self):
        with pytest.raises(ValueError):
            IntervalKind(5)

    def test_custom_rule_validated_on_window(self):
        good = scheme(
            K=2, rule=lambda i, j: Fraction(i, 2) + Fraction(j, 2 * (j + 1))
        )
        good.window(-1, 1, 3, validate=True)
        flat = scheme(rule=lambda i, j: Fraction(i))
        with pytest.raises(ValueError):
            flat.window(0, 1, 2, validate=True)

    def test_custom_rule_must_start_at_subinterval(self):
        shifted = scheme(rule=lambda i, j: Fraction(i) + Fraction(j + 1, j + 2))
        with pytest.raises(ValueError):
            shifted.window(0, 0, 2, validate=True)

    def test_custom_rule_must_stay_below_next_start(self):
        escaping = scheme(rule=lambda i, j: Fraction(i) + Fraction(j, 1))
        with pytest.raises(ValueError):
            escaping.window(0, 0, 3, validate=True)
