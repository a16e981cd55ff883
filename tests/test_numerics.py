from fractions import Fraction

import hypothesis.strategies as hs
import pytest
from hypothesis import given

import strategies as s
from ultraword import (
    EpsilonSeries,
    Inf,
    LabelContext,
    Std,
    UnknownLabel,
    epsilon,
    format_rational,
    parse_rational,
)
from ultraword.hyperreal import subparticle_from_json
from ultraword.numerics import compare


class TestRational:
    def test_exact_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_parse_normalizes(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert format_rational(parse_rational("2/4")) == "1/2"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)
        for text in ("1/0", "-2/00", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_rational(text)

    def test_serialization_forms(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-1, 8)) == "-1/8"
        assert parse_rational("-1/8") == Fraction(-1, 8)

    @pytest.mark.parametrize("bad", ["1.5", "", "x", "1/2/3", "1e3"])
    def test_parse_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(s.rationals, s.rationals, s.rationals)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


class TestEpsilonSeries:
    def test_addition_cancels(self):
        one_plus = EpsilonSeries.from_rational(1) + epsilon()
        two_minus = EpsilonSeries.from_rational(2) - epsilon()
        assert one_plus + two_minus == EpsilonSeries.from_rational(3)

    def test_multiplication_adds_exponents(self):
        assert epsilon() * epsilon() == epsilon(2)

    def test_infinitesimal_below_every_positive_standard(self):
        assert epsilon() < Fraction(1, 1000)
        assert Fraction(0) < epsilon()

    def test_unlimited_values_are_representable(self):
        reciprocal = epsilon(-1)
        assert not reciprocal.is_limited
        assert reciprocal.min_exponent == -1
        assert Fraction(10**9) < reciprocal

    def test_zero_has_no_terms(self):
        assert (epsilon() - epsilon()).terms == ()
        assert EpsilonSeries.from_terms({2: Fraction(0)}).is_zero

    def test_pairs_round_trip(self):
        series = EpsilonSeries.from_terms({-1: Fraction(2), 0: Fraction(3, 2)})
        assert series.to_pairs() == [[-1, "2"], [0, "3/2"]]
        member = subparticle_from_json([0, 0, series.to_pairs()])
        assert member.series == (series,)

    @given(s.eps_series(), s.eps_series())
    def test_trichotomy(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1

    @given(s.eps_series(), s.eps_series(), s.eps_series())
    def test_transitivity(self, x, y, z):
        if x < y and y < z:
            assert x < z
        if x <= y and y <= z:
            assert x <= z

    @given(s.limited_series(), s.limited_series())
    def test_limited_closed_under_add_and_mul(self, x, y):
        assert (x + y).is_limited
        assert (x * y).is_limited

    @given(s.eps_series(), s.eps_series())
    def test_compare_matches_operators(self, x, y):
        sign = compare(x, y)
        assert (sign < 0) == (x < y)
        assert (sign == 0) == (x == y)


class TestHyperNatural:
    def setup_method(self):
        self.ctx = LabelContext(("lambda", "nu"))

    def test_standard_below_infinite(self):
        assert self.ctx.compare(Std(5), Inf("lambda")) == -1

    def test_offsets_order_same_label(self):
        assert self.ctx.compare(Inf("lambda", 0), Inf("lambda", 1)) == -1
        assert self.ctx.compare(Inf("lambda", 1), Inf("lambda", 0)) == 1

    def test_equal_standards(self):
        assert self.ctx.compare(Std(3), Std(3)) == 0

    def test_labels_order_by_declaration(self):
        assert self.ctx.compare(Inf("lambda", 99), Inf("nu", -99)) == -1

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            self.ctx.compare(Std(0), Inf("gamma"))

    def test_negative_standard_rejected(self):
        with pytest.raises(ValueError):
            Std(-1)

    @given(
        hs.lists(
            hs.sampled_from(
                [Std(0), Std(3), Inf("lambda", -1), Inf("lambda", 2), Inf("nu", 0)]
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_total_order(self, values):
        a, b, c = values
        cmp = self.ctx.compare
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) <= 0 and cmp(b, c) <= 0:
            assert cmp(a, c) <= 0
