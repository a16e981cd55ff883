import random
from fractions import Fraction

import hypothesis.strategies as hs
import pytest
from hypothesis import given

import strategies as s
from ultraword import (
    EpsilonSeries,
    Inf,
    SPUniverse,
    Std,
    SubparticleRep,
    Unlimited,
    check_consequence_axioms,
    epsilon,
    realism_relation,
    st_extended,
    st_point,
    st_set,
    st_subparticle,
)
from ultraword.hyperreal import subparticle_from_json, subparticle_to_json, universe_from_json

ONE_PLUS_EPS = EpsilonSeries.from_rational(1) + epsilon()


def rep(*tail, head=(Std(5), Inf("lambda"))):
    return SubparticleRep(tuple(head) + tuple(tail))


def random_limited_rep(rng: random.Random, arity: int = 4) -> SubparticleRep:
    tail = []
    for _ in range(arity - 2):
        terms = {
            rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for _ in range(rng.randint(0, 2))
        }
        tail.append(EpsilonSeries.from_terms(terms))
    return rep(*tail)


class TestStPoint:
    def test_constant_coefficient(self):
        series = EpsilonSeries.from_terms(
            {0: Fraction(3, 2), 1: Fraction(5), 2: Fraction(-1)}
        )
        assert st_point(series) == Fraction(3, 2)

    def test_pure_infinitesimal(self):
        assert st_point(epsilon()) == 0

    def test_unlimited_rejected(self):
        with pytest.raises(Unlimited):
            st_point(epsilon(-1))

    @given(s.limited_series(), s.limited_series())
    def test_additive_and_multiplicative(self, x, y):
        assert st_point(x + y) == st_point(x) + st_point(y)
        assert st_point(x * y) == st_point(x) * st_point(y)


class TestStSubparticle:
    def test_zeroes_heads_and_takes_parts(self):
        image = st_subparticle(rep(ONE_PLUS_EPS + 1, EpsilonSeries.from_rational(7)))
        assert image == SubparticleRep(
            (Std(0), Std(0), EpsilonSeries.from_rational(2), EpsilonSeries.from_rational(7))
        )

    def test_standard_rep_keeps_tail(self):
        standard = rep(
            EpsilonSeries.from_rational(Fraction(1, 3)), EpsilonSeries.from_rational(4)
        )
        image = st_subparticle(standard)
        assert image.coords[:2] == (Std(0), Std(0))
        assert image.series == standard.series

    def test_unlimited_coordinate_rejected(self):
        with pytest.raises(Unlimited):
            st_subparticle(rep(epsilon(-1), EpsilonSeries.from_rational(0)))

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(30):
            member = random_limited_rep(rng)
            assert st_subparticle(st_subparticle(member)) == st_subparticle(member)

    def test_arity_below_three_rejected(self):
        with pytest.raises(ValueError):
            SubparticleRep((Std(0), Std(0)))


class TestSetOperators:
    def test_empty_image(self):
        assert st_set(frozenset()) == frozenset()
        assert st_extended(frozenset()) == frozenset()
        assert realism_relation(frozenset()) == frozenset()

    def test_coincident_images_collapse(self):
        two = {rep(ONE_PLUS_EPS, ONE_PLUS_EPS), rep(1 + 2 * epsilon(), ONE_PLUS_EPS)}
        assert len(st_set(two)) == 1

    def test_set_operator_idempotent(self):
        rng = random.Random(43)
        for _ in range(20):
            members = {random_limited_rep(rng) for _ in range(rng.randint(0, 4))}
            assert st_set(st_set(members)) == st_set(members)

    def test_extension_adds_image(self):
        member = rep(ONE_PLUS_EPS, EpsilonSeries.from_rational(7))
        extended = st_extended({member})
        assert extended == {member, st_subparticle(member)}

    def test_extended_idempotent_and_extensive(self):
        rng = random.Random(47)
        for _ in range(20):
            members = frozenset(
                random_limited_rep(rng) for _ in range(rng.randint(0, 4))
            )
            extended = st_extended(members)
            assert members <= extended
            assert st_extended(extended) == extended


class TestRealism:
    def test_equals_image_when_tails_are_properly_infinitesimal(self):
        members = {
            rep(ONE_PLUS_EPS, ONE_PLUS_EPS * ONE_PLUS_EPS),
            rep(EpsilonSeries.from_rational(Fraction(1, 2)) + epsilon(3), epsilon()),
        }
        assert realism_relation(members) == st_set(members)

    @given(s.infinitesimal_tails(), s.infinitesimal_tails())
    def test_image_equality_property(self, x, y):
        members = {rep(x, y)}
        assert realism_relation(members) == st_set(members)

    def test_empty_for_fixed_points(self):
        fixed = SubparticleRep(
            (Std(0), Std(0), EpsilonSeries.from_rational(1), EpsilonSeries.from_rational(2))
        )
        assert realism_relation({fixed}) == frozenset()

    def test_disjoint_from_input(self):
        rng = random.Random(53)
        for _ in range(20):
            members = frozenset(
                random_limited_rep(rng) for _ in range(rng.randint(0, 4))
            )
            assert not realism_relation(members) & members


class TestUniverse:
    def test_closed_universe_passes_axioms(self):
        rng = random.Random(59)
        for _ in range(10):
            seeds = {random_limited_rep(rng) for _ in range(rng.randint(1, 3))}
            universe = SPUniverse.closed(seeds)
            report = check_consequence_axioms(
                universe.extended_operator(), universe.members
            )
            assert report.exhaustive
            assert report.passed, report.violations

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SPUniverse(4, frozenset({SubparticleRep((Std(0), Std(0), epsilon()))}))

    def test_unlimited_member_rejected(self):
        with pytest.raises(Unlimited):
            SPUniverse(3, frozenset({SubparticleRep((Std(0), Std(0), epsilon(-2)))}))


HYPERNATURALS = hs.builds(Std, hs.integers(0, 50)) | hs.builds(
    Inf, hs.sampled_from(["lambda", "mu"]), hs.integers(-3, 3)
)


class TestJson:
    def test_round_trip(self):
        member = rep(ONE_PLUS_EPS, EpsilonSeries.from_rational(Fraction(3, 2)))
        assert subparticle_from_json(subparticle_to_json(member)) == member

    @given(HYPERNATURALS, HYPERNATURALS, hs.lists(s.eps_series(), min_size=1, max_size=3))
    def test_round_trip_random_members(self, a, b, tail):
        member = SubparticleRep((a, b, *tail))
        assert subparticle_from_json(subparticle_to_json(member)) == member

    def test_scalar_shorthand(self):
        parsed = subparticle_from_json([5, {"inf": "lambda"}, "3/2", 7])
        assert parsed == rep(
            EpsilonSeries.from_rational(Fraction(3, 2)), EpsilonSeries.from_rational(7)
        )

    def test_universe_parsing(self):
        universe = universe_from_json(
            {"arity": 3, "members": [[0, 0, [[0, "1"], [1, "-2"]]]]}
        )
        assert universe.arity == 3
        assert len(universe.members) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"members": []},
            {"arity": 3, "members": [7]},
            {"arity": 3, "members": [{"inf": "x"}]},
            {"arity": 3, "members": [[0, 0]]},
            {"arity": 3, "members": [[0, 0, {"inf": "x"}]]},
            {"arity": 3, "members": [[True, 0, "1"]]},
            {"arity": 3, "members": [[0, 0, "1.5"]]},
            {"arity": 3, "members": [[0, 0, "1e3"]]},
            {"arity": 3, "members": [[0, 0, "1_000"]]},
            {"arity": 3, "members": [[0, 0, True]]},
            {"arity": 3.9, "members": []},
            {"arity": True, "members": []},
            {"arity": "3", "members": []},
            {"arity": 3, "members": [[0, {"inf": "lambda", "offset": 1.9}, "1"]]},
            {"arity": 3, "members": [[0, {"inf": "lambda", "offset": True}, "1"]]},
            {"arity": 3, "members": [[0, {"inf": 5}, "1"]]},
            {"arity": 3, "members": [[0, 0, "1/0"]]},
        ],
    )
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ValueError):
            universe_from_json(bad)
