import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from ultraword import (
    EmptySource,
    LogicSystem,
    NotPerceived,
    PerceivedContext,
    SizeLimit,
    TagCollision,
    TheorySignature,
    UnknownSentence,
    behavior_signature,
    check_consequence_axioms,
    closure,
    converse_ri,
    perceived_closure,
    separate_vs_union,
    signature_operator_check,
    tag_j_prime,
    theory_signature,
)
from strategies import random_context
from ultraword import signatures
from ultraword.signatures import (
    SignatureMismatch,
    SignatureReport,
    observations_from_json,
)

WORKED = PerceivedContext(
    frozenset("abc"),
    frozenset("ac"),
    LogicSystem.build("abc", [({"a"}, "b"), ({"b"}, "c")]),
)

CHAIN_OBS = [(frozenset("a"), frozenset("b")), (frozenset("b"), frozenset("c"))]


def naive_signature_report(ctx, signature=None):
    """The signature check by definition: close the signature's rule system
    once for every subset of the perceived set."""
    if signature is None:
        signature = theory_signature(ctx)
    generated_system = signature.to_logic_system(ctx.language)
    members = sorted(ctx.perceived)
    mismatches = []
    checked = 0
    for size in range(len(members) + 1):
        for subset in combinations(members, size):
            checked += 1
            X = frozenset(subset)
            generated = closure(generated_system, X).closure & ctx.perceived
            expected = perceived_closure(ctx, X)
            if generated != expected:
                mismatches.append(SignatureMismatch(X, generated, expected))
    return SignatureReport(checked, tuple(mismatches))


def altered_signature(rng, ctx):
    """The theory signature with tuples dropped, and with tuples added that
    conclude a hidden sentence or have a hidden premise."""
    tuples = {t for t in theory_signature(ctx).tuples if rng.random() < 0.7}
    perceived = sorted(ctx.perceived)
    hidden = sorted(ctx.language - ctx.perceived)
    language = perceived + hidden
    for _ in range(rng.randint(0, 4)):
        if perceived and hidden:
            tuples.add(tuple(rng.sample(perceived, 1)) + (rng.choice(hidden),))
        if hidden:
            premises = rng.sample(language, rng.randint(1, min(3, len(language))))
            premises.append(rng.choice(hidden))
            tuples.add(tuple(sorted(set(premises))) + (rng.choice(language),))
    return TheorySignature(frozenset(tuples))


class TestPerceivedClosure:
    def test_deduced_perceived_entities(self):
        assert perceived_closure(WORKED, {"a"}) == {"a", "c"}

    def test_empty_premises(self):
        assert perceived_closure(WORKED, set()) == frozenset()

    def test_fixed_point_without_rules(self):
        assert perceived_closure(WORKED, {"c"}) == {"c"}

    def test_premises_must_be_perceived(self):
        with pytest.raises(NotPerceived):
            perceived_closure(WORKED, {"b"})

    def test_extensive_on_perceived_subsets(self):
        rng = random.Random(23)
        for _ in range(40):
            ctx = random_context(rng)
            members = sorted(ctx.perceived)
            X = frozenset(rng.sample(members, rng.randint(0, len(members))))
            assert X <= perceived_closure(ctx, X)

    def test_is_a_consequence_operator(self):
        rng = random.Random(29)
        for _ in range(15):
            ctx = random_context(rng)
            report = check_consequence_axioms(
                lambda X, c=ctx: perceived_closure(c, X), ctx.perceived
            )
            assert report.passed, report.violations


class TestBehaviorSignature:
    def test_single_new_deduction(self):
        sig = behavior_signature(WORKED, {"a"})
        assert sig.tuples == {("a", "c")}

    def test_nothing_new_from_full_set(self):
        assert behavior_signature(WORKED, {"a", "c"}).tuples == frozenset()

    def test_nothing_new_from_sink(self):
        assert behavior_signature(WORKED, {"c"}).tuples == frozenset()

    def test_empty_source_rejected(self):
        with pytest.raises(EmptySource):
            behavior_signature(WORKED, set())

    def test_source_canonically_ordered(self):
        ctx = PerceivedContext(
            frozenset("abc"),
            frozenset("abc"),
            LogicSystem.build("abc", [({"b", "a"}, "c")]),
        )
        sig = behavior_signature(ctx, {"b", "a"})
        assert sig.source == ("a", "b")
        assert sig.tuples == {("a", "b", "c")}


class TestTheorySignature:
    def test_worked_example(self):
        assert theory_signature(WORKED).tuples == {("a", "c")}

    def test_empty_perceived_set(self):
        ctx = PerceivedContext(frozenset("ab"), frozenset(), LogicSystem.build("ab", []))
        assert theory_signature(ctx).tuples == frozenset()

    def test_no_rules_no_tuples(self):
        ctx = PerceivedContext(frozenset("a"), frozenset("a"), LogicSystem.build("a", []))
        assert theory_signature(ctx).tuples == frozenset()

    def test_json_rule_shape(self):
        assert theory_signature(WORKED).to_json() == [
            {"premises": ["a"], "conclusion": "c"}
        ]


class TestSignatureOperatorCheck:
    def test_worked_context_passes_all_subsets(self):
        report = signature_operator_check(WORKED)
        assert report.passed
        assert report.checked == 2 ** len(WORKED.perceived)

    def test_random_contexts_pass(self):
        rng = random.Random(31)
        for _ in range(40):
            report = signature_operator_check(random_context(rng))
            assert report.passed, report.mismatches

    @given(hs.integers(0, 2**32 - 1))
    def test_report_matches_definition(self, seed):
        rng = random.Random(seed)
        ctx = random_context(rng, max_sentences=7)
        assert signature_operator_check(ctx) == naive_signature_report(ctx)
        altered = altered_signature(rng, ctx)
        assert signature_operator_check(ctx, altered) == naive_signature_report(
            ctx, altered
        )

    def test_hidden_premise_rules_chain(self):
        # p -> h1 and {h1, q} -> h2 and h2 -> r: r follows from {p, q} only by
        # firing the two rules with hidden premises in turn.
        ctx = PerceivedContext(
            frozenset({"p", "q", "r", "h1", "h2"}),
            frozenset({"p", "q", "r"}),
            LogicSystem.build(
                ["p", "q", "r", "h1", "h2"],
                [({"p"}, "h1"), ({"h1", "q"}, "h2"), ({"h2"}, "r")],
            ),
        )
        chain = TheorySignature(
            frozenset({("p", "h1"), ("h1", "q", "h2"), ("h2", "r")})
        )
        report = signature_operator_check(ctx, chain)
        assert report.passed
        assert report == naive_signature_report(ctx, chain)
        broken = TheorySignature(frozenset({("p", "h1"), ("h2", "r")}))
        report = signature_operator_check(ctx, broken)
        assert [m.premises for m in report.mismatches] == [frozenset("pq")]
        assert report == naive_signature_report(ctx, broken)

    def test_size_limit_before_any_closure(self, monkeypatch):
        def no_closure(*_):
            raise AssertionError("closed a subset past the size limit")

        monkeypatch.setattr(signatures, "closure", no_closure)
        language = [f"p{k:02d}" for k in range(21)]
        wide = PerceivedContext(
            frozenset(language), frozenset(language), LogicSystem.build(language, [])
        )
        with pytest.raises(SizeLimit):
            theory_signature(wide)
        with pytest.raises(SizeLimit):
            signature_operator_check(wide)
        narrow = PerceivedContext(
            frozenset(language[:13]),
            frozenset(language[:13]),
            LogicSystem.build(language[:13], []),
        )
        with pytest.raises(SizeLimit):
            signature_operator_check(narrow, TheorySignature(frozenset()))

    def test_broken_signature_reports_witness(self):
        broken = TheorySignature(frozenset({("a", "a†missing")}))
        ctx = PerceivedContext(
            frozenset({"a", "c", "a†missing"}),
            frozenset("ac"),
            LogicSystem.build(["a", "c", "a†missing"], [({"a"}, "c")]),
        )
        report = signature_operator_check(ctx, broken)
        assert not report.passed
        assert any(m.premises == {"a"} for m in report.mismatches)


class TestConverse:
    def test_direct_transcription(self):
        system = converse_ri(CHAIN_OBS, "abc")
        assert {(tuple(sorted(r.premises)), r.conclusion) for r in system.rules} == {
            (("a",), "b"),
            (("b",), "c"),
        }

    def test_multi_premise_observation(self):
        system = converse_ri([(frozenset("ab"), frozenset("c"))], "abc")
        assert [(sorted(r.premises), r.conclusion) for r in system.rules] == [
            (["a", "b"], "c")
        ]

    def test_no_observations(self):
        assert converse_ri([], "a").rules == ()

    def test_unknown_sentence(self):
        with pytest.raises(UnknownSentence):
            converse_ri(CHAIN_OBS, "ab")

    def test_empty_observation_source(self):
        with pytest.raises(EmptySource):
            converse_ri([(frozenset(), frozenset("a"))], "a")


class TestSeparateVsUnion:
    def test_chaining_only_in_union(self):
        verdict = separate_vs_union(CHAIN_OBS, {"a"}, "abc")
        assert verdict.separate == {"a", "b"}
        assert verdict.union == {"a", "b", "c"}
        assert not verdict.equal

    def test_single_observation_always_equal(self):
        verdict = separate_vs_union(CHAIN_OBS[:1], {"a"}, "ab")
        assert verdict.equal

    def test_disjoint_supports_equal(self):
        obs = [(frozenset("a"), frozenset("b")), (frozenset("c"), frozenset("d"))]
        verdict = separate_vs_union(obs, {"a"}, "abcd")
        assert verdict.separate == verdict.union == {"a", "b"}

    def test_separate_always_inside_union(self):
        rng = random.Random(37)
        language = [f"s{k}" for k in range(5)]
        for _ in range(40):
            obs = []
            for _ in range(rng.randint(1, 4)):
                source = frozenset(rng.sample(language, rng.randint(1, 3)))
                produced = frozenset(rng.sample(language, rng.randint(0, 3)))
                obs.append((source, produced))
            premises = frozenset(rng.sample(language, rng.randint(0, 3)))
            verdict = separate_vs_union(obs, premises, language)
            assert verdict.separate <= verdict.union


class TestTagging:
    def test_suffixes_each_member(self):
        assert tag_j_prime(WORKED, {"a"}) == {("a", "a†")}

    def test_empty_set(self):
        assert tag_j_prime(WORKED, set()) == frozenset()

    def test_collision_detected_on_stray_input(self):
        with pytest.raises(TagCollision):
            tag_j_prime(WORKED, {"x†"})

    def test_tag_may_not_occur_in_perceived_members(self):
        with pytest.raises(ValueError):
            PerceivedContext(
                frozenset({"a†"}),
                frozenset({"a†"}),
                LogicSystem.build(["a†"], []),
            )


class TestObservationJson:
    def test_bare_list_infers_language(self):
        obs, language = observations_from_json(
            [{"X": ["a"], "Xprime": ["b"]}, {"X": ["b"], "Xprime": []}]
        )
        assert obs == [(frozenset("a"), frozenset("b")), (frozenset("b"), frozenset())]
        assert language == {"a", "b"}

    def test_wrapped_object_with_language(self):
        obs, language = observations_from_json(
            {"language": ["a", "b", "z"], "observations": [{"X": ["a"], "Xprime": ["b"]}]}
        )
        assert language == {"a", "b", "z"}
        assert obs == [(frozenset("a"), frozenset("b"))]

    @pytest.mark.parametrize("bad", [{"observations": 3}, [{"X": ["a"]}], "nope"])
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ValueError):
            observations_from_json(bad)
