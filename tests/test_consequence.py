import random
from itertools import combinations, product

import hypothesis.strategies as hs
import pytest
from hypothesis import given

import strategies as s
from strategies import random_system
from ultraword import (
    AxiomCollision,
    AxiomReport,
    ConjunctionWord,
    LogicSystem,
    Rule,
    SizeLimit,
    UnknownSentence,
    build_conjunction_word,
    check_consequence_axioms,
    closure,
    decompose,
    word_closure_contains,
)
from ultraword import consequence
from ultraword.consequence import AxiomViolation, _conjunction_count

CHAIN = LogicSystem.build("abc", [({"a"}, "b"), ({"a", "b"}, "c")])


def brute_force_conjunctions(atoms, mode):
    """Enumerate arrangement tuples over the atoms by brute force: every tuple
    of length >= 2 with no repeats, restricted to ascending ones in canonical
    mode."""
    words = set()
    atoms = list(atoms)
    for length in range(2, len(atoms) + 1):
        for arrangement in product(atoms, repeat=length):
            if len(set(arrangement)) != length:
                continue
            keys = [a.sort_key for a in arrangement]
            if mode == "canonical" and keys != sorted(keys):
                continue
            words.add(ConjunctionWord(arrangement))
    return frozenset(words)


def arrangements_by_extension(atoms, mode):
    """Grow repeat-free sequences one atom at a time and keep those of length
    >= 2, only the ascending ones in canonical mode."""
    words = set()
    frontier = [()]
    while frontier:
        grown = [seq + (a,) for seq in frontier for a in atoms if a not in seq]
        if mode == "canonical":
            grown = [seq for seq in grown if len(seq) < 2 or seq[-2].sort_key < seq[-1].sort_key]
        words.update(ConjunctionWord(seq) for seq in grown if len(seq) >= 2)
        frontier = grown
    return frozenset(words)


def naive_axiom_report(op, universe):
    """The exhaustive axiom check by definition: the finitary test unites op
    over every sub-subset of each subset, 3^n work in all."""
    universe_set = frozenset(universe)
    elements = sorted(universe_set, key=lambda v: (type(v).__name__, repr(v)))
    cache = {}

    def apply(subset):
        if subset not in cache:
            cache[subset] = frozenset(op(subset))
        return cache[subset]

    def subsets(members):
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                yield frozenset(subset)

    violations = []
    checked = 0
    for subset in subsets(elements):
        checked += 1
        result = apply(subset)
        if not subset <= result:
            violations.append(AxiomViolation(
                "extensive", subset,
                f"{len(subset - result)} member(s) dropped by the operator",
            ))
        if not result <= universe_set:
            violations.append(AxiomViolation(
                "bounded", subset,
                f"{len(result - universe_set)} member(s) outside the universe",
            ))
            continue
        if apply(result) != result:
            violations.append(
                AxiomViolation("idempotent", subset, "op(op(X)) differs from op(X)")
            )
        union = set()
        for part in subsets([x for x in elements if x in subset]):
            union |= apply(part)
        if union != result:
            violations.append(AxiomViolation(
                "finitary", subset,
                "union of op over the subsets of X differs from op(X)",
            ))
    return AxiomReport(len(elements), True, checked, tuple(violations))


def random_operator(rng: random.Random, universe: list):
    """A table-driven operator over the universe's subsets: a random rule
    system's closure with some entries dropped, grown, or pushed outside
    the universe, so that every axiom can fail."""
    system = random_system(rng, max_sentences=max(1, len(universe)))
    rename = dict(zip(sorted(system.language), universe))
    table = {}
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            X = frozenset(subset)
            inner = {k for k, v in rename.items() if v in X}
            image = set(X) | {rename[y] for y in closure(system, inner).closure}
            roll = rng.random()
            if roll < 0.15 and image:
                image.discard(rng.choice(sorted(image, key=repr)))
            elif roll < 0.3 and universe:
                image.add(rng.choice(universe))
            elif roll < 0.35:
                image.add("outside")
            table[X] = frozenset(image)
    calls = []

    def op(X):
        calls.append(X)
        return table[X]

    return op, calls


class TestClosure:
    def test_two_firings(self):
        result = closure(CHAIN, {"a"})
        assert result.closure == {"a", "b", "c"}
        assert [r.conclusion for r in result.derivation_order] == ["b", "c"]

    def test_nothing_fires_from_empty(self):
        assert closure(CHAIN, set()).closure == frozenset()

    def test_unmatched_premise(self):
        system = LogicSystem.build("ab", [({"a"}, "b")])
        assert closure(system, {"b"}).closure == {"b"}

    def test_unknown_sentence(self):
        with pytest.raises(UnknownSentence):
            closure(CHAIN, {"z"})

    def test_replay_regenerates_closure(self):
        result = closure(CHAIN, {"a"})
        replayed = {"a"}
        for rule in result.derivation_order:
            assert rule.premises <= replayed
            replayed.add(rule.conclusion)
        assert replayed == set(result.closure)

    def test_rule_order_does_not_change_closure(self):
        rng = random.Random(11)
        for _ in range(30):
            system = random_system(rng)
            premises = frozenset(
                rng.sample(sorted(system.language), rng.randint(0, len(system.language)))
            )
            expected = closure(system, premises).closure
            shuffled = list(system.rules)
            rng.shuffle(shuffled)
            permuted = LogicSystem(system.language, tuple(shuffled))
            assert closure(permuted, premises).closure == expected

    def test_monotone(self):
        rng = random.Random(13)
        for _ in range(30):
            system = random_system(rng)
            members = sorted(system.language)
            small = frozenset(rng.sample(members, rng.randint(0, len(members))))
            extra = frozenset(rng.sample(members, rng.randint(0, len(members))))
            big = small | extra
            assert closure(system, small).closure <= closure(system, big).closure

    def test_empty_premises_rejected_in_rule(self):
        with pytest.raises(ValueError):
            Rule(frozenset(), "a")

    def test_rules_must_stay_in_language(self):
        with pytest.raises(UnknownSentence):
            LogicSystem.build("ab", [({"a"}, "z")])

    def test_json_round_trip(self):
        assert LogicSystem.from_json(CHAIN.to_json()) == CHAIN

    @given(hs.randoms(use_true_random=False))
    def test_json_round_trip_random_systems(self, rng):
        system = random_system(rng)
        assert LogicSystem.from_json(system.to_json()) == system


class TestDecompose:
    def test_three_atom_canonical_counts(self):
        word = build_conjunction_word([s.seg(0), s.seg(1), s.seg(2)])
        parts = decompose(word)
        cards = parts.cardinalities()
        assert cards == {"axioms": 0, "conjunctions": 4, "atoms": 3, "total": 7}

    def test_three_atom_permutational_counts(self):
        word = build_conjunction_word([s.seg(0), s.seg(1), s.seg(2)])
        cards = decompose(word, mode="permutational").cardinalities()
        assert cards == {"axioms": 0, "conjunctions": 12, "atoms": 3, "total": 15}

    def test_two_atoms_with_axiom(self):
        p, q = s.seg(0, "p"), s.seg(1, "q")
        word = build_conjunction_word([p, q])
        parts = decompose(word, axioms={"alpha"})
        assert parts.members() == {"alpha", word, p, q}
        assert parts.axioms.isdisjoint(parts.conjunctions)
        assert parts.axioms.isdisjoint(parts.atoms)
        assert parts.conjunctions.isdisjoint(parts.atoms)

    def test_word_is_one_of_its_conjunctions(self):
        atoms = [s.seg(k) for k in range(4)]
        canonical_word = build_conjunction_word(atoms)
        assert canonical_word in decompose(canonical_word).conjunctions
        scrambled = build_conjunction_word(
            [atoms[2], atoms[0], atoms[3], atoms[1]], preserve_order=True
        )
        permutational = decompose(scrambled, mode="permutational")
        assert scrambled in permutational.conjunctions
        canonical = decompose(scrambled, mode="canonical")
        assert scrambled.canonical() in canonical.conjunctions

    def test_axiom_collision(self):
        atom = s.seg(0)
        word = build_conjunction_word([atom, s.seg(1)])
        with pytest.raises(AxiomCollision):
            decompose(word, axioms={atom})
        with pytest.raises(AxiomCollision):
            decompose(word, axioms={word})

    @pytest.mark.parametrize("mode", ["canonical", "permutational"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_enumeration(self, mode, n):
        atoms = [s.seg(k) for k in range(n)]
        word = build_conjunction_word(atoms)
        parts = decompose(word, mode=mode)
        assert parts.conjunctions == brute_force_conjunctions(atoms, mode)
        assert parts.atoms == frozenset(atoms)

    @pytest.mark.parametrize("mode", ["canonical", "permutational"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_closed_form_count(self, mode, n):
        word = build_conjunction_word([s.seg(k) for k in range(n)])
        words = decompose(word, mode=mode).conjunctions
        assert _conjunction_count(n, mode) == len(words)

    @pytest.mark.parametrize("mode, n", [("permutational", 10), ("canonical", 20)])
    def test_size_limit_before_enumeration(self, monkeypatch, mode, n):
        def enumerate_words(*_):
            raise AssertionError("decompose enumerated past its size limit")

        monkeypatch.setattr(consequence, "_arrangements", enumerate_words)
        word = build_conjunction_word([s.seg(k) for k in range(n)])
        with pytest.raises(SizeLimit):
            decompose(word, mode=mode)
        with pytest.raises(ValueError):
            decompose(word, mode=mode)

    def test_largest_sizes_within_limit(self):
        assert _conjunction_count(9, "permutational") <= consequence._WORD_LIMIT
        assert _conjunction_count(19, "canonical") <= consequence._WORD_LIMIT

    def test_bad_mode(self):
        word = build_conjunction_word([s.seg(0), s.seg(1)])
        with pytest.raises(ValueError):
            decompose(word, mode="other")

    @pytest.mark.parametrize("mode", ["canonical", "permutational"])
    def test_membership_agrees_with_materialization(self, mode):
        atoms = [s.seg(k) for k in range(4)]
        word = build_conjunction_word(atoms)
        parts = decompose(word, axioms={"alpha"}, mode=mode)
        for member in parts.members():
            assert word_closure_contains(word, member, axioms={"alpha"}, mode=mode)
        outside_atom = s.seg(99)
        assert not word_closure_contains(word, outside_atom, mode=mode)
        stray_word = build_conjunction_word([atoms[0], outside_atom])
        assert not word_closure_contains(word, stray_word, mode=mode)
        assert not word_closure_contains(word, "beta", axioms={"alpha"}, mode=mode)

    @pytest.mark.parametrize("mode", ["canonical", "permutational"])
    @given(atoms=s.atom_lists(2, 6))
    def test_matches_arrangements_built_by_extension(self, mode, atoms):
        word = build_conjunction_word(atoms)
        parts = decompose(word, mode=mode)
        assert parts.conjunctions == arrangements_by_extension(atoms, mode)
        assert parts.atoms == frozenset(atoms)

    def test_membership_respects_arrangement_rules(self):
        atoms = [s.seg(k) for k in range(3)]
        word = build_conjunction_word(atoms)
        backwards = build_conjunction_word(
            [atoms[1], atoms[0]], preserve_order=True
        )
        assert not word_closure_contains(word, backwards, mode="canonical")
        assert word_closure_contains(word, backwards, mode="permutational")


class TestAxiomHarness:
    def test_closure_operator_passes(self):
        rng = random.Random(3)
        for _ in range(10):
            system = random_system(rng)
            report = check_consequence_axioms(
                lambda X, sys=system: closure(sys, X).closure, system.language
            )
            assert report.exhaustive
            assert report.passed, report.violations

    def test_complement_operator_fails_extensive(self):
        universe = frozenset("abc")
        report = check_consequence_axioms(lambda X: universe - X, universe)
        assert not report.passed
        witnesses = [
            v for v in report.violations if v.axiom == "extensive" and len(v.witness) == 1
        ]
        assert witnesses

    def test_identity_operator_passes(self):
        report = check_consequence_axioms(lambda X: X, frozenset("abcd"))
        assert report.passed
        assert report.checked == 2**4

    def test_escaping_operator_fails_bounded(self):
        report = check_consequence_axioms(
            lambda X: X | {"outside"}, frozenset("ab")
        )
        assert any(v.axiom == "bounded" for v in report.violations)

    def test_non_idempotent_operator_detected(self):
        universe = frozenset(range(6))

        def bump(X):
            if not X:
                return frozenset()
            return frozenset(X | {min(max(X) + 1, 5)})

        report = check_consequence_axioms(bump, universe)
        assert any(v.axiom == "idempotent" for v in report.violations)

    def test_non_finitary_union_detected(self):
        universe = frozenset("abc")

        def lonely(X):
            return frozenset(X | {"c"}) if len(X) == 1 else frozenset(X)

        report = check_consequence_axioms(lonely, universe)
        assert any(v.axiom == "finitary" for v in report.violations)

    def test_sampled_regime_is_deterministic(self):
        universe = frozenset(f"x{k}" for k in range(14))
        first = check_consequence_axioms(lambda X: X, universe, samples=40, seed=5)
        second = check_consequence_axioms(lambda X: X, universe, samples=40, seed=5)
        assert not first.exhaustive
        assert first == second
        assert first.passed

    @given(hs.integers(0, 2**32 - 1), hs.integers(0, 7))
    def test_exhaustive_report_matches_definition(self, seed, size):
        rng = random.Random(seed)
        universe = rng.sample(["a", "b", "c", "d", 1, 2, 3, (0, 1)], size)
        op, calls = random_operator(rng, universe)
        report = check_consequence_axioms(op, universe)
        dp_calls = calls[:]
        calls.clear()
        assert report == naive_axiom_report(op, universe)
        assert dp_calls == calls

    def test_reference_sees_every_failure_kind(self):
        kinds = set()
        for seed in range(40):
            rng = random.Random(seed)
            universe = rng.sample(["a", "b", "c", "d", 1, 2, 3, (0, 1)], 6)
            op, _ = random_operator(rng, universe)
            report = check_consequence_axioms(op, universe)
            assert report == naive_axiom_report(op, universe)
            kinds |= {v.axiom for v in report.violations}
        assert kinds == {"extensive", "bounded", "idempotent", "finitary"}

    @given(hs.integers(0, 2**6 - 1))
    def test_chain_closure_idempotent_extensive(self, mask):
        members = sorted(CHAIN.language) + ["d", "e", "f"]
        system = LogicSystem.build(
            members, [({"a"}, "b"), ({"a", "b"}, "c"), ({"c", "d"}, "e")]
        )
        X = frozenset(m for k, m in enumerate(members) if mask >> k & 1)
        closed = closure(system, X).closure
        assert X <= closed
        assert closure(system, closed).closure == closed
