"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either computed here by an independent enumeration or
frozen from a hand-checked example; tolerances are exact (rational or set
equality) throughout.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from strategies import random_context, random_system, seg
from ultraword import (
    DevelopmentalParadigm,
    EpsilonSeries,
    EventSpace,
    Inf,
    IndexPair,
    IntervalKind,
    PartialSequence,
    PartitionScheme,
    SPUniverse,
    Std,
    SubparticleRep,
    TooFewMembers,
    TruncationBounds,
    Unlimited,
    build_conjunction_word,
    check_consequence_axioms,
    closure,
    decompose,
    epsilon,
    is_admissible_prefix,
    realism_relation,
    segment_window,
    separate_vs_union,
    signature_operator_check,
    st_extended,
    st_point,
    st_set,
    st_subparticle,
    ultraword,
    word_closure_contains,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def ok(number: int, name: str) -> None:
    print(f"criterion {number:02d} ({name}): PASS")


def test_criterion_01_order_embedding():
    for K in (1, 2, 3):
        scheme = PartitionScheme(K, IntervalKind.full_line())
        rows = scheme.window(-8, 8, 12)
        assert len(rows) == 17 * 13
        for idx_a, t_a in rows:
            for idx_b, t_b in rows:
                assert (t_a <= t_b) == (idx_a <= idx_b)
    ok(1, "order embedding")


def test_criterion_02_residual_identity():
    for K in (1, 2, 3):
        scheme = PartitionScheme(K, IntervalKind.full_line())
        for i in range(-8, 9):
            for j in range(13):
                residual = Fraction(i + 1, K) - scheme.point(IndexPair(i, j))
                assert residual == Fraction(1, K * 2**j)
    ok(2, "residual identity")


def test_criterion_03_paradigm_characterization():
    for size in (1, 2, 3):
        events = tuple(f"e{k}" for k in range(size))
        space = EventSpace.of(events, events[0])
        for n in range(1, 5):
            checked = 0
            for values in product(events, repeat=n + 1):
                checked += 1
                member = is_admissible_prefix(PartialSequence(values), space)
                assert member == (values[0] == space.start)
            assert checked == size ** (n + 1)
    ok(3, "inductive family equals start-anchored sequences")


def _expected_indices(q: int, m: int, p: int, n: int) -> set[tuple[int, int]]:
    js = range(n + 1)
    if q == 1:
        return {(i, j) for i in range(m) for j in js} | {(m, 0)}
    if q == 2:
        return {(i, j) for i in range(m + 1) for j in js}
    if q == 3:
        return {(i, j) for i in range(m, 0) for j in js} | {(0, 0)}
    return {(i, j) for i in range(m, 1) for j in js} | {
        (k, j) for k in range(p + 1) for j in js
    }


def _expected_count(q: int, m: int, p: int, n: int) -> int:
    if q == 1:
        return m * (n + 1) + 1
    if q == 2:
        return (m + 1) * (n + 1)
    if q == 3:
        return -m * (n + 1) + 1
    return (p - m + 1) * (n + 1)


def _cases():
    for K in (1, 2):
        for n in range(4):
            for m in (1, 2, 3):
                yield K, 1, m, 0, n
            for m in range(4):
                yield K, 2, m, 0, n
            for m in range(-3, 1):
                yield K, 3, m, 0, n
            for m in range(-3, 1):
                for p in range(4):
                    yield K, 4, m, p, n


def test_criterion_04_truncation_windows_and_their_words():
    for K, q, m, p, n in _cases():
        if q == 1:
            kind = IntervalKind.bounded(Fraction(m, K), m)
        else:
            kind = IntervalKind(q)
        dp = DevelopmentalParadigm(PartitionScheme(K, kind))
        bounds = TruncationBounds(kind, m, n, p if q == 4 else None)
        window = segment_window(dp, bounds)
        expected = {
            dp.segment(IndexPair(i, j)) for i, j in _expected_indices(q, m, p, n)
        }
        assert window == expected
        assert len(window) == _expected_count(q, m, p, n)
        if len(window) >= 2:
            word = ultraword(dp, bounds)
            assert all(word_closure_contains(word, member) for member in window)
            if len(window) <= 10:
                assert window <= decompose(word).members()
        else:
            with pytest.raises(TooFewMembers):
                ultraword(dp, bounds)
    ok(4, "truncation windows and their conjunction words")


def test_criterion_05_decomposition():
    for count in (2, 3, 4, 5):
        atoms = [seg(Fraction(k, 7)) for k in range(count)]
        word = build_conjunction_word(atoms)
        for mode in ("canonical", "permutational"):
            parts = decompose(word, axioms={"axiom-0"}, mode=mode)
            assert parts.axioms.isdisjoint(parts.conjunctions)
            assert parts.axioms.isdisjoint(parts.atoms)
            assert parts.conjunctions.isdisjoint(parts.atoms)
            assert word in parts.conjunctions
            brute = 0
            for length in range(2, count + 1):
                for arrangement in product(atoms, repeat=length):
                    if len(set(arrangement)) != length:
                        continue
                    if mode == "canonical" and list(arrangement) != sorted(
                        arrangement, key=lambda a: a.sort_key
                    ):
                        continue
                    brute += 1
            assert len(parts.conjunctions) == brute
            if mode == "canonical":
                assert brute == 2**count - count - 1
            else:
                assert brute == sum(
                    math.comb(count, k) * math.factorial(k)
                    for k in range(2, count + 1)
                )
    ok(5, "decomposition parts, disjointness, and cardinalities")


def _random_closed_universe(rng: random.Random, max_seeds: int = 3) -> SPUniverse:
    seeds = set()
    for _ in range(rng.randint(1, max_seeds)):
        tail = []
        for _ in range(2):
            terms = {
                rng.randint(0, 2): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 2))
            }
            tail.append(EpsilonSeries.from_terms(terms))
        seeds.add(SubparticleRep((Std(rng.randint(0, 3)), Inf("lambda"), *tail)))
    return SPUniverse.closed(seeds)


def test_criterion_06_consequence_axioms():
    rng = random.Random(101)
    for _ in range(50):
        system = random_system(rng, max_sentences=6)
        report = check_consequence_axioms(
            lambda X, sys=system: closure(sys, X).closure, system.language
        )
        assert report.exhaustive and report.checked == 2** len(system.language)
        assert report.passed, report.violations
    for _ in range(15):
        universe = _random_closed_universe(rng)
        assert len(universe.members) <= 6
        report = check_consequence_axioms(
            universe.extended_operator(), universe.members
        )
        assert report.exhaustive
        assert report.passed, report.violations
    ok(6, "closure and extended standard part satisfy the operator axioms")


def test_criterion_07_signature_soundness():
    rng = random.Random(103)
    for _ in range(50):
        ctx = random_context(rng, max_sentences=5)
        report = signature_operator_check(ctx)
        assert report.checked == 2 ** len(ctx.perceived)
        assert report.passed, report.mismatches
    ok(7, "theory signatures regenerate the perceived closure")


def test_criterion_08_separate_vs_union_discrepancy():
    observations = [(frozenset("a"), frozenset("b")), (frozenset("b"), frozenset("c"))]
    verdict = separate_vs_union(observations, {"a"}, "abc")
    assert verdict.separate == {"a", "b"}
    assert verdict.union == {"a", "b", "c"}
    assert not verdict.equal
    ok(8, "separate application differs from the unified rule set")


def test_criterion_09_standard_part():
    three_halves = EpsilonSeries.from_terms(
        {0: Fraction(3, 2), 1: Fraction(5), 2: Fraction(-1)}
    )
    assert st_point(three_halves) == Fraction(3, 2)
    assert st_point(epsilon()) == 0
    with pytest.raises(Unlimited):
        st_point(epsilon(-1))

    one_plus = EpsilonSeries.from_rational(1) + epsilon()
    member = SubparticleRep((Std(5), Inf("lambda"), one_plus + 1, 7))
    assert st_subparticle(member) == SubparticleRep((0, 0, 2, 7))
    assert st_set(set()) == frozenset()
    collapsing = {
        SubparticleRep((Std(5), Inf("lambda"), one_plus)),
        SubparticleRep((Std(5), Inf("lambda"), 1 + 2 * epsilon())),
    }
    assert st_set(collapsing) == {SubparticleRep((0, 0, 1))}
    assert st_extended({member}) == {member, st_subparticle(member)}

    rng = random.Random(107)
    for _ in range(10):
        universe = _random_closed_universe(rng, max_seeds=2)
        members = sorted(universe.members, key=repr)[:5]
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                X = frozenset(subset)
                assert st_set(st_set(X)) == st_set(X)
                union = frozenset()
                for k in range(len(subset) + 1):
                    for part in combinations(subset, k):
                        union |= st_extended(frozenset(part))
                assert union == st_extended(X)

    for _ in range(20):
        size = rng.randint(1, 4)
        Y = set()
        for _ in range(size):
            tail = []
            for _ in range(2):
                standard = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                infinitesimal = Fraction(rng.randint(1, 3))
                tail.append(
                    EpsilonSeries.from_terms(
                        {0: standard, rng.randint(1, 3): infinitesimal}
                    )
                )
            Y.add(SubparticleRep((Std(rng.randint(0, 3)), Inf("lambda"), *tail)))
        assert realism_relation(Y) == st_set(Y)
    ok(9, "standard part operators reproduce their defining identities")


CLI_INVOCATIONS = [
    ["points", "--q", "2", "--K", "4", "--i", "0..3", "--j-max", "5"],
    ["points", "--q", "1", "--K", "1", "--m", "2", "--j-max", "2", "--format", "csv"],
    ["paradigm", "--spec", "paradigm_q1.json", "--j-max", "1"],
    ["ultraword", "--spec", "paradigm_q1.json", "--n", "1", "--label", "lambda"],
    ["ultraword", "--spec", "paradigm_q4.json", "--m=-1", "--p", "1", "--n", "1"],
    ["closure", "--rules", "rules.json", "--premises", "a"],
    ["decompose", "--spec", "paradigm_q2.json", "--m", "0", "--n", "2"],
    [
        "decompose", "--spec", "paradigm_q2.json", "--m", "0", "--n", "2",
        "--mode", "permutational", "--axioms", "alpha",
    ],
    ["signature", "--context", "context.json"],
    ["signature", "--context", "context.json", "--X", "a"],
    ["converse", "--observations", "observations.json", "--premises", "a"],
    ["st", "--input", "subparticles.json"],
    ["st", "--input", "subparticles.json", "--op", "realism"],
    ["check", "--rules", "rules.json", "--seed", "7"],
    ["check", "--sp", "subparticles.json"],
]


def _invoke(argv: list[str]) -> bytes:
    # The child runs in the fixtures directory, so it needs an absolute src path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ultraword", *argv],
        cwd=FIXTURES,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_10_cli_determinism():
    for argv in CLI_INVOCATIONS:
        first = _invoke(argv)
        second = _invoke(argv)
        assert first == second, f"nondeterministic output for {argv}"
        assert first.strip()
    ok(10, "documented commands are byte-identical across runs")
