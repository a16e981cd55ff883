import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import hypothesis.strategies as hs
import pytest
from hypothesis import given

import strategies as s
from ultraword import (
    CONNECTIVE,
    ConjunctionWord,
    DevelopmentalParadigm,
    IncomparableMembers,
    IndexPair,
    IntervalKind,
    PartitionScheme,
    TooFewMembers,
    Word,
    build_conjunction_word,
    extract_time_id,
    naming_clause,
    ordered_choice,
    paradigm_from_json,
    segment_at,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def scheme_segment(K, kind, idx, mode="description"):
    """The segment a paradigm over PartitionScheme(K, kind) names at idx."""
    return DevelopmentalParadigm(PartitionScheme(K, kind), mode=mode).segment(idx)


class TestNamingClause:
    def test_description_at_zero(self):
        seg = scheme_segment(1, IntervalKind.full_line(), IndexPair(0, 0))
        assert seg.naming_clause == "This description is named ⌈0⌉."

    def test_instruction_with_formula_value(self):
        seg = scheme_segment(
            2, IntervalKind.nonnegative(), IndexPair(3, 2), mode="instruction"
        )
        assert seg.naming_clause == "This instruction is named ⌈15/8⌉."

    def test_round_trip(self):
        seg = scheme_segment(3, IntervalKind.full_line(), IndexPair(-1, 2))
        assert extract_time_id(seg.naming_clause) == seg.time_id == Fraction(-1, 12)

    def test_extract_rejects_other_text(self):
        with pytest.raises(ValueError):
            extract_time_id("This event is named ⌈0⌉.")
        with pytest.raises(ValueError):
            extract_time_id("This description is named 0.")

    def test_clause_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segment_at(1, "x").__class__(
                Word.of("x"), Fraction(2), naming_clause(Fraction(3))
            )


class TestWord:
    def test_nonempty(self):
        with pytest.raises(ValueError):
            Word(())

    def test_connective_reserved(self):
        with pytest.raises(ValueError):
            Word(("a", CONNECTIVE))

    def test_whitespace_symbols_rejected(self):
        with pytest.raises(ValueError):
            Word(("a b",))

    def test_of_splits_text(self):
        assert Word.of("go north now").symbols == ("go", "north", "now")


class TestConjunctionWord:
    def test_canonical_left_to_right_order(self):
        word = build_conjunction_word(
            [s.seg("10/3"), s.seg("7/8"), s.seg("100/23")]
        )
        assert [str(t) for t in word.time_ids] == ["7/8", "10/3", "100/23"]

    def test_two_member_join(self):
        word = build_conjunction_word([s.seg(0), s.seg("1/2")])
        assert [str(t) for t in word.time_ids] == ["0", "1/2"]
        assert CONNECTIVE in word.text

    def test_below_domain(self):
        with pytest.raises(TooFewMembers):
            build_conjunction_word([s.seg(0)])

    def test_atoms_inverse_of_build(self):
        members = {s.seg(0), s.seg(1), s.seg(2)}
        assert build_conjunction_word(members).atoms == frozenset(members)

    def test_atoms_of_pair(self):
        a, b = s.seg(1), s.seg(2)
        assert build_conjunction_word([a, b]).atoms == {a, b}

    def test_input_permutation_gives_same_word(self):
        members = [s.seg(3), s.seg(1), s.seg(2)]
        assert build_conjunction_word(members) == build_conjunction_word(
            reversed(members)
        )

    def test_preserve_order_keeps_arrangement(self):
        a, b = s.seg(2), s.seg(1)
        word = build_conjunction_word([a, b], preserve_order=True)
        assert word.conjuncts == (a, b)
        assert not word.is_canonical
        assert word.canonical().conjuncts == (b, a)

    def test_repeated_conjunct_rejected(self):
        a = s.seg(1)
        with pytest.raises(ValueError):
            build_conjunction_word([a, a], preserve_order=True)


class TestHashing:
    @given(segment=s.segments())
    def test_equal_segments_hash_equal(self, segment):
        twin = s.seg(segment.time_id, str(segment.body), segment.mode, segment.family)
        assert twin == segment
        assert hash(twin) == hash(segment)

    @given(atoms=s.atom_lists(2, 4))
    def test_equal_words_hash_equal(self, atoms):
        word = ConjunctionWord(tuple(atoms))
        twin = ConjunctionWord(tuple(dataclasses.replace(a) for a in atoms))
        assert twin == word
        assert hash(twin) == hash(word)

    @given(atoms=s.atom_lists(2, 4))
    def test_copy_pickle_and_replace_keep_identity(self, atoms):
        word = ConjunctionWord(tuple(atoms))
        hash(word)
        for value in (atoms[0], word):
            for clone in (
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
                dataclasses.replace(value),
            ):
                assert clone == value
                assert hash(clone) == hash(value)

    def test_replace_rehashes_the_changed_segment(self):
        segment = s.seg("1/3", "pulse")
        hash(segment)
        renamed = dataclasses.replace(segment, body=Word.of("echo"))
        assert renamed == s.seg("1/3", "echo")
        assert hash(renamed) == hash(s.seg("1/3", "echo"))
        assert {renamed} != {segment}

    def test_pickled_segments_rehash_in_another_process(self):
        atoms = [s.seg(k, f"body{k}", family=("p", k)) for k in range(3)]
        word = build_conjunction_word(atoms)
        data = pickle.dumps((frozenset(atoms), word))
        # String hashes depend on the hash seed, so a hash carried over from
        # this process would not find equal segments built in the child.
        child = (
            "import pickle, sys\n"
            "from ultraword import build_conjunction_word, segment_at\n"
            "atoms, word = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [segment_at(k, f'body{k}', family=('p', k)) for k in range(3)]\n"
            "print(atoms == frozenset(fresh), word in {build_conjunction_word(fresh)})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
        result = subprocess.run(
            [sys.executable, "-c", child], input=data, env=env, capture_output=True, timeout=60
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.split() == [b"True", b"True"]


class TestOrderedChoice:
    def test_sorts_by_time(self):
        out = ordered_choice({s.seg("1/2"), s.seg(0), s.seg("3/4")})
        assert [str(x.time_id) for x in out] == ["0", "1/2", "3/4"]

    def test_singleton(self):
        only = s.seg(0)
        assert ordered_choice({only}) == [only]

    def test_empty(self):
        assert ordered_choice(set()) == []

    def test_cross_paradigm_members_rejected(self):
        one = scheme_segment(1, IntervalKind.nonnegative(), IndexPair(0, 0))
        other = scheme_segment(2, IntervalKind.nonnegative(), IndexPair(0, 0))
        with pytest.raises(IncomparableMembers):
            ordered_choice({one, other})

    @given(hs.sets(hs.fractions(max_denominator=32), max_size=8))
    def test_output_is_sorted_permutation_of_input(self, times):
        members = {s.seg(t) for t in times}
        out = ordered_choice(members)
        assert set(out) == members
        assert len(out) == len(members)
        assert all(a.time_id < b.time_id for a, b in zip(out, out[1:]))

    def test_largest_member_matches_fold_maximum(self):
        members = {s.seg(t) for t in ("5/7", "1/9", "4", "22/7", "3/2")}
        out = ordered_choice(members)
        fold_max = reduce(lambda a, b: b if a.time_id <= b.time_id else a, members)
        assert out[-1] == fold_max


class TestDevelopmentalParadigm:
    def setup_method(self):
        self.dp = DevelopmentalParadigm(PartitionScheme(2, IntervalKind.nonnegative()))

    def test_order_isomorphism_on_window(self):
        rows = self.dp.window(0, 2, 3)
        for idx_a, seg_a in rows:
            for idx_b, seg_b in rows:
                assert (idx_a <= idx_b) == (seg_a.time_id <= seg_b.time_id)

    def test_segments_distinct_on_window(self):
        rows = self.dp.window(0, 3, 4)
        segments = [seg for _, seg in rows]
        assert len(set(segments)) == len(segments)

    def test_segment_matches_scheme_point(self):
        idx = IndexPair(1, 2)
        assert self.dp.segment(idx).time_id == self.dp.scheme.point(idx)

    def test_custom_rule_validated_eagerly(self):
        flat = DevelopmentalParadigm(
            PartitionScheme(1, IntervalKind.full_line(), lambda i, j: Fraction(i))
        )
        with pytest.raises(ValueError):
            flat.window(0, 1, 2)

    def test_instruction_mode_flows_to_segments(self):
        dp = DevelopmentalParadigm(
            PartitionScheme(1, IntervalKind.nonnegative()), mode="instruction"
        )
        assert "instruction" in dp.segment(IndexPair(0, 0)).naming_clause


class TestParadigmFromJson:
    def test_template_bodies(self):
        dp = paradigm_from_json({"q": 2, "K": 2, "bodies": "cell-{i}-{j}-at-{t}"})
        seg = dp.segment(IndexPair(1, 1))
        assert str(seg.body) == "cell-1-1-at-3/4"

    def test_literal_bodies_cycle_over_j(self):
        dp = paradigm_from_json({"q": 2, "K": 1, "bodies": ["first", "second"]})
        assert str(dp.segment(IndexPair(0, 0)).body) == "first"
        assert str(dp.segment(IndexPair(0, 1)).body) == "second"
        assert str(dp.segment(IndexPair(0, 2)).body) == "first"

    def test_bounded_b_defaults_to_m_over_k(self):
        dp = paradigm_from_json({"q": 1, "K": 2, "m": 3})
        assert dp.scheme.kind.b == Fraction(3, 2)

    def test_inconsistent_b_rejected(self):
        with pytest.raises(ValueError):
            paradigm_from_json({"q": 1, "K": 2, "m": 3, "b": "2"})

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"q": 1, "K": 1},
            {"q": 2, "K": 1, "bodies": 7},
            {"q": 2, "K": 1, "bodies": []},
            "not an object",
            {"q": 2, "K": 2.7},
            {"q": 2, "K": True},
            {"q": "2", "K": 1},
            {"q": 1, "K": 1, "m": 2.0},
            {"q": 2, "K": 1, "m": 2},
            {"q": 3, "K": 1, "b": "1"},
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            paradigm_from_json(spec)
