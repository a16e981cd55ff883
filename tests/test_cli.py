import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultraword.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "expected" / "cli_fixtures.json"
GOLDEN_ENTRIES = json.loads(GOLDEN.read_text("utf-8"))
CONTEXT = json.loads((FIXTURES / "context.json").read_text("utf-8"))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rule_file(language, **rule) -> dict:
    """A rule file of one rule, a -> b with the given keys replaced."""
    return {"language": language, "rules": [{"premises": ["a"], "conclusion": "b"} | rule]}


def subparticles(*members) -> dict:
    """A subparticle file of arity 3."""
    return {"arity": 3, "members": list(members)}


def write_config(tmp_path, config) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestPoints:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "points", "--q", "2", "--K", "4", "--i", "0..3", "--j-max", "5")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4 * 6
        assert rows[0] == {"i": 0, "j": 0, "t": "0"}
        assert rows[1] == {"i": 0, "j": 1, "t": "1/8"}

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "points", "--q", "1", "--K", "1", "--m", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["i,j,t", "0,0,0", "1,0,1"]

    def test_bounded_defaults_full_range(self, capsys):
        code, out, _ = run(capsys, "points", "--q", "1", "--K", "2", "--m", "3", "--j-max", "1")
        assert code == 0
        assert len(json.loads(out)) == 3 * 2 + 1

    def test_k_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "points", "--q", "2", "--K", "0")
        assert code == 2
        assert out == ""
        assert "--K" in err

    def test_missing_i_for_unbounded_kind(self, capsys):
        code, _, err = run(capsys, "points", "--q", "2", "--K", "1")
        assert code == 2
        assert "--i" in err

    def test_negative_range_with_equals_form(self, capsys):
        code, out, _ = run(capsys, "points", "--q", "4", "--K", "1", "--i=-2..-1")
        assert code == 0
        assert [r["i"] for r in json.loads(out)] == [-2, -1]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "points.json"
        code, out, _ = run(
            capsys, "points", "--q", "2", "--K", "1", "--i", "0..0", "--output", target
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == [{"i": 0, "j": 0, "t": "0"}]


class TestParadigmCommands:
    def test_paradigm_listing(self, capsys):
        code, out, _ = run(
            capsys, "paradigm", "--spec", FIXTURES / "paradigm_q1.json", "--j-max", "1"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert rows[0]["body"] == "event-0-0"
        assert rows[-1] == {
            "i": 2,
            "j": 0,
            "t": "2",
            "body": "event-2-0",
            "clause": "This description is named ⌈2⌉.",
        }

    def test_ultraword(self, capsys):
        code, out, _ = run(
            capsys, "ultraword", "--spec", FIXTURES / "paradigm_q1.json", "--n", "1",
            "--label", "lambda",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 5
        assert payload["label"] == "lambda"
        assert [row["t"] for row in payload["atoms"]] == ["0", "1/2", "1", "3/2", "2"]
        assert payload["text"].count("∧") == 4

    def test_decompose_three_atoms(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--spec", FIXTURES / "paradigm_q2.json",
            "--m", "0", "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinalities"] == {
            "atoms": 3,
            "axioms": 0,
            "conjunctions": 4,
            "total": 7,
        }

    def test_decompose_permutational_with_axioms(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--spec", FIXTURES / "paradigm_q2.json",
            "--m", "0", "--n", "2", "--mode", "permutational", "--axioms", "alpha,beta",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["cardinalities"]["conjunctions"] == 12
        assert payload["axioms"] == ["alpha", "beta"]

    def test_decompose_single_atom_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--spec", FIXTURES / "paradigm_q2.json",
            "--m", "0", "--n", "0",
        )
        assert code == 4
        assert "2" in err

    def test_full_line_needs_p(self, capsys):
        code, _, err = run(
            capsys, "ultraword", "--spec", FIXTURES / "paradigm_q4.json", "--m=-1",
        )
        assert code == 2
        assert "--p" in err


class TestStrictInputs:
    def test_fractional_k_in_spec_is_parse_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"q": 2, "K": 2.7}')
        code, out, err = run(capsys, "paradigm", "--spec", spec, "--i", "0..0")
        assert code == 3
        assert out == ""
        assert "K" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--spec", FIXTURES / "paradigm_q1.json", "--p", "1"],
            ["--spec", FIXTURES / "paradigm_q2.json", "--m", "1", "--p", "1"],
        ],
    )
    def test_p_outside_full_line_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "ultraword", *argv)
        assert code == 4
        assert out == ""
        assert "full-line" in err

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"seed": 7.9}, ["check", "--rules", FIXTURES / "rules.json"]),
            ({"samples": True}, ["check", "--rules", FIXTURES / "rules.json"]),
            ({"samples": 0}, ["check", "--rules", FIXTURES / "rules.json"]),
            ({"n": 1.9}, ["ultraword", "--spec", FIXTURES / "paradigm_q1.json"]),
            ({"n": -1}, ["decompose", "--spec", FIXTURES / "paradigm_q1.json"]),
            ({"m": "1"}, ["ultraword", "--spec", FIXTURES / "paradigm_q2.json"]),
            ({"seed": None}, ["check", "--rules", FIXTURES / "rules.json"]),
            ({"j_max": "x"}, ["points", "--q", "2", "--K", "1", "--i", "0..0"]),
            ({"j_max": 1.0}, ["paradigm", "--spec", FIXTURES / "paradigm_q1.json"]),
        ],
    )
    def test_config_integers_are_strict(self, capsys, tmp_path, config, argv):
        code, out, err = run(capsys, "--config", write_config(tmp_path, config), *argv)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_config_integer_accepted(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 7, "samples": 3}')
        code, out, _ = run(
            capsys, "--config", path, "check", "--rules", FIXTURES / "rules.json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7

    @pytest.mark.parametrize("scalar", ["1.5", "1e3", "1_000"])
    def test_series_scalar_must_be_rational(self, capsys, tmp_path, scalar):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps({"arity": 3, "members": [[0, 0, scalar]]}))
        code, out, err = run(capsys, "st", "--input", path)
        assert code == 3
        assert out == ""
        assert "parse error" in err

    def test_zero_denominator_flag_is_usage_error(self, capsys, tmp_path):
        argv = ["points", "--q", "1", "--K", "1", "--m", "2"]
        code, out, err = run(capsys, *argv, "--b", "1/0")
        assert code == 2
        assert out == ""
        assert "zero denominator" in err
        code, out, err = run(capsys, "--config", write_config(tmp_path, {"b": "1/0"}), *argv)
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("paradigm", "--spec", {"q": 1, "K": 1, "m": 2, "b": "1/0"}),
            ("st", "--input", {"arity": 3, "members": [[0, 0, "1/0"]]}),
            ("st", "--input", {"arity": 3, "members": [[0, 0, [[0, "1/0"]]]]}),
        ],
    )
    def test_zero_denominator_in_file_is_parse_error(self, capsys, tmp_path, command, flag, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, flag, path)
        assert code == 3
        assert out == ""
        assert "zero denominator" in err

    @pytest.mark.parametrize(
        "command, flag, doc, path",
        [
            ("closure", "--rules", rule_file(["a", "b"], premises="a"), "rules[0].premises"),
            ("closure", "--rules", {"language": "ab", "rules": []}, "language"),
            ("closure", "--rules", {"language": {"a": 1, "b": 2}, "rules": []}, "language"),
            ("closure", "--rules", rule_file([1, 2], premises=[1], conclusion=2), "language[0]"),
            ("closure", "--rules", rule_file(["a", "b"], conclusion=None), "rules[0].conclusion"),
            ("closure", "--rules", rule_file(["a", "b"], extra=["a"]), "rules[0].extra"),
            ("closure", "--rules", {"language": ["a"], "rules": [["a"]]}, "rules[0]"),
            ("closure", "--rules", {"language": ["a"], "rules": [], "extra": 1}, "extra"),
            ("signature", "--context", dict(CONTEXT, perceived="ac"), "perceived"),
            ("signature", "--context", dict(CONTEXT, tag=5), "tag"),
            ("converse", "--observations", [{"X": [1], "Xprime": [None]}], "[0].X[0]"),
            ("converse", "--observations", {"observations": [], "language": None}, "language"),
            ("paradigm", "--spec", {"q": 2, "K": 1, "extra": 1}, "extra"),
            ("paradigm", "--spec", {"q": 2, "K": 1, "m": None}, "m"),
            (
                "st", "--input", subparticles([0, {"inf": "l", "offset": 1.5}, 1]),
                "members[0][1].offset",
            ),
            ("st", "--input", subparticles([0, 0, [[0, "1"], [1, "1/0"]]]), "members[0][2][1][1]"),
        ],
    )
    def test_malformed_files_name_the_json_path(self, capsys, tmp_path, command, flag, doc, path):
        target = tmp_path / "input.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, flag, target)
        assert code == 3
        assert out == ""
        assert f"parse error: {target}: {path}: " in err

    @pytest.mark.parametrize("bodies", ["e-{x}", "e-{0}", "e-{i:q}", "e-{", "", " ", ["a", ""]])
    def test_unusable_bodies_are_parse_errors(self, capsys, tmp_path, bodies):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"q": 2, "K": 1, "bodies": bodies}))
        code, out, err = run(capsys, "paradigm", "--spec", spec, "--i", "0..0")
        assert code == 3
        assert out == ""
        assert "bodies: " in err

    def test_oversized_decomposition_is_domain_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"q": 1, "K": 1, "m": 9}')
        code, out, err = run(
            capsys, "decompose", "--spec", spec, "--mode", "permutational"
        )
        assert code == 4
        assert out == ""
        assert "limit" in err

    def test_m_on_unbounded_points_is_usage_error(self, capsys):
        code, out, err = run(capsys, "points", "--q", "2", "--m", "3", "--i", "0..0")
        assert code == 2
        assert out == ""
        assert "usage error" in err


class TestClosureCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--rules", FIXTURES / "rules.json", "--premises", "a"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closure"] == ["a", "b", "c"]
        assert [step["conclusion"] for step in payload["derivation"]] == ["b", "c"]

    def test_unknown_premise_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "closure", "--rules", FIXTURES / "rules.json", "--premises", "z"
        )
        assert code == 4
        assert "z" in err


class TestSignatureCommands:
    def test_theory_signature(self, capsys):
        code, out, _ = run(capsys, "signature", "--context", FIXTURES / "context.json")
        assert code == 0
        assert json.loads(out) == [{"premises": ["a"], "conclusion": "c"}]

    def test_behavior_signature(self, capsys):
        code, out, _ = run(
            capsys, "signature", "--context", FIXTURES / "context.json", "--X", "a"
        )
        assert code == 0
        assert json.loads(out) == [{"premises": ["a"], "conclusion": "c"}]

    def test_converse_with_verdict(self, capsys):
        code, out, _ = run(
            capsys, "converse", "--observations", FIXTURES / "observations.json",
            "--premises", "a",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["separate"] == ["a", "b"]
        assert payload["union"] == ["a", "b", "c"]
        assert payload["equal"] is False

    def test_converse_rules_only(self, capsys):
        code, out, _ = run(
            capsys, "converse", "--observations", FIXTURES / "observations.json"
        )
        assert code == 0
        payload = json.loads(out)
        assert "separate" not in payload
        assert payload["rules"] == [
            {"premises": ["a"], "conclusion": "b"},
            {"premises": ["b"], "conclusion": "c"},
        ]


class TestStCommand:
    def test_standard_parts(self, capsys):
        code, out, _ = run(capsys, "st", "--input", FIXTURES / "subparticles.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["arity"] == 4
        assert [[0, 0, [[0, "1"]], [[0, "7"]]], [0, 0, [[0, "3/2"]], []]] == payload["members"]

    def test_realism(self, capsys):
        code, out, _ = run(
            capsys, "st", "--input", FIXTURES / "subparticles.json", "--op", "realism"
        )
        assert code == 0
        assert json.loads(out)["members"] == []

    def test_empty_member_list(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"arity": 3, "members": []}')
        code, out, _ = run(capsys, "st", "--input", empty)
        assert code == 0
        assert json.loads(out) == {"arity": 3, "members": []}


class TestCheckCommand:
    def test_closure_operator_report(self, capsys):
        code, out, _ = run(capsys, "check", "--rules", FIXTURES / "rules.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["mode"] == "exhaustive"
        assert payload["checked"] == 2**3

    def test_subparticle_operator_report(self, capsys):
        code, out, _ = run(capsys, "check", "--sp", FIXTURES / "subparticles.json")
        assert code == 0
        payload = json.loads(out)
        assert payload["operator"] == "st-extended"
        assert payload["passed"] is True


class TestErrorMapping:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "closure", "--rules", "no-such-file.json")
        assert code == 3
        assert "no-such-file" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "closure", "--rules", bad)
        assert code == 3

    def test_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"language": ["a"]}')
        code, _, err = run(capsys, "closure", "--rules", bad)
        assert code == 3
        assert "rules" in err

    def test_rule_outside_language_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"language": ["a"], "rules": [{"premises": ["a"], "conclusion": "z"}]}'
        )
        code, _, _ = run(capsys, "closure", "--rules", bad)
        assert code == 4

    def test_help_returns_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: ultraword")

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2
        assert out == ""
        assert "frobnicate" in err


class TestConfig:
    def test_config_supplies_defaults(self, capsys):
        code, out, _ = run(
            capsys, "--config", FIXTURES / "config.json",
            "points", "--q", "2", "--K", "1", "--i", "0..0",
        )
        assert code == 0
        assert out.startswith("i,j,t")

    def test_explicit_flag_beats_config(self, capsys):
        code, out, _ = run(
            capsys, "--config", FIXTURES / "config.json",
            "points", "--q", "2", "--K", "1", "--i", "0..0", "--format", "json",
        )
        assert code == 0
        json.loads(out)

    def test_unreadable_config(self, capsys):
        code, _, _ = run(capsys, "--config", "missing.json", "points", "--q", "2")
        assert code == 3

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"mode": "bogus"}, ["decompose", "--spec", FIXTURES / "paradigm_q1.json", "--n", "1"]),
            ({"premises": ["a"]}, ["closure", "--rules", FIXTURES / "rules.json"]),
            ({"axioms": None}, ["decompose", "--spec", FIXTURES / "paradigm_q1.json", "--n", "1"]),
            ({"label": ["x"]}, ["ultraword", "--spec", FIXTURES / "paradigm_q1.json", "--n", "1"]),
            ({"X": 1.5}, ["signature", "--context", FIXTURES / "context.json"]),
        ],
    )
    def test_config_values_pass_the_flag_validator(self, capsys, tmp_path, config, argv):
        code, out, err = run(capsys, "--config", write_config(tmp_path, config), *argv)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_string_config_value_matches_flag(self, capsys, tmp_path):
        argv = ["ultraword", "--spec", FIXTURES / "paradigm_q1.json", "--n", "1"]
        code, out, _ = run(capsys, "--config", write_config(tmp_path, {"label": 5}), *argv)
        assert code == 0
        assert out == run(capsys, *argv, "--label", "5")[1]
        assert json.loads(out)["label"] == "5"

    def test_one_config_serves_every_command(self, capsys, tmp_path):
        path = write_config(tmp_path, {"format": "csv", "seed": 7})
        code, out, _ = run(capsys, "--config", path, "points", "--q", "1", "--K", "1", "--m", "2")
        assert code == 0
        assert out.splitlines() == ["i,j,t", "0,0,0", "1,0,1", "2,0,2"]
        code, out, _ = run(capsys, "--config", path, "check", "--rules", FIXTURES / "rules.json")
        assert code == 0
        assert json.loads(out)["seed"] == 7


class TestLogging:
    def test_debug_logging_stays_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAWORD_LOG", "debug")
        code, out, _ = run(
            capsys, "points", "--q", "2", "--K", "1", "--i", "0..0"
        )
        assert code == 0
        json.loads(out)

    def test_unknown_level_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAWORD_LOG", "chatty")
        code, _, err = run(capsys, "points", "--q", "2", "--K", "1", "--i", "0..0")
        assert code == 0
        assert err == ""

    def test_info_names_the_command(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAWORD_LOG", "info")
        code, _, err = run(capsys, "points", "--q", "2", "--K", "1", "--i", "0..0")
        assert code == 0
        assert err == "INFO ultraword: running points\n"

    def test_debug_names_each_loaded_file(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAWORD_LOG", "DEBUG")
        rules = FIXTURES / "rules.json"
        code, _, err = run(capsys, "closure", "--rules", rules)
        assert code == 0
        assert err.splitlines() == [
            "INFO ultraword: running closure",
            f"DEBUG ultraword: loading {rules}",
        ]

    def test_cli_import_does_not_load_logging(self):
        # An absolute src path first, so the child imports this checkout.
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, ultraword.cli; print('logging' in sys.modules)"],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().strip() == "False"


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda entry: entry["name"])
def test_golden_stdout_and_exit_code(entry, capsys, monkeypatch):
    """Each documented command reproduces its frozen stdout byte for byte."""
    monkeypatch.chdir(FIXTURES)
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out.encode("utf-8") == entry["stdout"].encode("utf-8")


# Value flags a config file cannot set: required flags and file paths.
FLAGS_ONLY = {"--q", "--spec", "--rules", "--context", "--observations", "--input", "--sp"}
INTEGER_FLAGS = {"--K", "--m", "--p", "--n", "--j-max", "--samples", "--seed"}


@pytest.mark.parametrize("entry", GOLDEN_ENTRIES, ids=lambda entry: entry["name"])
def test_config_equals_flags(entry, capsys, monkeypatch, tmp_path):
    """Each golden command gives the same stdout with its optional value flags
    moved into a config file."""
    monkeypatch.chdir(FIXTURES)
    argv = list(entry["argv"])
    config = {}
    if argv[0] == "--config":
        config = json.loads((FIXTURES / argv[1]).read_text("utf-8"))
        argv = argv[2:]
    kept = argv[:1]
    tokens = iter(argv[1:])
    for flag in tokens:
        value = next(tokens)
        if flag in FLAGS_ONLY:
            kept += [flag, value]
        else:
            config[flag[2:].replace("-", "_")] = int(value) if flag in INTEGER_FLAGS else value
    code, out, _ = run(capsys, "--config", write_config(tmp_path, config), *kept)
    assert code == entry["exit"]
    assert out.encode("utf-8") == entry["stdout"].encode("utf-8")
