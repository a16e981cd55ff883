"""Freeze the stdout and exit code of every cli_fixtures command.

    python3 perfbench/freeze_cli.py

Runs each command once as a ``python -m ultraword`` subprocess in
tests/fixtures, checks its output against an independent computation from
``reference``, and writes ``expected/cli_fixtures.json``. The benchmark then
counts any byte difference from these outputs as a failed operation. Rerun
it only when a change to the CLI output is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys

import reference as ref
from run import FIXTURES, child_env
from workloads.cli_fixtures import COMMANDS, EXPECTED


def _fixture(name: str):
    return json.loads((FIXTURES / name).read_text("utf-8"))


def _points_csv(K: int, indices) -> str:
    lines = ["i,j,t"] + [f"{i},{j},{ref.fmt(ref.point(K, i, j))}" for i, j in indices]
    return "\n".join(lines) + "\n"


def _check(name: str, text: str) -> bool:
    """Independent cross-check of one frozen output."""
    if name in ("points_csv", "config_points"):
        return text == _points_csv(1, ref.rect_indices(1, 2, 0, 2, 0))
    out = json.loads(text)
    if name == "points_json":
        return out == [
            {"i": i, "j": j, "t": ref.fmt(ref.point(4, i, j))}
            for i, j in ref.rect_indices(2, None, 0, 3, 5)
        ]
    if name == "paradigm":
        return out == [
            {
                "i": i,
                "j": j,
                "t": ref.fmt(ref.point(1, i, j)),
                "body": f"event-{i}-{j}",
                "clause": ref.clause(ref.point(1, i, j)),
            }
            for i, j in ref.rect_indices(1, 2, 0, 2, 1)
        ]
    if name == "ultraword":
        idx = ref.bounds_indices(1, 2, 1, None)
        atoms = [
            {
                "i": i,
                "j": j,
                "t": ref.fmt(ref.point(1, i, j)),
                "clause": ref.clause(ref.point(1, i, j)),
            }
            for i, j in idx
        ]
        text_ref = " ∧ ".join(f"event-{i}-{j} {ref.clause(ref.point(1, i, j))}" for i, j in idx)
        return out == {"atoms": atoms, "size": len(idx), "text": text_ref, "label": "lambda"}
    if name == "closure":
        rules = ref.rule_pairs(_fixture("rules.json"))
        expect = ref.closure(rules, ["a"])
        fired = [(tuple(d["premises"]), d["conclusion"]) for d in out["derivation"]]
        return out["closure"] == sorted(expect) and ref.replays(fired, ["a"], expect)
    if name == "decompose":
        idx = ref.bounds_indices(1, 2, 1, None)
        n = len(idx)
        words = ref.permutational_count(n)
        return (
            out["mode"] == "permutational"
            and out["cardinalities"]
            == {"axioms": 0, "conjunctions": words, "atoms": n, "total": words + n}
            and out["atoms"] == sorted(ref.clause(ref.point(1, i, j)) for i, j in idx)
            and len(out["conjunctions"]) == words
            and out["axioms"] == []
        )
    if name in ("signature_theory", "signature_behavior"):
        ctx = _fixture("context.json")
        rules = ref.rule_pairs(ctx)
        if name == "signature_theory":
            expect = ref.theory_signature(rules, ctx["perceived"])
        else:
            new = (ref.closure(rules, ["a"]) & set(ctx["perceived"])) - {"a"}
            expect = {("a", y) for y in new}
        got = {tuple(r["premises"]) + (r["conclusion"],) for r in out}
        return got == set(expect)
    if name == "converse":
        obs = _fixture("observations.json")
        pairs = [(tuple(o["X"]), y) for o in obs for y in o["Xprime"]]
        separate = set()
        for o in obs:
            separate |= ref.closure([(tuple(o["X"]), y) for y in o["Xprime"]], ["a"])
        union = ref.closure(pairs, ["a"])
        got_rules = {(tuple(r["premises"]), r["conclusion"]) for r in out["rules"]}
        return (
            got_rules == set(pairs)
            and out["separate"] == sorted(separate)
            and out["union"] == sorted(union)
            and out["equal"] == (separate == union)
        )
    if name == "st_realism":
        members = _fixture("subparticles.json")["members"]
        got = {ref.standard_image(m) for m in out["members"]}
        return out["arity"] == 4 and got == set(ref.realism(members))
    if name in ("check_rules", "check_sp"):
        size = 3 if name == "check_rules" else len(_fixture("subparticles.json")["members"])
        return (
            out["universe_size"] == size
            and out["mode"] == "exhaustive"
            and out["checked"] == 2**size
            and out["passed"] is True
            and out["violations"] == []
            and out["operator"] == ("closure" if name == "check_rules" else "st-extended")
        )
    raise KeyError(name)


def main() -> int:
    env = child_env()
    entries = []
    for name, argv in COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "ultraword", *argv],
            cwd=FIXTURES,
            env=env,
            capture_output=True,
            timeout=60,
        )
        text = done.stdout.decode("utf-8")
        if done.returncode != 0 or not _check(name, text):
            print(f"{name}: output disagrees with the reference", file=sys.stderr)
            return 1
        entries.append({"name": name, "argv": argv, "exit": done.returncode, "stdout": text})
        print(f"{name}: exit {done.returncode}, {len(done.stdout)} bytes, cross-checked")
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
