"""The README's CLI commands, plus one ``--config`` variant, on tests/fixtures.

Each command runs in-process through ``cli.main(argv)`` with stdout captured,
and as a ``python -m ultraword`` subprocess. Both must reproduce, byte for
byte, the stdout and exit code frozen in ``expected/cli_fixtures.json``.
The seed only shuffles the order of the commands.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from .base import Cold, Op, Row

WHY = (
    "what a CLI user pays: argparse, JSON, formatting and import around "
    "fixture-sized work; a compute-layer change should leave it flat"
)

# Share of the measured time spent on CLI subprocesses.
COLD_SHARE = 0.7

EXPECTED = Path(__file__).resolve().parent.parent / "expected" / "cli_fixtures.json"

# (name, argv) with file arguments relative to tests/fixtures. The README
# names paradigm.json and obs.json; the fixtures call them paradigm_q1.json
# and observations.json.
COMMANDS = [
    ("points_json", ["points", "--q", "2", "--K", "4", "--i", "0..3", "--j-max", "5"]),
    ("points_csv", ["points", "--q", "1", "--K", "1", "--m", "2", "--format", "csv"]),
    ("paradigm", ["paradigm", "--spec", "paradigm_q1.json", "--j-max", "1"]),
    (
        "ultraword",
        ["ultraword", "--spec", "paradigm_q1.json", "--n", "1", "--label", "lambda"],
    ),
    ("closure", ["closure", "--rules", "rules.json", "--premises", "a"]),
    (
        "decompose",
        ["decompose", "--spec", "paradigm_q1.json", "--n", "1", "--mode", "permutational"],
    ),
    ("signature_theory", ["signature", "--context", "context.json"]),
    ("signature_behavior", ["signature", "--context", "context.json", "--X", "a"]),
    (
        "converse",
        ["converse", "--observations", "observations.json", "--premises", "a"],
    ),
    ("st_realism", ["st", "--input", "subparticles.json", "--op", "realism"]),
    ("check_rules", ["check", "--rules", "rules.json", "--seed", "7"]),
    ("check_sp", ["check", "--sp", "subparticles.json"]),
    (
        "config_points",
        ["--config", "config.json", "points", "--q", "1", "--K", "1", "--m", "2"],
    ),
]

_FILE_FLAGS = {"--spec", "--rules", "--context", "--observations", "--input", "--sp", "--config"}


def absolute_argv(argv: list[str], fixtures: Path) -> list[str]:
    """The argv with every file argument made absolute, for in-process calls."""
    out = []
    for k, token in enumerate(argv):
        if k and argv[k - 1] in _FILE_FLAGS:
            token = str(fixtures / token)
        out.append(token)
    return out


def run_main(main, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process ``main(argv)`` call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


def expected() -> dict[str, dict]:
    return {entry["name"]: entry for entry in json.loads(EXPECTED.read_text("utf-8"))}


def generate(rng, fixtures: Path) -> dict:
    order = [name for name, _ in COMMANDS]
    rng.shuffle(order)
    files = {
        "rules": "rules.json",
        "context": "context.json",
        "observations": "observations.json",
        "paradigm_q1": "paradigm_q1.json",
        "paradigm_q2": "paradigm_q2.json",
        "paradigm_q4": "paradigm_q4.json",
        "subparticles": "subparticles.json",
    }
    docs = {
        key: json.loads((fixtures / name).read_text("utf-8"))
        for key, name in files.items()
    }
    return {"order": order, "fixtures": str(fixtures), "files": docs}


def load(uw, docs: dict) -> dict:
    files = docs["files"]
    return {
        "rules": uw.LogicSystem.from_json(files["rules"]),
        "context": uw.PerceivedContext.from_json(files["context"]),
        "observations": uw.signatures.observations_from_json(files["observations"]),
        "paradigms": [
            uw.paradigm_from_json(files[key])
            for key in ("paradigm_q1", "paradigm_q2", "paradigm_q4")
        ],
        "universe": uw.hyperreal.universe_from_json(files["subparticles"]),
    }


def operations(uw, docs: dict, objs: dict) -> list[Op]:
    import ultraword.cli as cli

    fixtures = Path(docs["fixtures"])
    frozen = expected()
    argvs = dict(COMMANDS)
    ops = []
    for name in docs["order"]:
        argv = absolute_argv(argvs[name], fixtures)
        want = (frozen[name]["exit"], frozen[name]["stdout"].encode("utf-8"))
        ops.append(
            Op(
                "main",
                name,
                lambda argv=argv: run_main(cli.main, argv),
                lambda got, want=want: got == want,
            )
        )
    return ops


def cold(docs: dict, workdir: Path, fixtures: Path) -> list[Cold]:
    frozen = expected()
    argvs = dict(COMMANDS)
    commands = []
    for name in docs["order"]:
        want_out = frozen[name]["stdout"].encode("utf-8")
        want_exit = frozen[name]["exit"]
        commands.append(
            Cold(
                name,
                argvs[name],
                fixtures,
                lambda out, code, o=want_out, e=want_exit: (out, code) == (o, e),
            )
        )
    return commands


def rows(uw, docs: dict, objs: dict) -> list[Row]:
    return []


def defects(uw, docs: dict, objs: dict) -> list[Op]:
    return []
