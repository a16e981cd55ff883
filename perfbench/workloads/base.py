"""Records that workloads hand to the runner."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    """One timed call: ``run()`` returns the output that ``check`` accepts."""

    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Cold:
    """One CLI subprocess: argv after ``python -m ultraword``, run in ``cwd``;
    ``check(stdout, exit_code)`` accepts its result."""

    label: str
    argv: list[str]
    cwd: Path
    check: Callable[[bytes, int], bool]


@dataclass
class Row:
    """The op that redoes the ROADMAP item 2 table row ``key`` (see layers.py),
    with a note on how its input differs from the ROADMAP's, if it does."""

    key: str
    op: Op
    note: str = ""


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path.name


def parsed(stdout: bytes):
    """The JSON a CLI command printed, or None when it printed none."""
    try:
        return json.loads(stdout.decode("utf-8"))
    except ValueError:
        return None
