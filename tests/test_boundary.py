"""Boundary fuzzing: each fixture file, mutated once, through the golden
command that reads it.

A mutation swaps one JSON node for a value of another JSON type, drops one
key or adds an unknown one. Every run must end in a documented exit code
without a traceback, and a file that README's *File formats* section forbids
must exit 3. The schemas below restate that section independently of
``ultraword.decode``.
"""

import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given

from ultraword.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "cli_fixtures.json"
GOLDEN_ARGVS = [entry["argv"] for entry in json.loads(GOLDEN.read_text("utf-8"))]
REPLACEMENTS = ["x", "", ["x"], [], 0, 7, -1, 1.5, True, False, None]


def is_int(value) -> bool:
    return type(value) is int


def is_str(value) -> bool:
    return type(value) is str


def is_texts(value) -> bool:
    return type(value) is list and all(map(is_str, value))


def is_rational(value) -> bool:
    return is_int(value) or (
        is_str(value) and re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", value) is not None
    )


def has_keys(value, required, optional=()) -> bool:
    """An object with every required key, no unknown key and no null."""
    return (
        type(value) is dict
        and set(required) <= value.keys() <= set(required) | set(optional)
        and None not in value.values()
    )


def is_rules(value) -> bool:
    return type(value) is list and all(
        has_keys(rule, ("premises", "conclusion"))
        and is_texts(rule["premises"])
        and is_str(rule["conclusion"])
        for rule in value
    )


def is_rule_file(doc) -> bool:
    return (
        has_keys(doc, ("language", "rules"))
        and is_texts(doc["language"])
        and is_rules(doc["rules"])
    )


def is_context(doc) -> bool:
    return (
        has_keys(doc, ("language", "perceived", "rules"), ("tag",))
        and is_texts(doc["language"])
        and is_texts(doc["perceived"])
        and is_rules(doc["rules"])
        and is_str(doc.get("tag", ""))
    )


def is_entries(value) -> bool:
    return type(value) is list and all(
        has_keys(entry, ("X", "Xprime")) and is_texts(entry["X"]) and is_texts(entry["Xprime"])
        for entry in value
    )


def is_observations(doc) -> bool:
    return is_entries(doc) or (
        has_keys(doc, ("observations",), ("language",))
        and is_entries(doc["observations"])
        and is_texts(doc.get("language", []))
    )


def is_spec(doc) -> bool:
    if not has_keys(doc, ("q", "K"), ("m", "b", "mode", "bodies")):
        return False
    bodies = doc.get("bodies", "")
    return (
        is_int(doc["q"])
        and is_int(doc["K"])
        and is_int(doc.get("m", 0))
        and is_rational(doc.get("b", 0))
        and is_str(doc.get("mode", ""))
        and (is_str(bodies) or (is_texts(bodies) and bodies != []))
    )


def is_hypernatural(value) -> bool:
    return is_int(value) or (
        has_keys(value, ("inf",), ("offset",))
        and is_str(value["inf"])
        and is_int(value.get("offset", 0))
    )


def is_series(value) -> bool:
    return is_rational(value) or (
        type(value) is list
        and all(
            type(term) is list and len(term) == 2 and is_int(term[0]) and is_rational(term[1])
            for term in value
        )
    )


def is_universe(doc) -> bool:
    return (
        has_keys(doc, ("arity", "members"))
        and is_int(doc["arity"])
        and type(doc["members"]) is list
        and all(
            type(member) is list
            and len(member) >= 3
            and all(map(is_hypernatural, member[:2]))
            and all(map(is_series, member[2:]))
            for member in doc["members"]
        )
    )


SCHEMAS = {
    "config.json": lambda doc: type(doc) is dict,
    "context.json": is_context,
    "observations.json": is_observations,
    "paradigm_q1.json": is_spec,
    "paradigm_q2.json": is_spec,
    "paradigm_q4.json": is_spec,
    "rules.json": is_rule_file,
    "subparticles.json": is_universe,
}


def golden_argv(name: str) -> list[str]:
    """The golden command that reads ``name``; the other specs stand in for
    the one the paradigm command reads."""
    for argv in GOLDEN_ARGVS:
        if name in argv:
            return argv
    argv = next(argv for argv in GOLDEN_ARGVS if argv[0] == "paradigm")
    return [name if arg == "paradigm_q1.json" else arg for arg in argv]


def nodes(doc, path=()):
    yield path, doc
    children = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    doc = json.loads((FIXTURES / name).read_text("utf-8"))
    kind = draw(st.sampled_from(["swap", "drop", "add"]))
    if kind == "swap":
        path, node = draw(st.sampled_from(list(nodes(doc))))
        value = draw(st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(node)]))
        if type(node) is int and type(value) is float:
            value = float(node)  # 2 -> 2.0, the float that looks most like an int
    else:
        objects = [(p, n) for p, n in nodes(doc) if type(n) is dict and (n or kind == "add")]
        path, node = draw(st.sampled_from(objects))
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else parent
    if kind == "swap":
        if not path:
            return name, value
        parent[path[-1]] = value
    elif kind == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        target["unknown_key"] = 1
    return name, mutated


@given(mutated_fixtures())
def test_one_mutation_exits_cleanly(case):
    name, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc), "utf-8")
        argv = [str(path) if arg == name else arg for arg in golden_argv(name)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if not SCHEMAS[name](doc):
        assert code == 3, (doc, err.getvalue())
        assert "parse error" in err.getvalue()
