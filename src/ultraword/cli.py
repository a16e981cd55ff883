"""Command-line front end binding every module to files and streams.

Output is deterministic: JSON objects are emitted with sorted keys and every
set-valued field is sorted canonically, so repeated invocations on the same
inputs are byte-identical. Exit codes: 0 success, 2 usage, 3 parse or I/O
failure, 4 domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import re
import sys

from .consequence import (
    DEFAULT_SEED,
    LogicSystem,
    check_consequence_axioms,
    closure,
    decompose,
)
from .errors import DomainError
from .hyperreal import (
    realism_relation,
    st_extended,
    st_set,
    subparticle_to_json,
    universe_from_json,
)
from .language import paradigm_from_json
from .numerics import parse_rational
from .paradigm import TruncationBounds, ultraword, window_rows
from .signatures import (
    PerceivedContext,
    behavior_signature,
    converse_ri,
    observations_from_json,
    separate_vs_union,
    theory_signature,
)
from .timeline import IntervalKind, PartitionScheme

log = logging.getLogger("ultraword")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

_RANGE_RE = re.compile(r"\A(-?\d+)(?:\.\.(-?\d+))?\Z")


class UsageFailure(Exception):
    """Flag combination errors detected after argparse."""


class ParseFailure(Exception):
    """Input files that do not parse or do not match their schema."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _natural_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {text}")
    return value


def _rational_arg(text: str) -> str:
    try:
        parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _range_arg(text: str) -> str:
    if not _RANGE_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"must be LO..HI or a single integer, got {text!r}"
        )
    return text


def _as_range(value: str) -> tuple[int, int]:
    match = _RANGE_RE.match(str(value))
    if not match:
        raise UsageFailure(f"bad index range {value!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    return lo, hi

def _csv_list(value: str) -> list[str]:
    return [item for item in str(value).split(",") if item]


def _opt(args: argparse.Namespace, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config", None) or {}
    if name in config:
        return config[name]
    return default


def _int_opt(args: argparse.Namespace, name: str, check=int, default=None):
    """An integer option. A config value must be a JSON integer and passes
    the flag's own validator, so it is never truncated or coerced."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config", None) or {}
    if name not in config:
        return default
    value = config[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageFailure(f"config {name!r} must be an integer, got {value!r}")
    try:
        return check(str(value))
    except argparse.ArgumentTypeError as exc:
        raise UsageFailure(f"config {name!r} {exc}") from None


def _load_json(path: str):
    log.debug("loading %s", path)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _interpret(builder, raw, what: str):
    try:
        return builder(raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseFailure(f"{what}: {exc}") from exc


def _to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _emit(args: argparse.Namespace, payload: str) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _build_scheme(args: argparse.Namespace) -> PartitionScheme:
    try:
        return PartitionScheme.of(
            args.q, _opt(args, "K", 1), _opt(args, "m"), _opt(args, "b")
        )
    except ValueError as exc:
        raise UsageFailure(str(exc)) from None


def _default_i_range(kind: IntervalKind, args: argparse.Namespace) -> tuple[int, int]:
    raw = _opt(args, "i")
    if raw is not None:
        return _as_range(raw)
    if kind.lo is None or kind.hi is None:
        raise UsageFailure("--i LO..HI is required for unbounded interval kinds")
    return kind.lo, kind.hi


def cmd_points(args: argparse.Namespace) -> str:
    scheme = _build_scheme(args)
    i_lo, i_hi = _default_i_range(scheme.kind, args)
    j_max = _int_opt(args, "j_max", _natural_int, 0)
    rows = scheme.window(i_lo, i_hi, j_max)
    fmt = _opt(args, "format", "json")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["i", "j", "t"])
        for idx, t in rows:
            writer.writerow([idx.i, idx.j, str(t)])
        return buffer.getvalue()
    if fmt != "json":
        raise UsageFailure(f"--format must be json or csv, got {fmt!r}")
    return _to_json([{"i": idx.i, "j": idx.j, "t": str(t)} for idx, t in rows])


def cmd_paradigm(args: argparse.Namespace) -> str:
    dp = _interpret(paradigm_from_json, _load_json(args.spec), args.spec)
    i_lo, i_hi = _default_i_range(dp.scheme.kind, args)
    j_max = _int_opt(args, "j_max", _natural_int, 0)
    listing = [
        {
            "i": idx.i,
            "j": idx.j,
            "t": str(segment.time_id),
            "body": str(segment.body),
            "clause": segment.naming_clause,
        }
        for idx, segment in dp.window(i_lo, i_hi, j_max)
    ]
    return _to_json(listing)


def _build_bounds(dp, args: argparse.Namespace) -> TruncationBounds:
    kind = dp.scheme.kind
    m, p = _int_opt(args, "m", default=kind.m), _int_opt(args, "p")
    # --m fills the kind's first unbounded end and --p its second.
    for flag, value in zip(("--m", "--p")[: (kind.lo, kind.hi).count(None)], (m, p)):
        if value is None:
            raise UsageFailure(f"{flag} is required for this interval kind")
    return TruncationBounds(
        kind, m, _int_opt(args, "n", _natural_int, 0), p, _opt(args, "label")
    )


def cmd_ultraword(args: argparse.Namespace) -> str:
    dp = _interpret(paradigm_from_json, _load_json(args.spec), args.spec)
    bounds = _build_bounds(dp, args)
    word = ultraword(dp, bounds)
    payload = {
        "atoms": window_rows(dp, bounds),
        "size": len(word.conjuncts),
        "text": word.text,
    }
    if bounds.label:
        payload["label"] = bounds.label
    return _to_json(payload)


def cmd_closure(args: argparse.Namespace) -> str:
    system = _interpret(LogicSystem.from_json, _load_json(args.rules), args.rules)
    premises = _csv_list(_opt(args, "premises", ""))
    result = closure(system, premises)
    return _to_json(
        {
            "closure": sorted(result.closure),
            "derivation": [
                {"premises": sorted(rule.premises), "conclusion": rule.conclusion}
                for rule in result.derivation_order
            ],
        }
    )


def cmd_decompose(args: argparse.Namespace) -> str:
    dp = _interpret(paradigm_from_json, _load_json(args.spec), args.spec)
    bounds = _build_bounds(dp, args)
    mode = _opt(args, "mode", "canonical")
    word = ultraword(dp, bounds)
    parts = decompose(word, _csv_list(_opt(args, "axioms", "")), mode)
    return _to_json(
        {
            "mode": mode,
            "cardinalities": parts.cardinalities(),
            "axioms": sorted(parts.axioms),
            "atoms": sorted(atom.naming_clause for atom in parts.atoms),
            "conjunctions": sorted(
                ([str(t) for t in w.time_ids] for w in parts.conjunctions),
                key=lambda ids: (len(ids), ids),
            ),
        }
    )


def cmd_signature(args: argparse.Namespace) -> str:
    ctx = _interpret(PerceivedContext.from_json, _load_json(args.context), args.context)
    source = _opt(args, "X")
    if source is not None:
        if args.theory:
            raise UsageFailure("--X and --theory are mutually exclusive")
        signature = behavior_signature(ctx, _csv_list(source))
        rules = [
            {"premises": sorted(t[:-1]), "conclusion": t[-1]}
            for t in sorted(signature.tuples)
        ]
        return _to_json(rules)
    return _to_json(theory_signature(ctx).to_json())


def cmd_converse(args: argparse.Namespace) -> str:
    observations, language = _interpret(
        observations_from_json, _load_json(args.observations), args.observations
    )
    system = converse_ri(observations, language)
    payload: dict = {"rules": system.to_json()["rules"]}
    premises = _opt(args, "premises")
    if premises is not None:
        verdict = separate_vs_union(observations, _csv_list(premises), language)
        payload["separate"] = sorted(verdict.separate)
        payload["union"] = sorted(verdict.union)
        payload["equal"] = verdict.equal
    return _to_json(payload)


def cmd_st(args: argparse.Namespace) -> str:
    universe = _interpret(universe_from_json, _load_json(args.input), args.input)
    op = _opt(args, "op", "st")
    if op == "st":
        members = st_set(universe.members)
    elif op == "extended":
        members = st_extended(universe.members)
    elif op == "realism":
        members = realism_relation(universe.members)
    else:
        raise UsageFailure(f"--op must be st, extended, or realism, got {op!r}")
    encoded = sorted(
        (subparticle_to_json(rep) for rep in members),
        key=lambda entry: json.dumps(entry, sort_keys=True),
    )
    return _to_json({"arity": universe.arity, "members": encoded})


def cmd_check(args: argparse.Namespace) -> str:
    samples = _int_opt(args, "samples", _positive_int, 200)
    seed = _int_opt(args, "seed", default=DEFAULT_SEED)
    if args.rules:
        system = _interpret(LogicSystem.from_json, _load_json(args.rules), args.rules)
        operator = lambda X: closure(system, X).closure  # noqa: E731
        universe = system.language
        name = "closure"
    else:
        sp = _interpret(universe_from_json, _load_json(args.sp), args.sp)
        operator = sp.extended_operator()
        universe = sp.members
        name = "st-extended"
    report = check_consequence_axioms(operator, universe, samples=samples, seed=seed)
    return _to_json(
        {
            "operator": name,
            "universe_size": report.universe_size,
            "mode": "exhaustive" if report.exhaustive else "sampled",
            "checked": report.checked,
            "passed": report.passed,
            "seed": seed,
            "violations": [
                {
                    "axiom": v.axiom,
                    "witness": sorted(str(x) for x in v.witness),
                    "detail": v.detail,
                }
                for v in report.violations
            ],
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraword",
        description=(
            "Exact-rational primitive-time partitions, ordered paradigms, "
            "conjunction-word consequence operators, logic-system signatures, "
            "and standard-part operators."
        ),
        epilog="Exit codes: 0 ok, 2 usage, 3 parse/io, 4 domain error.",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--output", "-o", help="write to a file instead of stdout")
        return sub

    points = add("points", cmd_points, "enumerate partition points")
    points.add_argument("--q", type=int, choices=(1, 2, 3, 4), required=True)
    points.add_argument("--K", type=_positive_int)
    points.add_argument("--b", type=_rational_arg, help="right endpoint (kind 1)")
    points.add_argument("--m", type=_positive_int, help="subinterval count (kind 1)")
    points.add_argument("--i", type=_range_arg, help="subinterval range LO..HI")
    points.add_argument("--j-max", dest="j_max", type=_natural_int)
    points.add_argument("--format", choices=("json", "csv"))

    paradigm = add("paradigm", cmd_paradigm, "list a paradigm window in order")
    paradigm.add_argument("--spec", required=True, help="paradigm JSON file")
    paradigm.add_argument("--i", type=_range_arg)
    paradigm.add_argument("--j-max", dest="j_max", type=_natural_int)

    word = add("ultraword", cmd_ultraword, "conjunction word for a truncation")
    word.add_argument("--spec", required=True)
    word.add_argument("--m", type=int)
    word.add_argument("--p", type=int)
    word.add_argument("--n", type=_natural_int)
    word.add_argument("--label", help="display name of the intended infinite index")

    close = add("closure", cmd_closure, "fixpoint closure of premises")
    close.add_argument("--rules", required=True, help="rule system JSON file")
    close.add_argument("--premises", help="comma-separated premise sentences")

    decomp = add("decompose", cmd_decompose, "decompose a truncation word's closure")
    decomp.add_argument("--spec", required=True)
    decomp.add_argument("--m", type=int)
    decomp.add_argument("--p", type=int)
    decomp.add_argument("--n", type=_natural_int)
    decomp.add_argument("--mode", choices=("canonical", "permutational"))
    decomp.add_argument("--axioms", help="comma-separated axiom sentences")

    signature = add("signature", cmd_signature, "behavior or theory signature")
    signature.add_argument("--context", required=True, help="perceived-context JSON")
    signature.add_argument("--X", help="comma-separated source set (behavior mode)")
    signature.add_argument(
        "--theory", action="store_true", help="emit the theory signature (default)"
    )

    converse = add("converse", cmd_converse, "rules extracted from observations")
    converse.add_argument("--observations", required=True)
    converse.add_argument("--premises", help="compare separate vs union closures")

    st = add("st", cmd_st, "standard parts of a subparticle file")
    st.add_argument("--input", required=True)
    st.add_argument("--op", choices=("st", "extended", "realism"))

    check = add("check", cmd_check, "consequence-operator axiom report")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--rules", help="check the closure operator of a rule file")
    group.add_argument("--sp", help="check the extended standard part of a subparticle file")
    check.add_argument("--samples", type=_positive_int)
    check.add_argument("--seed", type=int)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("ULTRAWORD_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict = {}
    if args.config:
        try:
            config = _load_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"ultraword: cannot read config: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if not isinstance(config, dict):
            print("ultraword: config must be a JSON object", file=sys.stderr)
            return EXIT_PARSE
    args._config = config
    log.info("running %s", args.command)
    try:
        payload = args.handler(args)
    except UsageFailure as exc:
        print(f"ultraword: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseFailure as exc:
        print(f"ultraword: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ultraword: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        print(f"ultraword: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(args, payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
