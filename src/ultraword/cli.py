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
from .decode import DecodeError, typed
from .errors import DomainError
from .hyperreal import (
    realism_relation,
    st_extended,
    st_set,
    subparticle_to_json,
    universe_from_json,
)
from .language import paradigm_from_json
from .numerics import Rational, parse_rational
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

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4

_RANGE_RE = re.compile(r"\A(-?\d+)(?:\.\.(-?\d+))?\Z")


class UsageFailure(Exception):
    """Flag or config errors detected outside argparse's own parse."""


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


_INTEGER_TYPES = (int, _positive_int, _natural_int)


def _rational_arg(text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_arg(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"must be LO..HI or a single integer, got {text!r}"
        )
    lo = int(match.group(1))
    return lo, int(match.group(2) or lo)


def _csv_list(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _log(level: str, message: str) -> None:
    """One stderr line, shown when ULTRAWORD_LOG is ``level`` or debug."""
    if os.environ.get("ULTRAWORD_LOG", "").lower() in ("debug", level.lower()):
        print(f"{level} ultraword: {message}", file=sys.stderr)


def _read(path: str, builder):
    """Build an input file's object; any ValueError is the file's parse error."""
    _log("DEBUG", f"loading {path}")
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    try:
        return builder(raw)
    except ValueError as exc:
        raise DecodeError(path, str(exc)) from exc


def _config_defaults(actions, config: dict, paths) -> dict:
    """Config values for the optional value flags among ``actions`` that do
    not name files (``paths``), each checked by its flag's own type and
    choices. Other keys are ignored, since one config file serves every
    command."""
    defaults = {}
    for action in actions:
        name = action.dest
        if (name not in config or not action.option_strings or action.required
                or action.nargs == 0 or name in paths):
            continue
        value = config[name]
        integer = action.type in _INTEGER_TYPES
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, str)):
            expected = "an integer" if integer else "a string or an integer"
            raise UsageFailure(f"config {name!r} must be {expected}, got {value!r}")
        try:
            value = action.type(str(value)) if action.type else str(value)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageFailure(f"config {name!r} {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageFailure(f"config {name!r} must be one of {action.choices}, got {value!r}")
        defaults[name] = value
    return defaults


def _to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _i_range(kind: IntervalKind, i: tuple[int, int] | None) -> tuple[int, int]:
    if i is not None:
        return i
    if kind.lo is None or kind.hi is None:
        raise UsageFailure("--i LO..HI is required for unbounded interval kinds")
    return kind.lo, kind.hi


def cmd_points(args: argparse.Namespace) -> str:
    try:
        scheme = PartitionScheme.of(args.q, args.K, args.m, args.b)
    except ValueError as exc:
        raise UsageFailure(str(exc)) from None
    rows = scheme.window(*_i_range(scheme.kind, args.i), args.j_max)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["i", "j", "t"])
        for idx, t in rows:
            writer.writerow([idx.i, idx.j, str(t)])
        return buffer.getvalue()
    return _to_json([{"i": idx.i, "j": idx.j, "t": str(t)} for idx, t in rows])


def cmd_paradigm(args: argparse.Namespace) -> str:
    dp = args.spec
    listing = [
        {
            "i": idx.i,
            "j": idx.j,
            "t": str(segment.time_id),
            "body": str(segment.body),
            "clause": segment.naming_clause,
        }
        for idx, segment in dp.window(*_i_range(dp.scheme.kind, args.i), args.j_max)
    ]
    return _to_json(listing)


def _build_bounds(args: argparse.Namespace) -> TruncationBounds:
    kind = args.spec.scheme.kind
    m = kind.m if args.m is None else args.m
    # --m fills the kind's first unbounded end and --p its second.
    for flag, value in zip(("--m", "--p")[: (kind.lo, kind.hi).count(None)], (m, args.p)):
        if value is None:
            raise UsageFailure(f"{flag} is required for this interval kind")
    return TruncationBounds(kind, m, args.n, args.p)


def cmd_ultraword(args: argparse.Namespace) -> str:
    bounds = _build_bounds(args)
    word = ultraword(args.spec, bounds)
    payload = {
        "atoms": window_rows(args.spec, bounds),
        "size": len(word.conjuncts),
        "text": word.text,
    }
    if args.label:
        payload["label"] = args.label
    return _to_json(payload)


def cmd_closure(args: argparse.Namespace) -> str:
    result = closure(args.rules, args.premises)
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
    word = ultraword(args.spec, _build_bounds(args))
    parts = decompose(word, args.axioms, args.mode)
    return _to_json(
        {
            "mode": args.mode,
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
    if args.X is not None:
        if args.theory:
            raise UsageFailure("--X and --theory are mutually exclusive")
        signature = behavior_signature(args.context, args.X)
        rules = [
            {"premises": sorted(t[:-1]), "conclusion": t[-1]}
            for t in sorted(signature.tuples)
        ]
        return _to_json(rules)
    return _to_json(theory_signature(args.context).to_json())


def cmd_converse(args: argparse.Namespace) -> str:
    observations, language = args.observations
    system = converse_ri(observations, language)
    payload: dict = {"rules": system.to_json()["rules"]}
    if args.premises is not None:
        verdict = separate_vs_union(observations, args.premises, language)
        payload["separate"] = sorted(verdict.separate)
        payload["union"] = sorted(verdict.union)
        payload["equal"] = verdict.equal
    return _to_json(payload)


def cmd_st(args: argparse.Namespace) -> str:
    ops = {"st": st_set, "extended": st_extended, "realism": realism_relation}
    encoded = sorted(
        (subparticle_to_json(rep) for rep in ops[args.op](args.input.members)),
        key=lambda entry: json.dumps(entry, sort_keys=True),
    )
    return _to_json({"arity": args.input.arity, "members": encoded})


def cmd_check(args: argparse.Namespace) -> str:
    if args.rules is not None:
        system = args.rules
        operator = lambda X: closure(system, X).closure  # noqa: E731
        universe = system.language
        name = "closure"
    else:
        operator = args.sp.extended_operator()
        universe = args.sp.members
        name = "st-extended"
    report = check_consequence_axioms(
        operator, universe, samples=args.samples, seed=args.seed
    )
    return _to_json(
        {
            "operator": name,
            "universe_size": report.universe_size,
            "mode": "exhaustive" if report.exhaustive else "sampled",
            "checked": report.checked,
            "passed": report.passed,
            "seed": args.seed,
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

    def add_truncation(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spec", required=True, help="paradigm JSON file")
        sub.add_argument("--m", type=int)
        sub.add_argument("--p", type=int)
        sub.add_argument("--n", type=_natural_int, default=0)

    points = add("points", cmd_points, "enumerate partition points")
    points.add_argument("--q", type=int, choices=(1, 2, 3, 4), required=True)
    points.add_argument("--K", type=_positive_int, default=1)
    points.add_argument("--b", type=_rational_arg, help="right endpoint (kind 1)")
    points.add_argument("--m", type=_positive_int, help="subinterval count (kind 1)")
    points.add_argument("--i", type=_range_arg, help="subinterval range LO..HI")
    points.add_argument("--j-max", dest="j_max", type=_natural_int, default=0)
    points.add_argument("--format", choices=("json", "csv"), default="json")

    paradigm = add("paradigm", cmd_paradigm, "list a paradigm window in order")
    paradigm.add_argument("--spec", required=True, help="paradigm JSON file")
    paradigm.add_argument("--i", type=_range_arg)
    paradigm.add_argument("--j-max", dest="j_max", type=_natural_int, default=0)

    word = add("ultraword", cmd_ultraword, "conjunction word for a truncation")
    add_truncation(word)
    word.add_argument("--label", help="display name of the intended infinite index")

    close = add("closure", cmd_closure, "fixpoint closure of premises")
    close.add_argument("--rules", required=True, help="rule system JSON file")
    close.add_argument(
        "--premises", type=_csv_list, default=(), help="comma-separated premise sentences"
    )

    decomp = add("decompose", cmd_decompose, "decompose a truncation word's closure")
    add_truncation(decomp)
    decomp.add_argument(
        "--mode", choices=("canonical", "permutational"), default="canonical"
    )
    decomp.add_argument(
        "--axioms", type=_csv_list, default=(), help="comma-separated axiom sentences"
    )

    signature = add("signature", cmd_signature, "behavior or theory signature")
    signature.add_argument("--context", required=True, help="perceived-context JSON")
    signature.add_argument(
        "--X", type=_csv_list, help="comma-separated source set (behavior mode)"
    )
    signature.add_argument(
        "--theory", action="store_true", help="emit the theory signature (default)"
    )

    converse = add("converse", cmd_converse, "rules extracted from observations")
    converse.add_argument("--observations", required=True)
    converse.add_argument(
        "--premises", type=_csv_list, help="compare separate vs union closures"
    )

    st = add("st", cmd_st, "standard parts of a subparticle file")
    st.add_argument("--input", required=True)
    st.add_argument("--op", choices=("st", "extended", "realism"), default="st")

    check = add("check", cmd_check, "consequence-operator axiom report")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--rules", help="check the closure operator of a rule file")
    group.add_argument("--sp", help="check the extended standard part of a subparticle file")
    check.add_argument("--samples", type=_positive_int, default=200)
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Input-file flags and the builders that turn each file into its object.
    files = {
        "spec": paradigm_from_json,
        "rules": LogicSystem.from_json,
        "context": PerceivedContext.from_json,
        "observations": observations_from_json,
        "input": universe_from_json,
        "sp": universe_from_json,
    }
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            config = _read(args.config, lambda doc: typed(doc, dict, ""))
            sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
            sub.set_defaults(**_config_defaults(sub._actions, config, {"output", *files}))
            args = parser.parse_args(argv)
        _log("INFO", f"running {args.command}")
        for name, builder in files.items():
            path = getattr(args, name, None)
            if path is not None:
                setattr(args, name, _read(path, builder))
        payload = args.handler(args)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    except UsageFailure as exc:
        print(f"ultraword: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DecodeError as exc:
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
