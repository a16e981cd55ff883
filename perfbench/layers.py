"""Per-layer metrics: their names and units, and their values from spans.

Per-pass values (self times, counts) are totals over one traced pass. Curve
values (``.ms.<size>``) are the median duration of one call at that size,
from the traced passes and the traced ROADMAP rows. A layer that a workload
does not exercise reads 0 there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from tracer import MODULES
from workloads import signature_dense, words_exact

# ROADMAP item 2 table: key -> (case, ROADMAP figure in seconds).
ROADMAP = {
    "signature_check_n12": ("signature_operator_check, 12 perceived sentences", 2.30),
    "axioms_n12": ("check_consequence_axioms, exhaustive, n = 12", 0.17),
    "embedding_p800": ("verify_order_embedding, 800 points", 0.27),
    "decompose_permutational_a8": (
        "decompose --mode permutational, 8 atoms (109,600 words)",
        0.70,
    ),
    "decompose_canonical_a16": ("decompose canonical, 16 atoms", 0.49),
    "closure_chain": ("closure on a 3,000-rule reverse chain", 0.20),
    "is_paradigm_h500": ("is_paradigm, horizon 500", 0.15),
    "cli_subprocess": ("CLI subprocess call", 0.070),
}

SIGNATURE_SIZES = (8, 9, 10, 11, 12)


def spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []

    def ms(name: str) -> None:
        out.append((name, "ms"))

    def count(name: str) -> None:
        out.append((name, "count"))

    for module in MODULES:
        ms(f"{module}.self_ms")
    ms("cli.main_ms")
    ms("cli.parser_ms")
    ms("cli.import_ms")
    ms("cli.interp_ms")
    count("numerics.calls")
    ms("timeline.window.self_ms")
    count("timeline.window.points")
    for points in words_exact.EMBEDDINGS:
        ms(f"timeline.embedding.ms.p{points}")
    count("language.segments")
    for h in words_exact.HORIZONS:
        ms(f"paradigm.is_paradigm.ms.h{h}")
    ms("paradigm.ultraword.ms")
    ms("paradigm.window_rows.ms")
    count("paradigm.known_defects")
    ms("consequence.closure.self_ms")
    for key in ("calls", "fired", "rules"):
        count(f"consequence.closure.{key}")
    for n in signature_dense.AXIOM_SIZES:
        ms(f"consequence.axioms.ms.n{n}")
    count("consequence.axioms.subsets")
    count("consequence.axioms.op_calls")
    for mode, sizes in (
        ("canonical", words_exact.CANONICAL),
        ("permutational", words_exact.PERMUTATIONAL),
    ):
        for atoms in sizes:
            ms(f"consequence.decompose.ms.{mode}.a{atoms}")
    count("consequence.decompose.words")
    for n in SIGNATURE_SIZES:
        ms(f"signatures.theory.ms.n{n}")
        count(f"signatures.theory.tuples.n{n}")
        ms(f"signatures.check.ms.n{n}")
    ms("signatures.converse.ms")
    ms("hyperreal.st_set.ms")
    ms("hyperreal.realism.ms")
    count("hyperreal.members")
    for u in signature_dense.UNIVERSES:
        ms(f"hyperreal.axioms.ms.u{u}")
    count("hyperreal.axioms.subsets")
    count("hyperreal.axioms.op_calls")
    out.append(("trace.pass_s", "s"))
    out.append(("trace.untraced_pass_s", "s"))
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.self_sum_s", "s"))
    count("trace.spans")
    for key in ROADMAP:
        out.append((f"roadmap.{key}_s", "s"))
    for module in MODULES:
        out.append((f"{module}.lines", "lines"))
    out.append(("src.lines", "lines"))
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Spans:
    """Span totals of one or more tracers."""

    def __init__(self, tracers):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.by_name: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.total = 0
        for tracer in tracers:
            for name, tag, duration, own in tracer.spans():
                self.self_s[name] += own
                self.calls[name] += 1
                self.by_name[name].append(duration)
                if tag:
                    self.durations[(name, tag)].append(duration)
                self.total += 1
            for key, value in tracer.counts.items():
                self.counts[key] += value

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def median_ms(self, name: str, tag: str | None = None) -> float:
        values = self.by_name.get(name, []) if tag is None else self.durations.get((name, tag), [])
        return _median(values) * 1e3


def values(passes: Spans, curves: Spans, traced: int, extra: dict[str, float], src: Path) -> dict:
    """Per-layer metric values; ``passes`` holds ``traced`` traced passes,
    ``curves`` those passes plus the traced ROADMAP rows."""
    per = 1.0 / traced
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_ms"] = passes.module_self(module) * per * 1e3
    mains = passes.calls.get("cli.main", 0)
    parse = sum(passes.by_name.get("cli.build_parser", [])) + sum(
        passes.by_name.get("cli.parse_args", [])
    )
    out["cli.main_ms"] = passes.median_ms("cli.main")
    out["cli.parser_ms"] = parse / mains * 1e3 if mains else 0.0
    out["numerics.calls"] = sum(
        v for k, v in passes.calls.items() if k.startswith("numerics.")
    ) * per
    window = passes.self_s.get("timeline.PartitionScheme.window", 0.0)
    out["timeline.window.self_ms"] = window * per * 1e3
    out["timeline.window.points"] = passes.counts.get("timeline.window.points", 0) * per
    for points in words_exact.EMBEDDINGS:
        out[f"timeline.embedding.ms.p{points}"] = curves.median_ms(
            "timeline.verify_order_embedding", f"p{points}"
        )
    out["language.segments"] = passes.counts.get("language.segments", 0) * per
    for h in words_exact.HORIZONS:
        out[f"paradigm.is_paradigm.ms.h{h}"] = curves.median_ms("paradigm.is_paradigm", f"h{h}")
    out["paradigm.ultraword.ms"] = passes.median_ms("paradigm.ultraword")
    out["paradigm.window_rows.ms"] = passes.median_ms("paradigm.window_rows")
    out["consequence.closure.self_ms"] = passes.self_s.get("consequence.closure", 0.0) * per * 1e3
    for key in ("calls", "fired", "rules"):
        name = f"consequence.closure.{key}"
        out[name] = passes.counts.get(name, 0) * per
    axioms = "consequence.check_consequence_axioms"
    for n in signature_dense.AXIOM_SIZES:
        out[f"consequence.axioms.ms.n{n}"] = curves.median_ms(axioms, f"n{n}")
    for family in ("consequence.axioms", "hyperreal.axioms"):
        for key in ("subsets", "op_calls"):
            out[f"{family}.{key}"] = passes.counts.get(f"{family}.{key}", 0) * per
    for mode, sizes in (
        ("canonical", words_exact.CANONICAL),
        ("permutational", words_exact.PERMUTATIONAL),
    ):
        for atoms in sizes:
            out[f"consequence.decompose.ms.{mode}.a{atoms}"] = curves.median_ms(
                "consequence.decompose", f"{mode}.a{atoms}"
            )
    out["consequence.decompose.words"] = passes.counts.get("consequence.decompose.words", 0) * per
    for n in SIGNATURE_SIZES:
        tag = f"n{n}"
        calls = len(curves.durations.get(("signatures.theory_signature", tag), []))
        tuples = curves.counts.get(f"signatures.theory.tuples.{tag}", 0)
        out[f"signatures.theory.ms.{tag}"] = curves.median_ms("signatures.theory_signature", tag)
        out[f"signatures.theory.tuples.{tag}"] = tuples / calls if calls else 0
        out[f"signatures.check.ms.{tag}"] = curves.median_ms(
            "signatures.signature_operator_check", tag
        )
    out["signatures.converse.ms"] = passes.median_ms("signatures.converse_ri")
    out["hyperreal.st_set.ms"] = passes.median_ms("hyperreal.st_set")
    out["hyperreal.realism.ms"] = passes.median_ms("hyperreal.realism_relation")
    out["hyperreal.members"] = passes.counts.get("hyperreal.members", 0) * per
    for u in signature_dense.UNIVERSES:
        out[f"hyperreal.axioms.ms.u{u}"] = curves.median_ms(axioms, f"u{u}")
    out["trace.spans"] = passes.total * per
    out["trace.self_sum_s"] = sum(passes.self_s.values()) * per
    for module in MODULES:
        out[f"{module}.lines"] = _lines(src / "ultraword" / f"{module}.py")
    out["src.lines"] = sum(_lines(p) for p in sorted((src / "ultraword").glob("*.py")))
    out.update(extra)
    return out


def _lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)
