"""The ultraword benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``. The
seed generates the workload's inputs; the library sees only those. Every
output is checked, against a value computed without ultraword or against
a frozen CLI output, and a wrong output, a wrong exit code or an exception
is a failed operation.

With ``--trace 0`` the run measures, with no tracing:

- ``setup_s``: median over fresh interpreters of ``import ultraword`` plus
  the workload's JSON-to-object library calls;
- ``pass_s``: median time of one pass over the fixed operation list, checks
  excluded;
- ``op_p50_ms``, ``op_tail_ms``: per-operation latency. Each operation of
  the list gets its median latency over all passes; the metrics are the p50
  and the p95 of those medians over the list;
- ``cold_p50_ms``, ``cold_tail_ms``: ``python -m ultraword`` subprocesses
  of the workload's CLI commands, one at a time, interpreter start included.
  The p50 is the median over commands of each command's median; the tail is
  the p75 of all subprocess times;
- ``peak_mb``: tracemalloc peak of one untimed pass, after an untimed
  warm-up pass, with garbage collected before each operation.

Passes and subprocesses alternate in blocks of at least BLOCK_S for
``--seconds``; the first subprocess of each block is an untimed warm-up. With
``--trace 1`` the run alternates untraced and traced passes, redoes the
ROADMAP item 2 table, and reports the per-layer metrics of ``layers.py``.

The last line of stdout is the JSON result; the lines before it repeat each
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(HERE))

SETUP_REPS = 7
PROBE_REPS = 7
MIN_PASSES = 3
MIN_COLD = 60
BLOCK_S = 1.0
# Fixed percentiles, so that what is reported does not change with the
# sample count. The operation tail is taken over per-operation medians, as
# on a shared machine the raw samples' tail measures the neighbours.
OP_TAIL_PCT = 95
COLD_TAIL_PCT = 75
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120
# Spans kept in memory by one traced run, 24 bytes each.
MAX_SPANS = 4_000_000


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{label}: {detail or 'wrong output'}")


def run_op(op, tally: Tally, tracer=None) -> float | None:
    """Time one operation and check its output; None when it failed. A
    tracer, if given, is installed for the operation and not for its check."""
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        tally.record(op.label, False, f"{type(exc).__name__}: {exc}"[:200])
        return None
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # a check that cannot read the output rejects it
        tally.record(op.label, False, f"check raised {type(exc).__name__}: {exc}"[:200])
        return None
    tally.record(op.label, ok)
    return elapsed if ok else None


def run_pass(ops, tally: Tally, per_op=None, families=None, tracer=None):
    """One pass over the operation list; returns the summed operation time.
    ``per_op``, if given, gets each operation's time at its list position."""
    gc.collect()
    total = 0.0
    for k, op in enumerate(ops):
        elapsed = run_op(op, tally, tracer)
        if elapsed is None:
            continue
        total += elapsed
        if per_op is not None:
            per_op[k].append(elapsed)
        if families is not None:
            families[op.family] = families.get(op.family, 0.0) + elapsed
    return total


def peak_pass(ops, tally: Tally) -> int:
    """Peak traced bytes of one pass. Garbage is collected before each
    operation, so the peak does not depend on when cyclic garbage left by an
    earlier operation happens to be freed."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            run_op(op, tally)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak


def child_env() -> dict[str, str]:
    """An absolute src path, so the child imports ultraword from any cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cold(command, tally: Tally, env) -> float | None:
    start = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ultraword", *command.argv],
            cwd=command.cwd,
            env=env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.record(command.label, False, "timed out")
        return None
    elapsed = perf_counter() - start
    ok = command.check(done.stdout, done.returncode)
    tally.record(command.label, ok, f"exit {done.returncode}")
    return elapsed if ok else None


def probe(args: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout)


def measure_setup(name: str, inputs: Path) -> list[float]:
    """Set-up times from fresh interpreters; the first one, which may compile
    bytecode, is discarded."""
    args = ["setup", str(SRC), name, str(inputs)]
    probe(args)
    times = []
    for _ in range(SETUP_REPS):
        out = probe(args)
        times.append(out["import_s"] + out["load_s"])
    return times


def percentile(samples, pct: float) -> float:
    """The ``pct`` percentile of ``samples`` by nearest rank."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(len(ordered) * pct / 100), 1) - 1]


def raw_tail(samples) -> tuple[float, float]:
    """(value, percentile) at the highest percentile of the raw samples that
    has at least TAIL_BEYOND samples beyond it; reported, not gated."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def interleave(ops, colds, share: float, seconds: float, tally: Tally, env):
    """Alternate blocks of passes and of subprocesses for ``seconds``, each
    block lasting at least BLOCK_S. A block of subprocesses comes when they
    have had less than ``share`` of the elapsed time, or fewer than their
    part of MIN_COLD so far, and its first subprocess, which runs after the
    passes left the caches cold, is checked but not timed. Then top up to
    the minimum sample counts. Returns the pass times, each operation's
    times, each command's subprocess times and each pass's family times."""
    passes, per_op, families = [], [[] for _ in ops], []
    cold = [[] for _ in colds]
    spent_cold = 0.0
    turn = 0

    def one_cold(timed: bool = True):
        nonlocal spent_cold, turn
        t0 = perf_counter()
        k = turn % len(colds)
        elapsed = run_cold(colds[k], tally, env)
        spent_cold += perf_counter() - t0
        turn += 1
        if elapsed is not None and timed:
            cold[k].append(elapsed)

    def cold_count() -> int:
        return sum(map(len, cold))

    def cold_due() -> bool:
        elapsed = perf_counter() - start
        return spent_cold < share * elapsed or cold_count() < MIN_COLD * elapsed / seconds

    def one_pass():
        mix: dict[str, float] = {}
        passes.append(run_pass(ops, tally, per_op, mix))
        families.append(mix)

    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        if cold_due():
            one_cold(timed=False)
            block_end = perf_counter() + BLOCK_S
            while perf_counter() < block_end or cold_due():
                one_cold()
        block_end = perf_counter() + BLOCK_S
        one_pass()
        while perf_counter() < min(block_end, deadline):
            one_pass()
    while cold_count() < MIN_COLD:
        one_cold()
    while len(passes) < MIN_PASSES:
        one_pass()
    return passes, per_op, cold, families


def run_defects(probes, tally: Tally) -> list[str]:
    """Known defects: an exception is reported, a wrong result is a failure."""
    found = []
    for op in probes:
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the defect being probed
            elapsed = perf_counter() - start
            found.append(f"{op.family} {op.label}: {type(exc).__name__} after {elapsed:.2f} s")
            continue
        tally.record(op.label, bool(op.check(out)))
    return found


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def emit(lines: list[str], tally: Tally, metrics: dict, kind: str) -> None:
    """Print the report lines and the JSON result with the metrics that
    BENCHMARK.json lists under ``kind``, in its order and units."""
    result = {}
    for entry in benchmark_spec()[kind]:
        result[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    for note in tally.notes:
        lines.append(f"# failed: {note}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": result,
            }
        )
    )


def machine() -> str:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def timed_run(name, workload, uw, docs, objs, inputs, workdir, seconds, tally, lines):
    env = child_env()
    phases = [("start", perf_counter())]
    setup = measure_setup(name, inputs)
    phases.append(("setup", perf_counter()))
    ops = workload.operations(uw, docs, objs)
    colds = workload.cold(docs, workdir, FIXTURES)
    phases.append(("expected outputs", perf_counter()))
    # The inputs and expected values live for the whole run; keep them out
    # of the collector's scans so they do not add to the library's GC cost.
    gc.freeze()
    run_pass(ops, tally)
    phases.append(("warm-up pass", perf_counter()))
    peak = peak_pass(ops, tally)
    phases.append(("peak pass", perf_counter()))
    passes, per_op, per_cold, families = interleave(
        ops, colds, workload.COLD_SHARE, seconds, tally, env
    )
    phases.append(("measured", perf_counter()))
    defects = run_defects(workload.defects(uw, docs, objs), tally)
    phases.append(("defect probes", perf_counter()))
    op_medians = [statistics.median(s) for s in per_op if s]
    cold = [x for s in per_cold for x in s]
    samples = sum(map(len, per_op))
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(op_medians) * 1e3,
        "op_tail_ms": percentile(op_medians, OP_TAIL_PCT) * 1e3,
        "cold_p50_ms": statistics.median(statistics.median(s) for s in per_cold if s) * 1e3,
        "cold_tail_ms": percentile(cold, COLD_TAIL_PCT) * 1e3,
        "peak_mb": peak / 1e6,
    }
    notes = {
        "setup_s": f"n={len(setup)} fresh interpreters",
        "pass_s": f"n={len(passes)} passes of {len(ops)} operations",
        "op_p50_ms": f"median of {len(op_medians)} operation medians, n={samples}",
        "op_tail_ms": f"p{OP_TAIL_PCT} of {len(op_medians)} operation medians, n={samples}",
        "cold_p50_ms": f"median of {len(colds)} command median(s), n={len(cold)}",
        "cold_tail_ms": f"p{COLD_TAIL_PCT}, n={len(cold)}",
        "peak_mb": "one untimed pass",
    }
    units = {entry["name"]: entry["unit"] for entry in benchmark_spec()["end_to_end"]}
    for key, value in metrics.items():
        lines.append(f"{key:14s} {value:12.4f} {units[key]:3s} {notes[key]}")
    for key, raw in (("op", [x for s in per_op for x in s]), ("cold", cold)):
        value, pct = raw_tail(raw)
        lines.append(f"# {key} raw tail: p{pct:.4g} {value * 1e3:.4f} ms, n={len(raw)}")
    lines.append(
        f"fail_ratio     {tally.failed}/{tally.attempted} failed operations, "
        f"known defects {len(defects)}"
    )
    for note in defects:
        lines.append(f"# known defect: {note}")
    lines.append(
        "# phases: "
        + ", ".join(f"{b[0]} {b[1] - a[1]:.1f} s" for a, b in zip(phases, phases[1:]))
    )
    mix = {k: statistics.median(m.get(k, 0.0) for m in families) for k in families[0]}
    total = sum(mix.values())
    lines.append(
        "# pass share: "
        + ", ".join(f"{k} {v / total:.0%}" for k, v in sorted(mix.items(), key=lambda kv: -kv[1]))
    )
    return metrics


def traced_run(name, workload, uw, docs, objs, workdir, seconds, tally, lines):
    import layers
    from tracer import Tracer, raised_recursion_limit

    env = child_env()
    ops = workload.operations(uw, docs, objs)
    gc.freeze()
    run_pass(ops, tally)
    tracer = Tracer(uw)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    with raised_recursion_limit():
        while not traced or perf_counter() < deadline and len(tracer.span_dur) < MAX_SPANS:
            plain.append(run_pass(ops, tally))
            traced.append(run_pass(ops, tally, tracer=tracer))
        rows_tracer = Tracer(uw)
        rows = {}
        for row in workload.rows(uw, docs, objs):
            elapsed = run_op(row.op, tally)
            run_op(row.op, tally, rows_tracer)
            rows[row.key] = (elapsed or 0.0, row.note)
    if name == "cli_fixtures":
        cold = [run_cold(c, tally, env) for c in workload.cold(docs, workdir, FIXTURES) * 3]
        rows["cli_subprocess"] = (statistics.median(x for x in cold if x is not None), "")
    defects = run_defects(workload.defects(uw, docs, objs), tally)
    interp = []
    imports = []
    for _ in range(PROBE_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        interp.append(perf_counter() - start)
        imports.append(probe(["import", str(SRC)])["import_s"])
    extra = {
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "paradigm.known_defects": len(defects),
        "trace.pass_s": statistics.fmean(traced),
        "trace.untraced_pass_s": statistics.fmean(plain),
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(plain),
    }
    for key in layers.ROADMAP:
        extra[f"roadmap.{key}_s"] = rows.get(key, (0.0, ""))[0]
    passes = layers.Spans([tracer])
    curves = layers.Spans([tracer, rows_tracer])
    metrics = layers.values(passes, curves, len(traced), extra, SRC)
    for metric, unit in layers.spec():
        lines.append(f"{metric:44s} {metrics[metric]:14.4f} {unit}")
    lines.append(
        f"# traced passes {len(traced)}, untraced passes {len(plain)}; self times "
        f"sum to {metrics['trace.self_sum_s']:.4f} s of a traced pass of "
        f"{metrics['trace.pass_s']:.4f} s"
        + ("" if metrics["trace.self_sum_s"] <= metrics["trace.pass_s"] else " (EXCEEDS)")
    )
    for key, (elapsed, note) in rows.items():
        case, figure = layers.ROADMAP[key]
        lines.append(
            f"# ROADMAP row: {case}: {elapsed:.3f} s here, {figure:.3f} s in the ROADMAP "
            f"({elapsed / figure:.2f}x){', ' + note if note else ''}"
        )
    for note in defects:
        lines.append(f"# known defect: {note}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultraword" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no ultraword sources under {ROOT}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    docs = workload.generate(rng, FIXTURES)
    sys.path.insert(0, str(SRC))
    import ultraword as uw

    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; closed loop, one client",
        f"# {machine()}",
    ]
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs.json"
        inputs.write_text(json.dumps(docs), encoding="utf-8")
        objs = workload.load(uw, docs)
        if args.trace:
            metrics = traced_run(
                args.workload, workload, uw, docs, objs, workdir, args.seconds, tally, lines
            )
        else:
            metrics = timed_run(
                args.workload, workload, uw, docs, objs, inputs, workdir, args.seconds,
                tally, lines,
            )
    emit(lines, tally, metrics, "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
