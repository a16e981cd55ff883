"""Spans around calls into ultraword's public functions.

``Tracer.install`` replaces each public module-level function of the traced
modules, and a few public methods, with a wrapper that records a span: its
name, duration, self time and an optional size tag. The wrapper is bound
everywhere the original object was bound, including names that other
ultraword modules imported (``ultraword.signatures.closure`` is the closure
of ``ultraword.consequence``), so nested calls become child spans. Spans are
kept in flat arrays in memory and summarised after the traced passes.

A span's self time is its duration minus its children's durations. Spans
nest strictly in one thread, so the open spans form a stack and children
never overlap.
"""

from __future__ import annotations

import importlib
import sys
import types
from contextlib import contextmanager
from array import array
from time import perf_counter

MODULES = (
    "numerics",
    "timeline",
    "language",
    "paradigm",
    "consequence",
    "signatures",
    "hyperreal",
    "cli",
)

# Public methods traced besides module-level functions: (module, class, name).
METHODS = (
    ("numerics", "EpsilonSeries", "__init__"),
    ("timeline", "PartitionScheme", "window"),
    ("timeline", "PartitionScheme", "point"),
    ("language", "DevelopmentalParadigm", "window"),
    ("language", "DevelopmentalParadigm", "segment"),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self, uw: types.ModuleType):
        self.uw = uw
        self.modules = {
            name: importlib.import_module(f"{uw.__name__}.{name}") for name in MODULES
        }
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self.tag_ids: dict[str, int] = {"": 0}
        self.span_name = array("i")
        self.span_tag = array("i")
        self.span_dur = array("d")
        self.span_self = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches = self._plan()

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _intern(self, table: list[str], ids: dict[str, int], key: str) -> int:
        index = ids.get(key)
        if index is None:
            index = ids[key] = len(table)
            table.append(key)
        return index

    def _wrap(self, name: str, func, probe=None):
        tracer = self
        name_id = self._intern(self.names, self.name_ids, name)
        stack = self._stack
        rec_name = self.span_name
        rec_tag = self.span_tag
        rec_dur = self.span_dur
        rec_self = self.span_self

        def traced(*args, **kwargs):
            index = len(rec_dur)
            rec_name.append(name_id)
            rec_tag.append(0)
            rec_dur.append(0.0)
            rec_self.append(0.0)
            frame = [0.0]  # the children's total duration
            stack.append(frame)
            after = None
            if probe is not None:
                args, kwargs, after = probe(tracer, args, kwargs)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec_dur[index] = duration
                rec_self[index] = duration - frame[0]
            if after is not None:
                label = after(result)
                if label:
                    rec_tag[index] = tracer._intern(tracer.tags, tracer.tag_ids, label)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every binding to patch."""
        probes = _probes()
        holders = [self.uw] + list(self.modules.values())
        patches = []
        for mod_name, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__
                ):
                    continue
                full = f"{mod_name}.{attr}"
                wrapper = self._wrap(full, value, probes.get(full))
                for holder in holders:
                    for name, bound in vars(holder).items():
                        if bound is value:
                            patches.append((holder, name, value, wrapper))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(self.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            full = f"{mod_name}.{cls_name}.{attr}"
            patches.append((cls, attr, original, self._wrap(full, original, probes.get(full))))
        return patches

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    # -- summaries ---------------------------------------------------------

    def spans(self):
        """(name, tag, duration, self time) of every recorded span."""
        names, tags = self.names, self.tags
        for k in range(len(self.span_dur)):
            yield (
                names[self.span_name[k]],
                tags[self.span_tag[k]],
                self.span_dur[k],
                self.span_self[k],
            )


def _probes():
    """Per-function hooks: each sees the call's arguments, may replace them,
    and returns a callback that turns the result into counts and a size tag."""

    def closure(tracer, args, kwargs):
        system = args[0]

        def after(result):
            tracer.count("consequence.closure.calls")
            tracer.count("consequence.closure.fired", len(result.derivation_order))
            tracer.count("consequence.closure.rules", len(system.rules))

        return args, kwargs, after

    def axioms(tracer, args, kwargs):
        op = args[0]
        calls = [0]

        def counted(subset):
            calls[0] += 1
            return op(subset)

        def after(report):
            kind = "u" if any(
                type(x).__name__ == "SubparticleRep" for x in args[1]
            ) else "n"
            family = "hyperreal.axioms" if kind == "u" else "consequence.axioms"
            tracer.count(f"{family}.subsets", report.checked)
            tracer.count(f"{family}.op_calls", calls[0])
            return f"{kind}{report.universe_size}"

        return (counted,) + tuple(args[1:]), kwargs, after

    def decompose(tracer, args, kwargs):
        word = args[0]
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "canonical")

        def after(result):
            tracer.count("consequence.decompose.words", len(result.conjunctions))
            return f"{mode}.a{len(word.conjuncts)}"

        return args, kwargs, after

    def perceived_size(tracer, args, kwargs):
        ctx = args[0]
        return args, kwargs, lambda result: f"n{len(ctx.perceived)}"

    def theory(tracer, args, kwargs):
        ctx = args[0]

        def after(result):
            tag = f"n{len(ctx.perceived)}"
            tracer.count(f"signatures.theory.tuples.{tag}", len(result.tuples))
            return tag

        return args, kwargs, after

    def embedding(tracer, args, kwargs):
        def after(result):
            return f"p{_window_size(*args)}"

        return args, kwargs, after

    def horizon(tracer, args, kwargs):
        h = args[2] if len(args) > 2 else kwargs["horizon"]
        return args, kwargs, lambda result: f"h{h}"

    def window(tracer, args, kwargs):
        def after(rows):
            tracer.count("timeline.window.points", len(rows))

        return args, kwargs, after

    def counter(key):
        def hook(tracer, args, kwargs):
            tracer.count(key)
            return args, kwargs, None

        return hook

    def parser(tracer, args, kwargs):
        def after(built):
            built.parse_args = tracer._wrap("cli.parse_args", built.parse_args)

        return args, kwargs, after

    return {
        "consequence.closure": closure,
        "consequence.check_consequence_axioms": axioms,
        "consequence.decompose": decompose,
        "signatures.theory_signature": theory,
        "signatures.signature_operator_check": perceived_size,
        "timeline.verify_order_embedding": embedding,
        "timeline.PartitionScheme.window": window,
        "paradigm.is_paradigm": horizon,
        "language.segment_at": counter("language.segments"),
        "hyperreal.st_subparticle": counter("hyperreal.members"),
        "cli.build_parser": parser,
    }


def _window_size(scheme, i_lo, i_hi, j_max) -> int:
    q = scheme.kind.q
    closed = scheme.kind.m if q == 1 else 0 if q == 3 else None
    rows = (i_hi - i_lo + 1) * (j_max + 1)
    if closed is not None and i_lo <= closed <= i_hi:
        rows -= j_max
    return rows


@contextmanager
def raised_recursion_limit(factor: int = 2):
    """Traced recursive calls use two frames per level."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(saved * factor)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)
