"""Exact construction and enumeration with no rule closure.

Inputs, drawn from the seed: one paradigm spec per interval kind (template
body, mode and, except on kind 2, K vary), point and paradigm windows on
each, truncation bounds for ``ultraword`` and ``window_rows``, the words that
``decompose`` enumerates, event sequences for ``is_paradigm``, and
``MEMBERS`` generated subparticles for ``st_set`` and ``realism_relation``.
Window and word sizes are fixed, so the seed changes values and offsets but
not the amount of work. Kind 2's paradigm is the one ``decompose``
enumerates, most of a pass, and its cost varies by 15% with K; so kind 2
keeps K = ``DECOMPOSE_K``.

The permutational curve stops at 8 atoms: 9 atoms give 986,409 words and 10
give 9,864,090, and decompose has no size guard yet.

Known defect: ``is_paradigm`` at horizon ``DEFECT_HORIZON`` recurses once per
element and raises RecursionError. It runs once per run as a probe and is
reported, not timed.
"""

from __future__ import annotations

from pathlib import Path

import reference as ref
from .base import Cold, Op, Row, parsed, write_json

WHY = (
    "Fraction and EpsilonSeries construction and word enumeration with no "
    "closure; permutational decompose stops at 8 atoms (9 give 986k words, "
    "10 give 9.86M, no size guard)"
)

# Share of the measured time spent on CLI subprocesses.
COLD_SHARE = 0.15

# Atom count -> (m, n) of kind-2 truncation bounds with (m+1)(n+1) atoms.
CANONICAL = {12: (2, 3), 14: (1, 6), 16: (3, 3)}
PERMUTATIONAL = {6: (1, 2), 7: (6, 0), 8: (1, 3)}
EMBEDDINGS = {200: (20, 9), 800: (40, 19)}  # points -> (subintervals, j_max)
HORIZONS = (100, 200, 300, 400, 500)
DEFECT_HORIZON = 1000
MEMBERS = 5000
DECOMPOSE_K = 4


def _spec(rng, q: int) -> dict:
    K = DECOMPOSE_K if q == 2 else rng.randint(2, 6)
    spec = {
        "q": q,
        "K": K,
        "mode": rng.choice(("description", "instruction")),
        "bodies": rng.choice(("ev", "at", "s", "w"))
        + rng.choice(("-{i}-{j}@{t}", ".{j}.{i}:{t}")),
    }
    if q == 1:
        spec["m"] = 10
    return spec


def _rect(rng, q: int, spec: dict, width: int, j_max: int) -> list[int]:
    """[i_lo, i_hi, j_max] of a window inside the kind's index range."""
    if q == 1:
        return [max(0, spec["m"] - width + 1), spec["m"], j_max]
    if q == 2:
        lo = rng.randint(0, 50)
        return [lo, lo + width - 1, j_max]
    if q == 3:
        return [-(width - 1), 0, j_max]
    lo = -rng.randint(1, width - 1)
    return [lo, lo + width - 1, j_max]


def _bounds(q: int, spec: dict) -> dict:
    """Truncation bounds of about 110 indices for each kind."""
    if q == 1:
        return {"m": spec["m"], "n": 10, "p": None}
    if q == 2:
        return {"m": 9, "n": 10, "p": None}
    if q == 3:
        return {"m": -10, "n": 10, "p": None}
    return {"m": -5, "n": 10, "p": 4}


def _sequence(rng, horizon: int, events: list[str], break_at: int | None) -> list[str]:
    values = ["start"] + [rng.choice(events) for _ in range(horizon)]
    if break_at is not None:
        values[break_at] = "outside"
    return values


def _subparticle(rng) -> list:
    first = rng.randint(0, 9)
    if rng.random() < 0.5:
        second = {"inf": "lambda", "offset": rng.randint(0, 3)}
    else:
        second = rng.randint(0, 9)
    tail = []
    for _ in range(2):
        constant = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
        tail.append([[0, constant], [rng.randint(1, 3), str(rng.randint(1, 9))]])
    return [first, second] + tail


def generate(rng, fixtures: Path) -> dict:
    specs = {str(q): _spec(rng, q) for q in (1, 2, 3, 4)}
    events = [f"e{k}" for k in range(rng.randint(3, 6))]
    return {
        "specs": specs,
        "point_windows": [
            [q, _rect(rng, int(q), s, width, j_max)]
            for width, j_max in ((20, 19), (5, 79))
            for q, s in specs.items()
        ],
        "paradigm_windows": [
            [q, _rect(rng, int(q), s, width, j_max)]
            for width, j_max in ((10, 9), (3, 39))
            for q, s in specs.items()
        ],
        "bounds": {q: _bounds(int(q), s) for q, s in specs.items()},
        "embedding_K": rng.randint(2, 6),
        "events": events,
        "sequences": {
            str(h): _sequence(rng, h, events, h // 2 if h == HORIZONS[0] else None)
            for h in HORIZONS
        },
        "defect_sequence": _sequence(rng, DEFECT_HORIZON, events, None),
        "subparticles": {"arity": 4, "members": [_subparticle(rng) for _ in range(MEMBERS)]},
    }


def load(uw, docs: dict) -> dict:
    return {
        "paradigms": {q: uw.paradigm_from_json(s) for q, s in docs["specs"].items()},
        "universe": uw.hyperreal.universe_from_json(docs["subparticles"]),
    }


def _body(spec: dict, i: int, j: int, t) -> str:
    return spec["bodies"].format(i=i, j=j, t=ref.fmt(t))


def _point_ops(uw, docs, objs) -> list[Op]:
    ops = []
    for q, (lo, hi, j_max) in docs["point_windows"]:
        spec = docs["specs"][q]
        scheme = objs["paradigms"][q].scheme
        want = [
            ((i, j), ref.point(spec["K"], i, j))
            for i, j in ref.rect_indices(int(q), spec.get("m"), lo, hi, j_max)
        ]
        ops.append(
            Op(
                "point_window",
                f"q{q}.j{j_max}",
                lambda s=scheme, a=(lo, hi, j_max): s.window(*a),
                lambda rows, w=want: [((x.i, x.j), t) for x, t in rows] == w,
            )
        )
    return ops


def _paradigm_ops(uw, docs, objs) -> list[Op]:
    ops = []
    for q, (lo, hi, j_max) in docs["paradigm_windows"]:
        spec = docs["specs"][q]
        dp = objs["paradigms"][q]
        want = []
        for i, j in ref.rect_indices(int(q), spec.get("m"), lo, hi, j_max):
            t = ref.point(spec["K"], i, j)
            want.append(((i, j), t, _body(spec, i, j, t), ref.clause(t, spec["mode"])))

        def check(rows, want=want) -> bool:
            got = [
                ((x.i, x.j), seg.time_id, str(seg.body), seg.naming_clause)
                for x, seg in rows
            ]
            return got == want and all(
                uw.language.extract_time_id(seg.naming_clause) == seg.time_id
                for _, seg in rows
            )

        ops.append(
            Op(
                "paradigm_window",
                f"q{q}.j{j_max}",
                lambda d=dp, a=(lo, hi, j_max): d.window(*a),
                check,
            )
        )
    return ops


def _reshaped(q: str, b: dict) -> dict:
    """Bounds with as many indices as ``b`` in another shape or place; kind 1
    fixes m and n, so its bounds stay."""
    if q == "1":
        return b
    if q == "2":
        return {**b, "m": b["m"] + 1, "n": b["n"] - 1}
    if q == "3":
        return {**b, "m": b["m"] - 1, "n": b["n"] - 1}
    return {**b, "m": b["m"] - 1, "p": b["p"] - 1}


def _window_rows_op(uw, spec: dict, dp, q: str, b: dict) -> Op:
    bounds = uw.paradigm.TruncationBounds(dp.scheme.kind, b["m"], b["n"], b["p"])
    rows = []
    for i, j in ref.bounds_indices(int(q), b["m"], b["n"], b["p"]):
        t = ref.point(spec["K"], i, j)
        rows.append({"i": i, "j": j, "t": ref.fmt(t), "clause": ref.clause(t, spec["mode"])})
    return Op(
        "window_rows",
        f"q{q}.m{b['m']}.n{b['n']}",
        lambda: uw.paradigm.window_rows(dp, bounds),
        lambda got: got == rows,
    )


def _word_ops(uw, docs, objs) -> list[Op]:
    """``ultraword`` on each kind's bounds, and ``window_rows`` on them and on
    reshaped bounds of the same size. The eight ``window_rows`` calls cost
    about the same and hold the median operation of a pass."""
    ops = []
    for q, b in docs["bounds"].items():
        spec = docs["specs"][q]
        dp = objs["paradigms"][q]
        bounds = uw.paradigm.TruncationBounds(dp.scheme.kind, b["m"], b["n"], b["p"])
        idx = ref.bounds_indices(int(q), b["m"], b["n"], b["p"])
        text = " ∧ ".join(
            f"{_body(spec, i, j, t)} {ref.clause(t, spec['mode'])}"
            for i, j in idx
            for t in [ref.point(spec["K"], i, j)]
        )
        ops.append(
            Op(
                "ultraword",
                f"q{q}",
                lambda d=dp, bd=bounds: uw.paradigm.ultraword(d, bd),
                lambda word, text=text, size=len(idx): word.text == text
                and len(word.conjuncts) == size,
            )
        )
        ops.append(_window_rows_op(uw, spec, dp, q, b))
        ops.append(_window_rows_op(uw, spec, dp, q, _reshaped(q, b)))
    return ops


def _decompose_ops(uw, docs, objs) -> list[Op]:
    dp = objs["paradigms"]["2"]
    ops = []
    for mode, sizes, count in (
        ("canonical", CANONICAL, ref.canonical_count),
        ("permutational", PERMUTATIONAL, ref.permutational_count),
    ):
        for atoms, (m, n) in sizes.items():
            word = uw.paradigm.ultraword(dp, uw.paradigm.TruncationBounds(dp.scheme.kind, m, n))
            words = count(atoms)
            want = {"axioms": 0, "conjunctions": words, "atoms": atoms, "total": words + atoms}
            ops.append(
                Op(
                    f"decompose.{mode}",
                    f"a{atoms}",
                    lambda w=word, mode=mode: uw.consequence.decompose(w, (), mode),
                    lambda parts, want=want: parts.cardinalities() == want,
                )
            )
    return ops


def _embedding_ops(uw, docs, objs) -> list[Op]:
    K = docs["embedding_K"]
    scheme = uw.timeline.PartitionScheme(K, uw.timeline.IntervalKind(2))
    ops = []
    for points, (width, j_max) in EMBEDDINGS.items():
        idx = ref.rect_indices(2, None, 0, width - 1, j_max)
        times = [ref.point(K, i, j) for i, j in idx]
        if len(idx) != points or any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError(f"reference window for p{points} is not {points} rising points")
        ops.append(
            Op(
                "embedding",
                f"p{points}",
                lambda a=(0, width - 1, j_max): uw.timeline.verify_order_embedding(scheme, *a),
                lambda ok: ok is True,
            )
        )
    return ops


def _oracle(values: list[str]):
    return lambda k: values[k]


def _paradigm_check_ops(uw, docs, objs) -> list[Op]:
    space = uw.paradigm.EventSpace.of(docs["events"], "start")
    events = set(docs["events"])
    ops = []
    for h, values in docs["sequences"].items():
        want = values[0] == "start" and all(v in events for v in values[1:])
        ops.append(
            Op(
                "is_paradigm",
                f"h{h}",
                lambda f=_oracle(values), h=int(h): uw.paradigm.is_paradigm(f, space, h),
                lambda got, want=want: got is want,
            )
        )
    return ops


def _standard_part_ops(uw, docs, objs) -> list[Op]:
    members = objs["universe"].members
    entries = docs["subparticles"]["members"]
    images = {ref.standard_image(e) for e in entries}
    new = ref.realism(entries)

    def constants(reps) -> set:
        out = set()
        for rep in reps:
            if any(c.n != 0 for c in rep.coords[:2]) or not all(
                x.min_exponent in (None, 0) and len(x.terms) <= 1 for x in rep.series
            ):
                return None
            out.add(tuple(x.coefficient(0) for x in rep.series))
        return out

    return [
        Op(
            "standard_part",
            "st_set",
            lambda: uw.hyperreal.st_set(members),
            lambda got: len(got) == len(images) and constants(got) == images,
        ),
        Op(
            "standard_part",
            "realism",
            lambda: uw.hyperreal.realism_relation(members),
            lambda got: len(got) == len(new) and constants(got) == new,
        ),
    ]


def operations(uw, docs: dict, objs: dict) -> list[Op]:
    return (
        _point_ops(uw, docs, objs)
        + _paradigm_ops(uw, docs, objs)
        + _word_ops(uw, docs, objs)
        + _decompose_ops(uw, docs, objs)
        + _embedding_ops(uw, docs, objs)
        + _paradigm_check_ops(uw, docs, objs)
        + _standard_part_ops(uw, docs, objs)
    )


def cold(docs: dict, workdir: Path, fixtures: Path) -> list[Cold]:
    spec = docs["specs"]["2"]
    name = write_json(workdir / "paradigm_q2.json", spec)
    m, n = CANONICAL[12]
    words = ref.canonical_count(12)

    def check(out: bytes, code: int) -> bool:
        got = parsed(out)
        return code == 0 and got is not None and got["cardinalities"] == {
            "axioms": 0, "conjunctions": words, "atoms": 12, "total": words + 12,
        }

    argv = ["decompose", "--spec", name, "--m", str(m), "--n", str(n)]
    return [Cold("decompose_a12", argv, workdir, check)]


def rows(uw, docs: dict, objs: dict) -> list[Row]:
    decompose = {op.family + op.label: op for op in _decompose_ops(uw, docs, objs)}
    embedding = {op.label: op for op in _embedding_ops(uw, docs, objs)}
    horizon = {op.label: op for op in _paradigm_check_ops(uw, docs, objs)}
    return [
        Row("embedding_p800", embedding["p800"]),
        Row("decompose_permutational_a8", decompose["decompose.permutationala8"]),
        Row("decompose_canonical_a16", decompose["decompose.canonicala16"]),
        Row("is_paradigm_h500", horizon["h500"]),
    ]


def defects(uw, docs: dict, objs: dict) -> list[Op]:
    space = uw.paradigm.EventSpace.of(docs["events"], "start")
    values = docs["defect_sequence"]
    return [
        Op(
            "is_paradigm",
            f"h{DEFECT_HORIZON}",
            lambda: uw.paradigm.is_paradigm(_oracle(values), space, DEFECT_HORIZON),
            lambda got: got is True,
        )
    ]
