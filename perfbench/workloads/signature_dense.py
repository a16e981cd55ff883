"""Small dense theories swept exhaustively over their subsets.

Inputs, all drawn from the seed:

- ``THEORIES[n]`` random theories for each n in 8..11: n perceived and n//2
  hidden sentences, 2n rules with 1-3 premises. A theory is kept only when
  its signature has within ``BAND`` of ``TUPLES[n]`` tuples. The check costs
  about 2^n times the tuple count, and unbanded draws vary fivefold, so the
  band keeps the cost of one pass steady across seeds;
- ``SYSTEMS`` dense rule systems for each n in 8..12, whose closure
  operators get the exhaustive axiom check;
- closed subparticle universes of ``UNIVERSES`` sizes for the axiom check of
  the extended standard part.

No single operation family takes much more than half of a pass. The traced
run adds the ROADMAP's n = 12 case: a theory with no hidden sentences, like
the ROADMAP's 12-sentence, 24-rule theory, banded around its 13,876 tuples.
"""

from __future__ import annotations

from pathlib import Path

import reference as ref
from .base import Cold, Op, Row, parsed, write_json

WHY = (
    "exponential subset sweeps that call closure thousands of times on tiny "
    "rule sets: where minimal signatures and the axiom DP act"
)

# Share of the measured time spent on CLI subprocesses.
COLD_SHARE = 0.2

SIZES = (8, 9, 10, 11)
# Three n = 11 theories, so that the operation at p95 of the list is the
# middle one of them, not the cheaper of two: the check's cost varies by
# about 10% between theories of the same signature size.
THEORIES = {8: 2, 9: 2, 10: 2, 11: 3}
# Sizes that also get a standalone theory_signature; every check computes one.
# With these counts the median operation is an n = 10 axiom check.
THEORY_OPS = (11,)
TUPLES = {8: 280, 9: 800, 10: 1500, 11: 3800, 12: 13876}
BAND = 0.05
AXIOM_SIZES = (8, 9, 10, 11, 12)
SYSTEMS = 2
UNIVERSES = (6, 7, 8, 9)


def _theory(rng, n: int, hidden: int) -> dict:
    """A random theory whose signature size lies in the band for n."""
    perceived = [f"p{k:02d}" for k in range(n)]
    language = perceived + [f"h{k:02d}" for k in range(hidden)]
    lo, hi = TUPLES[n] * (1 - BAND), TUPLES[n] * (1 + BAND)
    while True:
        doc = {"language": language, "perceived": perceived, "rules": _rules(rng, language, 2 * n)}
        tuples = ref.theory_signature(ref.rule_pairs(doc), perceived)
        if lo <= len(tuples) <= hi:
            return {"doc": doc, "tuples": sorted(tuples)}


def _rules(rng, language: list[str], count: int) -> list[dict]:
    """``count`` random rules with 1-3 premises over the language."""
    rules = []
    for _ in range(count):
        premises = rng.sample(language, rng.choice((1, 2, 2, 3)))
        conclusion = rng.choice([s for s in language if s not in premises])
        rules.append({"premises": sorted(premises), "conclusion": conclusion})
    return rules


def _system(rng, n: int) -> dict:
    language = [f"s{k:02d}" for k in range(n)]
    return {"language": language, "rules": _rules(rng, language, 2 * n)}


def _term(rng) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"


def _universe(rng, size: int) -> dict:
    """``size // 2`` nonstandard members with distinct standard images, the
    images themselves, and one standard member more when size is odd."""
    members, images = [], set()
    while len(images) < size // 2:
        consts = (_term(rng), _term(rng))
        key = tuple(ref.series_constant(c) for c in consts)
        if key in images or key == (0, 0):
            continue
        images.add(key)
        head = [rng.randint(1, 9), {"inf": "lambda", "offset": rng.randint(0, 3)}]
        members.append(head + [[[0, c], [rng.randint(1, 3), "1"]] for c in consts])
        members.append([0, 0] + [[[0, c]] for c in consts])
    if size % 2:
        members.append([0, 0, [], []])
    return {"arity": 4, "members": members}


def generate(rng, fixtures: Path) -> dict:
    return {
        "theories": {
            str(n): [_theory(rng, n, n // 2) for _ in range(THEORIES[n])] for n in SIZES
        },
        "theory12": _theory(rng, 12, 0),
        "systems": {str(n): [_system(rng, n) for _ in range(SYSTEMS)] for n in AXIOM_SIZES},
        "universes": {str(u): _universe(rng, u) for u in UNIVERSES},
    }


def load(uw, docs: dict) -> dict:
    context = uw.PerceivedContext.from_json
    return {
        "theories": {
            n: [context(t["doc"]) for t in group] for n, group in docs["theories"].items()
        },
        "theory12": context(docs["theory12"]["doc"]),
        "systems": {
            n: [uw.LogicSystem.from_json(s) for s in group] for n, group in docs["systems"].items()
        },
        "universes": {
            u: uw.hyperreal.universe_from_json(doc) for u, doc in docs["universes"].items()
        },
    }


def _theory_op(uw, n: int, k: int, ctx, theory: dict) -> Op:
    want = {tuple(t) for t in theory["tuples"]}
    return Op(
        "theory_signature",
        f"n{n}.t{k}",
        lambda: uw.signatures.theory_signature(ctx),
        lambda sig: sig.tuples == want,
    )


def _check_op(uw, n: int, k: int, ctx) -> Op:
    return Op(
        "signature_check",
        f"n{n}.t{k}",
        lambda: uw.signatures.signature_operator_check(ctx),
        lambda report: report.passed and report.checked == 2**n,
    )


def _axiom_op(uw, family: str, label: str, operator, universe: list) -> Op:
    size = len(universe)
    return Op(
        family,
        label,
        lambda: uw.consequence.check_consequence_axioms(operator, universe),
        lambda r: r.passed and r.exhaustive and r.checked == 2**size
        and r.universe_size == size,
    )


def _closure_axioms(uw, n: str, system) -> Op:
    def operator(X):
        return uw.consequence.closure(system, X).closure

    return _axiom_op(uw, "axioms.closure", f"n{n}", operator, sorted(system.language))


def operations(uw, docs: dict, objs: dict) -> list[Op]:
    ops = []
    for n in SIZES:
        contexts = objs["theories"][str(n)]
        if n in THEORY_OPS:
            ops.append(_theory_op(uw, n, 0, contexts[0], docs["theories"][str(n)][0]))
        ops.extend(_check_op(uw, n, k, ctx) for k, ctx in enumerate(contexts))
    for n, group in objs["systems"].items():
        ops.extend(_closure_axioms(uw, n, system) for system in group)
    for u, universe in objs["universes"].items():
        members = sorted(universe.members, key=str)
        ops.append(
            _axiom_op(uw, "axioms.st_extended", f"u{u}", universe.extended_operator(), members)
        )
    return ops


def cold(docs: dict, workdir: Path, fixtures: Path) -> list[Cold]:
    theory = docs["theories"]["10"][0]
    name = write_json(workdir / "theory10.json", theory["doc"])
    want = {tuple(t) for t in theory["tuples"]}

    def check(out: bytes, code: int) -> bool:
        got = parsed(out)
        return code == 0 and got is not None and {
            tuple(r["premises"]) + (r["conclusion"],) for r in got
        } == want

    return [Cold("signature_n10", ["signature", "--context", name], workdir, check)]


def rows(uw, docs: dict, objs: dict) -> list[Row]:
    tuples = len(docs["theory12"]["tuples"])
    return [
        Row("signature_check_n12", _check_op(uw, 12, 0, objs["theory12"]), f"{tuples} tuples"),
        Row("axioms_n12", _closure_axioms(uw, "12", objs["systems"]["12"][0])),
    ]


def defects(uw, docs: dict, objs: dict) -> list[Op]:
    return []
