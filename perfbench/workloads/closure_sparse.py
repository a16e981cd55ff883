"""Large sparse rule systems: many rules, many closure passes, no subset sweeps.

Inputs, all drawn from the seed:

- a reverse chain of ``CHAIN`` rules, named so that the canonical rule order
  runs against the derivation and every closure pass fires one rule;
- ``DAGS`` layered random DAGs, each sentence of a layer concluded by two
  rules with 1-3 premises from the two layers below it, closed from
  ``STARTS`` random premise sets drawn from the bottom layer. Deeper layers
  sort first in the canonical rule order, so a closure takes one pass per
  layer;
- ``OBS_CHAINS`` long observation chains for ``converse_ri`` and
  ``separate_vs_union``.
"""

from __future__ import annotations

from pathlib import Path
from string import ascii_lowercase

import reference as ref
from .base import Cold, Op, Row, parsed, write_json

WHY = (
    "many rules and many closure passes with no subset sweeps: where indexed "
    "closure should win"
)

# Share of the measured time spent on CLI subprocesses.
COLD_SHARE = 0.2

CHAIN = 3000
DAGS = 2
LAYERS = 40
WIDTH = 250
STARTS = 6
OBS_CHAINS = 2
OBS_LENGTH = 800


def _names(rng, count: int, prefix: str = "") -> list[str]:
    names: dict[str, None] = {}
    while len(names) < count:
        names[prefix + "".join(rng.choice(ascii_lowercase) for _ in range(7))] = None
    return list(names)


def _chain(rng) -> dict:
    names = sorted(_names(rng, CHAIN + 1))
    rules = [
        {"premises": [names[k + 1]], "conclusion": names[k]} for k in range(CHAIN)
    ]
    return {"system": {"language": names, "rules": rules}, "premises": [names[-1]]}


def _dag(rng) -> dict:
    # Deeper layers sort first, so each layer takes one more closure pass.
    layers = [_names(rng, WIDTH, f"L{LAYERS - level:02d}") for level in range(LAYERS)]
    rules = []
    for level in range(1, LAYERS):
        below = layers[level - 1]
        pool = below + (layers[level - 2] if level >= 2 else [])
        for sentence in layers[level]:
            for _ in range(2):
                size = rng.choice((1, 1, 2, 3))
                premises = {rng.choice(below)}
                while len(premises) < size:
                    premises.add(rng.choice(pool))
                rules.append({"premises": sorted(premises), "conclusion": sentence})
    language = sorted(s for layer in layers for s in layer)
    starts = [
        sorted(rng.sample(layers[0], rng.randint(WIDTH // 2, 3 * WIDTH // 4)))
        for _ in range(STARTS)
    ]
    return {"system": {"language": language, "rules": rules}, "starts": starts}


def _observations(rng) -> dict:
    names = _names(rng, OBS_LENGTH + 1)
    extra = _names(rng, OBS_LENGTH // 4)
    observations = []
    for k in range(OBS_LENGTH):
        produced = [names[k + 1]]
        if k % 4 == 0:
            produced.append(extra[k // 4])
        observations.append({"X": [names[k]], "Xprime": produced})
    language = sorted(names + extra)
    return {
        "doc": {"language": language, "observations": observations},
        "premises": [names[0]],
    }


def generate(rng, fixtures: Path) -> dict:
    return {
        "chain": _chain(rng),
        "dags": [_dag(rng) for _ in range(DAGS)],
        "observations": [_observations(rng) for _ in range(OBS_CHAINS)],
    }


def load(uw, docs: dict) -> dict:
    from_json = uw.LogicSystem.from_json
    return {
        "chain": from_json(docs["chain"]["system"]),
        "dags": [from_json(dag["system"]) for dag in docs["dags"]],
        "observations": [
            uw.signatures.observations_from_json(obs["doc"])
            for obs in docs["observations"]
        ],
    }


def _closure_op(uw, family, label, system, doc, premises) -> Op:
    rules = ref.rule_pairs(doc)
    expect = ref.closure(rules, premises)

    def check(result) -> bool:
        fired = [(tuple(r.premises), r.conclusion) for r in result.derivation_order]
        return result.closure == expect and ref.replays(fired, premises, expect)

    return Op(family, label, lambda: uw.consequence.closure(system, premises), check)


def _chain_op(uw, docs: dict, objs: dict) -> Op:
    chain = docs["chain"]
    return _closure_op(
        uw, "closure.chain", f"chain{CHAIN}", objs["chain"], chain["system"],
        chain["premises"],
    )


def _converse_expected(obs: dict):
    """The rules of an observation chain as (premises, conclusion) pairs, and
    its separate and union closures from the chain's premises."""
    entries = obs["doc"]["observations"]
    start = obs["premises"]
    pairs = {(frozenset(o["X"]), y) for o in entries for y in o["Xprime"]}
    separate = set()
    for o in entries:
        separate |= ref.closure([(tuple(o["X"]), y) for y in o["Xprime"]], start)
    union = ref.closure([(tuple(p), y) for p, y in pairs], start)
    return pairs, frozenset(separate), union


def operations(uw, docs: dict, objs: dict) -> list[Op]:
    ops = [_chain_op(uw, docs, objs)]
    for d, (dag, system) in enumerate(zip(docs["dags"], objs["dags"])):
        for s, start in enumerate(dag["starts"]):
            ops.append(
                _closure_op(uw, "closure.dag", f"dag{d}.start{s}", system, dag["system"], start)
            )
    for c, (obs, (observations, language)) in enumerate(
        zip(docs["observations"], objs["observations"])
    ):
        pairs, separate, union = _converse_expected(obs)
        ops.append(
            Op(
                "converse",
                f"obs{c}.converse_ri",
                lambda o=observations, l=language: uw.signatures.converse_ri(o, l),
                lambda system, pairs=pairs: {
                    (r.premises, r.conclusion) for r in system.rules
                } == pairs,
            )
        )
        ops.append(
            Op(
                "separate",
                f"obs{c}.separate_vs_union",
                lambda o=observations, l=language, s=obs["premises"]: (
                    uw.signatures.separate_vs_union(o, s, l)
                ),
                lambda v, sep=separate, uni=union: v.separate == sep
                and v.union == uni
                and v.equal == (sep == uni),
            )
        )
    return ops


def cold(docs: dict, workdir: Path, fixtures: Path) -> list[Cold]:
    obs = docs["observations"][0]
    name = write_json(workdir / "observations0.json", obs["doc"])
    pairs, separate, union = _converse_expected(obs)

    def check(out: bytes, code: int) -> bool:
        got = parsed(out)
        return (
            code == 0
            and got is not None
            and {(frozenset(r["premises"]), r["conclusion"]) for r in got["rules"]} == pairs
            and got["separate"] == sorted(separate)
            and got["union"] == sorted(union)
        )

    argv = ["converse", "--observations", name, "--premises", ",".join(obs["premises"])]
    return [Cold("converse_obs0", argv, workdir, check)]


def rows(uw, docs: dict, objs: dict) -> list[Row]:
    return [Row("closure_chain", _chain_op(uw, docs, objs))]


def defects(uw, docs: dict, objs: dict) -> list[Op]:
    return []
