"""Perceived-set consequence, behavior and theory signatures, rule extraction
from observations, and the separate-versus-union comparison.

Given a theory over a language and a declared perceived subset, the perceived
closure of a premise set is the perceived part of its theory closure. A
behavior signature records, for one premise set, each newly deduced perceived
sentence as a tuple; the theory signature is the union over every nonempty
finite premise set. Treating those tuples as rules regenerates the perceived
closure exactly, which is what the soundness check verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .consequence import LogicSystem, Rule, closure
from .decode import each, fields, texts, typed
from .errors import EmptySource, NotPerceived, SizeLimit, TagCollision, UnknownSentence

_CHECK_LIMIT = 12
_SIGNATURE_LIMIT = 20


@dataclass(frozen=True)
class PerceivedContext:
    """A theory plus the declared perceived subset of its language.

    The tag is a reserved marker symbol; it may not occur in any perceived
    sentence, so that tagged forms are always new sentences.
    """

    language: frozenset[str]
    perceived: frozenset[str]
    theory: LogicSystem
    tag: str = "†"

    def __post_init__(self) -> None:
        object.__setattr__(self, "language", frozenset(self.language))
        object.__setattr__(self, "perceived", frozenset(self.perceived))
        if not self.perceived <= self.language:
            raise ValueError("perceived set must be a subset of the language")
        if self.theory.language != self.language:
            raise ValueError("theory must be declared over the same language")
        if not self.tag:
            raise ValueError("tag symbol must be nonempty")
        tainted = sorted(s for s in self.perceived if self.tag in s)
        if tainted:
            raise ValueError(
                f"tag {self.tag!r} occurs in perceived sentences: {tainted}"
            )

    @classmethod
    def from_json(cls, obj: object) -> PerceivedContext:
        language, perceived, rules, tag = fields(obj, ("language", "perceived", "rules"), tag="†")
        theory = LogicSystem.from_json({"language": language, "rules": rules})
        return cls(theory.language, texts(perceived, "perceived"), theory, typed(tag, str, "tag"))


def _require_perceived(ctx: PerceivedContext, X: frozenset[str]) -> None:
    stray = X - ctx.perceived
    if stray:
        raise NotPerceived(f"premises outside the perceived set: {sorted(stray)}")


def perceived_closure(ctx: PerceivedContext, X: Iterable[str]) -> frozenset[str]:
    """The perceived part of the theory closure of X."""
    premises = frozenset(X)
    _require_perceived(ctx, premises)
    return ctx.perceived & closure(ctx.theory, premises).closure


@dataclass(frozen=True)
class BehaviorSignature:
    """Tuples (x_1, ..., x_n, y): the source set in canonical order plus one
    newly deduced perceived sentence each. Empty when nothing new is deduced.
    """

    source: tuple[str, ...]
    tuples: frozenset[tuple[str, ...]]


def behavior_signature(ctx: PerceivedContext, X: Iterable[str]) -> BehaviorSignature:
    premises = frozenset(X)
    if not premises:
        raise EmptySource("a behavior signature needs a nonempty source set")
    _require_perceived(ctx, premises)
    source = tuple(sorted(premises))
    new = perceived_closure(ctx, premises) - premises
    return BehaviorSignature(source, frozenset(source + (y,) for y in sorted(new)))


@dataclass(frozen=True)
class TheorySignature:
    """Union of the behavior signatures over every nonempty premise set."""

    tuples: frozenset[tuple[str, ...]]

    def to_logic_system(self, language: Iterable[str]) -> LogicSystem:
        """Read each tuple as a rule: leading coordinates entail the last."""
        return LogicSystem(
            frozenset(language),
            tuple(Rule(frozenset(t[:-1]), t[-1]) for t in self.tuples),
        )

    def to_json(self) -> list[dict]:
        return [
            {"premises": sorted(t[:-1]), "conclusion": t[-1]}
            for t in sorted(self.tuples)
        ]


def theory_signature(ctx: PerceivedContext) -> TheorySignature:
    if len(ctx.perceived) > _SIGNATURE_LIMIT:
        raise SizeLimit(
            f"theory signature is limited to {_SIGNATURE_LIMIT} perceived sentences"
        )
    members = sorted(ctx.perceived)
    collected: set[tuple[str, ...]] = set()
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            collected |= behavior_signature(ctx, subset).tuples
    return TheorySignature(frozenset(collected))


@dataclass(frozen=True)
class SignatureMismatch:
    premises: frozenset[str]
    generated: frozenset[str]
    perceived: frozenset[str]


@dataclass(frozen=True)
class SignatureReport:
    checked: int
    mismatches: tuple[SignatureMismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def signature_operator_check(
    ctx: PerceivedContext, signature: TheorySignature | None = None
) -> SignatureReport:
    """Verify that the theory signature, read back as rules, regenerates the
    perceived closure on every subset of the perceived set.

    A replacement signature may be supplied to test for mismatches against a
    deliberately altered rule set. Raises ``SizeLimit`` above 12 perceived
    sentences.
    """
    if len(ctx.perceived) > _CHECK_LIMIT:
        raise SizeLimit(
            f"exhaustive check is limited to {_CHECK_LIMIT} perceived sentences"
        )
    if signature is None:
        signature = theory_signature(ctx)
    generated_system = signature.to_logic_system(ctx.language)
    members = sorted(ctx.perceived)
    # Bit k is the k-th perceived sentence; hidden sentences follow.
    hidden = sorted(ctx.language - ctx.perceived)
    bit = {s: 1 << k for k, s in enumerate(members + hidden)}
    low = (1 << len(members)) - 1
    # table[m] ends up holding every conclusion of a rule whose premises are
    # perceived and inside m: each rule is entered at its own premise mask,
    # then one subset-sum pass ORs every mask's entry into its supersets.
    table = [0] * (low + 1)
    hidden_rules = []
    for rule in generated_system.rules:
        premises = sum(bit[p] for p in rule.premises)
        if premises & ~low:
            hidden_rules.append((premises, bit[rule.conclusion]))
        else:
            table[premises] |= bit[rule.conclusion]
    for k in range(len(members)):
        step = 1 << k
        for m in range(low + 1):
            if m & step:
                table[m] |= table[m ^ step]
    mismatches = []
    checked = 0
    for size in range(len(members) + 1):
        for subset in combinations(members, size):
            checked += 1
            X = frozenset(subset)
            derived = sum(bit[s] for s in subset)
            while True:
                grown = derived | table[derived & low]
                for premises, conclusion in hidden_rules:
                    if premises & grown == premises:
                        grown |= conclusion
                if grown == derived:
                    break
                derived = grown
            expected = perceived_closure(ctx, X)
            if derived & low != sum(bit[s] for s in expected):
                generated = frozenset(s for s in members if derived & bit[s])
                mismatches.append(SignatureMismatch(X, generated, expected))
    return SignatureReport(checked, tuple(mismatches))


Observation = tuple[frozenset[str], frozenset[str]]


def _normalize_observations(
    observations: Iterable[tuple[Iterable[str], Iterable[str]]],
    language: frozenset[str],
) -> list[Observation]:
    normalized: list[Observation] = []
    for X, X_prime in observations:
        source = frozenset(X)
        produced = frozenset(X_prime)
        if not source:
            raise EmptySource("an observation needs a nonempty source set")
        stray = (source | produced) - language
        if stray:
            raise UnknownSentence(
                f"observation uses sentences outside the language: {sorted(stray)}"
            )
        normalized.append((source, produced))
    return normalized


def converse_ri(
    observations: Iterable[tuple[Iterable[str], Iterable[str]]],
    language: Iterable[str],
) -> LogicSystem:
    """Rules extracted from observations: one rule X -> y per produced y."""
    lang = frozenset(language)
    rules = []
    for source, produced in _normalize_observations(observations, lang):
        rules.extend(Rule(source, y) for y in produced)
    return LogicSystem(lang, tuple(rules))


@dataclass(frozen=True)
class UnionComparison:
    separate: frozenset[str]
    union: frozenset[str]

    @property
    def equal(self) -> bool:
        return self.separate == self.union


def separate_vs_union(
    observations: Sequence[tuple[Iterable[str], Iterable[str]]],
    premises: Iterable[str],
    language: Iterable[str],
) -> UnionComparison:
    """Compare closing under each observation's rules separately against
    closing under all of them at once; chains form only in the union."""
    lang = frozenset(language)
    normalized = _normalize_observations(observations, lang)
    start = frozenset(premises)
    separate: set[str] = set()
    for source, produced in normalized:
        single = LogicSystem(lang, tuple(Rule(source, y) for y in produced))
        separate |= closure(single, start).closure
    union = closure(converse_ri(normalized, lang), start).closure
    return UnionComparison(frozenset(separate), union)


def tag_j_prime(
    ctx: PerceivedContext, X: Iterable[str]
) -> frozenset[tuple[str, str]]:
    """Pair each member with its tagged form (the member plus the tag suffix),
    marking it as unaltered by the processes being modeled.

    The context invariant keeps the tag out of every perceived sentence, so
    for X inside the perceived set the collision guard can never fire; it
    protects the invariant against stray inputs.
    """
    members = frozenset(X)
    collisions = sorted(s for s in members if s.endswith(ctx.tag))
    if collisions:
        raise TagCollision(f"already tagged: {collisions}")
    return frozenset((s, s + ctx.tag) for s in members)


def _observation_from_json(entry: object) -> Observation:
    X, X_prime = fields(entry, ("X", "Xprime"))
    return frozenset(texts(X, "X")), frozenset(texts(X_prime, "Xprime"))


def observations_from_json(obj: object) -> tuple[list[Observation], frozenset[str]]:
    """Parse a list of {"X": [...], "Xprime": [...]} entries, optionally as the
    "observations" of an object with a "language" (else it is inferred)."""
    entries, language, path = obj, None, ""
    if type(obj) is dict:
        entries, language = fields(obj, ("observations",), language=None)
        path = "observations"
    observations = each(_observation_from_json, entries, path)
    if language is None:
        return observations, frozenset().union(*(X | Y for X, Y in observations))
    return observations, frozenset(texts(language, "language"))
