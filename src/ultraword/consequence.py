"""Finite rule systems with fixpoint closure, the conjunction-word consequence
operator with its three-part decomposition, and a harness that checks the
consequence-operator axioms for any set-to-set operator.

The closure of a premise set is the least set containing the premises and
closed under every rule (a rule fires once its whole premise set is present).
Applied to a single conjunction word, the word-level operator yields the
supplied axioms, every conjunction formable from the word's atoms, and the
atoms themselves; these three parts are pairwise disjoint and the word is one
of the conjunctions.
"""

from __future__ import annotations

import random
from collections.abc import Set
from dataclasses import dataclass
from itertools import combinations, permutations
from math import perm
from typing import Callable, Hashable, Iterable, Iterator

from .decode import each, fields, texts, typed
from .errors import AxiomCollision, SizeLimit, UnknownSentence
from .language import ConjunctionWord, FrozenSegment

#: Fixed default seed for randomized sweeps, so reports are reproducible.
DEFAULT_SEED = 1729

_EXHAUSTIVE_LIMIT = 12
# Most conjunctions a listing of a decomposition builds: permutational mode
# lists up to 9 atoms (986,400 words) and canonical mode up to 19 (524,268).
# Size and membership answer at any atom count.
_WORD_LIMIT = 1_000_000

SetOperator = Callable[[frozenset], Iterable]


@dataclass(frozen=True)
class Rule:
    """One rule of inference: a nonempty finite premise set and a conclusion."""

    premises: frozenset[str]
    conclusion: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", frozenset(self.premises))
        if not self.premises:
            raise ValueError("a rule needs at least one premise")

    @property
    def sort_key(self) -> tuple:
        return (self.conclusion, tuple(sorted(self.premises)))


@dataclass(frozen=True)
class LogicSystem:
    """A finite language plus finitely many rules over it.

    Rules are kept in canonical order (by conclusion, then premises) so the
    derivation order of a closure is reproducible.
    """

    language: frozenset[str]
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "language", frozenset(self.language))
        canonical = tuple(sorted(set(self.rules), key=lambda r: r.sort_key))
        object.__setattr__(self, "rules", canonical)
        for rule in canonical:
            stray = (rule.premises | {rule.conclusion}) - self.language
            if stray:
                raise UnknownSentence(
                    f"rule uses sentences outside the language: {sorted(stray)}"
                )

    @classmethod
    def build(
        cls, language: Iterable[str], rules: Iterable[tuple[Iterable[str], str]]
    ) -> LogicSystem:
        return cls(
            frozenset(language),
            tuple(Rule(frozenset(premises), conclusion) for premises, conclusion in rules),
        )

    @classmethod
    def from_json(cls, obj: object) -> LogicSystem:
        language, rules = fields(obj, ("language", "rules"))
        return cls(texts(language, "language"), each(_rule_from_json, rules, "rules"))

    def to_json(self) -> dict:
        return {
            "language": sorted(self.language),
            "rules": [
                {"premises": sorted(r.premises), "conclusion": r.conclusion}
                for r in self.rules
            ],
        }


def _rule_from_json(rule: object) -> Rule:
    if (type(rule) is dict and len(rule) == 2 and type(conclusion := rule.get("conclusion")) is str
            and type(premises := rule.get("premises")) is list and {*map(type, premises)} <= {str}):
        return Rule(frozenset(premises), conclusion)  # inline: readers cost 1/6 more on big files
    premises, conclusion = fields(rule, ("premises", "conclusion"))
    return Rule(frozenset(texts(premises, "premises")), typed(conclusion, str, "conclusion"))


@dataclass(frozen=True)
class ClosureResult:
    """A closure set plus the rule firing order that produced it."""

    closure: frozenset[str]
    derivation_order: tuple[Rule, ...]


def closure(system: LogicSystem, premises: Iterable[str]) -> ClosureResult:
    """Least fixpoint of the rules over the premises.

    Deterministic: rules are tried in their canonical order, and each firing
    that adds a new sentence is recorded. Replaying the recorded rules over
    the premises regenerates the closure.
    """
    start = frozenset(premises)
    stray = start - system.language
    if stray:
        raise UnknownSentence(f"premises outside the language: {sorted(stray)}")
    derived = set(start)
    order: list[Rule] = []
    changed = True
    while changed:
        changed = False
        for rule in system.rules:
            if rule.conclusion not in derived and rule.premises <= derived:
                derived.add(rule.conclusion)
                order.append(rule)
                changed = True
    return ClosureResult(frozenset(derived), tuple(order))


@dataclass(frozen=True, eq=False)
class ConjunctionSpace(Set):
    """Every conjunction word over ``atoms``: each arrangement of each subset
    of two or more atoms (permutational mode, sum of n!/(n-k)! for k = 2..n),
    or only the ascending one (canonical mode, 2^n - n - 1). Size and
    membership come from the atoms; iteration alone builds words, and raises
    ``SizeLimit`` first when there are more than ``_WORD_LIMIT``. The space
    compares and hashes equal to the frozenset of its words."""

    atoms: frozenset[FrozenSegment]
    mode: str

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, words: Iterable) -> frozenset:
        return frozenset(words)

    def __len__(self) -> int:
        n = len(self.atoms)
        if self.mode == "canonical":
            return 2**n - n - 1
        return sum(perm(n, k) for k in range(2, n + 1))

    def __contains__(self, candidate: object) -> bool:
        return (
            isinstance(candidate, ConjunctionWord)
            and candidate.atoms <= self.atoms
            and (self.mode == "permutational" or candidate.is_canonical)
        )

    def __iter__(self) -> Iterator[ConjunctionWord]:
        count = len(self)
        if count > _WORD_LIMIT:
            raise SizeLimit(
                f"{self.mode} decomposition of {len(self.atoms)} atoms has {count} "
                f"conjunctions, over the limit of {_WORD_LIMIT}"
            )
        ordered = sorted(self.atoms, key=lambda a: a.sort_key)
        arrange = combinations if self.mode == "canonical" else permutations
        return (
            ConjunctionWord(conjuncts)
            for size in range(2, len(ordered) + 1)
            for conjuncts in arrange(ordered, size)
        )


@dataclass(frozen=True)
class WordDecomposition:
    """The closure of one conjunction word, split into its disjoint parts.

    ``axioms`` are returned as given, ``conjunctions`` are every conjunction
    word formable from the atoms, and ``atoms`` are the word's conjuncts.
    In canonical mode conjunction identity is quotiented by arrangement, so
    the input word is represented by its canonical form.
    """

    word: ConjunctionWord
    mode: str
    axioms: frozenset
    conjunctions: ConjunctionSpace
    atoms: frozenset[FrozenSegment]

    def __contains__(self, candidate: object) -> bool:
        return candidate in self.axioms or candidate in self.atoms or candidate in self.conjunctions

    def members(self) -> frozenset:
        return self.axioms | self.conjunctions | self.atoms

    def cardinalities(self) -> dict[str, int]:
        sizes = {part: len(getattr(self, part)) for part in ("axioms", "conjunctions", "atoms")}
        return sizes | {"total": sum(sizes.values())}


def decompose(
    word: ConjunctionWord, axioms: Iterable = (), mode: str = "canonical"
) -> WordDecomposition:
    """Apply the word-level consequence operator to a single conjunction word;
    no conjunction word is built until the conjunctions are listed."""
    if mode not in ("canonical", "permutational"):
        raise ValueError(f"mode must be canonical or permutational, got {mode!r}")
    atom_set = word.atoms
    conjunctions = ConjunctionSpace(atom_set, mode)
    axiom_set = frozenset(axioms)
    overlap = [a for a in axiom_set if a in atom_set or a in conjunctions]
    if overlap:
        raise AxiomCollision(
            f"{len(overlap)} axiom(s) collide with the word's atoms or conjunctions"
        )
    return WordDecomposition(word, mode, axiom_set, conjunctions, atom_set)


def word_closure_contains(
    word: ConjunctionWord, candidate: object, axioms: Iterable = (), mode: str = "canonical"
) -> bool:
    """Whether ``candidate`` is in the word's closure; nothing is enumerated."""
    return candidate in decompose(word, axioms, mode)


@dataclass(frozen=True)
class AxiomViolation:
    """One failed axiom instance with its witness subset."""

    axiom: str
    witness: frozenset
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the consequence-operator axioms for one operator."""

    universe_size: int
    exhaustive: bool
    checked: int
    violations: tuple[AxiomViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _canon_key(value: object) -> tuple[str, str]:
    return (type(value).__name__, repr(value))


def _sorted_universe(universe: frozenset) -> list:
    return sorted(universe, key=_canon_key)


def _all_subsets(elements: list) -> Iterable[frozenset]:
    for size in range(len(elements) + 1):
        for subset in combinations(elements, size):
            yield frozenset(subset)


def check_consequence_axioms(
    op: SetOperator,
    universe: Iterable[Hashable],
    samples: int = 200,
    seed: int | None = None,
) -> AxiomReport:
    """Check extensiveness, idempotence, boundedness, and the finitary union
    property of a set-to-set operator over a finite universe.

    Exhaustive over all subsets when the universe has at most 12 members;
    otherwise ``samples`` subsets are drawn with a seeded generator, and the
    finitary check verifies sampled sub-subsets against the union form.
    Violations are reported as data, never raised.
    """
    universe_set = frozenset(universe)
    elements = _sorted_universe(universe_set)
    exhaustive = len(elements) <= _EXHAUSTIVE_LIMIT
    cache: dict[frozenset, frozenset] = {}

    def apply(subset: frozenset) -> frozenset:
        if subset not in cache:
            cache[subset] = frozenset(op(subset))
        return cache[subset]

    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    if exhaustive:
        candidates: Iterable[frozenset] = _all_subsets(elements)
    else:
        candidates = (
            frozenset(x for x in elements if rng.random() < 0.5)
            for _ in range(samples)
        )

    # Exhaustive mode sweeps subsets by ascending size and keeps, for the
    # previous size only, U(Y) = the union of op over the subsets of Y, keyed
    # by bitmask. Then U(X) = op(X) | U(X - {x}) for every x in X, which is
    # n * 2^n work against the 3^n of uniting op over every sub-subset.
    bits = {x: 1 << k for k, x in enumerate(elements)}
    smaller: dict[int, frozenset] = {}
    unions: dict[int, frozenset] = {}
    size = 0
    violations: list[AxiomViolation] = []
    checked = 0
    for subset in candidates:
        checked += 1
        result = apply(subset)
        if exhaustive:
            if len(subset) > size:
                size, smaller, unions = len(subset), unions, {}
            mask = sum(bits[x] for x in subset)
            union = result
            for x in subset:
                part = smaller[mask ^ bits[x]]
                if not part <= union:
                    union = union | part
            # ``union`` stays the cached op(X) object whenever it equals it.
            unions[mask] = union
        if not subset <= result:
            violations.append(
                AxiomViolation(
                    "extensive",
                    subset,
                    f"{len(subset - result)} member(s) dropped by the operator",
                )
            )
        if not result <= universe_set:
            violations.append(
                AxiomViolation(
                    "bounded",
                    subset,
                    f"{len(result - universe_set)} member(s) outside the universe",
                )
            )
            continue
        if apply(result) != result:
            violations.append(
                AxiomViolation("idempotent", subset, "op(op(X)) differs from op(X)")
            )
        if exhaustive:
            if union != result:
                violations.append(
                    AxiomViolation(
                        "finitary",
                        subset,
                        "union of op over the subsets of X differs from op(X)",
                    )
                )
        else:
            members = sorted(subset, key=_canon_key)
            for _ in range(min(samples, 2 ** len(members))):
                part = frozenset(x for x in members if rng.random() < 0.5)
                if not apply(part) <= result:
                    violations.append(
                        AxiomViolation(
                            "finitary",
                            subset,
                            f"op of a sub-subset of size {len(part)} escapes op(X)",
                        )
                    )
                    break
    return AxiomReport(len(elements), exhaustive, checked, tuple(violations))
