"""Reference computations that check ultraword's outputs.

Nothing here imports ultraword. Each function recomputes an expected value
from the generated inputs by a different method than the library uses:
closure by a counter-based worklist instead of repeated passes, points by
the closed form (i+1)/K - 1/(K*2^j), decomposition sizes by their closed
forms, standard parts by reading constant coefficients off the raw input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial


def closure(rules, premises) -> frozenset:
    """Least fixpoint by forward chaining with per-rule missing-premise counts.

    ``rules`` is a sequence of (premises, conclusion) pairs.
    """
    derived = set(premises)
    missing = []
    waiting: dict[str, list[int]] = {}
    ready = []
    for index, (prem, concl) in enumerate(rules):
        need = set(prem) - derived
        missing.append(len(need))
        for sentence in need:
            waiting.setdefault(sentence, []).append(index)
        if not need:
            ready.append(concl)
    while ready:
        sentence = ready.pop()
        if sentence in derived:
            continue
        derived.add(sentence)
        for index in waiting.get(sentence, ()):
            missing[index] -= 1
            if missing[index] == 0:
                ready.append(rules[index][1])
    return frozenset(derived)


def replays(fired, premises, expected: frozenset) -> bool:
    """True when the fired rules, applied in order from the premises, each
    add a new sentence from premises already present, and end at ``expected``."""
    have = set(premises)
    for prem, concl in fired:
        if concl in have or not set(prem) <= have:
            return False
        have.add(concl)
    return have == expected


def rule_pairs(doc: dict) -> list[tuple[tuple[str, ...], str]]:
    """The (premises, conclusion) pairs of a rule-system JSON document."""
    return [(tuple(r["premises"]), r["conclusion"]) for r in doc["rules"]]


def fmt(value: Fraction) -> str:
    """"p/q" in lowest terms, or "p" for an integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return f"{value.numerator}"
    return f"{value.numerator}/{value.denominator}"


def point(K: int, i: int, j: int) -> Fraction:
    """t(i, j) = (i+1)/K - 1/(K*2^j)."""
    return Fraction(i + 1, K) - Fraction(1, K * 2**j)


def clause(t: Fraction, mode: str = "description") -> str:
    return f"This {mode} is named ⌈{fmt(t)}⌉."


def rect_indices(q: int, m: int | None, i_lo: int, i_hi: int, j_max: int):
    """Admissible (i, j) in a rectangle, lexicographic: the closed endpoint
    (i = m for kind 1, i = 0 for kind 3) keeps only j = 0."""
    closed = m if q == 1 else 0 if q == 3 else None
    return [
        (i, j)
        for i in range(i_lo, i_hi + 1)
        for j in range(j_max + 1)
        if i != closed or j == 0
    ]


def bounds_indices(q: int, m: int, n: int, p: int | None):
    """Index set of truncation bounds, lexicographic."""
    if q == 1:
        return rect_indices(1, m, 0, m, n)
    if q == 2:
        return rect_indices(2, None, 0, m, n)
    if q == 3:
        return rect_indices(3, None, m, 0, n)
    return rect_indices(4, None, m, p, n)


def canonical_count(n: int) -> int:
    """Conjunctions over n atoms, one per subset of size two or more."""
    return 2**n - n - 1


def permutational_count(n: int) -> int:
    """Arrangements of every atom subset of size two or more."""
    return sum(factorial(n) // factorial(n - k) for k in range(2, n + 1))


def theory_signature(rules, perceived) -> frozenset:
    """Union over nonempty X of {sorted(X) + (y,)} for each newly perceived y."""
    members = sorted(perceived)
    pset = frozenset(perceived)
    tuples = set()
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            new = (closure(rules, subset) & pset) - set(subset)
            tuples.update(subset + (y,) for y in new)
    return frozenset(tuples)


def series_constant(value) -> Fraction:
    """Constant coefficient of a JSON series: a scalar or [[exp, "p/q"], ...]."""
    if isinstance(value, list):
        return sum((Fraction(c) for e, c in value if e == 0), Fraction(0))
    return Fraction(value)


def series_is_constant(value) -> bool:
    if not isinstance(value, list):
        return True
    return all(e == 0 or Fraction(c) == 0 for e, c in value)


def is_standard(entry: list) -> bool:
    """A JSON subparticle that its own standard part leaves unchanged."""
    return entry[0] == 0 and entry[1] == 0 and all(
        series_is_constant(v) for v in entry[2:]
    )


def standard_image(entry: list) -> tuple[Fraction, ...]:
    """Standard part of a JSON subparticle, as its constant coefficients."""
    return tuple(series_constant(v) for v in entry[2:])


def realism(entries: list) -> frozenset:
    """Standard images that are not themselves members."""
    own = {standard_image(e) for e in entries if is_standard(e)}
    return frozenset(standard_image(e) for e in entries) - own
