"""Shared hypothesis strategies and small factories for the test suite."""

import random
from fractions import Fraction

import hypothesis.strategies as st

from ultraword import (
    EpsilonSeries,
    LogicSystem,
    PartitionScheme,
    PerceivedContext,
    segment_at,
)

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=64)

rationals = st.fractions()


def eps_series(min_exponent: int = -3, max_exponent: int = 4) -> st.SearchStrategy:
    return st.dictionaries(
        st.integers(min_exponent, max_exponent), small_rationals, max_size=4
    ).map(EpsilonSeries.from_terms)


def limited_series() -> st.SearchStrategy:
    return eps_series(min_exponent=0)


def infinitesimal_tails() -> st.SearchStrategy:
    """Limited series whose infinitesimal part is nonzero (members of G(0) - R)."""
    return st.tuples(
        st.dictionaries(st.integers(0, 3), small_rationals, max_size=3),
        st.integers(1, 4),
        small_rationals.filter(lambda q: q != 0),
    ).map(
        lambda parts: EpsilonSeries.from_terms(dict(parts[0]) | {parts[1]: parts[2]})
    )


def seg(t, body: str = "event", mode: str = "description", family=None):
    return segment_at(Fraction(t), body, mode=mode, family=family)


def random_system(rng: random.Random, max_sentences: int = 6) -> LogicSystem:
    size = rng.randint(1, max_sentences)
    language = [f"s{k}" for k in range(size)]
    rules = []
    for _ in range(rng.randint(0, 2 * size)):
        premises = rng.sample(language, rng.randint(1, min(3, size)))
        rules.append((premises, rng.choice(language)))
    return LogicSystem.build(language, rules)


def random_context(rng: random.Random, max_sentences: int = 5) -> PerceivedContext:
    system = random_system(rng, max_sentences)
    members = sorted(system.language)
    perceived = rng.sample(members, rng.randint(0, len(members)))
    return PerceivedContext(system.language, frozenset(perceived), system)


def segments() -> st.SearchStrategy:
    """Frozen segments varying in every field that equality compares."""
    return st.builds(
        seg,
        small_rationals,
        body=st.sampled_from(["event", "a b", "pulse"]),
        mode=st.sampled_from(["description", "instruction"]),
        family=st.sampled_from([None, ("p", 1), ("p", Fraction(1, 2))]),
    )


def atom_lists(min_size: int = 2, max_size: int = 6) -> st.SearchStrategy:
    """Lists of distinct segments, the atoms of one conjunction word."""
    return st.lists(segments(), min_size=min_size, max_size=max_size, unique=True)


@st.composite
def point_tables(draw) -> tuple[int, int, int, dict]:
    """A full-line window (i_lo, i_hi, j_max) and a point table over it.

    The table's values, read in index order, either rise strictly, rise with
    one tie, or come in random order (usually with a descent).
    """
    i_lo = draw(st.integers(-3, 2))
    i_hi = draw(st.integers(i_lo, i_lo + 3))
    j_max = draw(st.integers(0, 3))
    indices = [(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_max + 1)]
    times = draw(
        st.lists(small_rationals, min_size=len(indices), max_size=len(indices), unique=True)
    )
    shape = draw(st.sampled_from(["rising", "tie", "shuffled"]))
    if shape != "shuffled":
        times.sort()
    if shape == "tie" and len(times) > 1:
        k = draw(st.integers(1, len(times) - 1))
        times[k] = times[k - 1]
    return i_lo, i_hi, j_max, dict(zip(indices, times))


def event_sequences(max_size: int = 12) -> st.SearchStrategy:
    """Short value sequences over a pool that includes a value outside any range."""
    return st.lists(st.sampled_from(["F", "d1", "d2", "junk"]), min_size=1, max_size=max_size)


@st.composite
def schemes(draw) -> PartitionScheme:
    """Default-rule schemes over all four interval kinds; the bounded kind has
    one to four subintervals."""
    q = draw(st.integers(1, 4))
    K = draw(st.integers(1, 3))
    return PartitionScheme.of(q, K, draw(st.integers(1, 4)) if q == 1 else None)


@st.composite
def rectangles(draw) -> tuple[int, int, int]:
    """(i_lo, i_hi, j_max) around 0, sometimes empty, with a negative j_max, or
    reaching past a kind's ends."""
    i_lo = draw(st.integers(-5, 5))
    return i_lo, i_lo + draw(st.integers(-1, 4)), draw(st.integers(-1, 3))
