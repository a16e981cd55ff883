"""Inductively admissible event sequences and finite truncation windows of a
paradigm, together with the conjunction words that entail them.

The admissible-prefix family is built by induction: a sequence on [0, 1] is
admissible when it starts at the distinguished beginning segment and its
second value lies in the declared range; a longer sequence is admissible when
it extends an admissible one by a value in the range. A window selects the
finitely many segments of a paradigm below given index bounds; its
conjunction word is the finite stand-in for the word whose consequence
closure recovers the whole window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InadmissibleIndex
from .language import ConjunctionWord, DevelopmentalParadigm, FrozenSegment, build_conjunction_word
from .numerics import format_rational
from .timeline import IndexPair, IntervalKind


@dataclass(frozen=True)
class PartialSequence:
    """A total function on [0, n], stored as its value tuple."""

    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a partial sequence needs at least the value at 0")


@dataclass(frozen=True)
class EventSpace:
    """A finite range of events plus the distinguished beginning segment.

    The beginning segment need not belong to the range: the start condition
    is a separate clause from the range condition.
    """

    events: frozenset
    start: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", frozenset(self.events))

    @classmethod
    def of(cls, events: Iterable, start: object) -> EventSpace:
        return cls(frozenset(events), start)


def is_admissible_prefix(seq: PartialSequence, space: EventSpace) -> bool:
    """Membership in the inductive family, unfolded into one scan: at least two
    values, the first is the beginning segment, every later one is in range."""
    values = seq.values
    return len(values) >= 2 and values[0] == space.start and all(
        value in space.events for value in values[1:]
    )


def is_paradigm(
    sequence: Callable[[int], object], space: EventSpace, horizon: int
) -> bool:
    """Check an infinite-sequence oracle up to a finite horizon.

    True when the sequence starts at the beginning segment and every prefix
    through the horizon is admissible, which is one check of the longest
    prefix. Nothing is claimed beyond the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    values = tuple(sequence(k) for k in range(horizon + 1))
    return is_admissible_prefix(PartialSequence(values), space)


@dataclass(frozen=True)
class TruncationBounds:
    """Finite index bounds selecting a window of a paradigm.

    The window's subinterval range ``i_range`` is the kind's own ends where
    they are finite, with ``m`` and then ``p`` filling the unbounded ends:
    (0, kind.m) for the bounded kind, (0, m) for the nonnegative kind, (m, 0)
    for the nonpositive kind and (m, p) for the full line. ``n`` bounds the
    within-subinterval index, except at the kind's closed endpoint, which
    keeps only j = 0. The bounds are valid when n >= 0, the bounded kind's m
    equals its subinterval count, p is given exactly for the full line, and
    i_range runs from at most 0 to at least 0. ``label`` optionally names the
    infinite index the window stands in for; it is display metadata only and
    never iterated.
    """

    kind: IntervalKind
    m: int
    n: int
    p: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InadmissibleIndex(f"n must be a natural number, got {self.n}")
        if self.kind.m is not None and self.m != self.kind.m:
            raise InadmissibleIndex(
                f"bounded kind fixes m = {self.kind.m}, got {self.m}"
            )
        full_line = self.kind.lo is None and self.kind.hi is None
        if (self.p is not None) != full_line:
            raise InadmissibleIndex(
                "full-line kind needs p" if full_line
                else "p applies only to the full-line kind"
            )
        i_lo, i_hi = self.i_range
        if not i_lo <= 0 <= i_hi:
            raise InadmissibleIndex(
                f"interval kind {self.kind.q} bounds give i range {i_lo}..{i_hi}, "
                "which must hold 0"
            )

    @property
    def i_range(self) -> tuple[int, int]:
        """(i_lo, i_hi): the kind's finite ends, m and then p filling the rest."""
        lo, hi = self.kind.lo, self.kind.hi
        if lo is None:
            return self.m, self.p if hi is None else hi
        return lo, self.m if hi is None else hi


def window_indices(bounds: TruncationBounds) -> list[IndexPair]:
    """The window's index set, in lexicographic order."""
    return bounds.kind.indices(*bounds.i_range, bounds.n)


def _window(
    dp: DevelopmentalParadigm, bounds: TruncationBounds
) -> list[tuple[IndexPair, FrozenSegment]]:
    if dp.scheme.kind != bounds.kind:
        raise InadmissibleIndex(
            f"bounds are for interval kind {bounds.kind.q}, paradigm uses "
            f"kind {dp.scheme.kind.q}"
        )
    return dp.window(*bounds.i_range, bounds.n)


def segment_window(
    dp: DevelopmentalParadigm, bounds: TruncationBounds
) -> frozenset[FrozenSegment]:
    """The finite set of paradigm segments selected by the bounds."""
    return frozenset(segment for _, segment in _window(dp, bounds))


def window_rows(dp: DevelopmentalParadigm, bounds: TruncationBounds) -> list[dict]:
    """JSON-ready rows {i, j, t, clause} for the window, in index order."""
    return [
        {
            "i": idx.i,
            "j": idx.j,
            "t": format_rational(segment.time_id),
            "clause": segment.naming_clause,
        }
        for idx, segment in _window(dp, bounds)
    ]


def ultraword(dp: DevelopmentalParadigm, bounds: TruncationBounds) -> ConjunctionWord:
    """The canonical conjunction word over the window's segments.

    Its consequence closure contains every segment of the window; the window
    in turn contains the finitely indexed part of the paradigm, so this word
    is the finite stand-in for the infinite-index word of the full theory.
    """
    return build_conjunction_word(segment_window(dp, bounds))
