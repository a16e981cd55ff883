"""Inductively admissible event sequences and finite truncation windows of a
paradigm, together with the conjunction words that entail them.

The admissible-prefix family is built by induction: a sequence on [0, 1] is
admissible when it starts at the distinguished beginning segment and its
second value lies in the declared range; longer sequences are admissible when
their one-step restriction is and the new value lies in the range. A window
selects the finitely many segments of a paradigm below given index bounds;
its conjunction word is the finite stand-in for the word whose consequence
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

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __call__(self, k: int) -> object:
        return self.values[k]

    def restrict(self, k: int) -> PartialSequence:
        """Restriction to [0, k]."""
        return PartialSequence(self.values[: k + 1])


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

    ``m`` bounds the subinterval index (for the bounded kind it must equal the
    kind's subinterval count; for the nonpositive kind it is the least index),
    ``p`` the upper subinterval index (full-line kind only), and ``n`` the
    within-subinterval index. ``label`` optionally names the infinite index
    the window stands in for; it is display metadata only and never iterated.
    """

    kind: IntervalKind
    m: int
    n: int
    p: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InadmissibleIndex(f"n must be a natural number, got {self.n}")
        q = self.kind.q
        if q == 1:
            if self.m != self.kind.m:
                raise InadmissibleIndex(
                    f"bounded kind fixes m = {self.kind.m}, got {self.m}"
                )
            if self.p is not None:
                raise InadmissibleIndex("p applies only to the full-line kind")
        elif q == 2:
            if self.m < 0:
                raise InadmissibleIndex(f"kind 2 needs m >= 0, got {self.m}")
            if self.p is not None:
                raise InadmissibleIndex("p applies only to the full-line kind")
        elif q == 3:
            if self.m > 0:
                raise InadmissibleIndex(f"kind 3 needs m <= 0, got {self.m}")
            if self.p is not None:
                raise InadmissibleIndex("p applies only to the full-line kind")
        else:
            if self.p is None:
                raise InadmissibleIndex("full-line kind needs p")
            if not (self.m <= 0 <= self.p):
                raise InadmissibleIndex(
                    f"full-line kind needs m <= 0 <= p, got m={self.m}, p={self.p}"
                )


def window_indices(bounds: TruncationBounds) -> list[IndexPair]:
    """The window's index set, in lexicographic order.

    Closed endpoints (i = m for the bounded kind, i = 0 for the nonpositive
    kind) contribute only their single j = 0 index; for the full-line kind
    the subinterval i = 0 is shared by both halves.
    """
    q = bounds.kind.q
    js = range(bounds.n + 1)
    if q == 1:
        pairs = [(i, j) for i in range(bounds.m) for j in js] + [(bounds.m, 0)]
    elif q == 2:
        pairs = [(i, j) for i in range(bounds.m + 1) for j in js]
    elif q == 3:
        pairs = [(i, j) for i in range(bounds.m, 0) for j in js] + [(0, 0)]
    else:
        low = [(i, j) for i in range(bounds.m, 1) for j in js]
        high = [(k, j) for k in range(bounds.p + 1) for j in js]
        pairs = sorted(set(low) | set(high))
    return [IndexPair(i, j) for i, j in pairs]


def _check_kind(dp: DevelopmentalParadigm, bounds: TruncationBounds) -> None:
    if dp.scheme.kind != bounds.kind:
        raise InadmissibleIndex(
            f"bounds are for interval kind {bounds.kind.q}, paradigm uses "
            f"kind {dp.scheme.kind.q}"
        )


def segment_window(
    dp: DevelopmentalParadigm, bounds: TruncationBounds
) -> frozenset[FrozenSegment]:
    """The finite set of paradigm segments selected by the bounds."""
    _check_kind(dp, bounds)
    return frozenset(dp.segment(idx) for idx in window_indices(bounds))


def window_rows(dp: DevelopmentalParadigm, bounds: TruncationBounds) -> list[dict]:
    """JSON-ready rows {i, j, t, clause} for the window, in index order."""
    _check_kind(dp, bounds)
    return [
        {
            "i": idx.i,
            "j": idx.j,
            "t": format_rational(dp.scheme.point(idx)),
            "clause": dp.segment(idx).naming_clause,
        }
        for idx in window_indices(bounds)
    ]


def ultraword(dp: DevelopmentalParadigm, bounds: TruncationBounds) -> ConjunctionWord:
    """The canonical conjunction word over the window's segments.

    Its consequence closure contains every segment of the window; the window
    in turn contains the finitely indexed part of the paradigm, so this word
    is the finite stand-in for the infinite-index word of the full theory.
    """
    return build_conjunction_word(segment_window(dp, bounds))
