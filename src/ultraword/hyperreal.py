"""Standard-part operators over subparticle representations.

A subparticle representation is a tuple whose first two coordinates are
(possibly infinite) natural-number indices and whose remaining coordinates
are truncated infinitesimal series. The point operator maps each limited
series to its constant coefficient; lifted to representations it zeroes the
leading indices and takes coordinatewise standard parts. The extended set
operator unions a set with its image and is a finite consequence operator on
any universe closed under the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .decode import DecodeError, each, fields, rational, typed
from .errors import Unlimited
from .numerics import EpsilonSeries, HyperNatural, Inf, Rational, Std


def st_point(x: EpsilonSeries) -> Rational:
    """Standard part of a limited series: its constant coefficient."""
    if not x.is_limited:
        raise Unlimited(
            f"series with minimum exponent {x.min_exponent} has no standard part"
        )
    return x.coefficient(0)


@dataclass(frozen=True)
class SubparticleRep:
    """(a_1, a_2, a_3, ...): two index coordinates, then series coordinates.

    Integers coerce to standard indices in the first two positions and to
    constant series afterwards. A representation is *limited* when every
    series coordinate is; only limited representations belong to a universe.
    """

    coords: tuple

    def __post_init__(self) -> None:
        if len(self.coords) < 3:
            raise ValueError(
                f"a subparticle representation needs arity >= 3, got {len(self.coords)}"
            )
        head = []
        for value in self.coords[:2]:
            if isinstance(value, int):
                value = Std(value)
            if not isinstance(value, (Std, Inf)):
                raise TypeError(
                    f"leading coordinates must be natural-number indices, got {value!r}"
                )
            head.append(value)
        tail = []
        for value in self.coords[2:]:
            if isinstance(value, (int, Fraction)):
                value = EpsilonSeries.from_rational(value)
            if not isinstance(value, EpsilonSeries):
                raise TypeError(
                    f"trailing coordinates must be epsilon series, got {value!r}"
                )
            tail.append(value)
        object.__setattr__(self, "coords", tuple(head) + tuple(tail))

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def series(self) -> tuple[EpsilonSeries, ...]:
        return self.coords[2:]

    @property
    def is_limited(self) -> bool:
        return all(x.is_limited for x in self.series)

    def __str__(self) -> str:
        head = ", ".join(
            str(c.n) if isinstance(c, Std) else f"{c.label}+{c.offset}"
            for c in self.coords[:2]
        )
        tail = ", ".join(str(x) for x in self.series)
        return f"({head}, {tail})"


def st_subparticle(rep: SubparticleRep) -> SubparticleRep:
    """Zero the index coordinates and take coordinatewise standard parts."""
    standard_tail = tuple(
        EpsilonSeries.from_rational(st_point(x)) for x in rep.series
    )
    return SubparticleRep((Std(0), Std(0)) + standard_tail)


def st_set(reps: Iterable[SubparticleRep]) -> frozenset[SubparticleRep]:
    """Image of a set under the standard part; coincident images collapse."""
    return frozenset(st_subparticle(rep) for rep in reps)


def st_extended(reps: Iterable[SubparticleRep]) -> frozenset[SubparticleRep]:
    """A set together with its standard-part image."""
    members = frozenset(reps)
    return members | st_set(members)


def realism_relation(reps: Iterable[SubparticleRep]) -> frozenset[SubparticleRep]:
    """Only what the extended operator newly produced: 'St(Y) - Y."""
    members = frozenset(reps)
    return st_extended(members) - members


@dataclass(frozen=True)
class SPUniverse:
    """A finite universe of limited subparticle representations of one arity."""

    arity: int
    members: frozenset[SubparticleRep]

    def __post_init__(self) -> None:
        if self.arity < 3:
            raise ValueError(f"arity must be at least 3, got {self.arity}")
        object.__setattr__(self, "members", frozenset(self.members))
        for rep in self.members:
            if rep.arity != self.arity:
                raise ValueError(
                    f"member arity {rep.arity} differs from universe arity {self.arity}"
                )
            if not rep.is_limited:
                raise Unlimited("universe members must have limited series coordinates")

    @classmethod
    def closed(cls, members: Iterable[SubparticleRep], arity: int | None = None) -> SPUniverse:
        """Universe containing the members and their standard-part images."""
        pool = frozenset(members)
        if arity is None:
            if not pool:
                raise ValueError("cannot infer arity from an empty member set")
            arity = next(iter(pool)).arity
        return cls(arity, st_extended(pool))

    def extended_operator(self):
        """The extended standard part as a set operator for the axiom harness."""
        return lambda X: st_extended(X)


def _hypernatural_from_json(value: object) -> HyperNatural:
    if type(value) is int:
        return Std(value)
    label, offset = fields(value, ("inf",), offset=0)
    return Inf(typed(label, str, "inf"), typed(offset, int, "offset"))


def _hypernatural_to_json(value: HyperNatural) -> object:
    if isinstance(value, Std):
        return value.n
    return {"inf": value.label, "offset": value.offset}


def _term_from_json(pair: object) -> tuple[int, Fraction]:
    if len(typed(pair, list, "")) != 2:
        raise DecodeError("", "expected an [exponent, coefficient] pair")
    return typed(pair[0], int, "[0]"), rational(pair[1], "[1]")


def _series_from_json(value: object) -> EpsilonSeries:
    if type(value) is list:
        return EpsilonSeries(tuple(each(_term_from_json, value, "")))
    return EpsilonSeries.from_rational(rational(value, ""))


def subparticle_from_json(coords: object) -> SubparticleRep:
    head = each(_hypernatural_from_json, typed(coords, list, "")[:2], "")
    return SubparticleRep((*head, *each(_series_from_json, coords, "", start=2)))


def subparticle_to_json(rep: SubparticleRep) -> list:
    return [_hypernatural_to_json(c) for c in rep.coords[:2]] + [
        x.to_pairs() for x in rep.series
    ]


def universe_from_json(obj: object) -> SPUniverse:
    """Parse {"arity": n, "members": [[...], ...]}."""
    arity, members = fields(obj, ("arity", "members"))
    return SPUniverse(typed(arity, int, "arity"), each(subparticle_from_json, members, "members"))
