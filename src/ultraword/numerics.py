"""Exact arithmetic foundation: rationals, truncated infinitesimal series, and
symbolic infinite indices.

Rationals are ``fractions.Fraction`` (arbitrary precision, canonical lowest
terms, exact field arithmetic). ``EpsilonSeries`` is a finite formal series in
a fixed positive infinitesimal ``eps``; it models the limited hyperreals when
no negative exponents occur, and deliberately *can* represent unlimited values
(negative exponents) so downstream operators can reject them with a typed
error instead of being unable to express them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, Union

from .errors import UnknownLabel

Rational = Fraction

_RATIONAL_RE = re.compile(r"\A[+-]?\d+(?:/\d+)?\Z")

RationalLike = Union[Rational, int]


def parse_rational(text: str) -> Rational:
    """Parse the canonical "p/q" (or bare "p") serialization, exactly."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Serialize in lowest terms: "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, (Fraction, int)):
        return value if type(value) is Fraction else Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


@total_ordering
@dataclass(frozen=True)
class EpsilonSeries:
    """Finite series sum(q_k * eps**k) over exact rational coefficients.

    Terms are kept sorted by exponent with zero coefficients dropped, so
    structural equality coincides with field equality. The order is the field
    order with 0 < eps < r for every positive standard rational r: the sign of
    a series is the sign of the coefficient at its minimum exponent.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        combined: dict[int, Fraction] = {}
        for exponent, coefficient in self.terms:
            if not isinstance(exponent, int):
                raise TypeError(f"exponent must be an integer, got {exponent!r}")
            coefficient = _as_fraction(coefficient)
            if exponent in combined:
                coefficient += combined[exponent]
            combined[exponent] = coefficient
        canonical = tuple(
            (k, c) for k, c in sorted(combined.items()) if c != 0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def from_rational(cls, value: RationalLike) -> EpsilonSeries:
        return cls(((0, _as_fraction(value)),))

    @classmethod
    def from_terms(
        cls, terms: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]]
    ) -> EpsilonSeries:
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        return cls(tuple((k, _as_fraction(c)) for k, c in pairs))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exponent(self) -> int | None:
        """Exponent of the dominant term; None for the zero series."""
        return self.terms[0][0] if self.terms else None

    @property
    def is_limited(self) -> bool:
        """True when no negative exponent occurs (membership in G(0))."""
        return self.is_zero or self.terms[0][0] >= 0

    def coefficient(self, exponent: int) -> Fraction:
        for k, c in self.terms:
            if k == exponent:
                return c
        return Fraction(0)

    def sign(self) -> int:
        if not self.terms:
            return 0
        lead = self.terms[0][1]
        return 1 if lead > 0 else -1

    def _coerced(self, other: object) -> EpsilonSeries | None:
        if isinstance(other, EpsilonSeries):
            return other
        if isinstance(other, (Fraction, int)):
            return EpsilonSeries.from_rational(other)
        return None

    def __add__(self, other: object) -> EpsilonSeries:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return EpsilonSeries(self.terms + rhs.terms)

    __radd__ = __add__

    def __neg__(self) -> EpsilonSeries:
        return EpsilonSeries(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: object) -> EpsilonSeries:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> EpsilonSeries:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> EpsilonSeries:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        products = tuple(
            (ka + kb, ca * cb) for ka, ca in self.terms for kb, cb in rhs.terms
        )
        return EpsilonSeries(products)

    __rmul__ = __mul__

    def __lt__(self, other: object) -> bool:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __eq__(self, other: object) -> bool:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def to_pairs(self) -> list[list[object]]:
        """Serialize as [[exponent, "p/q"], ...] sorted by exponent."""
        return [[k, format_rational(c)] for k, c in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms:
            if k == 0:
                parts.append(format_rational(c))
            elif k == 1:
                parts.append(f"{format_rational(c)}*eps")
            else:
                parts.append(f"{format_rational(c)}*eps^{k}")
        return " + ".join(parts)


def epsilon(exponent: int = 1) -> EpsilonSeries:
    """The series eps**exponent with unit coefficient."""
    return EpsilonSeries(((exponent, Fraction(1)),))


def compare(x: EpsilonSeries, y: EpsilonSeries) -> int:
    """-1, 0, or +1: the sign of the dominant coefficient of (x - y)."""
    return (x - y).sign()


@dataclass(frozen=True)
class Std:
    """A standard natural number index."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"standard index must be a natural number, got {self.n}")


@dataclass(frozen=True)
class Inf:
    """A symbolic infinite index: a label plus a finite offset (label + offset).

    Offsets let indices one step away from an infinite marker (lambda - 1,
    lambda + 1, ...) be written without arithmetic on genuinely infinite
    numbers.
    """

    label: str
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("infinite-index label must be nonempty")


HyperNatural = Union[Std, Inf]


@dataclass(frozen=True)
class LabelContext:
    """Declared order for infinite-index labels.

    Every standard index precedes every infinite marker; markers with the same
    label compare by offset; distinct labels compare by declaration order.
    """

    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate infinite-index labels")

    def _rank(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} was never declared") from None

    def compare(self, a: HyperNatural, b: HyperNatural) -> int:
        """Total order: -1, 0, or +1."""
        for value in (a, b):
            if isinstance(value, Inf):
                self._rank(value.label)
        if isinstance(a, Std) and isinstance(b, Std):
            return (a.n > b.n) - (a.n < b.n)
        if isinstance(a, Std):
            return -1
        if isinstance(b, Std):
            return 1
        key_a = (self._rank(a.label), a.offset)
        key_b = (self._rank(b.label), b.offset)
        return (key_a > key_b) - (key_a < key_b)
