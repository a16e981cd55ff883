"""Lexicographically ordered index pairs and exact rational partition points
for the four primitive-time interval kinds.

An index pair (i, j) selects the j-th partition point of the i-th subinterval
[c_i, c_{i+1}) with c_i = i/K. The default point rule is

    t(i, j) = (1/K) * (i + 1 - 1/2**j)

which starts each subinterval at c_i (j = 0) and climbs strictly toward
c_{i+1} without reaching it; the rational order of the points then agrees
exactly with the lexicographic order of the indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Hashable

from .errors import InadmissibleIndex
from .numerics import Rational

PointRule = Callable[[int, int], Rational]


@total_ordering
@dataclass(frozen=True)
class IndexPair:
    """(i, j) with integer i and natural j, ordered lexicographically."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError(f"j must be a natural number, got {self.j}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)

    def __lt__(self, other: IndexPair) -> bool:
        return self.key < other.key


@dataclass(frozen=True)
class IntervalKind:
    """One of the four primitive-time interval shapes, and the owner of the
    index rule every window, bound and CLI default derives from.

    q=1 is [0, b] split into m subintervals (so b must equal m/K for the
    scheme's K); q=2 is [0, +inf); q=3 is (-inf, 0]; q=4 is the full line.

    ``lo`` and ``hi`` are the least and greatest admissible subinterval index,
    None where the kind is unbounded: (0, m), (0, None), (None, 0) and
    (None, None). A kind bounded above is closed there, so its greatest
    subinterval is also ``closed`` (m for q=1, 0 for q=3, otherwise None):
    the closed endpoint carries the single index (closed, 0).
    """

    q: int
    b: Rational | None = None
    m: int | None = None
    lo: int | None = field(init=False, repr=False, compare=False)
    hi: int | None = field(init=False, repr=False, compare=False)
    closed: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q not in (1, 2, 3, 4):
            raise ValueError(f"interval kind must be 1..4, got {self.q}")
        if self.q == 1:
            if self.b is None or self.m is None:
                raise ValueError("bounded kind needs both b and m")
            object.__setattr__(self, "b", Fraction(self.b))
            if self.b <= 0:
                raise ValueError(f"b must be positive, got {self.b}")
            if self.m <= 0:
                raise ValueError(f"m must be positive, got {self.m}")
        elif self.b is not None or self.m is not None:
            raise ValueError("b and m apply only to the bounded kind (q=1)")
        lo, hi = {1: (0, self.m), 2: (0, None), 3: (None, 0), 4: (None, None)}[self.q]
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "closed", hi)

    def admissible(self, idx: IndexPair) -> bool:
        """Whether idx lies within the ends, j = 0 only at the closed endpoint."""
        i = idx.i
        return (
            (self.lo is None or self.lo <= i)
            and (self.hi is None or i <= self.hi)
            and (i != self.closed or idx.j == 0)
        )

    def indices(self, i_lo: int, i_hi: int, j_max: int) -> list[IndexPair]:
        """Every admissible index of the rectangle i_lo..i_hi x 0..j_max, in
        lexicographic order; the closed endpoint gives only its j = 0 index.

        Raises InadmissibleIndex when the rectangle is empty or leaves the kind.
        """
        if i_lo > i_hi:
            raise InadmissibleIndex(f"empty index range {i_lo}..{i_hi}")
        if j_max < 0:
            raise InadmissibleIndex(f"j_max must be a natural number, got {j_max}")
        if (self.lo is not None and i_lo < self.lo) or (
            self.hi is not None and i_hi > self.hi
        ):
            raise InadmissibleIndex(
                f"i range {i_lo}..{i_hi} outside interval kind {self.q}"
            )
        return [
            IndexPair(i, j)
            for i in range(i_lo, i_hi + 1)
            for j in range(1 if i == self.closed else j_max + 1)
        ]

    @classmethod
    def bounded(cls, b: Rational, m: int) -> IntervalKind:
        return cls(1, Fraction(b), m)

    @classmethod
    def nonnegative(cls) -> IntervalKind:
        return cls(2)

    @classmethod
    def nonpositive(cls) -> IntervalKind:
        return cls(3)

    @classmethod
    def full_line(cls) -> IntervalKind:
        return cls(4)


@dataclass(frozen=True)
class PartitionScheme:
    """Immutable partition-point generator for one interval kind.

    ``point_rule`` may be replaced by any (i, j) -> Rational strategy; custom
    rules are validated on each requested window (start at c_i, strictly
    increasing in j, bounded below c_{i+1}) because only the default rule
    carries a proof of those properties.
    """

    K: int
    kind: IntervalKind
    point_rule: PointRule | None = None

    def __post_init__(self) -> None:
        if self.K <= 0:
            raise ValueError(f"K must be a positive integer, got {self.K}")
        if self.kind.b is not None and self.kind.b != Fraction(self.kind.m, self.K):
            raise ValueError(
                f"bounded kind needs b = m/K; got b={self.kind.b}, m/K="
                f"{Fraction(self.kind.m, self.K)}"
            )

    @classmethod
    def of(cls, q: int, K: int, m: int | None = None, b: Rational | None = None) -> PartitionScheme:
        """The default-rule scheme for (q, K, m, b), as read from a file or
        flags; b defaults to m/K. Values the kind does not use are rejected."""
        if K <= 0:
            raise ValueError(f"K must be a positive integer, got {K}")
        if b is None and m is not None:
            b = Fraction(m, K)
        return cls(K, IntervalKind(q, b, m))

    @property
    def is_default_rule(self) -> bool:
        return self.point_rule is None

    @property
    def key(self) -> Hashable:
        """Identity of the scheme, usable as a paradigm family marker."""
        return (self.kind.q, self.K, self.kind.b, self.kind.m, self.point_rule)

    def c(self, i: int) -> Rational:
        """Left endpoint i/K of the i-th subinterval."""
        return Fraction(i, self.K)

    def _rule(self, i: int, j: int) -> Rational:
        if self.point_rule is not None:
            return Fraction(self.point_rule(i, j))
        return Fraction((i + 1) * 2**j - 1, self.K * 2**j)

    def admissible(self, idx: IndexPair) -> bool:
        return self.kind.admissible(idx)

    def require(self, idx: IndexPair) -> None:
        if not self.kind.admissible(idx):
            raise InadmissibleIndex(
                f"index ({idx.i},{idx.j}) is outside interval kind {self.kind.q}"
            )

    def point(self, idx: IndexPair) -> Rational:
        """Exact partition point for an admissible index."""
        self.require(idx)
        return self._rule(idx.i, idx.j)

    def window(
        self, i_lo: int, i_hi: int, j_max: int, *, validate: bool = False
    ) -> list[tuple[IndexPair, Rational]]:
        """All admissible (index, point) pairs in the rectangle, in lex order,
        over the kind's ``indices``."""
        rows = [
            (idx, self._rule(idx.i, idx.j))
            for idx in self.kind.indices(i_lo, i_hi, j_max)
        ]
        if validate and not self.is_default_rule:
            self._validate_rows(rows)
        return rows

    def _validate_rows(self, rows: list[tuple[IndexPair, Rational]]) -> None:
        by_i: dict[int, list[tuple[int, Rational]]] = {}
        for idx, t in rows:
            by_i.setdefault(idx.i, []).append((idx.j, t))
        for i, points in by_i.items():
            if points[0][0] == 0 and points[0][1] != self.c(i):
                raise ValueError(
                    f"point rule must start subinterval {i} at {self.c(i)}, "
                    f"got {points[0][1]}"
                )
            for (_, prev), (_, cur) in zip(points, points[1:]):
                if cur <= prev:
                    raise ValueError(
                        f"point rule is not strictly increasing in subinterval {i}"
                    )
            if i != self.kind.closed:
                ceiling = self.c(i + 1)
                for _, t in points:
                    if t >= ceiling:
                        raise ValueError(
                            f"point rule escapes subinterval {i}: {t} >= {ceiling}"
                        )


def verify_order_embedding(
    scheme: PartitionScheme, i_lo: int, i_hi: int, j_max: int
) -> bool:
    """Check that point order agrees with index order on the window. As the
    indices are distinct, that holds when points rise strictly along them."""
    rows = sorted(scheme.window(i_lo, i_hi, j_max), key=lambda row: row[0].key)
    return all(t_a < t_b for (_, t_a), (_, t_b) in zip(rows, rows[1:]))
