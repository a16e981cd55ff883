"""Description words, frozen segments named by rational time identifiers, the
paradigms they form, and conjunction words built from them.

A frozen segment is a description word carrying an embedded naming clause
("This description is named <t>.") whose rational t is its position in
primitive time. A developmental paradigm assigns one segment to every
admissible index of a partition scheme; the induced segment order is the
rational order of the time identifiers, which coincides with the
lexicographic index order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable

from .decode import DecodeError, fields, rational, typed
from .errors import IncomparableMembers, TooFewMembers
from .numerics import Rational, format_rational, parse_rational
from .timeline import IndexPair, PartitionScheme

#: Reserved connective joining conjuncts; may not occur inside a segment body.
CONNECTIVE = "∧"

_MODES = ("description", "instruction")

_CLAUSE_RE = re.compile(
    r"\AThis (description|instruction) is named "
    r"⌈([+-]?\d+(?:/\d+)?)⌉\.\Z"
)


def naming_clause(time_id: Rational, mode: str = "description") -> str:
    """The exact naming-clause template for a time identifier."""
    return f"This {mode} is named ⌈{format_rational(time_id)}⌉."


def extract_time_id(clause: str) -> Rational:
    """Recover the time identifier from a naming clause (inverse of naming)."""
    match = _CLAUSE_RE.match(clause)
    if match is None:
        raise ValueError(f"not a naming clause: {clause!r}")
    return parse_rational(match.group(2))


@dataclass(frozen=True)
class Word:
    """A nonempty sequence of alphabet symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("a word must have at least one symbol")
        for symbol in self.symbols:
            if symbol.split() != [symbol]:
                raise ValueError(f"bad alphabet symbol: {symbol!r}")
            if symbol == CONNECTIVE:
                raise ValueError(
                    f"the connective {CONNECTIVE!r} is reserved and cannot "
                    "appear in a word"
                )

    @classmethod
    def of(cls, text: str) -> Word:
        return cls(tuple(text.split()))

    def __str__(self) -> str:
        return " ".join(self.symbols)


@dataclass(frozen=True)
class FrozenSegment:
    """One description word plus the naming clause carrying its time identifier.

    ``family`` marks which paradigm produced the segment; segments with
    distinct family markers are never comparable under the induced order.
    Ad hoc segments (family None) share one implicit family.

    The hash covers the fields equality compares; it is computed once, on
    first use, and left out of pickled state, as string hashes vary by process.
    """

    body: Word
    time_id: Rational
    naming_clause: str = ""
    mode: str = "description"
    family: Hashable = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "time_id", Fraction(self.time_id))
        expected = naming_clause(self.time_id, self.mode)
        if not self.naming_clause:
            object.__setattr__(self, "naming_clause", expected)
        elif self.naming_clause != expected:
            raise ValueError(
                f"naming clause {self.naming_clause!r} does not match the "
                f"template {expected!r}"
            )

    @cached_property
    def _hash(self) -> int:
        return hash((self.body, self.time_id, self.naming_clause, self.mode, self.family))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def sort_key(self) -> tuple:
        """Deterministic total key; time identifier first."""
        return (self.time_id, self.body.symbols, self.mode, repr(self.family))

    @property
    def text(self) -> str:
        return f"{self.body} {self.naming_clause}"

    def __str__(self) -> str:
        return self.text


def segment_at(
    time_id: Rational | int | str,
    body: str | Word = "event",
    mode: str = "description",
    family: Hashable = None,
) -> FrozenSegment:
    """Build a segment directly from its time identifier."""
    if isinstance(time_id, str):
        time_id = parse_rational(time_id)
    if not isinstance(body, Word):
        body = Word.of(body)
    return FrozenSegment(body, Fraction(time_id), mode=mode, family=family)


@dataclass(frozen=True, slots=True)
class ConjunctionWord:
    """Two or more distinct frozen segments joined by the reserved connective.

    Word identity is the conjunct sequence: differently arranged conjunctions
    are distinct words. The canonical arrangement is ascending segment order.
    """

    conjuncts: tuple[FrozenSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conjuncts", tuple(self.conjuncts))
        if len(self.conjuncts) < 2:
            raise TooFewMembers(
                f"a conjunction word needs at least 2 conjuncts, got "
                f"{len(self.conjuncts)}"
            )
        if len(set(self.conjuncts)) != len(self.conjuncts):
            raise ValueError("conjunction word has a repeated conjunct")

    @property
    def atoms(self) -> frozenset[FrozenSegment]:
        return frozenset(self.conjuncts)

    @property
    def is_canonical(self) -> bool:
        keys = [c.sort_key for c in self.conjuncts]
        return keys == sorted(keys)

    def canonical(self) -> ConjunctionWord:
        return ConjunctionWord(tuple(sorted(self.conjuncts, key=lambda c: c.sort_key)))

    @property
    def time_ids(self) -> tuple[Rational, ...]:
        return tuple(c.time_id for c in self.conjuncts)

    @property
    def text(self) -> str:
        return f" {CONNECTIVE} ".join(c.text for c in self.conjuncts)

    def __str__(self) -> str:
        return self.text


def build_conjunction_word(
    segments: Iterable[FrozenSegment], *, preserve_order: bool = False
) -> ConjunctionWord:
    """Join a set of segments into one conjunction word.

    By default the conjuncts are arranged canonically (ascending segment
    order) so equal sets give the identical word; ``preserve_order`` keeps the
    caller's arrangement instead.
    """
    listed = list(segments)
    if not preserve_order:
        listed = sorted(set(listed), key=lambda c: c.sort_key)
    if len(listed) < 2:
        raise TooFewMembers(
            f"a conjunction needs at least 2 distinct segments, got {len(listed)}"
        )
    return ConjunctionWord(tuple(listed))


def ordered_choice(segments: Iterable[FrozenSegment]) -> list[FrozenSegment]:
    """Arrange segments of one paradigm in ascending induced order."""
    members = sorted(set(segments), key=lambda c: c.sort_key)
    families = {segment.family for segment in members}
    if len(families) > 1:
        raise IncomparableMembers(
            f"segments come from {len(families)} different paradigms"
        )
    return members


def _default_body(idx: IndexPair, time_id: Rational) -> str:
    return "event"


@dataclass(frozen=True)
class DevelopmentalParadigm:
    """The ordered family of frozen segments over one partition scheme.

    ``body_fn`` supplies each segment's description body; distinctness of the
    segments is carried by the time identifiers regardless of body collisions.
    """

    scheme: PartitionScheme
    mode: str = "description"
    body_fn: Callable[[IndexPair, Rational], str] = field(default=_default_body)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def family(self) -> Hashable:
        return (self.scheme.key, self.mode)

    def segment(self, idx: IndexPair) -> FrozenSegment:
        """The segment at an admissible index (f = F o t)."""
        time_id = self.scheme.point(idx)
        return segment_at(
            time_id, self.body_fn(idx, time_id), mode=self.mode, family=self.family
        )

    def window(
        self, i_lo: int, i_hi: int, j_max: int
    ) -> list[tuple[IndexPair, FrozenSegment]]:
        """Segments for every admissible index in the rectangle, in order.

        Custom point rules are validated on the window before any segment is
        produced.
        """
        family = self.family
        return [
            (idx, segment_at(t, self.body_fn(idx, t), mode=self.mode, family=family))
            for idx, t in self.scheme.window(i_lo, i_hi, j_max, validate=True)
        ]


def paradigm_from_json(obj: object) -> DevelopmentalParadigm:
    """Build a paradigm from its JSON spec (README, *File formats*). "bodies"
    is a template with {i}, {j} and {t} placeholders, tried here at (0, 0)
    with t = 0, or a nonempty list of bodies cycled over j."""
    q, K, m, b, mode, bodies = fields(
        obj, ("q", "K"), m=None, b=None, mode="description", bodies="event"
    )
    m = None if m is None else typed(m, int, "m")
    b = None if b is None else rational(b, "b")
    scheme = PartitionScheme.of(typed(q, int, "q"), typed(K, int, "K"), m, b)
    if type(bodies) is str:

        def body_fn(idx: IndexPair, t: Rational) -> str:
            return bodies.format(i=idx.i, j=idx.j, t=format_rational(t))

    elif type(bodies) is list and {*map(type, bodies)} == {str}:
        literal = tuple(bodies)

        def body_fn(idx: IndexPair, t: Rational) -> str:
            return literal[idx.j % len(literal)]

    else:
        typed(bodies, str, "bodies", "a template string or a nonempty list of strings")  # raises
    try:
        for body in [bodies.format(i=0, j=0, t="0")] if type(bodies) is str else literal:
            Word.of(body)
    except (LookupError, ValueError, AttributeError, TypeError) as exc:
        raise DecodeError("bodies", f"makes no word: {exc!r}") from None
    return DevelopmentalParadigm(scheme, mode=typed(mode, str, "mode"), body_fn=body_fn)
