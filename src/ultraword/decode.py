"""Strict readers for the JSON input files: a value without its documented
type raises ``DecodeError`` with its JSON path, such as ``rules[3].premises``.
Nothing is coerced: a bool is not an integer, nor a string a list. No path is
built unless a check fails; ``each`` adds a list member's index as it passes.
"""

from __future__ import annotations

from fractions import Fraction

from .numerics import parse_rational

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          bool: "a boolean", float: "a number", type(None): "null"}


class DecodeError(ValueError):
    """A JSON value without its documented type, shape or keys."""

    def __init__(self, path: str, problem: str) -> None:
        super().__init__(f"{path}: {problem}" if path else problem)
        self.path, self.problem = path, problem


def typed(value: object, kind: type, path: str, expected: str = ""):
    """``value`` if its type is exactly ``kind``, so a bool is not an int."""
    if type(value) is not kind:
        got = _KINDS.get(type(value), type(value).__name__)
        got += f" {value!r}" if type(value) in (str, int, float) else ""
        raise DecodeError(path, f"expected {expected or _KINDS[kind]}, got {got}")
    return value


def texts(value: object, path: str) -> list[str]:
    """A list of strings."""
    if not {*map(type, typed(value, list, path, "a list of strings"))} <= {str}:
        k = next(k for k, item in enumerate(value) if type(item) is not str)
        typed(value[k], str, f"{path}[{k}]")  # raises
    return value


def rational(value: object, path: str) -> Fraction:
    """A JSON integer, or a "p/q" or "p" string read by ``parse_rational``."""
    if type(value) is int:
        return Fraction(value)
    typed(value, str, path, 'an integer or a "p/q" string')
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise DecodeError(path, str(exc)) from None


def fields(obj: object, required: tuple, **optional) -> list:
    """Values of the required keys, then of the optional ones (with defaults)."""
    for key, value in typed(obj, dict, "").items():
        if key not in required and (key not in optional or value is None):
            raise DecodeError(key, "null is not allowed" if key in optional else "unknown key")
    try:
        return [obj[key] for key in required] + [obj.get(k, v) for k, v in optional.items()]
    except KeyError as exc:
        raise DecodeError("", f"missing key {exc}") from None


def each(read, value: object, path: str, start: int = 0) -> list:
    """``read`` of each list member from ``start`` on; its errors get its path."""
    members = []
    for k in range(start, len(typed(value, list, path))):
        try:
            members.append(read(value[k]))
        except ValueError as exc:
            inner, problem = getattr(exc, "path", ""), getattr(exc, "problem", str(exc))
            dot = "." if inner[:1] not in ("", "[") else ""
            raise DecodeError(f"{path}[{k}]{dot}{inner}", problem) from None
    return members
