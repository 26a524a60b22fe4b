"""Grammar shared by the line-oriented text artifacts (PIOU1, PIOUW, PIOU2)."""

from __future__ import annotations

from .errors import ParseError


def split_lines(text: str, what: str) -> list[str]:
    """The lines of a non-empty text in which every line ends with LF."""
    lines = text.split("\n")
    if lines.pop() != "":
        raise ParseError(f"{what} must end with a newline", len(lines) + 1)
    if not lines:
        raise ParseError(f"empty {what}", 1)
    return lines


def canon_ints(tokens: list[str], what: str, line: int) -> list[int]:
    """Parse decimal integers written exactly as str() writes them.

    A sign on a non-negative value, leading zeros, whitespace, underscores and
    non-ASCII digits are rejected, so every value has one text form.
    """
    values = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            value = None
        if value is None or str(value) != token:
            raise ParseError(f"{what}: {token!r} is not a canonical integer", line)
        values.append(value)
    return values
