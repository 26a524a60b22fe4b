"""Reading and writing of the line-oriented text artifacts.

The grammar here is shared by the texts that are parsed (PIOU1, PIOU2); the
blocked row writer by every text written from arrays (PIOU1, PIOU2, PIOUW,
the CLI's point dump).
"""

from __future__ import annotations

import re
from typing import Iterator

import numpy as np

from .errors import ParseError

# The text form str() gives an int: ASCII digits, no sign on a non-negative
# value, no leading zero. canon_ints accepts exactly these tokens.
CANON_INT = "(?:-?[1-9][0-9]*|0)"
# The possessive *+ keeps no backtracking state per repetition: a plain * held
# about 17 bytes per character of a matched line. No accepted line needs one
# given back, because every token ends at a space or at the end.
_INT_LINE = re.compile(f"{CANON_INT}(?: {CANON_INT})*+")
_INT64 = np.iinfo(np.int64)

# Rows rendered by one string format in format_rows: formatting a whole array
# at once holds a tuple of every entry.
FORMAT_BLOCK_ROWS = 4096


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


def int_line(line: str, what: str, line_no: int) -> np.ndarray:
    """A non-empty line of space-separated canonical integers, as int64.

    The line is checked with one regex and converted with one call; only a
    rejected line is split into tokens, so that canon_ints names the first bad
    one. A value outside int64 is a ParseError.
    """
    if not _INT_LINE.fullmatch(line):
        canon_ints(line.split(" "), what, line_no)
    values = np.fromstring(line, np.int64, sep=" ")
    # fromstring clamps a value outside int64 to an end of the range. A line
    # with a value at an end goes through canon_ints, which refuses a token too
    # long for int(), and then each value is range-checked in line order.
    if ((values == _INT64.max) | (values == _INT64.min)).any():
        tokens = line.split(" ")
        for token, value in zip(tokens, canon_ints(tokens, what, line_no)):
            if not _INT64.min <= value <= _INT64.max:
                raise ParseError(f"{what}: {token!r} is outside the 64-bit integer range", line_no)
    return values


def format_rows(row_format: str, rows: np.ndarray) -> Iterator[str]:
    """The text of a 2-D array, each row through row_format, one block of rows at a time.

    Adding 0 to each block prints a float -0.0 as 0.
    """
    for start in range(0, len(rows), FORMAT_BLOCK_ROWS):
        block = rows[start : start + FORMAT_BLOCK_ROWS] + 0
        yield row_format * len(block) % tuple(block.ravel().tolist())
