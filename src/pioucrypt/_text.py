"""Reading and writing of the line-oriented text artifacts, which are ASCII bytes.

The grammar here is shared by the texts that are parsed (PIOU1, PIOU2); it
refuses a non-ASCII byte as it refuses any other bad token, naming its line.
The blocked row writer is shared by every text written from arrays (PIOU1,
PIOU2, PIOUW, the CLI's point dump).
"""

from __future__ import annotations

import re
from typing import AnyStr, Iterator

import numpy as np

from .errors import ParseError

# The text form %d gives an int: ASCII digits, no sign on a non-negative
# value, no leading zero. canon_ints accepts exactly these tokens.
CANON_INT = rb"(?:-?[1-9][0-9]*|0)"
# The possessive *+ keeps no backtracking state per repetition: a plain * held
# about 17 bytes per character of a matched line. No accepted line needs one
# given back, because every token ends at a space or at the end.
_INT_LINE = re.compile(b"%s(?: %s)*+" % (CANON_INT, CANON_INT))
_INT64 = np.iinfo(np.int64)

# Rows rendered by one string format in format_rows: formatting a whole array
# at once holds a tuple of every entry.
FORMAT_BLOCK_ROWS = 4096


def split_lines(text: bytes, what: str) -> list[bytes]:
    """The lines of a non-empty text in which every line ends with LF."""
    lines = text.split(b"\n")
    if lines.pop() != b"":
        raise ParseError(f"{what} must end with a newline", len(lines) + 1)
    if not lines:
        raise ParseError(f"empty {what}", 1)
    return lines


def canon_ints(tokens: list[bytes], what: str, line: int) -> list[int]:
    """Parse decimal integers written exactly as %d writes them.

    A sign on a non-negative value, leading zeros, whitespace, underscores and
    non-ASCII bytes are rejected, so every value has one text form.
    """
    values = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            value = None
        if value is None or b"%d" % value != token:
            raise ParseError(f"{what}: {token!r} is not a canonical integer", line)
        values.append(value)
    return values


def int_line(line: bytes, what: str, line_no: int) -> np.ndarray:
    """A non-empty line of space-separated canonical integers, as int64.

    The line is checked with one regex and converted with one call; only a
    rejected line is split into tokens, so that canon_ints names the first bad
    one. A value outside int64 is a ParseError.
    """
    if not _INT_LINE.fullmatch(line):
        canon_ints(line.split(b" "), what, line_no)
    # Given the count, fromstring makes the array once, at its size. Without
    # it, the array grows 4,096 values at a time and is shrunk at the end; a
    # shrunk one small enough for NumPy's cache of small buffers (red2 holds at
    # most 9 values) can then stay for good just past a freed image, where the
    # next image would have gone.
    values = np.fromstring(line, np.int64, line.count(b" ") + 1, sep=" ")
    # fromstring clamps a value outside int64 to an end of the range. A line
    # with a value at an end goes through canon_ints, which refuses a token too
    # long for int(), and then each value is range-checked in line order.
    if ((values == _INT64.max) | (values == _INT64.min)).any():
        tokens = line.split(b" ")
        for token, value in zip(tokens, canon_ints(tokens, what, line_no)):
            if not _INT64.min <= value <= _INT64.max:
                raise ParseError(f"{what}: {token!r} is outside the 64-bit integer range", line_no)
    return values


def format_rows(row_format: AnyStr, rows: np.ndarray) -> Iterator[AnyStr]:
    """The text of a 2-D array, each row through row_format, one block of rows at a time.

    Adding 0 to each block prints a float -0.0 as 0.
    """
    for start in range(0, len(rows), FORMAT_BLOCK_ROWS):
        block = rows[start : start + FORMAT_BLOCK_ROWS] + 0
        yield row_format * len(block) % tuple(block.ravel().tolist())
