"""Reading and writing of the line-oriented text artifacts, which are ASCII bytes.

The grammar here is shared by the texts that are parsed (PIOU1, PIOU2); it
refuses a non-ASCII byte as it refuses any other bad token, naming its line.
One writer, write_rows, renders every integer text written from arrays (the
PIOU1 key, the PIOU2 sections, the CLI's point dump) with array operations:
each value of a block fills a fixed-width row of 4-byte cells from a table of
4-digit groups, and the NUL bytes that pad the cells are dropped from the
block's bytes at once.
"""

from __future__ import annotations

import re
from typing import Iterator

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

# Values rendered at a time by write_rows. A value of the three texts takes at
# most 7 cells of 4 bytes, so a block's cells take at most 112 kB. Blocks of
# 8,192 values cut 0.6 ms from a strip OEA text but raised the benchmark's
# peak RSS by a further 0.4-0.6 MB.
BLOCK_VALUES = 4096


def _group_table() -> np.ndarray:
    """The 4-byte cells of the digit groups, as uint32.

    Entry g < 10^4 is group g as it leads a number: no leading zero, each
    missing digit a NUL, and 0 as "0". Entry 10^4 + g is g with its leading
    zeros, as it follows another group. The last entry is an empty cell.
    """
    # uint16 temporaries (80 kB) come from the heap; int64 ones (320 kB),
    # each mapped on its own, raised the peak RSS of an import by 0.6 MB
    places = np.array([1000, 100, 10, 1], np.uint16)
    groups = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (groups // places % 10 + ord("0")).astype(np.uint8)
    leads = np.where((groups >= places) | (places == 1), digits, 0)
    return np.concatenate((leads, digits, np.zeros((1, 4), np.uint8))).view(np.uint32).ravel()


_CELLS = _group_table()
_NUL = len(_CELLS) - 1


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


def _cells(text: bytes) -> np.ndarray:
    """text in 4-byte cells, the last one padded with NUL."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


_SPACE, _LF, _MINUS = (_cells(c)[0] for c in (b" ", b"\n", b"-"))


def _digit_cells(magnitudes: np.ndarray, out: np.ndarray) -> None:
    """Write uint64 magnitudes in decimal into the columns of out, 4 digits a column.

    The last column holds the lowest group; columns before a number's
    leading group are left NUL, so out must be wide enough for the largest.
    """
    for column in range(out.shape[1] - 1, -1, -1):
        rest, group = _split(magnitudes, 10_000)
        index = group.astype(np.intp)
        index[rest > 0] += 10_000
        if column < out.shape[1] - 1:
            index[magnitudes == 0] = _NUL
        out[:, column] = _CELLS[index]
        magnitudes = rest


def _split(values: np.ndarray, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """The quotients and remainders of uint64 values; a // by a scalar is
    several times faster than np.divmod."""
    quotients = values // divisor
    return quotients, values - quotients * divisor


def write_rows(rows: np.ndarray, tag: bytes = b"") -> Iterator[bytes]:
    """The text of a 2-D integer array, one line per row, one block of values at a time.

    A line is the tag and a space if a tag is given, then the row's values
    written as %d writes them and split by spaces, then LF.
    """
    columns = rows.shape[1]
    flat = rows.reshape(-1)
    prefix = _cells(tag + b" " if tag else b"")
    for lo in range(0, flat.size, BLOCK_VALUES):
        block = flat[lo : lo + BLOCK_VALUES]
        magnitudes = block.astype(np.uint64)
        negative = None
        if block.min() < 0:
            negative = block < 0
            np.negative(magnitudes, out=magnitudes, where=negative)
        # a row of cells: prefix, sign, digit groups, then the separator
        first = len(prefix) + (negative is not None)
        end = first + (len(str(int(magnitudes.max()))) + 3) // 4
        cells = np.zeros((block.size, end + 1), np.uint32)
        # the block's values that start a line, and those that end one
        cells[-lo % columns :: columns, : len(prefix)] = prefix
        cells[:, -1] = _SPACE
        cells[(-lo - 1) % columns :: columns, -1] = _LF
        if negative is not None:
            cells[negative, first - 1] = _MINUS
        _digit_cells(magnitudes, cells[:, first:end])
        yield cells.tobytes().translate(None, b"\0")
