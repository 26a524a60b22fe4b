"""First security layer: pixel scrambling with an exact inverse.

Encryption swaps whole rows and columns under Xorshift1024* control, then
pushes every pixel through one shared bijective 256-entry substitution table.
Both steps preserve the per-channel histogram multiset, and the recorded key
(swap schedule + table) inverts the transform byte-exactly. The serialized key
text is the plaintext consumed by the second layer.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import _text
from .errors import DimensionMismatch, InvalidConfig, ParseError, as_int
from .prng import Xorshift1024

ROW = "R"
COLUMN = "C"
LOOKUP = "L"

LAYER1_MAGIC = "PIOU1"


class RgbImage:
    """An h x w colour image stored as one interleaved uint8 array.

    `pixels` has shape (h, w, 3), the byte order of a P6 payload. The
    constructor wraps the array without copying it.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        pixels = np.asarray(pixels)
        if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
            raise InvalidConfig("pixels must be a non-empty (h, w, 3) uint8 array")
        self.pixels = pixels

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


@dataclass(eq=False)
class Layer1Key:
    """Full first-layer key: swap schedule plus substitution table.

    The schedule is two int64 arrays of (i, j) exchange pairs, applied in
    array order: `row_swaps` has one pair per row of the image, `col_swaps`
    one per column, so their lengths are the key's height and width.
    """

    row_swaps: np.ndarray
    col_swaps: np.ndarray
    lut: np.ndarray

    def __post_init__(self):
        for name, swaps in (("row", self.row_swaps), ("column", self.col_swaps)):
            if not (isinstance(swaps, np.ndarray) and swaps.dtype == np.int64):
                raise InvalidConfig(f"{name} swaps must be an int64 array")
            if swaps.ndim != 2 or swaps.shape[1] != 2 or len(swaps) == 0:
                raise InvalidConfig(f"{name} swaps must have shape (n, 2) with n >= 1")
            if swaps.min() < 0 or swaps.max() >= len(swaps):
                raise InvalidConfig(f"{name} swap index outside [0, {len(swaps)})")
        if not (isinstance(self.lut, np.ndarray) and self.lut.dtype == np.uint8 and self.lut.shape == (256,)):
            raise InvalidConfig("substitution table must be a (256,) uint8 array")
        if not np.bincount(self.lut, minlength=256).all():
            raise InvalidConfig("substitution table is not a permutation of 0..255")

    @property
    def width(self) -> int:
        return len(self.col_swaps)

    @property
    def height(self) -> int:
        return len(self.row_swaps)

    def inverse(self) -> Layer1Key:
        """The key whose pass undoes this key's: both schedules reversed, the table inverted.

        Row and column exchanges commute with each other and with the byte
        lookup, so undoing each exchange in reverse order and mapping every
        byte back restores the image.
        """
        lut = np.empty(256, np.uint8)
        lut[self.lut] = np.arange(256, dtype=np.uint8)
        return Layer1Key(self.row_swaps[::-1], self.col_swaps[::-1], lut)


def generate_layer1_key(rng: Xorshift1024, width: int, height: int) -> Layer1Key:
    """Draw a complete first-layer key from the generator.

    Draw order is part of the contract: height row pairs (i then j), width
    column pairs, then the substitution table built by walking the plain value
    down from 255 to 0 and rejecting already-assigned cipher values so the
    table stays bijective. Total consumption is 2*height + 2*width + 256 plus
    one draw per rejection. The swap indices are drawn in one block; each is
    the draw modulo its axis length, as `randint` would give.
    """
    width, height = as_int(width, "key width"), as_int(height, "key height")
    if width < 1 or height < 1:
        raise InvalidConfig("key dimensions must be >= 1")
    words = np.array(rng.fill_u64(2 * height + 2 * width), np.uint64)
    row_swaps = (words[: 2 * height] % np.uint64(height)).astype(np.int64).reshape(-1, 2)
    col_swaps = (words[2 * height :] % np.uint64(width)).astype(np.int64).reshape(-1, 2)
    lut = np.empty(256, np.uint8)
    used = set()
    for value in range(255, -1, -1):
        z = rng.randint(0, 255)
        while z in used:
            z = rng.randint(0, 255)
        used.add(z)
        lut[value] = z
    return Layer1Key(row_swaps, col_swaps, lut)


def _fold(swaps: np.ndarray) -> np.ndarray:
    """The permutation of an axis that a key's (i, j) exchanges make, in order."""
    # exchanges compose in order, so the fold stays a loop
    perm = list(range(len(swaps)))
    for i, j in zip(swaps[:, 0].tolist(), swaps[:, 1].tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, np.intp)


def _cycles(perm: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The cycles of a permutation, fixed points included, one after another.

    Each cycle is walked from its smallest entry r as r, perm[r],
    perm[perm[r]], ... Returns the entries in that order and the position in
    it at which each cycle starts, followed by the entry count.
    """
    after = perm.tolist()  # an entry is set to -1 once its cycle is walked
    order, starts = [], []
    for r in range(len(after)):
        if after[r] < 0:
            continue
        starts.append(len(order))
        while after[r] >= 0:
            order.append(r)
            after[r], r = -1, after[r]
    starts.append(len(order))
    return np.array(order, np.intp), starts


# Rows gathered, mapped and put back per block: 64 rows of a 2048-pixel RGB
# image. A block stays in cache between its gathers and its lookup.
BLOCK_BYTES = 64 * 2048 * 3

# Byte pairs looked up per np.take call. take copies its uint16 indices into
# an intp array, and this caps that copy at 256 KiB however wide a block is.
_TAKE_PAIRS = 32768


def apply_swaps(image: RgbImage, key: Layer1Key) -> RgbImage:
    """Exchange the image's rows, then its columns, under the key; map its bytes through the key's table.

    Each schedule is folded into a permutation of its axis. Output row r is
    input row rows[r], so the rows are visited along the cycles of that
    permutation, in blocks: each block is one row gather into a buffer, one
    column gather, a lookup through a 65,536-entry table of byte pairs built
    from the key's table, and one write of its rows back into the image. A
    block gathers its rows before it writes any, so the only row read after
    it was written is the first row of a cycle that runs past a block's end;
    that one row is kept aside until its cycle ends.

    The pass changes the image's own pixels, which must be a writable
    C-contiguous array, and returns the image. `apply_swaps(image,
    key.inverse())` undoes the pass. A key whose width and height are not
    the image's raises DimensionMismatch.
    """
    if key.width != image.width or key.height != image.height:
        raise DimensionMismatch(f"key is {key.width}x{key.height}, image is {image.width}x{image.height}")
    if not (image.pixels.flags.c_contiguous and image.pixels.flags.writeable):
        raise InvalidConfig("pixels changed in place must be a writable C-contiguous array")
    lut = key.lut
    rows, cols = _fold(key.row_swaps), _fold(key.col_swaps)
    order, starts = _cycles(rows)
    h, row_bytes = len(rows), 3 * len(cols)
    image_rows = image.pixels.reshape(h, row_bytes)
    # the source byte, within its row, of each output byte of a row
    index = (cols[:, None] * 3 + np.arange(3)).ravel()
    # the table of byte pairs, built in native byte order through uint8 views
    paired = lut[np.arange(65536, dtype=np.uint16).view(np.uint8)].view(np.uint16)
    step = min(h, max(1, BLOCK_BYTES // row_bytes))
    block_buffer, gather_buffer = np.empty(step * row_bytes, np.uint8), np.empty(step * row_bytes, np.uint8)
    kept = None  # the first row of the cycle open at the last block's end, as it was read

    def cycle_at(position):
        """The first and the end position of the cycle that holds position."""
        c = bisect.bisect_right(starts, position) - 1
        return starts[c], starts[c + 1]

    for lo in range(0, h, step):
        hi = min(lo + step, h)
        dest, size = order[lo:hi], (hi - lo) * row_bytes
        block = block_buffer[:size].reshape(hi - lo, row_bytes)
        gathered = gather_buffer[:size].reshape(hi - lo, row_bytes)
        # every index is in range, and "clip" spares take a buffered copy of out
        np.take(image_rows, rows[dest], axis=0, out=block, mode="clip")
        first, end = cycle_at(lo)
        if first < lo and end <= hi:
            # an earlier block wrote this cycle's first row, the source of its last
            block[end - 1 - lo] = kept
        if hi < h:
            first, _ = cycle_at(hi)
            if lo <= first < hi:
                kept = image_rows[order[first]].copy()
        np.take(block, index, axis=1, out=gathered, mode="clip")
        source, target = gathered.reshape(-1), block.reshape(-1)
        even = size & ~1
        pairs, mapped = source[:even].view(np.uint16), target[:even].view(np.uint16)
        for at in range(0, len(pairs), _TAKE_PAIRS):
            np.take(paired, pairs[at : at + _TAKE_PAIRS], out=mapped[at : at + _TAKE_PAIRS], mode="clip")
        if even < size:
            target[-1] = lut[source[-1]]
        image_rows[dest] = block
    return image


def _body_layout(width: int, height: int) -> tuple[tuple[str, int], ...]:
    """The blocks of a PIOU1 body in order, as (line tag, line count)."""
    return ((ROW, height), (COLUMN, width), (LOOKUP, 256))


_DELETE_TAGS = str.maketrans("", "", ROW + COLUMN + LOOKUP)


def serialize_layer1_key(key: Layer1Key) -> str:
    """Render the key in its line-oriented text form (LF endings)."""
    table = np.column_stack((np.arange(255, -1, -1), key.lut[::-1]))
    parts = [f"{LAYER1_MAGIC} {key.width} {key.height}\n"]
    for (tag, _), rows in zip(_body_layout(key.width, key.height), (key.row_swaps, key.col_swaps, table)):
        parts.extend(_text.format_rows(f"{tag} %d %d\n", rows))
    return "".join(parts)


def _raise_first_bad_line(lines: list[str], layout: tuple[tuple[str, int], ...]) -> NoReturn:
    """Check the body line by line and raise the ParseError of the first bad line."""
    seen = set()
    body = enumerate(lines[1:], start=2)
    for tag, count in layout:
        # a swap index of a block lies in [0, count); the table's lines run
        # from plain value 255 on the first to 0 on the last
        for offset, (line_no, line) in zip(range(count), body):
            tokens = line.split(" ")
            if tag != LOOKUP:
                if len(tokens) != 3 or tokens[0] != tag:
                    raise ParseError(f"expected '{tag} <i> <j>'", line_no)
                i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
                if not (0 <= i < count and 0 <= j < count):
                    raise ParseError(f"swap index out of range [0, {count})", line_no)
                continue
            if len(tokens) != 3 or tokens[0] != LOOKUP:
                raise ParseError(f"expected '{LOOKUP} <value> <substitute>'", line_no)
            value, sub = _text.canon_ints(tokens[1:], "lookup entry", line_no)
            plain = count - 1 - offset
            if value != plain:
                raise ParseError(f"plain value must be {plain}", line_no)
            if not 0 <= sub <= 255:
                raise ParseError("substitute outside [0, 255]", line_no)
            if sub in seen:
                raise ParseError(f"substitute {sub} assigned twice", line_no)
            seen.add(sub)
    raise AssertionError("unreachable: every body the block checks refuse has a bad line")


def parse_layer1_key(text: str) -> Layer1Key:
    """Parse the text form back into a key; inverse of serialize_layer1_key.

    The body (every line after the first) is matched with one regex built
    from the writer's layout, converted with one call and cut into its three
    blocks. The table's plain values and the range of its substitutes are
    checked here, the swap ranges and the table's permutation by Layer1Key.
    If any check refuses, the body is checked again line by line so that the
    error names the first bad line.
    """
    lines = _text.split_lines(text, "key file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != LAYER1_MAGIC:
        raise ParseError(f"header must be '{LAYER1_MAGIC} <width> <height>'", 1)
    width, height = _text.canon_ints(header[1:], "dimensions", 1)
    if width < 1 or height < 1:
        raise ParseError("dimensions must be >= 1", 1)
    layout = _body_layout(width, height)
    expected = 1 + sum(n for _, n in layout)
    if len(lines) != expected:
        raise ParseError(f"expected {expected} lines, found {len(lines)}", len(lines) + 1)

    body = text[len(lines[0]) + 1 :]
    pattern = "".join(f"(?:{tag} {_text.CANON_INT} {_text.CANON_INT}\n){{{n}}}+" for tag, n in layout)
    if not re.fullmatch(pattern, body):
        _raise_first_bad_line(lines, layout)
    values = np.fromstring(body.translate(_DELETE_TAGS), np.int64, sep=" ").reshape(-1, 2)
    row_swaps, col_swaps, table = np.split(values, [height, height + width])
    # the substitutes are range-checked before the cast to uint8 would wrap 256 to 0
    plain, subs = table[::-1].T
    if np.array_equal(plain, np.arange(256)) and subs.min() >= 0 and subs.max() <= 255:
        try:
            return Layer1Key(row_swaps, col_swaps, subs.astype(np.uint8))
        except InvalidConfig:
            pass
    _raise_first_bad_line(lines, layout)
