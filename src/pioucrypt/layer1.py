"""First security layer: pixel scrambling with an exact inverse.

Encryption swaps whole rows and columns under Xorshift1024* control, then
pushes every pixel through one shared bijective 256-entry substitution table.
Both steps preserve the per-channel histogram multiset, and the recorded key
(swap schedule + table) inverts the transform byte-exactly. The serialized key
text is the plaintext consumed by the second layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import _text
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidConfig,
    NonBijectiveTable,
    ParseError,
)
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
    array order: `row_swaps` has shape (height, 2), `col_swaps` (width, 2).
    """

    width: int
    height: int
    row_swaps: np.ndarray
    col_swaps: np.ndarray
    lut: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidConfig("key dimensions must be >= 1")
        for name, swaps, bound in (
            ("row", self.row_swaps, self.height),
            ("column", self.col_swaps, self.width),
        ):
            if not (isinstance(swaps, np.ndarray) and swaps.dtype == np.int64):
                raise InvalidConfig(f"{name} swaps must be an int64 array")
            if swaps.shape != (bound, 2):
                raise InvalidConfig(f"{name} swaps must have shape ({bound}, 2)")
            if swaps.min() < 0 or swaps.max() >= bound:
                raise InvalidConfig(f"{name} swap index outside [0, {bound})")
        lut = self.lut
        if not (isinstance(lut, np.ndarray) and lut.dtype == np.uint8 and lut.shape == (256,)):
            raise NonBijectiveTable("substitution table must be a (256,) uint8 array")
        if not np.bincount(lut, minlength=256).all():
            raise NonBijectiveTable("substitution table is not a permutation of 0..255")


def generate_layer1_key(rng: Xorshift1024, width: int, height: int) -> Layer1Key:
    """Draw a complete first-layer key from the generator.

    Draw order is part of the contract: height row pairs (i then j), width
    column pairs, then the substitution table built by walking the plain value
    down from 255 to 0 and rejecting already-assigned cipher values so the
    table stays bijective. Total consumption is 2*height + 2*width + 256 plus
    one draw per rejection. The swap indices are drawn in one block; each is
    the draw modulo its axis length, as `randint` would give.
    """
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
    return Layer1Key(width, height, row_swaps, col_swaps, lut)


def _fold(swaps, size: int, axis: str, extent: str) -> np.ndarray:
    """The permutation of an axis that a sequence of (i, j) exchanges makes, in order.

    A pair with an index outside [0, size) raises IndexOutOfRange, naming the first.
    """
    pairs = np.asarray(swaps, np.int64).reshape(len(swaps), 2)
    bad = ((pairs < 0) | (pairs >= size)).any(axis=1)
    if bad.any():
        i, j = pairs[bad.argmax()].tolist()
        raise IndexOutOfRange(f"{axis} swap ({i}, {j}) outside {extent} {size}")
    # exchanges compose in order, so the fold stays a loop
    perm = list(range(size))
    for i, j in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, np.intp)


# Output bytes gathered and mapped per block: 64 rows of a 2048-pixel RGB
# image. A block stays in cache between its gathers and its lookup.
BLOCK_BYTES = 64 * 2048 * 3

# Byte pairs looked up per np.take call. take copies its uint16 indices into
# an intp array, and this caps that copy at 256 KiB however wide a block is.
_TAKE_PAIRS = 32768


def apply_swaps(pixels, row_swaps, col_swaps, lut) -> np.ndarray:
    """Exchange rows, then columns, of a uint8 (h, w) or (h, w, c) array; map its bytes through lut.

    Each schedule is a sequence of (i, j) index pairs, applied in order. Each
    one is folded into a permutation of its axis. The output is then written
    in blocks of rows: each block is one row gather and one column gather,
    mapped through a 65,536-entry table of byte pairs built from the (256,)
    uint8 `lut`. Row and column exchanges commute with each other and with the
    byte lookup, so applying both schedules reversed and the inverse table to
    the result restores the input.
    """
    arr = np.asarray(pixels)
    if arr.dtype != np.uint8 or arr.ndim not in (2, 3):
        raise InvalidConfig("plane must be a uint8 array, 2-D or 3-D with channels last")
    if not (isinstance(lut, np.ndarray) and lut.dtype == np.uint8 and lut.shape == (256,)):
        raise InvalidConfig("lut must be a (256,) uint8 array")
    h, w = arr.shape[:2]
    rows = _fold(row_swaps, h, "row", "height")
    cols = _fold(col_swaps, w, "column", "width")
    channels = arr.shape[2] if arr.ndim == 3 else 1
    row_bytes = w * channels
    # the source byte, within its row, of each output byte of a row
    index = (cols[:, None] * channels + np.arange(channels)).ravel()
    # the table of byte pairs, built in native byte order through uint8 views
    paired = lut[np.arange(65536, dtype=np.uint16).view(np.uint8)].view(np.uint16)
    out = np.empty(arr.shape, np.uint8)
    out_rows = out.reshape(h, row_bytes)
    # an even row count keeps every block on an even byte offset of out
    step = max(2, BLOCK_BYTES // max(row_bytes, 1) & ~1)
    for start in range(0, h, step):
        block = rows[start : start + step]
        gathered = arr.take(block, axis=0).reshape(len(block), row_bytes).take(index, axis=1).ravel()
        dest = out_rows[start : start + step].ravel()
        even = dest.size & ~1
        pairs = gathered[:even].view(np.uint16)
        dest_pairs = dest[:even].view(np.uint16)
        for lo in range(0, len(pairs), _TAKE_PAIRS):
            hi = lo + _TAKE_PAIRS
            # every index is in range, and "clip" spares take a buffered copy of out
            np.take(paired, pairs[lo:hi], out=dest_pairs[lo:hi], mode="clip")
        if even < dest.size:
            dest[-1] = lut[gathered[-1]]
    return out


def encrypt_layer1(image: RgbImage, rng: Xorshift1024) -> tuple[RgbImage, Layer1Key]:
    """Scramble the image; returns the cipher image and the key that inverts it."""
    key = generate_layer1_key(rng, image.width, image.height)
    swapped = apply_swaps(image.pixels, key.row_swaps, key.col_swaps, key.lut)
    return RgbImage(swapped), key


def decrypt_layer1(cipher: RgbImage, key: Layer1Key) -> RgbImage:
    """Exact inverse of encrypt_layer1 for the matching key."""
    if key.width != cipher.width or key.height != cipher.height:
        raise DimensionMismatch(
            f"key is {key.width}x{key.height}, cipher is {cipher.width}x{cipher.height}"
        )
    inverse = np.empty(256, np.uint8)
    inverse[key.lut] = np.arange(256, dtype=np.uint8)
    swapped = apply_swaps(cipher.pixels, key.row_swaps[::-1], key.col_swaps[::-1], inverse)
    return RgbImage(swapped)


def _body_layout(width: int, height: int) -> tuple[tuple[str, int], ...]:
    """The blocks of a PIOU1 body in order, as (line tag, line count)."""
    return ((ROW, height), (COLUMN, width), (LOOKUP, 256))


_DELETE_TAGS = str.maketrans("", "", ROW + COLUMN + LOOKUP)


def serialize_layer1_key(key: Layer1Key) -> str:
    """Render the key in its line-oriented text form (LF endings)."""
    table = np.column_stack((np.arange(255, -1, -1), key.lut[::-1]))
    layout = _body_layout(key.width, key.height)
    text_format = f"{LAYER1_MAGIC} %d %d\n" + "".join(f"{tag} %d %d\n" * n for tag, n in layout)
    values = np.concatenate(([[key.width, key.height]], key.row_swaps, key.col_swaps, table))
    return text_format % tuple(values.ravel().tolist())


def _raise_first_bad_line(lines: list[str], width: int, height: int):
    """Check the body line by line and raise the ParseError of the first bad line."""
    seen = set()
    for index in range(1, len(lines)):
        line_no = index + 1
        tokens = lines[index].split(" ")
        if index <= height + width:
            tag, bound = (ROW, height) if index <= height else (COLUMN, width)
            if len(tokens) != 3 or tokens[0] != tag:
                raise ParseError(f"expected '{tag} <i> <j>'", line_no)
            i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
            if not (0 <= i < bound and 0 <= j < bound):
                raise ParseError(f"swap index out of range [0, {bound})", line_no)
            continue
        if len(tokens) != 3 or tokens[0] != LOOKUP:
            raise ParseError(f"expected '{LOOKUP} <value> <substitute>'", line_no)
        value, sub = _text.canon_ints(tokens[1:], "lookup entry", line_no)
        # the table's lines run from plain value 255 on the first to 0 on the last
        plain = len(lines) - 1 - index
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
    blocks, which are checked as arrays. If any check refuses, the body is
    checked again line by line so that the error names the first bad line.
    """
    lines = _text.split_lines(text, "key file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != LAYER1_MAGIC:
        raise ParseError(f"header must be '{LAYER1_MAGIC} <width> <height>'", 1)
    width, height = _text.canon_ints(header[1:], "dimensions", 1)
    if width < 1 or height < 1:
        raise ParseError("dimensions must be >= 1", 1)
    expected = 1 + height + width + 256
    if len(lines) != expected:
        raise ParseError(f"expected {expected} lines, found {len(lines)}", len(lines) + 1)

    body = text[len(lines[0]) + 1 :]
    layout = _body_layout(width, height)
    pattern = "".join(f"(?:{tag} {_text.CANON_INT} {_text.CANON_INT}\n){{{n}}}+" for tag, n in layout)
    if not re.fullmatch(pattern, body):
        _raise_first_bad_line(lines, width, height)
    values = np.fromstring(body.translate(_DELETE_TAGS), np.int64, sep=" ").reshape(-1, 2)
    row_swaps, col_swaps, table = np.split(values, [height, height + width])
    if (
        row_swaps.min() < 0
        or row_swaps.max() >= height
        or col_swaps.min() < 0
        or col_swaps.max() >= width
        or not np.array_equal(table[:, 0], np.arange(255, -1, -1))
        or not np.array_equal(np.sort(table[:, 1]), np.arange(256))
    ):
        _raise_first_bad_line(lines, width, height)
    return Layer1Key(width, height, row_swaps, col_swaps, table[::-1, 1].astype(np.uint8))
