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
from typing import Iterable

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

LAYER1_MAGIC = "PIOU1"


class RgbImage:
    """An h x w colour image stored as one interleaved uint8 array.

    `pixels` has shape (h, w, 3), the byte order of a P6 payload; `red`,
    `green` and `blue` are views into it.
    """

    __slots__ = ("pixels",)

    def __init__(self, red, green, blue):
        planes = []
        for name, plane in (("red", red), ("green", green), ("blue", blue)):
            arr = np.asarray(plane)
            if arr.ndim != 2 or arr.size == 0:
                raise ValueError(f"{name} plane must be a non-empty 2-D array")
            if arr.dtype != np.uint8:
                if not np.issubdtype(arr.dtype, np.integer):
                    raise ValueError(f"{name} plane must hold integers")
                if arr.min() < 0 or arr.max() > 255:
                    raise ValueError(f"{name} plane has values outside [0, 255]")
                arr = arr.astype(np.uint8)
            planes.append(arr)
        if not (planes[0].shape == planes[1].shape == planes[2].shape):
            raise ValueError("channel planes must share dimensions")
        self.pixels = np.stack(planes, axis=-1)

    @classmethod
    def from_pixels(cls, pixels: np.ndarray) -> "RgbImage":
        """Wrap an (h, w, 3) uint8 array without copying it."""
        pixels = np.asarray(pixels)
        if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.size == 0:
            raise ValueError("pixels must be a non-empty (h, w, 3) uint8 array")
        image = cls.__new__(cls)
        image.pixels = pixels
        return image

    @property
    def red(self) -> np.ndarray:
        return self.pixels[:, :, 0]

    @property
    def green(self) -> np.ndarray:
        return self.pixels[:, :, 1]

    @property
    def blue(self) -> np.ndarray:
        return self.pixels[:, :, 2]

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.red, self.green, self.blue)

    @classmethod
    def from_gray(cls, plane) -> "RgbImage":
        """Promote a single-channel plane to RGB by replication."""
        return cls(plane, plane, plane)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


class SubstitutionTable:
    """Bijective byte substitution; entry v is the cipher value for v."""

    __slots__ = ("values",)

    def __init__(self, table: Iterable[int]):
        vals = [int(v) for v in table]
        if len(vals) != 256:
            raise NonBijectiveTable(f"table must have 256 entries, got {len(vals)}")
        if any(not 0 <= v <= 255 for v in vals):
            raise NonBijectiveTable("table entries must lie in [0, 255]")
        if len(set(vals)) != 256:
            raise NonBijectiveTable("table is not a permutation of 0..255")
        self.values = np.array(vals, dtype=np.uint8)

    def inverse(self) -> "SubstitutionTable":
        inv = np.empty(256, dtype=np.uint8)
        inv[self.values] = np.arange(256, dtype=np.uint8)
        return SubstitutionTable(inv)

    def __getitem__(self, value: int) -> int:
        return int(self.values[value])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubstitutionTable):
            return NotImplemented
        return np.array_equal(self.values, other.values)


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
    lut: SubstitutionTable

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


def generate_layer1_key(rng: Xorshift1024, width: int, height: int) -> Layer1Key:
    """Draw a complete first-layer key from the generator.

    Draw order is part of the contract: height row pairs (i then j), width
    column pairs, then the substitution table built by walking the plain value
    down from 255 to 0 and rejecting already-assigned cipher values so the
    table stays bijective. Total consumption is 2*height + 2*width + 256 plus
    one draw per rejection.
    """
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    row_swaps = [rng.randint(0, height - 1) for _ in range(2 * height)]
    col_swaps = [rng.randint(0, width - 1) for _ in range(2 * width)]
    table = [0] * 256
    used = set()
    for value in range(255, -1, -1):
        z = rng.randint(0, 255)
        while z in used:
            z = rng.randint(0, 255)
        used.add(z)
        table[value] = z
    return Layer1Key(
        width,
        height,
        np.array(row_swaps, np.int64).reshape(height, 2),
        np.array(col_swaps, np.int64).reshape(width, 2),
        SubstitutionTable(table),
    )


def apply_swaps(pixels, row_swaps, col_swaps) -> np.ndarray:
    """Exchange rows, then columns, of an (h, w) or (h, w, 3) array.

    Each schedule is a sequence of (i, j) index pairs, applied in order. Each
    one is folded into a permutation of its axis, and both are applied as a
    single gather into a new array. Row and column exchanges commute, so
    applying both schedules reversed to the result restores the input.
    """
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim not in (2, 3):
        raise ValueError("plane must be 2-D, or 3-D with channels last")
    h, w = arr.shape[:2]
    perms = []
    for swaps, size, axis, extent in (
        (row_swaps, h, "row", "height"),
        (col_swaps, w, "column", "width"),
    ):
        pairs = np.asarray(swaps, np.int64).reshape(len(swaps), 2)
        bad = ((pairs < 0) | (pairs >= size)).any(axis=1)
        if bad.any():
            i, j = pairs[bad.argmax()].tolist()
            raise IndexOutOfRange(f"{axis} swap ({i}, {j}) outside {extent} {size}")
        # exchanges compose in order, so the fold stays a loop
        perm = list(range(size))
        for i, j in pairs.tolist():
            perm[i], perm[j] = perm[j], perm[i]
        perms.append(perm)
    return arr.take(perms[0], axis=0).take(perms[1], axis=1)


def apply_lut(image: RgbImage, lut: SubstitutionTable) -> RgbImage:
    """Map every pixel of every channel through the table in one atomic pass."""
    return RgbImage.from_pixels(lut.values[image.pixels])


def encrypt_layer1(image: RgbImage, rng: Xorshift1024) -> tuple[RgbImage, Layer1Key]:
    """Scramble the image; returns the cipher image and the key that inverts it."""
    key = generate_layer1_key(rng, image.width, image.height)
    swapped = apply_swaps(image.pixels, key.row_swaps, key.col_swaps)
    return apply_lut(RgbImage.from_pixels(swapped), key.lut), key


def decrypt_layer1(cipher: RgbImage, key: Layer1Key) -> RgbImage:
    """Exact inverse of encrypt_layer1 for the matching key."""
    if key.width != cipher.width or key.height != cipher.height:
        raise DimensionMismatch(
            f"key is {key.width}x{key.height}, cipher is {cipher.width}x{cipher.height}"
        )
    unsubbed = apply_lut(cipher, key.lut.inverse())
    swapped = apply_swaps(unsubbed.pixels, key.row_swaps[::-1], key.col_swaps[::-1])
    return RgbImage.from_pixels(swapped)


def serialize_layer1_key(key: Layer1Key) -> str:
    """Render the key in its line-oriented text form (LF endings)."""
    lines = [f"{LAYER1_MAGIC} {key.width} {key.height}"]
    for tag, swaps in ((ROW, key.row_swaps), (COLUMN, key.col_swaps)):
        # one %-format of the whole block: faster than a format per line
        lines.append("\n".join([f"{tag} %d %d"] * len(swaps)) % tuple(swaps.ravel().tolist()))
    lines.extend(f"L {value} {key.lut[value]}" for value in range(255, -1, -1))
    return "\n".join(lines) + "\n"


def _swap_block(tag: str) -> re.Pattern:
    """A block of swap lines, '<tag> <i> <j>' each, joined by LF."""
    line = f"{tag} {_text.CANON_INT} {_text.CANON_INT}"
    return re.compile(f"{line}(?:\n{line})*+")


_SWAP_BLOCKS = {tag: _swap_block(tag) for tag in (ROW, COLUMN)}


def _read_swaps(
    lines: list[str], start: int, count: int, tag: str, bound: int
) -> np.ndarray:
    """Parse count >= 1 swap lines into (count, 2) pairs with one regex and one conversion."""
    block = "\n".join(lines[start : start + count])
    if _SWAP_BLOCKS[tag].fullmatch(block):
        # a value outside int64 is clamped to an end of it, so out of range too
        indices = np.fromstring(block.replace(tag, ""), np.int64, sep=" ")
        if indices.min() >= 0 and indices.max() < bound:
            return indices.reshape(count, 2)
    # Some line is bad: check line by line, so the error names the first one.
    for offset in range(count):
        line_no = start + offset + 1
        tokens = lines[start + offset].split(" ")
        if len(tokens) != 3 or tokens[0] != tag:
            raise ParseError(f"expected '{tag} <i> <j>'", line_no)
        i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
        if not (0 <= i < bound and 0 <= j < bound):
            raise ParseError(f"swap index out of range [0, {bound})", line_no)
    raise AssertionError("unreachable: every swap block the fast path refuses has a bad line")


def parse_layer1_key(text: str) -> Layer1Key:
    """Parse the text form back into a key; inverse of serialize_layer1_key."""
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

    row_swaps = _read_swaps(lines, 1, height, ROW, height)
    col_swaps = _read_swaps(lines, 1 + height, width, COLUMN, width)

    table = [0] * 256
    seen = set()
    start = 1 + height + width
    for offset in range(256):
        line_no = start + offset + 1
        tokens = lines[start + offset].split(" ")
        if len(tokens) != 3 or tokens[0] != "L":
            raise ParseError("expected 'L <value> <substitute>'", line_no)
        value, sub = _text.canon_ints(tokens[1:], "lookup entry", line_no)
        if value != 255 - offset:
            raise ParseError(f"plain value must be {255 - offset}", line_no)
        if not 0 <= sub <= 255:
            raise ParseError("substitute outside [0, 255]", line_no)
        if sub in seen:
            raise ParseError(f"substitute {sub} assigned twice", line_no)
        seen.add(sub)
        table[value] = sub
    return Layer1Key(width, height, row_swaps, col_swaps, SubstitutionTable(table))
