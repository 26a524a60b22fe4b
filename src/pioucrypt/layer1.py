"""First security layer: pixel scrambling with an exact inverse.

Encryption swaps whole rows and columns under Xorshift1024* control, then
pushes every pixel through one shared bijective 256-entry substitution table.
Both steps preserve the per-channel histogram multiset, and the recorded key
(swap schedule + table) inverts the transform byte-exactly. The serialized key
text is the plaintext consumed by the second layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _text
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonBijectiveTable,
    ParseError,
)
from .prng import Xorshift1024

ROW = "R"
COLUMN = "C"

LAYER1_MAGIC = "PIOU1"


class SwapRecord(NamedTuple):
    """One row or column exchange: axis is ROW or COLUMN."""

    axis: str
    i: int
    j: int


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


@dataclass
class Layer1Key:
    """Full first-layer key: swap schedule plus substitution table."""

    width: int
    height: int
    row_swaps: list[SwapRecord]
    col_swaps: list[SwapRecord]
    lut: SubstitutionTable

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("key dimensions must be >= 1")
        if len(self.row_swaps) != self.height:
            raise ValueError("row swap count must equal the image height")
        if len(self.col_swaps) != self.width:
            raise ValueError("column swap count must equal the image width")
        for rec in self.row_swaps:
            if rec.axis != ROW or not (0 <= rec.i < self.height and 0 <= rec.j < self.height):
                raise ValueError(f"invalid row swap record {rec}")
        for rec in self.col_swaps:
            if rec.axis != COLUMN or not (0 <= rec.i < self.width and 0 <= rec.j < self.width):
                raise ValueError(f"invalid column swap record {rec}")


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
    row_swaps = [
        SwapRecord(ROW, rng.randint(0, height - 1), rng.randint(0, height - 1))
        for _ in range(height)
    ]
    col_swaps = [
        SwapRecord(COLUMN, rng.randint(0, width - 1), rng.randint(0, width - 1))
        for _ in range(width)
    ]
    table = [0] * 256
    used = set()
    for value in range(255, -1, -1):
        z = rng.randint(0, 255)
        while z in used:
            z = rng.randint(0, 255)
        used.add(z)
        table[value] = z
    return Layer1Key(width, height, row_swaps, col_swaps, SubstitutionTable(table))


def apply_swaps(pixels, records: Sequence[SwapRecord]) -> np.ndarray:
    """Apply swap records in list order to an (h, w) or (h, w, 3) array.

    The records are folded into one row and one column permutation, then
    applied as a single gather into a new array. Applying the reversed list
    to the result folds to the inverse permutations and restores the input.
    """
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim not in (2, 3):
        raise ValueError("plane must be 2-D, or 3-D with channels last")
    h, w = arr.shape[:2]
    rows = list(range(h))
    cols = list(range(w))
    for rec in records:
        if rec.axis == ROW:
            if not (0 <= rec.i < h and 0 <= rec.j < h):
                raise IndexOutOfRange(f"row swap ({rec.i}, {rec.j}) outside height {h}")
            rows[rec.i], rows[rec.j] = rows[rec.j], rows[rec.i]
        elif rec.axis == COLUMN:
            if not (0 <= rec.i < w and 0 <= rec.j < w):
                raise IndexOutOfRange(f"column swap ({rec.i}, {rec.j}) outside width {w}")
            cols[rec.i], cols[rec.j] = cols[rec.j], cols[rec.i]
        else:
            raise ValueError(f"unknown swap axis {rec.axis!r}")
    return arr.take(np.array(rows), axis=0).take(np.array(cols), axis=1)


def apply_lut(image: RgbImage, lut: SubstitutionTable) -> RgbImage:
    """Map every pixel of every channel through the table in one atomic pass."""
    return RgbImage.from_pixels(lut.values[image.pixels])


def encrypt_layer1(image: RgbImage, rng: Xorshift1024) -> tuple[RgbImage, Layer1Key]:
    """Scramble the image; returns the cipher image and the key that inverts it."""
    key = generate_layer1_key(rng, image.width, image.height)
    swapped = apply_swaps(image.pixels, key.row_swaps + key.col_swaps)
    return apply_lut(RgbImage.from_pixels(swapped), key.lut), key


def decrypt_layer1(cipher: RgbImage, key: Layer1Key) -> RgbImage:
    """Exact inverse of encrypt_layer1 for the matching key."""
    if key.width != cipher.width or key.height != cipher.height:
        raise DimensionMismatch(
            f"key is {key.width}x{key.height}, cipher is {cipher.width}x{cipher.height}"
        )
    unsubbed = apply_lut(cipher, key.lut.inverse())
    schedule = list(reversed(key.row_swaps + key.col_swaps))
    return RgbImage.from_pixels(apply_swaps(unsubbed.pixels, schedule))


def serialize_layer1_key(key: Layer1Key) -> str:
    """Render the key in its line-oriented text form (LF endings)."""
    lines = [f"{LAYER1_MAGIC} {key.width} {key.height}"]
    lines.extend(f"{ROW} {rec.i} {rec.j}" for rec in key.row_swaps)
    lines.extend(f"{COLUMN} {rec.i} {rec.j}" for rec in key.col_swaps)
    lines.extend(f"L {value} {key.lut[value]}" for value in range(255, -1, -1))
    return "\n".join(lines) + "\n"


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

    def read_swaps(start: int, count: int, tag: str, bound: int) -> list[SwapRecord]:
        records = []
        for offset in range(count):
            line_no = start + offset + 1
            tokens = lines[start + offset].split(" ")
            if len(tokens) != 3 or tokens[0] != tag:
                raise ParseError(f"expected '{tag} <i> <j>'", line_no)
            i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
            if not (0 <= i < bound and 0 <= j < bound):
                raise ParseError(f"swap index out of range [0, {bound})", line_no)
            records.append(SwapRecord(tag, i, j))
        return records

    row_swaps = read_swaps(1, height, ROW, height)
    col_swaps = read_swaps(1 + height, width, COLUMN, width)

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
