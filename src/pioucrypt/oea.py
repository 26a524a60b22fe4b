"""Second security layer: a parity-split stream transform over byte strings.

Plaintext bytes are routed into an even stream and an odd stream by value
parity, recorded in a marker bit string, then both streams are offset by the
master key (key weight times plaintext length) and run through prefix sums.
Two redundancy sections derived from the key frame the result and let the
receiver detect a wrong key. Every step is exactly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _text
from .errors import (
    EmptyKey,
    InvalidConfig,
    KeyMismatch,
    MalformedCipher,
    NonByteValue,
    OverflowGuard,
    ParseError,
)

OEA_MAGIC = b"PIOU2"

# Guard below which weight * length stays comfortably inside signed 64-bit
# arithmetic for every intermediate value.
MASTER_KEY_LIMIT = 1 << 62


def key_weight(key: bytes) -> int:
    """Sum of the key's byte values."""
    if not key:
        raise EmptyKey("secret key must be non-empty")
    return int(np.frombuffer(key, np.uint8).sum())


def master_key(weight: int, plaintext_length: int) -> int:
    """Key weight times plaintext length, with the overflow guard applied."""
    if plaintext_length < 0:
        raise InvalidConfig("plaintext length must be >= 0")
    value = weight * plaintext_length
    if value >= MASTER_KEY_LIMIT:
        raise OverflowGuard(
            f"weight x length = {value} exceeds the 2^62 guard"
        )
    return value


def _is_bits(text: bytes) -> bool:
    return not text.strip(b"01")


@dataclass(eq=False, frozen=True)
class OeaCipher:
    """Framed cipher sections in output order: red1, sc, se, so, red2.

    red1 and sc are bytes of '0'/'1'; se, so and red2 are 1-D int64 arrays.
    Its structural invariants are checked once, when it is built: no field can
    be reassigned, and an in-place edit of an array keeps its length and dtype.
    """

    red1: bytes
    sc: bytes
    se: np.ndarray
    so: np.ndarray
    red2: np.ndarray

    def __post_init__(self):
        for name in ("se", "so", "red2"):
            values = getattr(self, name)
            if not (isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1):
                raise MalformedCipher(f"{name} must be a 1-D int64 array")
        if not (isinstance(self.red1, bytes) and isinstance(self.sc, bytes)):
            raise MalformedCipher("red1 and sc must be bytes")
        if not _is_bits(self.red1):
            raise MalformedCipher("red1 must contain only '0'/'1'")
        if len(self.sc) != len(self.se) + len(self.so):
            raise MalformedCipher(
                f"marker length {len(self.sc)} != |se| + |so| = {len(self.se) + len(self.so)}"
            )
        # With the length check, these counts also mean sc holds only '0'/'1'.
        if self.sc.count(b"1") != len(self.so) or self.sc.count(b"0") != len(self.se):
            raise MalformedCipher("marker bit counts do not match section sizes")
        if len(self.red1) != len(self.red2):
            raise MalformedCipher("redundancy sections must have equal length")


def _bits(ones: np.ndarray) -> bytes:
    """A boolean array as bytes of '0'/'1'."""
    return (ones.view(np.uint8) + ord("0")).tobytes()


def _redundancy(key: bytes, mk: int, length: int) -> tuple[bytes, np.ndarray]:
    window = np.frombuffer(key, np.uint8)[np.arange(length) % len(key)]
    # red1 bit rule: even key byte -> '1', odd -> '0' (inverted relative to
    # the marker string's convention)
    return _bits(window % 2 == 0), window.astype(np.int64) + mk


def oea_encrypt(plaintext: bytes, key: bytes) -> OeaCipher:
    """Encrypt a byte string under the key text."""
    weight = key_weight(key)
    mk = master_key(weight, len(plaintext))
    plain = np.frombuffer(plaintext, np.uint8)
    odd = plain % 2 == 1
    se = plain[~odd].astype(np.int64)
    so = plain[odd].astype(np.int64)
    # Every prefix sum lies in [-2 * mk, 255 * len], inside int64 under the
    # 2^62 guard.
    for stream, last in ((se, -mk), (so, mk)):
        if stream.size:
            stream[0] -= mk
            np.cumsum(stream, out=stream)
            stream[-1] += last
    red1, red2 = _redundancy(key, mk, weight % 10)
    return OeaCipher(red1, _bits(odd), se, so, red2)


def _undo_prefix_sums(stream: np.ndarray, last: int, mk: int) -> np.ndarray:
    """One stream's plaintext values: the inverse of its step in oea_encrypt.

    Each recovered value is a difference of two values plus at most 2 * mk,
    so int64 holds it when max |value| + mk < 2^62. Values beyond that, which
    only a cipher edited by hand can hold, are taken as Python ints, on which
    the same array operations are exact. The stream itself is not changed.
    """
    if stream.size and max(-int(stream.min()), int(stream.max())) + mk >= MASTER_KEY_LIMIT:
        stream = stream.astype(object)
    values = np.diff(stream, prepend=-mk)
    if values.size:
        values[-1] += last
    return values


def oea_decrypt(cipher: OeaCipher, key: bytes) -> bytes:
    """Recover the exact plaintext; the key must re-derive the redundancy."""
    weight = key_weight(key)
    mk = master_key(weight, len(cipher.sc))

    expected_red1, expected_red2 = _redundancy(key, mk, weight % 10)
    if cipher.red1 != expected_red1 or not np.array_equal(cipher.red2, expected_red2):
        raise KeyMismatch("redundancy sections do not match the supplied key")

    odd = np.frombuffer(cipher.sc, np.uint8) == ord("1")
    even_values = _undo_prefix_sums(cipher.se, mk, mk)
    odd_values = _undo_prefix_sums(cipher.so, -mk, mk)
    plain = np.empty(odd.size, np.result_type(even_values, odd_values))
    plain[~odd] = even_values
    plain[odd] = odd_values
    bad = (plain < 0) | (plain > 255)
    if bad.any():
        raise NonByteValue(f"recovered value {plain[bad.argmax()]} outside [0, 255]")
    return plain.astype(np.uint8).tobytes()


def _int_section(values: np.ndarray) -> list[bytes]:
    """The line of an int64 section: its values split by spaces, then LF.

    The values are formatted a block at a time, each block with one
    %-format, which is faster than a str() per value and holds one block's
    Python ints at a time.
    """
    if not values.size:
        return [b"\n"]
    return [*_text.format_rows(b"%d ", values[:-1, None]), b"%d\n" % values[-1]]


def serialize_oea(cipher: OeaCipher) -> bytes:
    """Render the cipher as six LF-terminated lines of ASCII."""
    header = b"%s %d %d %d %d %d\n" % (
        OEA_MAGIC, len(cipher.red1), len(cipher.sc), len(cipher.se), len(cipher.so), len(cipher.red2)
    )
    return b"".join([
        header, cipher.red1, b"\n", cipher.sc, b"\n",
        *_int_section(cipher.se), *_int_section(cipher.so), *_int_section(cipher.red2),
    ])


_SECTION_NAMES = ("header", "red1", "sc", "se", "so", "red2")


def _parse_int_line(line: bytes, count: int, section: str, line_no: int) -> np.ndarray:
    found = line.count(b" ") + 1 if line else 0
    if found != count:
        raise ParseError(f"{section} section: expected {count} values, found {found}", line_no)
    if not line:
        return np.empty(0, np.int64)
    return _text.int_line(line, f"{section} section", line_no)


def parse_oea(text: bytes) -> OeaCipher:
    """Parse the six-line form back into a cipher; inverse of serialize_oea."""
    lines = _text.split_lines(text, "cipher text")
    if len(lines) != 6:
        truncated = f" (truncated at {_SECTION_NAMES[len(lines)]} section)" if len(lines) < 6 else ""
        raise ParseError(f"expected 6 lines, found {len(lines)}{truncated}", len(lines) + 1)
    header = lines[0].split(b" ")
    if len(header) != 6 or header[0] != OEA_MAGIC:
        raise ParseError(f"header must be '{OEA_MAGIC.decode()}' plus five section lengths", 1)
    n_red1, n_sc, n_se, n_so, n_red2 = _text.canon_ints(header[1:], "header lengths", 1)
    if min(n_red1, n_sc, n_se, n_so, n_red2) < 0:
        raise ParseError("header lengths must be >= 0", 1)
    for name, line_no, expected in (("red1", 2, n_red1), ("sc", 3, n_sc)):
        bits = lines[line_no - 1]
        if len(bits) != expected:
            raise ParseError(
                f"{name} section: expected {expected} bits, found {len(bits)}", line_no
            )
        if not _is_bits(bits):
            raise ParseError(f"{name} section: bits must be '0'/'1'", line_no)
    se = _parse_int_line(lines[3], n_se, "se", 4)
    so = _parse_int_line(lines[4], n_so, "so", 5)
    red2 = _parse_int_line(lines[5], n_red2, "red2", 6)
    return OeaCipher(lines[1], lines[2], se, so, red2)
