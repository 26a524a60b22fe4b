"""End-to-end orchestration: image I/O, both layers, histograms, bundles.

The sender path scrambles the image (layer 1), builds the lattice point
matrix from the image dimensions, factorizes it, and encrypts the layer-1 key
text under the serialized factor matrix (layer 2). The three artifacts --
cipher image, layer-2 ciphertext, layer-2 key -- are written all-or-nothing.

Only bit-exact image containers are supported: binary PPM (P6, maxval 255)
in and out, binary PGM (P5) promoted to RGB on read. Lossy formats would
break the losslessness guarantee, so they are rejected outright.
"""

from __future__ import annotations

import contextlib
import glob
import os
import re
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISREG
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    InterruptedWrite,
    InvalidConfig,
    MalformedHeader,
    ParseError,
    UnsupportedFormat,
)
from .layer1 import (
    RgbImage,
    apply_swaps,
    generate_layer1_key,
    parse_layer1_key,
    serialize_layer1_key,
)
from .lattice import (
    WindowSpec,
    derive_lattice_vectors,
    generate_lattice_points,
    nmf_multiplicative,
    serialize_key_matrix,
)
from .oea import oea_decrypt, oea_encrypt, parse_oea, serialize_oea
from .prng import Tlcg, Xorshift1024, as_seed

# Salt mixed into the master seed for the factorization start point, so the
# vector-derivation stream and the initializer stream differ.
NMF_SEED_SALT = 0x9E3779B97F4A7C15

CIPHER_IMAGE_SUFFIX = ".cipher.ppm"
OEA_CIPHER_SUFFIX = ".cipher.oea"
OEA_KEY_SUFFIX = ".key.oeaw"

# One PPM header token after any whitespace and comments. In a bytes pattern
# \s is exactly the six whitespace bytes of the PPM format.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*+(\S*)")


# Bytes read per attempt at the header; each further attempt reads as many
# bytes as are already held.
_HEADER_CHUNK = 4096

# Characters of a text encoded per write.
_WRITE_CHUNK = 1 << 16


def _header_int(data: bytes, pos: int, what: str, complete: bool) -> tuple[int, int] | None:
    """The header number at pos and the position after it, or None if data may end inside it."""
    match = _HEADER_TOKEN.match(data, pos)
    if match.end() == len(data) and not complete:
        return None
    token = match[1]
    if not token:
        raise MalformedHeader("unexpected end of header")
    # ASCII digits only: int() would also take a sign and underscores
    value = None
    if token.isdigit():
        with contextlib.suppress(ValueError):  # more digits than int() converts
            value = int(token)
    if value is None:
        raise MalformedHeader(f"{what}: {token!r} is not an unsigned decimal integer")
    if value < 1:
        raise MalformedHeader(f"{what} must be >= 1")
    return value, match.end()


def _parse_header(data: bytes, complete: bool) -> tuple[int, int, int, int] | None:
    """(width, height, channels, payload offset) of the header that data starts with.

    complete says whether data is the whole file. If it is not, and the
    header may run past its end, the result is None: every check is then
    made again on more of the file, so each one sees the bytes it would see
    in the whole file.
    """
    magic = data[:2]
    if len(magic) < 2 and not complete:
        return None
    if magic not in (b"P6", b"P5"):
        raise UnsupportedFormat(f"unsupported magic {magic!r}; need binary P6 or P5")
    pos, values = 2, []
    for what in ("width", "height", "maxval"):
        number = _header_int(data, pos, what, complete)
        if number is None:
            return None
        value, pos = number
        values.append(value)
    width, height, maxval = values
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {maxval} unsupported; need 255")
    if not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing whitespace after maxval")
    return width, height, 3 if magic == b"P6" else 1, pos + 1


def read_image(path) -> RgbImage:
    """Read a binary PPM (P6) or PGM (P5) file with maxval 255.

    The header is read first, then the payload straight into a new array
    that the image owns, so the pixels are copied once, from the file, and
    are writable. A payload shorter than the header says is refused before
    that array is made.
    """
    with open(path, "rb", buffering=0) as fh:
        head, header = b"", None
        while header is None:
            more = fh.read(max(_HEADER_CHUNK, len(head)))
            head += more
            header = _parse_header(head, complete=not more)
        width, height, channels, pos = header
        expected = width * height * channels
        # found: the payload bytes the file holds, then the bytes read
        status = os.fstat(fh.fileno())
        if S_ISREG(status.st_mode):
            found = status.st_size - pos
        else:  # a pipe has no size, so it is read to its end first
            head += fh.readall()
            found = len(head) - pos
        start = head[pos : pos + expected]
        if found >= expected:
            pixels = np.empty(expected, np.uint8)
            pixels[: len(start)] = np.frombuffer(start, np.uint8)
            found = len(start)
            while found < expected and (count := fh.readinto(memoryview(pixels)[found:])):
                found += count
    if found < expected:
        raise MalformedHeader(f"truncated pixel data: expected {expected} bytes, found {found}")
    pixels = pixels.reshape(height, width, channels)
    if channels == 1:
        pixels = pixels.repeat(3, axis=2)
    return RgbImage(pixels)


def _encode_ppm(image: RgbImage) -> tuple[bytes, np.ndarray]:
    """The P6 (maxval 255) file of an image: its header, then its pixel payload.

    The two parts are written one after the other, so the pixels are never
    copied into one file-sized bytes object.
    """
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header, np.ascontiguousarray(image.pixels)


def _encode_ascii(text: str) -> Iterator[bytes]:
    """An ASCII text as bytes, one piece of _WRITE_CHUNK characters at a time.

    Written piece by piece, the text is never held twice.
    """
    for start in range(0, len(text), _WRITE_CHUNK):
        yield text[start : start + _WRITE_CHUNK].encode("ascii")


def write_image(image: RgbImage, path) -> None:
    """Write a binary PPM (P6, maxval 255); pixel payload is bit-exact.

    A failed write leaves any previous file at path as it was.
    """
    _write_all_or_nothing([(Path(path), _encode_ppm(image))])


def histogram(image: RgbImage) -> np.ndarray:
    """Exact level counts: a (3, 256) int64 array, one row per channel (red, green, blue).

    Each row sums to width*height.
    """
    channels = [np.bincount(image.pixels[..., c].ravel(), minlength=256) for c in range(3)]
    return np.array(channels, np.int64)


def analyze(image_path, csv_path) -> np.ndarray:
    """Write the histogram as CSV (channel, level, count; 768 data rows) and return it.

    A failed write leaves any previous file at csv_path as it was.
    """
    counts = histogram(read_image(image_path))
    lines = ["channel,level,count"]
    for name, row in zip(("red", "green", "blue"), counts.tolist()):
        lines.extend(f"{name},{level},{count}" for level, count in enumerate(row))
    text = "\n".join(lines) + "\n"
    _write_all_or_nothing([(Path(csv_path), (text.encode("ascii"),))])
    return counts


@dataclass
class PipelineConfig:
    """One seed drives the whole pipeline; out_dir defaults to the image's."""

    seed: int
    out_dir: Path | None = None

    def __post_init__(self):
        self.seed = as_seed(self.seed)


@dataclass
class EncryptionBundle:
    """Where the sender's three mutually consistent artifacts were written.

    paths is the cipher image, the PIOU2 text and the PIOUW key, in the
    order decrypt_pipeline takes them.
    """

    paths: tuple[Path, Path, Path]


def _bundle_paths(image_path: Path, out_dir: Path) -> tuple[Path, Path, Path]:
    stem = image_path.stem
    return (
        out_dir / f"{stem}{CIPHER_IMAGE_SUFFIX}",
        out_dir / f"{stem}{OEA_CIPHER_SUFFIX}",
        out_dir / f"{stem}{OEA_KEY_SUFFIX}",
    )


def _sibling_temp(target: Path) -> Path:
    return target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")


def _refuse_interrupted(paths: Iterable[Path]) -> None:
    """Refuse paths that have a file named by _sibling_temp beside them.

    Only a write that was killed leaves such a file, and the bundle there
    may then mix files of two runs.
    """
    for path in paths:
        for found in path.parent.glob(f".{glob.escape(path.name)}.{'[0-9a-f]' * 16}.tmp"):
            raise InterruptedWrite(f"{found} was left by an interrupted write; inspect it and remove it")


def _write_all_or_nothing(payloads: list[tuple[Path, Iterable]]) -> None:
    """Write every (target, parts) pair, or leave every target as it was.

    The parts of a target are an iterable of bytes-like objects, written in
    order, so a text can be encoded a piece at a time as it is written. They
    first go to a uniquely named file beside the target, so two runs on the
    same stem cannot collide. A target that already exists is moved aside before
    its new file replaces it, and moved back if any later step fails; the
    set-aside copies are deleted once every target is in place.
    """
    for target, _ in payloads:
        if not target.name:
            raise InvalidConfig(f"output path {str(target)!r} does not name a file")
    temps = []
    replaced = []  # (target, its previous file moved aside, or None)
    try:
        for target, parts in payloads:
            temp = _sibling_temp(target)
            with open(temp, "xb") as fh:
                temps.append(temp)
                for part in parts:
                    fh.write(part)
        for temp, (target, _) in zip(temps, payloads):
            previous = None
            if target.is_file():
                previous = _sibling_temp(target)
                os.replace(target, previous)
            replaced.append((target, previous))
            os.replace(temp, target)
    except BaseException:
        for target, previous in reversed(replaced):
            with contextlib.suppress(OSError):
                if previous is None:
                    target.unlink(missing_ok=True)
                else:
                    os.replace(previous, target)
        for temp in temps:
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        raise
    for _, previous in replaced:
        if previous is not None:
            previous.unlink()


def encrypt_pipeline(image_path, config: PipelineConfig) -> EncryptionBundle:
    """Run both layers over an image file and write the bundle to disk.

    The output directory, and that no killed write left a file beside the
    bundle's paths, are checked before the image is read. Nothing is
    written until every artifact is computed, so a failure in any stage
    leaves no partial bundle behind.
    """
    image_path = Path(image_path)
    out_dir = Path(config.out_dir if config.out_dir is not None else image_path.parent)
    if not out_dir.is_dir():
        raise NotADirectoryError(f"output directory {out_dir} does not exist")
    paths = _bundle_paths(image_path, out_dir)
    _refuse_interrupted(paths)
    # Layer 1 runs in the array the image was read into, so that array is
    # the cipher image and the one image the call holds.
    cipher_image = read_image(image_path)
    layer1_key = generate_layer1_key(Xorshift1024(config.seed), cipher_image.width, cipher_image.height)
    apply_swaps(cipher_image, layer1_key)
    plaintext = serialize_layer1_key(layer1_key).encode("ascii")

    window = WindowSpec(cipher_image.width, cipher_image.height)
    vectors = derive_lattice_vectors(Tlcg.from_seed(config.seed), window)
    # Neither the points, the factors nor the key text have a name: the
    # factorization frees the points once they are in its buffer, W is freed
    # once its text exists, and the text once it is encoded.
    oea_key = serialize_key_matrix(
        nmf_multiplicative(generate_lattice_points(vectors, window), config.seed ^ NMF_SEED_SALT).W
    ).encode("ascii")

    cipher_text = serialize_oea(oea_encrypt(plaintext, oea_key))

    _write_all_or_nothing(
        [
            (paths[0], _encode_ppm(cipher_image)),
            (paths[1], _encode_ascii(cipher_text)),
            (paths[2], (oea_key,)),
        ]
    )
    return EncryptionBundle(paths)


def decrypted_image_path(cipher_image_path) -> Path:
    """Where decrypt_pipeline writes the image when given no out_path."""
    path = Path(cipher_image_path)
    return path.with_name(path.stem + ".dec.ppm")


def decrypt_pipeline(cipher_image_path, oea_cipher_path, oea_key_path, out_path=None) -> RgbImage:
    """Invert a bundle back to the original image and write it to disk.

    The image goes to out_path, or to decrypted_image_path(cipher_image_path).
    Inputs beside which a killed write left a file are refused first.
    """
    cipher_image_path = Path(cipher_image_path)
    _refuse_interrupted((cipher_image_path, Path(oea_cipher_path), Path(oea_key_path)))
    cipher_image = read_image(cipher_image_path)
    key_bytes = Path(oea_key_path).read_bytes()
    try:
        cipher_text = Path(oea_cipher_path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"ciphertext is not ASCII: {exc}") from None
    cipher = parse_oea(cipher_text)
    del cipher_text
    plaintext = oea_decrypt(cipher, key_bytes)
    try:
        key_text = plaintext.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"recovered key text is not ASCII: {exc}") from None
    layer1_key = parse_layer1_key(key_text)
    plain = apply_swaps(cipher_image, layer1_key.inverse())
    if out_path is None:
        out_path = decrypted_image_path(cipher_image_path)
    write_image(plain, out_path)
    return plain
