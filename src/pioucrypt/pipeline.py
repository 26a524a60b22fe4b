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
import io
import os
import re
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISREG
from typing import Iterable

import numpy as np

from .errors import (
    InterruptedWrite,
    InvalidConfig,
    MalformedHeader,
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

# Runs of one byte class in a PPM header. In a bytes pattern \s is exactly
# the six whitespace bytes of the PPM format; a comment runs from its # up
# to the end of its line.
_BLANKS = re.compile(rb"\s*")
_COMMENT = re.compile(rb"[^\n\r]*")
_TOKEN = re.compile(rb"\S*")


def _read_run(fh, run: re.Pattern, keep: bool) -> bytes:
    """Read the bytes that run matches from fh's position on; return them if keep.

    The run is matched one buffer at a time. A run of one byte class can go
    on in the next buffer without any state carried over, and the bytes of
    a run that is not kept are dropped as they are read.
    """
    kept = []
    while chunk := fh.peek():
        end = run.match(chunk).end()
        part = fh.read(end)
        if keep:
            kept.append(part)
        if end < len(chunk):
            break
    return b"".join(kept)


def _header_int(fh, what: str) -> int:
    """The next header number of fh, after any whitespace and comments."""
    _read_run(fh, _BLANKS, keep=False)
    while fh.peek()[:1] == b"#":
        _read_run(fh, _COMMENT, keep=False)
        _read_run(fh, _BLANKS, keep=False)
    token = _read_run(fh, _TOKEN, keep=True)
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
    return value


def read_image(path) -> RgbImage:
    """Read a binary PPM (P6) or PGM (P5) file with maxval 255.

    The header is read once, front to back, from the buffered file, and
    only its numbers are held. The payload is then read straight into a new
    array that the image owns, so the pixels are copied once, from the
    file, and are writable. A payload shorter than the header says is
    refused before that array is made.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P6", b"P5"):
            raise UnsupportedFormat(f"unsupported magic {magic!r}; need binary P6 or P5")
        width, height, maxval = (_header_int(fh, what) for what in ("width", "height", "maxval"))
        if maxval != 255:
            raise UnsupportedFormat(f"maxval {maxval} unsupported; need 255")
        if not fh.read(1).isspace():
            raise MalformedHeader("missing whitespace after maxval")
        channels = 3 if magic == b"P6" else 1
        expected = width * height * channels
        # found: the payload bytes the file holds, then the bytes read
        status = os.fstat(fh.fileno())
        if S_ISREG(status.st_mode):
            source, found = fh, status.st_size - fh.tell()
        else:  # a pipe has no size, so it is read to its end first
            rest = fh.read()
            source, found = io.BytesIO(rest), len(rest)
        if found >= expected:
            pixels = np.empty(expected, np.uint8)
            found = 0
            while found < expected and (count := source.readinto(memoryview(pixels)[found:])):
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

    Only a write that was killed leaves such a file, and the files there
    may then mix two runs.
    """
    for path in paths:
        for found in path.parent.glob(f".{glob.escape(path.name)}.{'[0-9a-f]' * 16}.tmp"):
            raise InterruptedWrite(f"{found} was left by an interrupted write; inspect it and remove it")


def _write_all_or_nothing(payloads: list[tuple[Path, Iterable]]) -> None:
    """Write every (target, parts) pair, or leave every target as it was.

    The parts of a target are bytes-like objects, written in order, so an
    image's pixels follow its header without being copied into one object.
    A target beside which a killed write left a file is refused before
    anything is written. The parts first go to a uniquely named file beside
    the target, so two runs on the same stem cannot collide. A target that
    already exists is moved aside before its new file replaces it, and moved
    back if any later step fails; the set-aside copies are deleted once every
    target is in place.
    """
    for target, _ in payloads:
        if not target.name:
            raise InvalidConfig(f"output path {str(target)!r} does not name a file")
    _refuse_interrupted(target for target, _ in payloads)
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

    The output directory is checked before the image is read. Nothing is
    written until every artifact is computed, so a failure in any stage
    leaves no partial bundle behind.
    """
    image_path = Path(image_path)
    out_dir = Path(config.out_dir if config.out_dir is not None else image_path.parent)
    if not out_dir.is_dir():
        raise NotADirectoryError(f"output directory {out_dir} does not exist")
    paths = _bundle_paths(image_path, out_dir)
    # Layer 1 runs in the array the image was read into, so that array is
    # the cipher image and the one image the call holds.
    cipher_image = read_image(image_path)
    layer1_key = generate_layer1_key(Xorshift1024(config.seed), cipher_image.width, cipher_image.height)
    apply_swaps(cipher_image, layer1_key)
    plaintext = serialize_layer1_key(layer1_key)

    window = WindowSpec(cipher_image.width, cipher_image.height)
    vectors = derive_lattice_vectors(Tlcg.from_seed(config.seed), window)
    # Neither the points nor the factors have a name: the factorization
    # frees the points once they are in its buffer, and W is freed once its
    # text exists.
    oea_key = serialize_key_matrix(
        nmf_multiplicative(generate_lattice_points(vectors, window), config.seed ^ NMF_SEED_SALT).W
    )

    _write_all_or_nothing(
        [
            (paths[0], _encode_ppm(cipher_image)),
            (paths[1], (serialize_oea(oea_encrypt(plaintext, oea_key)),)),
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
    Inputs beside which a killed write left a file are refused first, and
    so is out_path before anything is written.
    """
    cipher_image_path = Path(cipher_image_path)
    _refuse_interrupted((cipher_image_path, Path(oea_cipher_path), Path(oea_key_path)))
    cipher_image = read_image(cipher_image_path)
    key_bytes = Path(oea_key_path).read_bytes()
    plaintext = oea_decrypt(parse_oea(Path(oea_cipher_path).read_bytes()), key_bytes)
    layer1_key = parse_layer1_key(plaintext)
    plain = apply_swaps(cipher_image, layer1_key.inverse())
    if out_path is None:
        out_path = decrypted_image_path(cipher_image_path)
    write_image(plain, out_path)
    return plain
