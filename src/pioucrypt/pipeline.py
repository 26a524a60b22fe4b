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
import operator
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidConfig,
    MalformedHeader,
    ParseError,
    UnsupportedFormat,
)
from .layer1 import (
    RgbImage,
    decrypt_layer1,
    encrypt_layer1,
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
from .prng import Tlcg, Xorshift1024

# Salt mixed into the master seed for the factorization start point, so the
# vector-derivation stream and the initializer stream differ.
NMF_SEED_SALT = 0x9E3779B97F4A7C15

CIPHER_IMAGE_SUFFIX = ".cipher.ppm"
OEA_CIPHER_SUFFIX = ".cipher.oea"
OEA_KEY_SUFFIX = ".key.oeaw"

# One PPM header token after any whitespace and comments. In a bytes pattern
# \s is exactly the six whitespace bytes of the PPM format.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*)*+(\S*)")


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    match = _HEADER_TOKEN.match(data, pos)
    token = match[1]
    if not token:
        raise MalformedHeader("unexpected end of header")
    try:
        value = int(token)
    except ValueError:
        raise MalformedHeader(f"{what}: {token!r} is not an integer") from None
    if value < 1:
        raise MalformedHeader(f"{what} must be >= 1")
    return value, match.end()


def read_image(path) -> RgbImage:
    """Read a binary PPM (P6) or PGM (P5) file with maxval 255.

    A P6 image wraps the file's bytes without copying, so its pixels are
    read-only.
    """
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise UnsupportedFormat(f"unsupported magic {magic!r}; need binary P6 or P5")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {maxval} unsupported; need 255")
    if not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing whitespace after maxval")
    pos += 1
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    payload = memoryview(data)[pos : pos + expected]
    if len(payload) < expected:
        raise MalformedHeader(
            f"truncated pixel data: expected {expected} bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if magic == b"P5":
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


@dataclass
class HistogramReport:
    """Per-channel counts of the 256 brightness levels."""

    width: int
    height: int
    red: list[int]
    green: list[int]
    blue: list[int]

    def channel(self, name: str) -> list[int]:
        return getattr(self, name)


def histogram(image: RgbImage) -> HistogramReport:
    """Exact per-channel level counts; each channel sums to width*height."""
    counts = [
        np.bincount(image.pixels[..., c].ravel(), minlength=256).tolist() for c in range(3)
    ]
    return HistogramReport(image.width, image.height, *counts)


def analyze(image_path, csv_path) -> HistogramReport:
    """Write the histogram as CSV (channel, level, count; 768 data rows).

    A failed write leaves any previous file at csv_path as it was.
    """
    report = histogram(read_image(image_path))
    lines = ["channel,level,count"]
    for name in ("red", "green", "blue"):
        lines.extend(
            f"{name},{level},{count}" for level, count in enumerate(report.channel(name))
        )
    text = "\n".join(lines) + "\n"
    _write_all_or_nothing([(Path(csv_path), (text.encode("ascii"),))])
    return report


@dataclass
class PipelineConfig:
    """One seed drives the whole pipeline; out_dir defaults to the image's."""

    seed: int
    out_dir: Path | None = None

    def __post_init__(self):
        try:
            self.seed = operator.index(self.seed)
        except TypeError:
            raise InvalidConfig("seed must be an integer") from None
        if not 0 <= self.seed < 1 << 64:
            raise InvalidConfig("seed must be an unsigned 64-bit integer")


@dataclass
class EncryptionBundle:
    """The sender's three mutually consistent artifacts."""

    cipher_image: RgbImage
    oea_cipher_text: str
    oea_key_text: str
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


def _write_all_or_nothing(payloads: list[tuple[Path, tuple]]) -> None:
    """Write every (target, parts) pair, or leave every target as it was.

    The parts of a target are bytes-like objects written in order. They first
    go to a uniquely named file beside the target, so two runs on the same
    stem cannot collide. A target that already exists is moved aside before
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

    Nothing is written until every artifact is computed, so a failure in any
    stage leaves no partial bundle behind.
    """
    image_path = Path(image_path)
    # No name holds the source image, so it is freed once layer 1 has run.
    cipher_image, layer1_key = encrypt_layer1(read_image(image_path), Xorshift1024(config.seed))
    plaintext = serialize_layer1_key(layer1_key).encode("ascii")

    window = WindowSpec(cipher_image.width, cipher_image.height)
    vectors = derive_lattice_vectors(Tlcg.from_seed(config.seed), window)
    points = generate_lattice_points(vectors, window)
    factors = nmf_multiplicative(points, config.seed ^ NMF_SEED_SALT)
    oea_key_text = serialize_key_matrix(factors.W)
    oea_key = oea_key_text.encode("ascii")

    cipher = oea_encrypt(plaintext, oea_key)
    oea_cipher_text = serialize_oea(cipher)

    out_dir = config.out_dir if config.out_dir is not None else image_path.parent
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise NotADirectoryError(f"output directory {out_dir} does not exist")
    paths = _bundle_paths(image_path, out_dir)
    _write_all_or_nothing(
        [
            (paths[0], _encode_ppm(cipher_image)),
            (paths[1], (oea_cipher_text.encode("ascii"),)),
            (paths[2], (oea_key,)),
        ]
    )
    return EncryptionBundle(cipher_image, oea_cipher_text, oea_key_text, paths)


def decrypted_image_path(cipher_image_path) -> Path:
    """Where decrypt_pipeline writes the image when given no out_path."""
    path = Path(cipher_image_path)
    return path.with_name(path.stem + ".dec.ppm")


def decrypt_pipeline(cipher_image_path, oea_cipher_path, oea_key_path, out_path=None) -> RgbImage:
    """Invert a bundle back to the original image and write it to disk.

    The image goes to out_path, or to decrypted_image_path(cipher_image_path).
    """
    cipher_image_path = Path(cipher_image_path)
    cipher_image = read_image(cipher_image_path)
    key_bytes = Path(oea_key_path).read_bytes()
    try:
        cipher_text = Path(oea_cipher_path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"ciphertext is not ASCII: {exc}") from None
    cipher = parse_oea(cipher_text)
    plaintext = oea_decrypt(cipher, key_bytes)
    try:
        key_text = plaintext.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"recovered key text is not ASCII: {exc}") from None
    layer1_key = parse_layer1_key(key_text)
    plain = decrypt_layer1(cipher_image, layer1_key)
    if out_path is None:
        out_path = decrypted_image_path(cipher_image_path)
    write_image(plain, out_path)
    return plain
