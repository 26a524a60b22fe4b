"""Output checks made apart from the program.

Nothing here imports pioucrypt. The expected values come from the benchmark's
own generated pixels and its own lattice count; each check reads what the
program left on disk and returns None when it is right, or a one-line reason
when it is not. Files are read in chunks so that a check never holds more
memory than the call it checks, which keeps `peak_rss_MB` the program's own.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

CHUNK_PIXELS = 1 << 18
PPM_WHITESPACE = b" \t\n\r\x0b\x0c"


def read_ppm_header(fh) -> tuple[int, int]:
    """Read a comment-free binary P6 header; leave fh at the first pixel byte."""
    tokens = []
    token = b""
    while len(tokens) < 4:
        byte = fh.read(1)
        if not byte:
            raise ValueError("truncated PPM header")
        if byte in PPM_WHITESPACE:
            if token:
                tokens.append(token)
                token = b""
        else:
            token += byte
    magic, width, height, maxval = tokens
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"not a P6/255 image: {magic!r} {maxval!r}")
    return int(width), int(height)


def iter_pixels(path):
    """Yield (width, height) and then the pixels as (n, 3) uint8 chunks."""
    with open(path, "rb") as fh:
        width, height = read_ppm_header(fh)
        yield width, height
        remaining = width * height
        while remaining:
            n = min(remaining, CHUNK_PIXELS)
            data = fh.read(3 * n)
            if len(data) != 3 * n:
                raise ValueError("truncated pixel data")
            yield np.frombuffer(data, dtype=np.uint8).reshape(n, 3)
            remaining -= n
        if fh.read(1):
            raise ValueError("trailing bytes after pixel data")


def sorted_channel_counts(pixels: np.ndarray) -> list[list[int]]:
    """Per channel, the sorted non-zero np.bincount counts (a multiset)."""
    flat = pixels.reshape(-1, 3)
    counts = np.zeros((3, 256), dtype=np.int64)
    for start in range(0, len(flat), CHUNK_PIXELS):
        chunk = flat[start : start + CHUNK_PIXELS]
        for c in range(3):
            counts[c] += np.bincount(chunk[:, c], minlength=256)
    return [sorted(int(v) for v in row if v) for row in counts]


def check_decrypted(out_path, expected_path) -> str | None:
    """The decrypted image equals the generated one, byte for byte."""
    got, want = iter_pixels(out_path), iter_pixels(expected_path)
    got_size, want_size = next(got), next(want)
    if got_size != want_size:
        return f"decrypted image is {got_size}, expected {want_size}"
    for index, (a, b) in enumerate(zip(got, want)):
        if not np.array_equal(a, b):
            pixel = index * CHUNK_PIXELS + int(np.flatnonzero((a != b).any(axis=1))[0])
            return f"decrypted image differs from the input at pixel {pixel}"
    return None


def check_histograms(cipher_path, expected_counts) -> str | None:
    """Each cipher channel has the plain channel's multiset of level counts.

    Layer 1 permutes positions and then maps values through one bijection, so
    the counts move between levels but none changes.
    """
    chunks = iter_pixels(cipher_path)
    next(chunks)
    counts = np.zeros((3, 256), dtype=np.int64)
    for chunk in chunks:
        for c in range(3):
            counts[c] += np.bincount(chunk[:, c], minlength=256)
    for c, name in enumerate("RGB"):
        if sorted(int(v) for v in counts[c] if v) != expected_counts[c]:
            return f"cipher channel {name} does not permute the plain histogram"
    return None


def read_key_matrix(key_path) -> tuple[list[str], np.ndarray | None]:
    """The PIOUW header tokens and the entries (None if not all numbers)."""
    text = Path(key_path).read_text(encoding="ascii")
    header, _, body = text.partition("\n")
    try:
        entries = np.fromstring(body, dtype=np.float64, sep=" ")
    except ValueError:
        entries = None
    return header.split(" "), entries


def check_key_header(header: list[str], expected_m: int) -> str | None:
    """The key header reads `PIOUW m 2` with the brute-force m."""
    if header != ["PIOUW", str(expected_m), "2"]:
        return f"key header {' '.join(header)!r}, expected 'PIOUW {expected_m} 2'"
    return None


def check_key_entries(header: list[str], entries: np.ndarray) -> str | None:
    """There are m*r entries, all finite and non-negative."""
    try:
        expected = int(header[1]) * int(header[2])
    except (IndexError, ValueError):
        return f"key header {' '.join(header)!r} has no dimensions"
    if entries is None:
        return "key holds an entry that is not a number"
    if entries.size != expected:
        return f"key holds {entries.size} entries, header promises {expected}"
    if not np.all(np.isfinite(entries)) or np.any(entries < 0):
        return "key holds a negative or non-finite entry"
    return None


def check_error_history(history) -> str | None:
    """Multiplicative updates never increase the reconstruction error."""
    if len(history) < 2:
        return "NMF recorded no iteration"
    steps = np.diff(np.asarray(history, dtype=np.float64))
    if np.any(steps > 0):
        return f"NMF error rose at iteration {int(np.argmax(steps > 0)) + 1}"
    return None


def bundle_sha256(paths) -> str:
    """One digest over the three bundle files, each prefixed by its length."""
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def lattice_count(v0, v1, width: int, height: int) -> int:
    """Count lattice points in the window by testing every pixel.

    (x, y) = n1*v0 + n2*v1 for integers n1, n2 exactly when both
    det*n1 = v1y*x - v1x*y and det*n2 = v0x*y - v0y*x are multiples of det.
    """
    (ax, ay), (bx, by) = v0, v1
    det = ax * by - ay * bx
    x = np.arange(width, dtype=np.int64)[None, :]
    rows = max(1, CHUNK_PIXELS // width)
    total = 0
    for y0 in range(0, height, rows):
        y = np.arange(y0, min(height, y0 + rows), dtype=np.int64)[:, None]
        on_lattice = ((by * x - bx * y) % det == 0) & ((ax * y - ay * x) % det == 0)
        total += int(np.count_nonzero(on_lattice))
    return total
