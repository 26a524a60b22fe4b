"""Loop oracles and shared helpers of the test suite, each written once.

Each oracle is a slow, plain transcription of one stage that the library's
array code must agree with: the generators, the layer-1 swaps and key text,
the lattice enumeration and factorization, the OEA cipher and its int
lines, and the PPM reader. Beside them sit the XOR bias law and its sampler,
which C7 checks the generator's bits with. The test files import them from
here.

reference_encrypt and reference_decrypt chain the oracles into the whole
pipeline, with its draw order, seed salt, lattice window and text formats
written out here rather than imported. So are the rules the oracles share
with the library: the text line split, the canonical integer, and the OEA
key weight and master key. Every text is ASCII bytes, as in the library.
"""

import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np

from pioucrypt.errors import (
    EmptyKey,
    KeyMismatch,
    MalformedHeader,
    NonByteValue,
    OverflowGuard,
    ParseError,
    UnsupportedFormat,
)
from pioucrypt.lattice import nmf_multiplicative
from pioucrypt.layer1 import RgbImage
from pioucrypt.pipeline import write_image
from pioucrypt.prng import Tlcg, Xorshift1024

# ---------------------------------------------------------------------------
# Generators

M64 = 2**64


def reference_expand(seed):
    # big-integer transcription of the seed expansion, kept independent of
    # the library implementation
    out = []
    x = seed
    for _ in range(16):
        x = (6364136223846793005 * x + 1442695040888963407) % M64
        out.append(x)
    return out


def lcg_step(x, multiplier, increment, modulus):
    return (multiplier * x + increment) % modulus


def reference_step(words, index):
    # step-by-step transcription of the published generator procedure
    words = list(words)
    s0 = words[index]
    index = (index + 1) % 16
    s1 = words[index]
    s1 = (s1 ^ (s1 << 31)) % M64
    s1 = s1 ^ s0 ^ (s1 >> 11) ^ (s0 >> 30)
    words[index] = s1
    return (s1 * 0x106689D45497FDB5) % M64, words, index


def reference_draws(seed):
    """The Xorshift1024* outputs of a seed, one at a time, from the two oracles above."""
    words, index = reference_expand(seed), 0
    while True:
        out, words, index = reference_step(words, index)
        yield out


# Three TLCGs, each as one (modulus, multiplier, increment, seed) per stream,
# with 31-bit and small moduli mixed.
TLCG_PARAMETER_SETS = [
    [(2**31 - 1, 16807, 12345, 42), (2**31 - 1, 48271, 67891, 7), (97, 13, 5, 1)],
    [(2**16 + 1, 75, 74, 1), (2**31 - 1, 69621, 0, 9), (101, 7, 3, 55)],
    [(10**9 + 7, 123456, 654321, 111), (9973, 8, 1, 0), (2**31 - 1, 16807, 1, 3)],
]


def reference_tlcg(seed):
    """randrange of the TLCG a master seed gives, with its three streams written out."""
    modulus = 2**31 - 1
    # (multiplier, increment, seed offset) per stream
    streams = [(16807, 12345, 0x9E3779B9), (48271, 67891, 0x85EBCA6B), (69621, 1013904223, 0xC2B2AE35)]
    values = [(seed + offset) % modulus for _, _, offset in streams]

    def randrange(lo, hi):
        for k, (multiplier, increment, _) in enumerate(streams):
            values[k] = lcg_step(values[k], multiplier, increment, modulus)
        return sum(values) % (hi - lo) + lo

    return randrange


def scalar_units(tlcg, count):
    # the per-draw start point that next_units replaced
    return [(tlcg.randrange(0, 1 << 24) + 1) * 2.0**-24 for _ in range(count)]


def xorshift_from_state(words, index=0):
    """A Xorshift1024 whose state slots s and p hold the given words and index."""
    gen = Xorshift1024(0)
    gen.s, gen.p = list(words), index
    return gen


def xor_bias_expected(p, q):
    """The mean of X xor Y for independent bits with means p and q."""
    return p + q - 2.0 * p * q


def xor_bias_empirical(p, q, n, rng):
    """The mean of X xor Y over n bit pairs drawn from rng, the X draw of each first.

    A bit is 1 when its draw's top 53 bits, read as a fraction of 2^53, are
    below the bit's mean.
    """
    draws = np.array(rng.fill_u64(2 * n), np.uint64)
    u = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return float(np.mean((u[0::2] < p) != (u[1::2] < q)))


# ---------------------------------------------------------------------------
# Text rules


def split_lines(text, what):
    """The lines of a text that is not empty and in which every line ends with LF."""
    lines = text.split(b"\n")
    if lines.pop() != b"":
        raise ParseError(f"{what} must end with a newline", len(lines) + 1)
    if not lines:
        raise ParseError(f"empty {what}", 1)
    return lines


def canonical_ints(tokens, what, line):
    """The integers of tokens written as str() writes them.

    Such a token is ASCII digits with no leading zero, after a minus sign
    unless it is 0, and has no more digits than int() converts.
    """
    values = []
    for token in tokens:
        digits = token.removeprefix(b"-")
        if not (
            digits
            and all(ord("0") <= byte <= ord("9") for byte in digits)
            and (digits[0] != ord("0") or token == b"0")
            and len(digits) <= sys.get_int_max_str_digits()
        ):
            raise ParseError(f"{what}: {token!r} is not a canonical integer", line)
        values.append(int(token))
    return values


# ---------------------------------------------------------------------------
# Layer 1

# The PIOU1 line tags, written out here rather than imported.
ROW, COLUMN, LOOKUP = b"R", b"C", b"L"


def reference_layer1_key(draws, width, height):
    """The layer-1 key drawn from an iterator of 64-bit outputs, as plain lists.

    Draw order: the row pairs (i then j), the column pairs, then the table
    from plain value 255 down to 0, each substitute redrawn while it is
    taken. Returns (row pairs, column pairs, table), where table[v] is the
    substitute of plain value v.
    """
    rows = [[next(draws) % height, next(draws) % height] for _ in range(height)]
    cols = [[next(draws) % width, next(draws) % width] for _ in range(width)]
    table = [0] * 256
    used = set()
    for value in range(255, -1, -1):
        z = next(draws) % 256
        while z in used:
            z = next(draws) % 256
        used.add(z)
        table[value] = z
    return rows, cols, table


def swap_schedule(rows, cols):
    """A key's row and column pairs as one (axis, i, j) schedule for loop_apply_swaps."""
    return [(ROW, i, j) for i, j in rows] + [(COLUMN, i, j) for i, j in cols]


def loop_apply_swaps(pixels, schedule):
    """Reference: each (axis, i, j) entry as its own exchange, in list order."""
    arr = np.array(pixels, dtype=np.uint8, copy=True)
    for axis, i, j in schedule:
        if i == j:
            continue
        if axis == ROW:
            arr[[i, j]] = arr[[j, i]]
        else:
            arr[:, [i, j]] = arr[:, [j, i]]
    return arr


def line_serialize_layer1_key(key):
    """The PIOU1 text written one format per line: an oracle for the writer."""
    lines = [b"PIOU1 %d %d" % (key.width, key.height)]
    lines += [b"%s %d %d" % (ROW, i, j) for i, j in key.row_swaps.tolist()]
    lines += [b"%s %d %d" % (COLUMN, i, j) for i, j in key.col_swaps.tolist()]
    lines += [b"%s %d %d" % (LOOKUP, value, key.lut[value]) for value in range(255, -1, -1)]
    return b"".join(line + b"\n" for line in lines)


def loop_parse_layer1_key(text):
    """Reference: the key text parsed one line at a time, as plain lists.

    Returns (width, height, row pairs, column pairs, table), where table[v] is
    the substitute of plain value v.
    """
    lines = split_lines(text, "key file")
    header = lines[0].split(b" ")
    if len(header) != 3 or header[0] != b"PIOU1":
        raise ParseError("header must be 'PIOU1 <width> <height>'", 1)
    width, height = canonical_ints(header[1:], "dimensions", 1)
    if width < 1 or height < 1:
        raise ParseError("dimensions must be >= 1", 1)
    expected = 1 + height + width + 256
    if len(lines) != expected:
        raise ParseError(f"expected {expected} lines, found {len(lines)}", len(lines) + 1)
    swaps = {}
    start = 1
    for tag, count in ((ROW, height), (COLUMN, width)):
        pairs = []
        for offset in range(count):
            line_no = start + offset + 1
            tokens = lines[start + offset].split(b" ")
            if len(tokens) != 3 or tokens[0] != tag:
                raise ParseError(f"expected '{tag.decode()} <i> <j>'", line_no)
            i, j = canonical_ints(tokens[1:], "swap index", line_no)
            if not (0 <= i < count and 0 <= j < count):
                raise ParseError(f"swap index out of range [0, {count})", line_no)
            pairs.append([i, j])
        swaps[tag] = pairs
        start += count
    table = [0] * 256
    seen = set()
    for offset in range(256):
        line_no = start + offset + 1
        tokens = lines[start + offset].split(b" ")
        if len(tokens) != 3 or tokens[0] != LOOKUP:
            raise ParseError("expected 'L <value> <substitute>'", line_no)
        value, sub = canonical_ints(tokens[1:], "lookup entry", line_no)
        if value != 255 - offset:
            raise ParseError(f"plain value must be {255 - offset}", line_no)
        if not 0 <= sub <= 255:
            raise ParseError("substitute outside [0, 255]", line_no)
        if sub in seen:
            raise ParseError(f"substitute {sub} assigned twice", line_no)
        seen.add(sub)
        table[value] = sub
    return width, height, swaps[ROW], swaps[COLUMN], table


# ---------------------------------------------------------------------------
# Lattice and factorization


def brute_force_points(v0, v1, width, height):
    # independent enumeration: coarse index radius from a norm bound, then
    # a full grid sweep
    det = v0[0] * v1[1] - v0[1] * v1[0]
    r1 = (abs(v1[1]) * width + abs(v1[0]) * height) // abs(det) + 2
    r2 = (abs(v0[1]) * width + abs(v0[0]) * height) // abs(det) + 2
    n1, n2 = np.meshgrid(np.arange(-r1, r1 + 1), np.arange(-r2, r2 + 1), indexing="ij")
    xs = n1 * v0[0] + n2 * v1[0]
    ys = n1 * v0[1] + n2 * v1[1]
    mask = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    return sorted(zip(xs[mask].tolist(), ys[mask].tolist()), key=lambda p: (p[1], p[0]))


def membership_points(v0, v1, width, height):
    # independent enumeration in Python ints: (x, y) is a lattice point exactly
    # when its basis coordinates (v1.y x - v1.x y) / det and
    # (v0.x y - v0.y x) / det are both integers
    det = v0[0] * v1[1] - v0[1] * v1[0]
    return [
        [x, y]
        for y in range(height)
        for x in range(width)
        if (v1[1] * x - v1[0] * y) % det == 0 and (v0[0] * y - v0[1] * x) % det == 0
    ]


def temporaries_nmf(V, seed, steps=None):
    """The factorization as written before its buffers: one fresh array per
    product, the start point drawn one unit at a time, and its settings
    (rank 2, 500 steps, epsilon and tolerance 1e-9) written out.

    steps: run exactly this many iterations, with no early stop."""
    m, n = V.shape
    r = 2
    stream = Tlcg.from_seed(seed)

    def unit():
        return (stream.randrange(0, 1 << 24) + 1) * 2.0**-24

    W = np.array([[unit() for _ in range(r)] for _ in range(m)])
    H = np.array([[unit() for _ in range(n)] for _ in range(r)])
    eps = 1e-9
    err = float(np.linalg.norm(V - W @ H))
    history = [err]
    for _ in range(500 if steps is None else steps):
        denom_h = W.T @ W @ H
        denom_h += eps
        H *= (W.T @ V) / denom_h
        denom_w = W @ (H @ H.T)
        denom_w += eps
        W *= (V @ H.T) / denom_w
        new_err = float(np.linalg.norm(V - W @ H))
        history.append(new_err)
        rel_change = 0.0 if err == 0.0 else abs(err - new_err) / err
        err = new_err
        if rel_change < 1e-9 and steps is None:
            break
    return W, H, history


def buffered_nmf(V, seed, block=None):
    """The factorization as written before its blocked sweep: each step
    streams the whole of S through its products, into buffers allocated
    once, and takes the Gram matrix at the start of the step.

    block: sum the Gram matrix and the squared error over column blocks of
    this many columns, in block order, as the sweep does past one block.
    The squared error of each block, or of all of S, is summed in pieces of
    at most 10,000 values, as the sweep sums it."""
    m, n = V.shape
    r = 2
    stream = Tlcg.from_seed(seed)
    S = np.empty((r + n, m))
    Wt = S[:r]
    Vt = S[r:]
    Wt[...] = stream.next_units(m * r).reshape(m, r).T
    Vt[...] = V.T
    H = stream.next_units(r * n).reshape(r, n)
    num = np.empty((r, m))
    den = np.empty((r, m))
    residual = np.empty((n, m))
    bounds = range(0, m, block or m)

    def error():
        # each part is summed in pieces of at most 10,000 values: OpenBLAS
        # splits a longer dot over its threads
        np.matmul(H.T, Wt, out=residual)
        np.subtract(Vt, residual, out=residual)
        parts = [residual[:, lo : lo + (block or m)].ravel() for lo in bounds]
        pieces = [part[at : at + 10000] for part in parts for at in range(0, part.size, 10000)]
        return math.sqrt(sum(np.dot(piece, piece) for piece in pieces))

    err = error()
    history = [err]
    for _ in range(500):
        if block is None:
            gram = Wt @ S.T
        else:
            gram = sum(Wt[:, lo : lo + block] @ S[:, lo : lo + block].T for lo in bounds)
        denom_h = gram[:, :r] @ H
        denom_h += 1e-9
        H *= gram[:, r:] / denom_h
        np.matmul(H @ H.T, Wt, out=den)
        den += 1e-9
        np.matmul(H, Vt, out=num)
        np.divide(num, den, out=num)
        Wt *= num
        new_err = error()
        history.append(new_err)
        rel_change = 0.0 if err == 0.0 else abs(err - new_err) / err
        err = new_err
        if rel_change < 1e-9:
            break
    return np.ascontiguousarray(Wt.T), H, history


def percent_rows(rows, tag=b""):
    """The text of a 2-D integer array as written before the array writer:
    one %d per value, each line led by the tag if given."""
    head = tag + b" " if tag else b""
    return b"".join(head + b" ".join(b"%d" % v for v in row) + b"\n" for row in rows.tolist())


def per_entry_key_text(W):
    # the key text as formatted before blocks: one f-string per entry
    lines = [f"PIOUW {W.shape[0]} {W.shape[1]}"]
    for row in W:
        lines.append(" ".join(f"{(v if v != 0 else 0.0):.5f}" for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# OEA: the per-token loops that the array code replaced


def key_weight(key):
    """The sum of the key's byte values; an empty key is refused."""
    if not key:
        raise EmptyKey("secret key must be non-empty")
    return sum(key)


def master_key(weight, length):
    """The key weight times the plaintext length, refused from 2^62 on."""
    value = weight * length
    if value >= 2**62:
        raise OverflowGuard(f"weight x length = {value} exceeds the 2^62 guard")
    return value



def loop_redundancy(key, mk, length):
    bits = b"".join(b"1" if key[i % len(key)] % 2 == 0 else b"0" for i in range(length))
    values = [key[i % len(key)] + mk for i in range(length)]
    return bits, values


def loop_oea_encrypt(plaintext, key):
    weight = key_weight(key)
    mk = master_key(weight, len(plaintext))
    se, so, sc_bits = [], [], []
    for byte in plaintext:
        if byte % 2 == 1:
            so.append(byte)
            sc_bits.append(b"1")
        else:
            se.append(byte)
            sc_bits.append(b"0")
    if se:
        se[0] -= mk
        for i in range(1, len(se)):
            se[i] += se[i - 1]
        se[-1] -= mk
    if so:
        so[0] -= mk
        for i in range(1, len(so)):
            so[i] += so[i - 1]
        so[-1] += mk
    red1, red2 = loop_redundancy(key, mk, weight % 10)
    return red1, b"".join(sc_bits), se, so, red2


def loop_oea_decrypt(cipher, key):
    weight = key_weight(key)
    mk = master_key(weight, len(cipher.sc))
    expected_red1, expected_red2 = loop_redundancy(key, mk, weight % 10)
    if (
        len(cipher.red1) != weight % 10
        or cipher.red1 != expected_red1
        or cipher.red2.tolist() != expected_red2
    ):
        raise KeyMismatch("redundancy sections do not match the supplied key")
    se = cipher.se.tolist()
    if se:
        se[-1] += mk
        for i in range(len(se) - 1, 0, -1):
            se[i] -= se[i - 1]
        se[0] += mk
    so = cipher.so.tolist()
    if so:
        so[-1] -= mk
        for i in range(len(so) - 1, 0, -1):
            so[i] -= so[i - 1]
        so[0] += mk
    out = bytearray()
    even_iter, odd_iter = iter(se), iter(so)
    for bit in cipher.sc:
        value = next(odd_iter) if bit == ord("1") else next(even_iter)
        if not 0 <= value <= 255:
            raise NonByteValue(f"recovered value {value} outside [0, 255]")
        out.append(value)
    return bytes(out)


def loop_parse_int_line(line, count, section, line_no):
    """The token loop, plus the rule that a value outside int64 is refused."""
    tokens = line.split(b" ") if line else []
    if len(tokens) != count:
        raise ParseError(
            f"{section} section: expected {count} values, found {len(tokens)}", line_no
        )
    values = canonical_ints(tokens, f"{section} section", line_no)
    for token, value in zip(tokens, values):
        if not -(2**63) <= value < 2**63:
            raise ParseError(
                f"{section} section: {token!r} is outside the 64-bit integer range", line_no
            )
    return values


# ---------------------------------------------------------------------------
# PPM files

PPM_WHITESPACE = b" \t\n\r\x0b\x0c"


def loop_header_token(data, pos):
    """The next PPM header token and the position after it, read byte by byte."""
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif byte in PPM_WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in PPM_WHITESPACE:
        pos += 1
    if start == pos:
        raise MalformedHeader("unexpected end of header")
    return data[start:pos], pos


def loop_read_pixels(data):
    """The (h, w, 3) pixels read_image gives for the file bytes data: an oracle."""
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise UnsupportedFormat(f"unsupported magic {magic!r}; need binary P6 or P5")
    pos = 2
    values = []
    for what in ("width", "height", "maxval"):
        token, pos = loop_header_token(data, pos)
        digits = all(b"0" <= token[k : k + 1] <= b"9" for k in range(len(token)))
        try:
            value = int(token) if digits else None
        except ValueError:
            value = None
        if value is None:
            raise MalformedHeader(f"{what}: {token!r} is not an unsigned decimal integer")
        if value < 1:
            raise MalformedHeader(f"{what} must be >= 1")
        values.append(value)
    width, height, maxval = values
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {maxval} unsupported; need 255")
    if pos >= len(data) or data[pos : pos + 1] not in PPM_WHITESPACE:
        raise MalformedHeader("missing whitespace after maxval")
    channels = 3 if magic == b"P6" else 1
    payload = data[pos + 1 : pos + 1 + width * height * channels]
    if len(payload) < width * height * channels:
        raise MalformedHeader(
            f"truncated pixel data: expected {width * height * channels} bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, np.uint8).reshape(height, width, channels)
    return np.repeat(pixels, 3 // channels, axis=2)


# ---------------------------------------------------------------------------
# Test inputs and measurements


def random_image(rng, width, height):
    planes = rng.integers(0, 256, (3, height, width), dtype=np.uint8)
    return RgbImage(np.stack(planes, axis=-1))


def write_random_ppm(path, rng, width, height):
    image = random_image(rng, width, height)
    write_image(image, path)
    return image


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The pipeline, chained from the oracles above

# The salt of the factorization's seed, written out rather than imported.
NMF_SEED_SALT = 0x9E3779B97F4A7C15


def ppm_bytes(pixels):
    """A (h, w, 3) uint8 array as a P6 file."""
    return b"P6\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]) + pixels.tobytes()


def reference_encrypt(data, seed):
    """The bundle of the image file bytes data: cipher image, PIOU2 text and PIOUW key, as bytes.

    Each stage is an oracle except the factorization, whose W is the
    library's: temporaries_nmf can stop at another step where the error sits
    at its floor.
    """
    pixels = loop_read_pixels(data)
    height, width = pixels.shape[:2]
    rows, cols, table = reference_layer1_key(reference_draws(seed), width, height)
    cipher = np.array(table, np.uint8)[loop_apply_swaps(pixels, swap_schedule(rows, cols))]
    key = SimpleNamespace(
        width=width, height=height, row_swaps=np.array(rows), col_swaps=np.array(cols), lut=table
    )
    plaintext = line_serialize_layer1_key(key)

    # the lattice in the cipher image's window: a basis drawn as v0.x, v0.y,
    # v1.x, v1.y in [-B, B], B = max(4, ceil(max(w, h) / 25)), until it is
    # not collinear
    randrange = reference_tlcg(seed)
    bound = max(4, -(-max(width, height) // 25))
    while True:
        x0, y0, x1, y1 = (randrange(-bound, bound + 1) for _ in range(4))
        if x0 * y1 - y0 * x1 != 0:
            break
    points = np.array(membership_points((x0, y0), (x1, y1), width, height), np.int64)
    oea_key = per_entry_key_text(nmf_multiplicative(points, seed ^ NMF_SEED_SALT).W)

    red1, sc, se, so, red2 = loop_oea_encrypt(plaintext, oea_key)
    lines = [b"PIOU2 %d %d %d %d %d" % (len(red1), len(sc), len(se), len(so), len(red2)), red1, sc]
    lines += [b" ".join(b"%d" % value for value in section) for section in (se, so, red2)]
    return ppm_bytes(cipher), b"".join(line + b"\n" for line in lines), oea_key


def reference_decrypt(cipher_image, cipher_text, key):
    """The P6 file of the image that a bundle's three files, given as bytes, hold."""
    pixels = loop_read_pixels(cipher_image)
    header, red1, sc, *lines, _ = cipher_text.split(b"\n")
    counts = [int(token) for token in header.split(b" ")[3:]]
    se, so, red2 = (
        np.array(loop_parse_int_line(line, count, name, line_no), np.int64)
        for name, line, count, line_no in zip(("se", "so", "red2"), lines, counts, (4, 5, 6))
    )
    plaintext = loop_oea_decrypt(SimpleNamespace(red1=red1, sc=sc, se=se, so=so, red2=red2), key)
    _, _, rows, cols, table = loop_parse_layer1_key(plaintext)
    inverse = np.empty(256, np.uint8)
    inverse[table] = np.arange(256)
    return ppm_bytes(loop_apply_swaps(inverse[pixels], swap_schedule(rows, cols)[::-1]))
