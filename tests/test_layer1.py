"""Unit tests for the pixel-scrambling layer and its key format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pioucrypt import _text
from pioucrypt.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidConfig,
    NonBijectiveTable,
    ParseError,
)
from pioucrypt.layer1 import (
    BLOCK_BYTES,
    COLUMN,
    ROW,
    Layer1Key,
    LOOKUP,
    RgbImage,
    apply_swaps,
    decrypt_layer1,
    encrypt_layer1,
    generate_layer1_key,
    parse_layer1_key,
    serialize_layer1_key,
)
from pioucrypt.pipeline import read_image
from pioucrypt.prng import Xorshift1024


def random_image(rng, width, height):
    planes = rng.integers(0, 256, (3, height, width), dtype=np.uint8)
    return RgbImage(np.stack(planes, axis=-1))


class CountingRng:
    """Wraps the generator to count its draws, one by one or in bulk."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def randint(self, lo, hi):
        self.count += 1
        return self.inner.randint(lo, hi)

    def fill_u64(self, count):
        self.count += count
        return self.inner.fill_u64(count)


IDENTITY_LUT = np.arange(256, dtype=np.uint8)


def test_rgb_image_validation():
    for bad in (
        np.zeros((2, 3), np.uint8),
        np.zeros((2, 3, 3)),
        np.zeros((2, 3, 3), np.int64),
        np.zeros((0, 3, 3), np.uint8),
        np.zeros((2, 3, 2), np.uint8),
    ):
        with pytest.raises(InvalidConfig):
            RgbImage(bad)
    pixels = np.zeros((2, 3, 3), np.uint8)
    image = RgbImage(pixels)
    assert image.pixels is pixels
    assert image.width == 3 and image.height == 2


def test_from_gray_replicates_planes(tmp_path):
    # a P5 plane is read into all three channels of one (h, w, 3) image
    gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
    (tmp_path / "g.pgm").write_bytes(b"P5\n3 2\n255\n" + gray.tobytes())
    image = read_image(tmp_path / "g.pgm")
    assert image.pixels.shape == (2, 3, 3)
    for c in range(3):
        assert np.array_equal(image.pixels[..., c], gray)


def test_apply_swaps_row_example():
    plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    swapped = apply_swaps(plane, [(0, 1)], [], IDENTITY_LUT)
    assert swapped.tolist() == [[3, 4], [1, 2]]


def test_apply_swaps_column():
    plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    swapped = apply_swaps(plane, [], [(0, 1)], IDENTITY_LUT)
    assert swapped.tolist() == [[2, 1], [4, 3]]


def test_apply_swaps_self_swap_is_noop():
    plane = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(apply_swaps(plane, [(2, 2)], [], IDENTITY_LUT), plane)


def test_apply_swaps_reversed_restores():
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    rows = rng.integers(0, 9, (20, 2))
    cols = rng.integers(0, 7, (20, 2))
    forward = apply_swaps(plane, rows, cols, IDENTITY_LUT)
    restored = apply_swaps(forward, rows[::-1], cols[::-1], IDENTITY_LUT)
    assert np.array_equal(restored, plane)


def test_apply_swaps_out_of_range():
    plane = np.zeros((2, 2), np.uint8)
    with pytest.raises(IndexOutOfRange, match=r"^row swap \(0, 2\) outside height 2$"):
        apply_swaps(plane, [(1, 0), (0, 2), (3, 0)], [], IDENTITY_LUT)
    with pytest.raises(IndexOutOfRange, match=r"^column swap \(5, 0\) outside width 2$"):
        apply_swaps(plane, [(1, 1)], [(5, 0), (-1, 0)], IDENTITY_LUT)
    with pytest.raises(IndexOutOfRange, match=r"^row swap \(1, -1\) outside height 2$"):
        apply_swaps(plane, [(1, -1)], [], IDENTITY_LUT)


def loop_apply_swaps(plane, schedule):
    """Reference: each (axis, i, j) entry as its own exchange, in list order."""
    arr = np.array(plane, dtype=np.uint8, copy=True)
    if arr.ndim == 3:
        return np.stack([loop_apply_swaps(arr[:, :, c], schedule) for c in range(arr.shape[2])], axis=-1)
    h, w = arr.shape
    for axis, i, j in schedule:
        if axis == ROW:
            if not (0 <= i < h and 0 <= j < h):
                raise IndexOutOfRange(f"row swap ({i}, {j}) outside height {h}")
            if i != j:
                arr[[i, j]] = arr[[j, i]]
        else:
            if not (0 <= i < w and 0 <= j < w):
                raise IndexOutOfRange(f"column swap ({i}, {j}) outside width {w}")
            if i != j:
                arr[:, [i, j]] = arr[:, [j, i]]
    return arr


def pairs_of(schedule, axis):
    """The (i, j) pairs of one axis from an interleaved schedule, in order."""
    return [(i, j) for tag, i, j in schedule if tag == axis]


@st.composite
def arrays_and_schedules(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    seed = draw(st.integers(0, 2**32 - 1))
    arr = np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)
    entry = st.one_of(
        st.tuples(st.just(ROW), st.integers(0, h - 1), st.integers(0, h - 1)),
        st.tuples(st.just(COLUMN), st.integers(0, w - 1), st.integers(0, w - 1)),
    )
    return arr, draw(st.lists(entry, max_size=3 * (h + w)))


@settings(deadline=None)
@given(arrays_and_schedules())
def test_apply_swaps_matches_loop_oracle(case):
    # The oracle runs rows and columns interleaved; apply_swaps gets them split
    # by axis, which gives the same result because the two kinds commute.
    arr, schedule = case
    rows, cols = pairs_of(schedule, ROW), pairs_of(schedule, COLUMN)
    folded = apply_swaps(arr, rows, cols, IDENTITY_LUT)
    assert np.array_equal(folded, loop_apply_swaps(arr, schedule))
    as_arrays = apply_swaps(arr, np.array(rows, np.int64), np.array(cols, np.int64), IDENTITY_LUT)
    assert np.array_equal(folded, as_arrays)
    assert np.array_equal(apply_swaps(folded, rows[::-1], cols[::-1], IDENTITY_LUT), arr)
    assert np.array_equal(loop_apply_swaps(folded, schedule[::-1]), arr)


# Heights on both sides of the edges of 64-row blocks.
block_heights = st.one_of(
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 130, 193]), st.integers(1, 200)
)


@st.composite
def fused_cases(draw):
    """An array, a schedule, a table and a layout for the fused pass.

    Narrow arrays are one block. Wide ones have rows of BLOCK_BYTES / 64 or
    BLOCK_BYTES / 2 bytes, or one pixel less, so they run in blocks of 64 or 2
    rows; one pixel less makes the row length odd, and so the byte count of a
    last block with an odd number of rows.
    """
    channels = draw(st.sampled_from([None, 1, 3]))
    block_rows = draw(st.sampled_from([None, 64, 2]))
    if block_rows is None:
        w, h = draw(st.integers(1, 12)), draw(block_heights)
    else:
        w = BLOCK_BYTES // (block_rows * (channels or 1)) - draw(st.integers(0, 1))
        h = draw(block_heights if block_rows == 64 else st.integers(1, 7))
    shape = (h, w) if channels is None else (h, w, channels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["fresh", "read-only", "non-contiguous"]))
    if layout == "non-contiguous":
        arr = rng.integers(0, 256, (h, 2 * w) + shape[2:], dtype=np.uint8)[:, ::2]
    else:
        arr = rng.integers(0, 256, shape, dtype=np.uint8)
    if layout == "read-only":
        # the layout of a P6 payload read from bytes
        arr = np.frombuffer(arr.tobytes(), np.uint8).reshape(shape)
    entry = st.one_of(
        st.tuples(st.just(ROW), st.integers(0, h - 1), st.integers(0, h - 1)),
        st.tuples(st.just(COLUMN), st.integers(0, w - 1), st.integers(0, w - 1)),
    )
    lut = rng.permutation(256).astype(np.uint8)
    return arr, draw(st.lists(entry, max_size=40)), lut


@settings(deadline=None)
@given(fused_cases())
def test_fused_pass_matches_swaps_then_byte_lookup(case):
    arr, schedule, lut = case
    before = arr.copy()
    rows, cols = pairs_of(schedule, ROW), pairs_of(schedule, COLUMN)
    out = apply_swaps(arr, rows, cols, lut)
    assert np.array_equal(out, lut[loop_apply_swaps(arr, schedule)])
    assert np.array_equal(arr, before)
    assert out.dtype == np.uint8 and out.shape == arr.shape
    assert out.flags.c_contiguous and out.flags.writeable and out.base is None
    inverse = np.argsort(lut).astype(np.uint8)
    assert np.array_equal(apply_swaps(out, rows[::-1], cols[::-1], inverse), arr)


def identity_swaps(size):
    return np.repeat(np.arange(size, dtype=np.int64), 2).reshape(size, 2)


def test_layer1_key_rejects_bad_table():
    rows, cols = identity_swaps(2), identity_swaps(3)
    for lut in (
        np.zeros(256, np.uint8),  # not a permutation
        np.arange(255, dtype=np.uint8),  # too short
        np.concatenate((IDENTITY_LUT, IDENTITY_LUT[:1])),  # too long
        IDENTITY_LUT.reshape(16, 16),  # shape
        np.arange(256, dtype=np.int64),  # dtype
        list(range(256)),  # list, not an array
    ):
        with pytest.raises(NonBijectiveTable):
            Layer1Key(3, 2, rows, cols, lut)


def test_apply_swaps_lookup_identity_and_single_byte():
    pixels = np.array([[[255, 0, 7]]], np.uint8)
    assert np.array_equal(apply_swaps(pixels, [], [], IDENTITY_LUT), pixels)
    table = IDENTITY_LUT.copy()
    table[255], table[10] = 10, 255
    mapped = apply_swaps(pixels, [], [], table)
    assert mapped[0, 0].tolist() == [10, 0, 7]


def test_apply_swaps_inverse_table_round_trip():
    rng = np.random.default_rng(1)
    pixels = random_image(rng, 8, 6).pixels
    table = rng.permutation(256).astype(np.uint8)
    inverse = np.argsort(table).astype(np.uint8)
    mapped = apply_swaps(pixels, [], [], table)
    assert np.array_equal(mapped, table[pixels])
    assert np.array_equal(apply_swaps(mapped, [], [], inverse), pixels)


@pytest.mark.parametrize(
    "lut",
    [
        np.arange(256, dtype=np.int64),  # dtype
        IDENTITY_LUT[:255],  # too short
        IDENTITY_LUT.reshape(16, 16),  # shape
    ],
)
def test_apply_swaps_rejects_bad_lut(lut):
    with pytest.raises(InvalidConfig):
        apply_swaps(np.zeros((2, 2), np.uint8), [], [], lut)


def test_generate_key_forced_1x1():
    key = generate_layer1_key(Xorshift1024(5), 1, 1)
    assert key.row_swaps.tolist() == [[0, 0]]
    assert key.col_swaps.tolist() == [[0, 0]]
    assert key.lut.dtype == np.uint8
    assert sorted(key.lut.tolist()) == list(range(256))


def test_generate_key_lengths_contract():
    for width, height in ((2, 3), (5, 1), (4, 4)):
        key = generate_layer1_key(Xorshift1024(9), width, height)
        assert key.row_swaps.shape == (height, 2) and key.row_swaps.dtype == np.int64
        assert key.col_swaps.shape == (width, 2) and key.col_swaps.dtype == np.int64


def test_generate_key_replays_documented_draw_sequence():
    seed = 1234
    key = generate_layer1_key(Xorshift1024(seed), 2, 2)

    replay = Xorshift1024(seed)
    rows = [[replay.randint(0, 1), replay.randint(0, 1)] for _ in range(2)]
    cols = [[replay.randint(0, 1), replay.randint(0, 1)] for _ in range(2)]
    table = {}
    used = set()
    for value in range(255, -1, -1):
        z = replay.randint(0, 255)
        while z in used:
            z = replay.randint(0, 255)
        used.add(z)
        table[value] = z

    assert key.row_swaps.tolist() == rows
    assert key.col_swaps.tolist() == cols
    assert key.lut.tolist() == [table[v] for v in range(256)]


def test_generate_key_draw_count():
    for width, height in ((1, 1), (3, 2), (16, 16)):
        counter = CountingRng(Xorshift1024(31))
        replay = Xorshift1024(31)
        generate_layer1_key(counter, width, height)
        # replay the table construction to count rejections independently
        for _ in range(2 * (width + height)):
            replay.next_u64()
        rejections = 0
        used = set()
        for _ in range(256):
            z = replay.randint(0, 255)
            while z in used:
                rejections += 1
                z = replay.randint(0, 255)
            used.add(z)
        assert counter.count == 2 * height + 2 * width + 256 + rejections


def test_encrypt_1x1_forced():
    image = RgbImage(np.array([[[200, 0, 255]]], np.uint8))
    cipher, key = encrypt_layer1(image, Xorshift1024(77))
    assert cipher.pixels[0, 0].tolist() == key.lut[[200, 0, 255]].tolist()


def test_round_trip_small_images():
    rng = np.random.default_rng(4)
    for trial in range(25):
        image = random_image(rng, 8, 8)
        cipher, key = encrypt_layer1(image, Xorshift1024(trial))
        assert decrypt_layer1(cipher, key) == image


def test_round_trip_64x64_many_trials():
    rng = np.random.default_rng(8)
    gen = Xorshift1024(99)
    for _ in range(100):
        image = random_image(rng, 64, 64)
        cipher, key = encrypt_layer1(image, gen)
        assert decrypt_layer1(cipher, key) == image


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_layer1_peak_memory_is_about_one_image():
    # Room for the output, a few block-sized buffers and the paired table,
    # but not for a second image-sized array.
    image = random_image(np.random.default_rng(12), 2048, 2048)
    (cipher, key), encrypt_peak = traced_peak(encrypt_layer1, image, Xorshift1024(5))
    plain, decrypt_peak = traced_peak(decrypt_layer1, cipher, key)
    assert plain == image
    assert encrypt_peak <= 1.5 * image.pixels.nbytes
    assert decrypt_peak <= 1.5 * image.pixels.nbytes


def test_layer1_peak_memory_on_a_small_image():
    # np.take copies the indices of each lookup into intp; in chunks of byte
    # pairs that copy stays small beside a 512^2 image
    image = random_image(np.random.default_rng(14), 512, 512)
    _, peak = traced_peak(encrypt_layer1, image, Xorshift1024(6))
    assert peak <= 3.0 * image.pixels.nbytes


def test_dimensions_preserved():
    image = random_image(np.random.default_rng(2), 13, 5)
    cipher, _ = encrypt_layer1(image, Xorshift1024(1))
    assert (cipher.width, cipher.height) == (13, 5)


def test_histogram_bins_are_permuted():
    rng = np.random.default_rng(6)
    for trial in range(10):
        image = random_image(rng, 24, 15)
        cipher, _ = encrypt_layer1(image, Xorshift1024(trial))
        for c in range(3):
            plain_counts = np.bincount(image.pixels[..., c].ravel(), minlength=256)
            cipher_counts = np.bincount(cipher.pixels[..., c].ravel(), minlength=256)
            assert sorted(plain_counts) == sorted(cipher_counts)


def test_decrypt_dimension_mismatch():
    image = random_image(np.random.default_rng(3), 4, 4)
    _, key = encrypt_layer1(image, Xorshift1024(2))
    other = random_image(np.random.default_rng(3), 5, 4)
    with pytest.raises(DimensionMismatch):
        decrypt_layer1(other, key)


def test_identity_key_decrypts_to_same_image():
    image = random_image(np.random.default_rng(10), 3, 2)
    key = Layer1Key(3, 2, identity_swaps(2), identity_swaps(3), IDENTITY_LUT)
    assert decrypt_layer1(image, key) == image


@pytest.mark.parametrize(
    "rows, cols",
    [
        ([[0, 1], [1, 0]], [[0, 1], [2, 2], [1, 0]]),  # lists, not arrays
        (np.array([[0, 1], [1, 0]], np.int32), np.zeros((3, 2), np.int64)),  # dtype
        (np.zeros((2, 3), np.int64), np.zeros((3, 2), np.int64)),  # shape
        (np.zeros(4, np.int64), np.zeros((3, 2), np.int64)),  # flat pairs
        (np.zeros((1, 2), np.int64), np.zeros((3, 2), np.int64)),  # too few rows
        (np.zeros((2, 2), np.int64), np.zeros((4, 2), np.int64)),  # too many columns
        (np.array([[0, 2], [1, 0]], np.int64), np.zeros((3, 2), np.int64)),  # row index = height
        (np.zeros((2, 2), np.int64), np.array([[0, 0], [0, 0], [-1, 0]], np.int64)),  # negative
    ],
)
def test_layer1_key_rejects_bad_schedule(rows, cols):
    with pytest.raises(InvalidConfig):
        Layer1Key(3, 2, rows, cols, IDENTITY_LUT)


def test_serialize_1x1_has_259_lines():
    key = generate_layer1_key(Xorshift1024(3), 1, 1)
    text = serialize_layer1_key(key)
    lines = text.splitlines()
    assert len(lines) == 259
    assert lines[0] == "PIOU1 1 1"
    assert lines[1].startswith("R ") and lines[2].startswith("C ")
    assert lines[3].startswith("L 255 ") and lines[-1].startswith("L 0 ")
    assert text.endswith("\n")


def test_serialize_header_for_512_square():
    key = generate_layer1_key(Xorshift1024(512), 512, 512)
    assert serialize_layer1_key(key).splitlines()[0] == "PIOU1 512 512"


def test_serialization_round_trip():
    for seed, (width, height) in enumerate([(1, 1), (2, 3), (7, 5), (32, 32)]):
        key = generate_layer1_key(Xorshift1024(seed), width, height)
        text = serialize_layer1_key(key)
        parsed = parse_layer1_key(text)
        assert serialize_layer1_key(parsed) == text
        assert np.array_equal(parsed.row_swaps, key.row_swaps)
        assert np.array_equal(parsed.col_swaps, key.col_swaps)
        assert parsed.lut.dtype == np.uint8
        assert np.array_equal(parsed.lut, key.lut)



def line_serialize_layer1_key(key):
    """The PIOU1 text written one f-string per line: an oracle for the writer."""
    lines = [f"PIOU1 {key.width} {key.height}"]
    lines += [f"{ROW} {i} {j}" for i, j in key.row_swaps.tolist()]
    lines += [f"{COLUMN} {i} {j}" for i, j in key.col_swaps.tolist()]
    lines += [f"{LOOKUP} {value} {key.lut[value]}" for value in range(255, -1, -1)]
    return "".join(line + "\n" for line in lines)


@settings(deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**64 - 1))
def test_serialize_matches_line_oracle(width, height, seed):
    key = generate_layer1_key(Xorshift1024(seed), width, height)
    assert serialize_layer1_key(key) == line_serialize_layer1_key(key)

def test_parse_errors_carry_line_numbers():
    key = generate_layer1_key(Xorshift1024(8), 2, 2)
    text = serialize_layer1_key(key)
    lines = text.splitlines()

    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key("NOPE 2 2\n" + "\n".join(lines[1:]) + "\n")
    assert excinfo.value.line == 1

    bad_swap = lines[:]
    bad_swap[1] = "R 9 0"
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key("\n".join(bad_swap) + "\n")
    assert excinfo.value.line == 2

    bad_order = lines[:]
    bad_order[5], bad_order[6] = bad_order[6], bad_order[5]
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key("\n".join(bad_order) + "\n")
    assert excinfo.value.line == 6

    truncated = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(ParseError):
        parse_layer1_key(truncated)

    with pytest.raises(ParseError):
        parse_layer1_key(text[:-1])  # missing trailing newline


def test_parse_rejects_duplicate_substitute():
    key = generate_layer1_key(Xorshift1024(8), 1, 1)
    lines = serialize_layer1_key(key).splitlines()
    first_sub = lines[3].split(" ")[2]
    lines[4] = f"L 254 {first_sub}"
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key("\n".join(lines) + "\n")
    assert excinfo.value.line == 5




def loop_parse_layer1_key(text):
    """Reference: the key text parsed one line at a time, as plain lists.

    Returns (width, height, row pairs, column pairs, table), where table[v] is
    the substitute of plain value v.
    """
    lines = _text.split_lines(text, "key file")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != "PIOU1":
        raise ParseError("header must be 'PIOU1 <width> <height>'", 1)
    width, height = _text.canon_ints(header[1:], "dimensions", 1)
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
            tokens = lines[start + offset].split(" ")
            if len(tokens) != 3 or tokens[0] != tag:
                raise ParseError(f"expected '{tag} <i> <j>'", line_no)
            i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
            if not (0 <= i < count and 0 <= j < count):
                raise ParseError(f"swap index out of range [0, {count})", line_no)
            pairs.append([i, j])
        swaps[tag] = pairs
        start += count
    table = [0] * 256
    seen = set()
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
    return width, height, swaps[ROW], swaps[COLUMN], table


def parse_outcome(parse, text):
    """The parsed key as plain lists, or the error's (class, message, line)."""
    try:
        key = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    if isinstance(key, Layer1Key):
        assert key.lut.dtype == np.uint8
        return key.width, key.height, key.row_swaps.tolist(), key.col_swaps.tolist(), key.lut.tolist()
    return key


bad_tokens = st.one_of(
    st.integers(-2, 300).map(str),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30]).map(str),
    st.sampled_from(["+1", "01", "-0", "", "1_0", "\u0663", "x", "1\r"]),
    st.sampled_from([ROW, COLUMN, LOOKUP, "PIOU1"]),
)


@st.composite
def mutated_key_texts(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    key = generate_layer1_key(Xorshift1024(draw(st.integers(0, 2**32 - 1))), width, height)
    lines = serialize_layer1_key(key).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "token", "copy", "insert", "swap", "arity"]))
        if kind == "token":
            tokens = lines[k].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(bad_tokens)
            lines[k] = " ".join(tokens)
        elif kind == "arity":
            lines[k] = " ".join(draw(st.lists(bad_tokens, max_size=4)))
        else:
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "copy":
                lines[k] = lines[j]
            elif kind == "insert":
                lines.insert(k, lines[j])
            else:
                lines[k], lines[j] = lines[j], lines[k]
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(mutated_key_texts())
def test_parse_matches_line_loop(text):
    expected = parse_outcome(loop_parse_layer1_key, text)
    assert parse_outcome(parse_layer1_key, text) == expected
