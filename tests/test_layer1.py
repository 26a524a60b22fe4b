"""Unit tests for the pixel-scrambling layer and its key format."""

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
    COLUMN,
    ROW,
    Layer1Key,
    RgbImage,
    SubstitutionTable,
    _read_swaps,
    apply_lut,
    apply_swaps,
    decrypt_layer1,
    encrypt_layer1,
    generate_layer1_key,
    parse_layer1_key,
    serialize_layer1_key,
)
from pioucrypt.prng import Xorshift1024


def random_image(rng, width, height):
    planes = rng.integers(0, 256, (3, height, width), dtype=np.uint8)
    return RgbImage(planes[0], planes[1], planes[2])


class CountingRng:
    """Wraps the generator to count randint draws."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    def randint(self, lo, hi):
        self.count += 1
        return self.inner.randint(lo, hi)


def test_rgb_image_validation():
    with pytest.raises(ValueError):
        RgbImage(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8), np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError):
        RgbImage(np.full((2, 2), 300), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        RgbImage(np.zeros((0, 2), np.uint8), np.zeros((0, 2), np.uint8), np.zeros((0, 2), np.uint8))
    image = RgbImage(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))
    assert image.width == 3 and image.height == 2


def test_from_gray_replicates_planes():
    gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
    image = RgbImage.from_gray(gray)
    assert np.array_equal(image.red, gray)
    assert np.array_equal(image.green, gray)
    assert np.array_equal(image.blue, gray)


def test_apply_swaps_row_example():
    plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    swapped = apply_swaps(plane, [(0, 1)], [])
    assert swapped.tolist() == [[3, 4], [1, 2]]


def test_apply_swaps_column():
    plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    swapped = apply_swaps(plane, [], [(0, 1)])
    assert swapped.tolist() == [[2, 1], [4, 3]]


def test_apply_swaps_self_swap_is_noop():
    plane = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(apply_swaps(plane, [(2, 2)], []), plane)


def test_apply_swaps_reversed_restores():
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    rows = rng.integers(0, 9, (20, 2))
    cols = rng.integers(0, 7, (20, 2))
    forward = apply_swaps(plane, rows, cols)
    restored = apply_swaps(forward, rows[::-1], cols[::-1])
    assert np.array_equal(restored, plane)


def test_apply_swaps_out_of_range():
    plane = np.zeros((2, 2), np.uint8)
    with pytest.raises(IndexOutOfRange, match=r"^row swap \(0, 2\) outside height 2$"):
        apply_swaps(plane, [(1, 0), (0, 2), (3, 0)], [])
    with pytest.raises(IndexOutOfRange, match=r"^column swap \(5, 0\) outside width 2$"):
        apply_swaps(plane, [(1, 1)], [(5, 0), (-1, 0)])
    with pytest.raises(IndexOutOfRange, match=r"^row swap \(1, -1\) outside height 2$"):
        apply_swaps(plane, [(1, -1)], [])


def loop_apply_swaps(plane, schedule):
    """Reference: each (axis, i, j) entry as its own exchange, in list order."""
    arr = np.array(plane, dtype=np.uint8, copy=True)
    if arr.ndim == 3:
        return np.stack([loop_apply_swaps(arr[:, :, c], schedule) for c in range(3)], axis=-1)
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
    folded = apply_swaps(arr, rows, cols)
    assert np.array_equal(folded, loop_apply_swaps(arr, schedule))
    assert np.array_equal(folded, apply_swaps(arr, np.array(rows, np.int64), np.array(cols, np.int64)))
    assert np.array_equal(apply_swaps(folded, rows[::-1], cols[::-1]), arr)
    assert np.array_equal(loop_apply_swaps(folded, schedule[::-1]), arr)


def test_substitution_table_rejects_non_bijective():
    with pytest.raises(NonBijectiveTable):
        SubstitutionTable([0] * 256)
    with pytest.raises(NonBijectiveTable):
        SubstitutionTable(range(255))
    with pytest.raises(NonBijectiveTable):
        SubstitutionTable(list(range(255)) + [256])


def test_apply_lut_identity_and_single_lookup():
    image = RgbImage(np.array([[255]]), np.array([[0]]), np.array([[7]]))
    assert apply_lut(image, SubstitutionTable(range(256))) == image
    table = list(range(256))
    table[255], table[10] = 10, 255
    mapped = apply_lut(image, SubstitutionTable(table))
    assert mapped.red[0, 0] == 10


def test_apply_lut_inverse_round_trip():
    rng = np.random.default_rng(1)
    image = random_image(rng, 8, 6)
    table = SubstitutionTable(rng.permutation(256))
    assert apply_lut(apply_lut(image, table), table.inverse()) == image


def test_generate_key_forced_1x1():
    key = generate_layer1_key(Xorshift1024(5), 1, 1)
    assert key.row_swaps.tolist() == [[0, 0]]
    assert key.col_swaps.tolist() == [[0, 0]]
    assert sorted(int(v) for v in key.lut.values) == list(range(256))


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
    assert [key.lut[v] for v in range(256)] == [table[v] for v in range(256)]


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
    image = RgbImage(np.array([[200]]), np.array([[0]]), np.array([[255]]))
    cipher, key = encrypt_layer1(image, Xorshift1024(77))
    assert cipher.red[0, 0] == key.lut[200]
    assert cipher.green[0, 0] == key.lut[0]
    assert cipher.blue[0, 0] == key.lut[255]


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


def test_dimensions_preserved():
    image = random_image(np.random.default_rng(2), 13, 5)
    cipher, _ = encrypt_layer1(image, Xorshift1024(1))
    assert (cipher.width, cipher.height) == (13, 5)


def test_histogram_bins_are_permuted():
    rng = np.random.default_rng(6)
    for trial in range(10):
        image = random_image(rng, 24, 15)
        cipher, _ = encrypt_layer1(image, Xorshift1024(trial))
        for plain_plane, cipher_plane in zip(image.planes(), cipher.planes()):
            plain_counts = np.bincount(plain_plane.ravel(), minlength=256)
            cipher_counts = np.bincount(cipher_plane.ravel(), minlength=256)
            assert sorted(plain_counts) == sorted(cipher_counts)


def test_decrypt_dimension_mismatch():
    image = random_image(np.random.default_rng(3), 4, 4)
    _, key = encrypt_layer1(image, Xorshift1024(2))
    other = random_image(np.random.default_rng(3), 5, 4)
    with pytest.raises(DimensionMismatch):
        decrypt_layer1(other, key)


def test_identity_key_decrypts_to_same_image():
    image = random_image(np.random.default_rng(10), 3, 2)
    key = Layer1Key(
        3,
        2,
        np.array([[0, 0], [1, 1]], np.int64),
        np.array([[k, k] for k in range(3)], np.int64),
        SubstitutionTable(range(256)),
    )
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
        Layer1Key(3, 2, rows, cols, SubstitutionTable(range(256)))


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
        assert parsed.lut == key.lut


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


def loop_read_swaps(lines, start, count, tag, bound):
    """Reference: the swap block parsed one line at a time, as [i, j] lists."""
    pairs = []
    for offset in range(count):
        line_no = start + offset + 1
        tokens = lines[start + offset].split(" ")
        if len(tokens) != 3 or tokens[0] != tag:
            raise ParseError(f"expected '{tag} <i> <j>'", line_no)
        i, j = _text.canon_ints(tokens[1:], "swap index", line_no)
        if not (0 <= i < bound and 0 <= j < bound):
            raise ParseError(f"swap index out of range [0, {bound})", line_no)
        pairs.append([i, j])
    return pairs


def outcome(fn, *args):
    """The result of a call, or its exception class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared as (class, message)
        return type(exc), str(exc)


index_tokens = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30]).map(str),
    st.sampled_from(["+1", "01", "-0", "", "1_0", "\u0663", "x"]),
)


@st.composite
def swap_blocks(draw):
    tag = draw(st.sampled_from([ROW, COLUMN]))
    bound = draw(st.integers(1, 10))
    count = draw(st.integers(1, 8))
    good = st.tuples(st.integers(0, bound - 1), st.integers(0, bound - 1)).map(
        lambda ij: f"{tag} {ij[0]} {ij[1]}"
    )
    bad = st.one_of(
        st.tuples(
            st.sampled_from([tag, ROW, COLUMN, "L", ""]), index_tokens, index_tokens
        ).map(" ".join),
        st.lists(index_tokens, max_size=4).map(lambda t: " ".join([tag] + t)),
    )
    lines = draw(st.lists(st.one_of(good, good, bad), min_size=count, max_size=count))
    return ["PIOU1 header"] + lines + ["L 255 0"], count, tag, bound


@settings(max_examples=300, deadline=None)
@given(swap_blocks())
def test_read_swaps_matches_line_loop(case):
    lines, count, tag, bound = case
    fast = outcome(_read_swaps, lines, 1, count, tag, bound)
    if isinstance(fast, np.ndarray):
        assert fast.dtype == np.int64
        fast = fast.tolist()
    assert fast == outcome(loop_read_swaps, lines, 1, count, tag, bound)
