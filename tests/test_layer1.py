"""Unit tests for the pixel-scrambling layer and its key format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    line_serialize_layer1_key,
    loop_apply_swaps,
    loop_parse_layer1_key,
    random_image,
    reference_expand,
    reference_layer1_key,
    reference_step,
    swap_schedule,
    traced_peak,
)
from pioucrypt.errors import DimensionMismatch, InvalidConfig, ParseError
from pioucrypt.layer1 import (
    BLOCK_BYTES,
    COLUMN,
    ROW,
    Layer1Key,
    LOOKUP,
    RgbImage,
    apply_swaps,
    generate_layer1_key,
    parse_layer1_key,
    serialize_layer1_key,
)
from pioucrypt.pipeline import read_image
from pioucrypt.prng import Xorshift1024


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
    # the refused arrays are rows of the InvalidConfig table in test_pipeline.py
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


def identity_swaps(size):
    return np.repeat(np.arange(size, dtype=np.int64), 2).reshape(size, 2)


def key_of(rows, cols, lut=IDENTITY_LUT):
    """A key from lists of row and column pairs."""
    return Layer1Key(np.array(rows, np.int64).reshape(-1, 2), np.array(cols, np.int64).reshape(-1, 2), lut)


def random_key(rng, width, height):
    """A key with uniformly random pairs and table, drawn from a numpy generator."""
    rows = rng.integers(0, height, (height, 2))
    cols = rng.integers(0, width, (width, 2))
    return Layer1Key(rows, cols, rng.permutation(256).astype(np.uint8))


def restores(image, key):
    """Whether the pass under key, then under key.inverse(), gives back the image's pixels."""
    plain = image.pixels.copy()
    apply_swaps(apply_swaps(image, key), key.inverse())
    return np.array_equal(image.pixels, plain)


def test_apply_swaps_row_example():
    pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    swapped = apply_swaps(RgbImage(pixels.copy()), key_of([(0, 1), (1, 1)], [(0, 0), (1, 1)]))
    assert np.array_equal(swapped.pixels, pixels[[1, 0]])


def test_apply_swaps_column():
    pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    swapped = apply_swaps(RgbImage(pixels.copy()), key_of([(0, 0), (1, 1)], [(0, 1), (0, 0)]))
    assert np.array_equal(swapped.pixels, pixels[:, [1, 0]])


def test_apply_swaps_self_swap_is_noop():
    pixels = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    swapped = apply_swaps(RgbImage(pixels.copy()), key_of([(2, 2)] * 3, [(1, 1)] * 4))
    assert np.array_equal(swapped.pixels, pixels)


def test_apply_swaps_reversed_restores():
    rng = np.random.default_rng(0)
    for width, height in ((1, 1), (1, 5), (7, 1), (7, 9), (130, 3)):
        for _ in range(5):
            assert restores(random_image(rng, width, height), random_key(rng, width, height))


def test_layer1_key_inverse_inverts_twice_to_the_key():
    rng = np.random.default_rng(7)
    for width, height in ((1, 1), (3, 2), (16, 9)):
        key = random_key(rng, width, height)
        inverse = key.inverse()
        assert inverse.lut[key.lut].tolist() == list(range(256))
        again = inverse.inverse()
        assert np.array_equal(again.row_swaps, key.row_swaps)
        assert np.array_equal(again.col_swaps, key.col_swaps)
        assert np.array_equal(again.lut, key.lut)


@st.composite
def full_pairs(draw, size):
    """One pair per index of an axis: identity pairs, some replaced by random exchanges.

    Most pairs stay (k, k), so the loop oracle stays cheap on wide rows.
    """
    pairs = [(k, k) for k in range(size)]
    index = st.integers(0, size - 1)
    for _ in range(draw(st.integers(0, min(size, 20)))):
        pairs[draw(index)] = (draw(index), draw(index))
    return pairs


@st.composite
def keyed_schedules(draw, height, width, lut):
    """A key of full-length schedules and the same exchanges interleaved across axes.

    The oracle runs rows and columns interleaved; apply_swaps gets them split
    by axis, which gives the same result because the two kinds commute.
    """
    rows, cols = draw(full_pairs(height)), draw(full_pairs(width))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation([ROW] * height + [COLUMN] * width)
    by_axis = {ROW: iter(rows), COLUMN: iter(cols)}
    schedule = [(bytes(tag), *next(by_axis[tag])) for tag in order]
    return key_of(rows, cols, lut), schedule


@st.composite
def images_and_schedules(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    image = random_image(np.random.default_rng(seed), w, h)
    return (image,) + draw(keyed_schedules(h, w, IDENTITY_LUT))


@settings(deadline=None)
@given(images_and_schedules())
def test_apply_swaps_matches_loop_oracle(case):
    image, key, schedule = case
    plain = image.pixels.copy()
    cipher = apply_swaps(image, key).pixels.copy()
    assert np.array_equal(cipher, loop_apply_swaps(plain, schedule))
    assert np.array_equal(apply_swaps(image, key.inverse()).pixels, plain)
    assert np.array_equal(loop_apply_swaps(cipher, schedule[::-1]), plain)


# Heights on both sides of the edges of 64-row blocks.
block_heights = st.one_of(
    st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 130, 193]), st.integers(1, 200)
)


@st.composite
def fused_cases(draw):
    """An image, a key, its exchanges as one schedule, and whether the pass refuses the pixels.

    Narrow images are one block. Wide ones have rows of BLOCK_BYTES / 64 or
    BLOCK_BYTES / 2 bytes, or one pixel less, so they run in blocks of 64 or 2
    rows; one pixel less makes the row length odd, and so the byte count of a
    last block with an odd number of rows. A read-only or non-contiguous
    array is refused.
    """
    block_rows = draw(st.sampled_from([None, 64, 2]))
    if block_rows is None:
        w, h = draw(st.integers(1, 12)), draw(block_heights)
    else:
        w = BLOCK_BYTES // (block_rows * 3) - draw(st.integers(0, 1))
        h = draw(block_heights if block_rows == 64 else st.integers(1, 7))
    shape = (h, w, 3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["fresh", "read-only", "non-contiguous"]))
    if layout == "non-contiguous":
        # every other byte: a one-pixel row of whole pixels would be contiguous
        arr = rng.integers(0, 256, (h, w, 6), dtype=np.uint8)[..., ::2]
    else:
        arr = rng.integers(0, 256, shape, dtype=np.uint8)
    if layout == "read-only":
        # the layout of a P6 payload read from bytes
        arr = np.frombuffer(arr.tobytes(), np.uint8).reshape(shape)
    lut = rng.permutation(256).astype(np.uint8)
    return (RgbImage(arr), *draw(keyed_schedules(h, w, lut)), layout != "fresh")


# Rows of 3 * 43,689 bytes run in blocks of 3 rows with an odd byte count, so
# a cycle of rows can run past a block's end, or through several blocks.
WIDE = BLOCK_BYTES // 9 - 1


def two_cycles(size):
    """Row pairs that exchange rows 2k and 2k + 1, then pairs that exchange nothing."""
    return [(2 * k, 2 * k + 1) for k in range(size // 2)] + [(0, 0)] * (size - size // 2)


def one_cycle(size):
    """Row pairs whose exchanges, in order, move every row along one size-long cycle."""
    return [(0, k) for k in range(size)]


def cycle_case(height, width, rows):
    """A case as fused_cases gives it, with the row pairs rows(height) and a few column exchanges."""
    rng = np.random.default_rng(height * width)
    pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    rows = rows(height)
    # a few column exchanges keep the oracle's column loop short on wide rows
    cols = identity_swaps(width)
    for k in rng.integers(0, width, 5):
        cols[k] = rng.integers(0, width, 2)
    key = key_of(rows, cols, rng.permutation(256).astype(np.uint8))
    return RgbImage(pixels), key, swap_schedule(rows, cols), False


def one_case(height, width, rows):
    """cycle_case(height, width, rows) as a strategy of that one case."""
    return st.builds(cycle_case, st.just(height), st.just(width), st.just(rows))


@pytest.mark.parametrize(
    "cases",
    [
        one_case(7, WIDE, identity_swaps),
        one_case(8, WIDE, two_cycles),
        one_case(7, WIDE, one_cycle),
        one_case(1, 50, one_cycle),
        one_case(50, 1, one_cycle),
        one_case(51, 1, two_cycles),
        one_case(5, 3, two_cycles),
        fused_cases(),
    ],
    ids=["identity", "two-cycles", "one-cycle", "1xN", "Nx1", "Nx1-two-cycles", "odd-bytes", "random"],
)
@settings(deadline=None)
@given(data=st.data())
def test_in_place_pass_matches_the_loop_oracle(cases, data):
    # a strategy of one case runs once
    image, key, schedule, refused = data.draw(cases)
    plain = image.pixels.copy()
    if refused:
        with pytest.raises(InvalidConfig, match="writable C-contiguous"):
            apply_swaps(image, key)
        assert np.array_equal(image.pixels, plain)
        return
    assert apply_swaps(image, key) is image
    assert np.array_equal(image.pixels, key.lut[loop_apply_swaps(plain, schedule)])
    assert apply_swaps(image, key.inverse()) is image
    assert np.array_equal(image.pixels, plain)


@pytest.mark.parametrize("layout", ["read-only", "non-contiguous"])
def test_in_place_pass_refuses_pixels_it_cannot_write(layout):
    rng = np.random.default_rng(5)
    arr = rng.integers(0, 256, (4, 10, 3), dtype=np.uint8)[:, ::2]
    before = arr.copy()
    if layout == "read-only":
        arr = np.frombuffer(before.tobytes(), np.uint8).reshape(before.shape)
    image = RgbImage(arr)
    with pytest.raises(InvalidConfig, match="writable C-contiguous"):
        apply_swaps(image, random_key(rng, 5, 4))
    assert np.array_equal(image.pixels, before)


def test_layer1_key_rejects_bad_table():
    rows, cols = identity_swaps(2), identity_swaps(3)
    with pytest.raises(InvalidConfig):
        Layer1Key(rows, cols, np.zeros(256, np.uint8))
    # not a (256,) uint8 array
    for lut in (
        np.arange(255, dtype=np.uint8),  # too short
        np.concatenate((IDENTITY_LUT, IDENTITY_LUT[:1])),  # too long
        IDENTITY_LUT.reshape(16, 16),  # shape
        np.arange(256, dtype=np.int64),  # dtype
        list(range(256)),  # list, not an array
    ):
        with pytest.raises(InvalidConfig):
            Layer1Key(rows, cols, lut)


def test_apply_swaps_lookup_identity_and_single_byte():
    image = RgbImage(np.array([[[255, 0, 7]]], np.uint8))
    assert apply_swaps(image, key_of([(0, 0)], [(0, 0)])).pixels[0, 0].tolist() == [255, 0, 7]
    table = IDENTITY_LUT.copy()
    table[255], table[10] = 10, 255
    mapped = apply_swaps(image, key_of([(0, 0)], [(0, 0)], table))
    assert mapped.pixels[0, 0].tolist() == [10, 0, 7]


def test_apply_swaps_inverse_table_round_trip():
    rng = np.random.default_rng(1)
    image = random_image(rng, 8, 6)
    plain = image.pixels.copy()
    key = Layer1Key(identity_swaps(6), identity_swaps(8), rng.permutation(256).astype(np.uint8))
    assert np.array_equal(apply_swaps(image, key).pixels, key.lut[plain])
    assert np.array_equal(apply_swaps(image, key.inverse()).pixels, plain)


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
    rows, cols, table = reference_layer1_key(iter(Xorshift1024(seed).next_u64, None), 2, 2)
    assert key.row_swaps.tolist() == rows
    assert key.col_swaps.tolist() == cols
    assert key.lut.tolist() == table


@pytest.mark.parametrize("width, height", [(1, 1), (7, 3), (16384, 32), (32, 16384), (2048, 2048)])
def test_generate_key_and_generator_end_state_match_one_draw_at_a_time(width, height):
    # the table is drawn in blocks of as many words as values still
    # unassigned; the key and the generator's end state must be those of the
    # oracle's one draw at a time
    seed = 7919 * width + height
    state = [reference_expand(seed), 0]

    def draws():
        while True:
            out, *state[:] = reference_step(*state)
            yield out

    rows, cols, table = reference_layer1_key(draws(), width, height)
    gen = Xorshift1024(seed)
    key = generate_layer1_key(gen, width, height)
    assert key.row_swaps.tolist() == rows
    assert key.col_swaps.tolist() == cols
    assert key.lut.tolist() == table
    assert [gen.s, gen.p] == state


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
    key = generate_layer1_key(Xorshift1024(77), 1, 1)
    assert apply_swaps(image, key).pixels[0, 0].tolist() == key.lut[[200, 0, 255]].tolist()


def test_round_trip_small_images():
    rng = np.random.default_rng(4)
    for trial in range(25):
        assert restores(random_image(rng, 8, 8), generate_layer1_key(Xorshift1024(trial), 8, 8))


def test_round_trip_64x64_many_trials():
    rng = np.random.default_rng(8)
    gen = Xorshift1024(99)
    for _ in range(100):
        assert restores(random_image(rng, 64, 64), generate_layer1_key(gen, 64, 64))


def test_layer1_peak_memory_is_about_one_image():
    # The pass holds two block buffers, at most one kept row and the table
    # of byte pairs, about a tenth of a 2048x2048 image: no room for a copy.
    image = random_image(np.random.default_rng(12), 2048, 2048)
    plain = image.pixels.copy()
    key = generate_layer1_key(Xorshift1024(5), 2048, 2048)
    _, encrypt_peak = traced_peak(apply_swaps, image, key)
    _, decrypt_peak = traced_peak(apply_swaps, image, key.inverse())
    assert np.array_equal(image.pixels, plain)
    assert encrypt_peak <= 0.2 * image.pixels.nbytes
    assert decrypt_peak <= 0.2 * image.pixels.nbytes


def test_layer1_peak_memory_on_a_small_image():
    # np.take copies the indices of each lookup into intp; in chunks of byte
    # pairs that copy stays small beside a 512^2 image, whose two block
    # buffers alone are its size
    image = random_image(np.random.default_rng(14), 512, 512)
    _, peak = traced_peak(apply_swaps, image, generate_layer1_key(Xorshift1024(6), 512, 512))
    assert peak <= 2.0 * image.pixels.nbytes


def test_dimensions_preserved():
    image = random_image(np.random.default_rng(2), 13, 5)
    cipher = apply_swaps(image, generate_layer1_key(Xorshift1024(1), 13, 5))
    assert cipher is image and image.pixels.shape == (5, 13, 3)


def test_decrypt_dimension_mismatch():
    # a key of another size is refused in both directions
    key = generate_layer1_key(Xorshift1024(2), 4, 4)
    for width, height in ((5, 4), (4, 5), (4, 3)):
        other = random_image(np.random.default_rng(3), width, height)
        with pytest.raises(DimensionMismatch, match=f"^key is 4x4, image is {width}x{height}$"):
            apply_swaps(other, key)
        with pytest.raises(DimensionMismatch):
            apply_swaps(other, key.inverse())


def test_identity_key_decrypts_to_same_image():
    image = random_image(np.random.default_rng(10), 3, 2)
    plain = image.pixels.copy()
    key = Layer1Key(identity_swaps(2), identity_swaps(3), IDENTITY_LUT)
    assert np.array_equal(apply_swaps(image, key.inverse()).pixels, plain)


@pytest.mark.parametrize(
    "rows, cols",
    [
        ([[0, 1], [1, 0]], [[0, 1], [2, 2], [1, 0]]),  # lists, not arrays
        (np.array([[0, 1], [1, 0]], np.int32), np.zeros((3, 2), np.int64)),  # dtype
        (np.zeros((2, 3), np.int64), np.zeros((3, 2), np.int64)),  # shape
        (np.zeros(4, np.int64), np.zeros((3, 2), np.int64)),  # flat pairs
        (np.zeros((0, 2), np.int64), np.zeros((3, 2), np.int64)),  # no row pairs
        (np.zeros((2, 2), np.int64), np.zeros((0, 2), np.int64)),  # no column pairs
        (np.array([[0, 2], [1, 0]], np.int64), np.zeros((3, 2), np.int64)),  # row index = height
        (np.zeros((2, 2), np.int64), np.array([[0, 0], [0, 0], [-1, 0]], np.int64)),  # negative
    ],
)
def test_layer1_key_rejects_bad_schedule(rows, cols):
    with pytest.raises(InvalidConfig):
        Layer1Key(rows, cols, IDENTITY_LUT)


def test_serialize_1x1_has_259_lines():
    key = generate_layer1_key(Xorshift1024(3), 1, 1)
    text = serialize_layer1_key(key)
    lines = text.splitlines()
    assert len(lines) == 259
    assert lines[0] == b"PIOU1 1 1"
    assert lines[1].startswith(b"R ") and lines[2].startswith(b"C ")
    assert lines[3].startswith(b"L 255 ") and lines[-1].startswith(b"L 0 ")
    assert text.endswith(b"\n")


def test_serialize_header_for_512_square():
    key = generate_layer1_key(Xorshift1024(512), 512, 512)
    assert serialize_layer1_key(key).splitlines()[0] == b"PIOU1 512 512"


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
        parse_layer1_key(b"NOPE 2 2\n" + b"\n".join(lines[1:]) + b"\n")
    assert excinfo.value.line == 1

    bad_swap = lines[:]
    bad_swap[1] = b"R 9 0"
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key(b"\n".join(bad_swap) + b"\n")
    assert excinfo.value.line == 2

    bad_order = lines[:]
    bad_order[5], bad_order[6] = bad_order[6], bad_order[5]
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key(b"\n".join(bad_order) + b"\n")
    assert excinfo.value.line == 6

    truncated = b"\n".join(lines[:-1]) + b"\n"
    with pytest.raises(ParseError):
        parse_layer1_key(truncated)

    with pytest.raises(ParseError):
        parse_layer1_key(text[:-1])  # missing trailing newline


@pytest.mark.parametrize("header", ["PIOU1 0 5", "PIOU1 5 0"])
def test_parse_refuses_zero_dimensions(header):
    text = serialize_layer1_key(generate_layer1_key(Xorshift1024(8), 5, 5))
    with pytest.raises(ParseError, match="^line 1: dimensions must be >= 1$"):
        parse_layer1_key(header.encode("ascii") + text[text.index(b"\n") :])


def test_parse_rejects_duplicate_substitute():
    key = generate_layer1_key(Xorshift1024(8), 1, 1)
    lines = serialize_layer1_key(key).splitlines()
    first_sub = lines[3].split(b" ")[2]
    lines[4] = b"L 254 " + first_sub
    with pytest.raises(ParseError) as excinfo:
        parse_layer1_key(b"\n".join(lines) + b"\n")
    assert excinfo.value.line == 5


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


# Tokens as the UTF-8 bytes a file would hold: "\u0663", an Arabic-Indic
# digit, is two non-ASCII bytes.
bad_tokens = st.one_of(
    st.integers(-2, 300).map(str).map(str.encode),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30]).map(str).map(str.encode),
    st.sampled_from(["+1", "01", "-0", "", "1_0", "\u0663", "x", "1\r"]).map(str.encode),
    st.sampled_from([ROW, COLUMN, LOOKUP, b"PIOU1"]),
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
            tokens = lines[k].split(b" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(bad_tokens)
            lines[k] = b" ".join(tokens)
        elif kind == "arity":
            lines[k] = b" ".join(draw(st.lists(bad_tokens, max_size=4)))
        else:
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "copy":
                lines[k] = lines[j]
            elif kind == "insert":
                lines.insert(k, lines[j])
            else:
                lines[k], lines[j] = lines[j], lines[k]
    return b"\n".join(lines) + b"\n"


@settings(max_examples=500, deadline=None)
@given(mutated_key_texts())
def test_parse_matches_line_loop(text):
    expected = parse_outcome(loop_parse_layer1_key, text)
    assert parse_outcome(parse_layer1_key, text) == expected
