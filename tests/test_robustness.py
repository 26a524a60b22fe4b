"""Properties over random inputs: parsers fail only with PiouCryptError, and
the pipeline round-trips every image shape, thin strips included."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pioucrypt.errors import PiouCryptError
from pioucrypt.lattice import parse_key_matrix, serialize_key_matrix
from pioucrypt.layer1 import RgbImage, generate_layer1_key, parse_layer1_key, serialize_layer1_key
from pioucrypt.oea import oea_encrypt, parse_oea, serialize_oea
from pioucrypt.pipeline import PipelineConfig, decrypt_pipeline, encrypt_pipeline, write_image
from pioucrypt.prng import Xorshift1024


def valid_oea_text(rng):
    key = rng.integers(0, 256, int(rng.integers(1, 20)), dtype=np.uint8).tobytes()
    plaintext = rng.integers(0, 256, int(rng.integers(0, 60)), dtype=np.uint8).tobytes()
    return serialize_oea(oea_encrypt(plaintext, key))


def valid_layer1_text(rng):
    width, height = (int(v) for v in rng.integers(1, 5, 2))
    rng_key = Xorshift1024(int(rng.integers(1, 2**32)))
    return serialize_layer1_key(generate_layer1_key(rng_key, width, height))


def valid_key_matrix_text(rng):
    rows, cols = (int(v) for v in rng.integers(1, 6, 2))
    return serialize_key_matrix(rng.random((rows, cols)) * 50)


PARSERS = [
    (parse_oea, valid_oea_text),
    (parse_layer1_key, valid_layer1_text),
    (parse_key_matrix, valid_key_matrix_text),
]

# Characters the three grammars use, characters they reject (tab, CR, '+',
# '_', an Arabic-Indic digit that int() accepts) and digit runs that leave
# 64-bit range.
PIECES = list("0123456789 -\nRCLPIOUW2.e") + ["\t", "\r", "+", "_", "\u0663", "9" * 19, "-" + "9" * 25, "9" * 4301]

edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "drop_line", "double_line"]),
        st.floats(0, 1, exclude_max=True),
        st.sampled_from(PIECES),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text, edit_list):
    for kind, where, piece in edit_list:
        if kind in ("drop_line", "double_line"):
            lines = text.split("\n")
            at = int(where * len(lines))
            lines[at:at + 1] = [] if kind == "drop_line" else [lines[at]] * 2
            text = "\n".join(lines)
            continue
        at = int(where * (len(text) + 1))
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        elif kind == "replace":
            text = text[:at] + piece + text[at + 1:]
        else:
            text = text[:at] + text[at + len(piece):]
    return text


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(PARSERS), st.integers(0, 2**32 - 1), edits)
def test_parsers_raise_only_piou_errors_on_mutated_text(parser_case, seed, edit_list):
    parser, make_text = parser_case
    text = mutate(make_text(np.random.default_rng(seed)), edit_list)
    try:
        parser(text)
    except PiouCryptError:
        pass


shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 400)),
    st.tuples(st.integers(1, 400), st.just(1)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


@settings(max_examples=30, deadline=None)
@given(shapes, st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_pipeline_round_trip_any_shape(shape, seed, pixel_seed):
    width, height = shape
    pixels = np.random.default_rng(pixel_seed).integers(0, 256, (height, width, 3), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "img.ppm"
        write_image(RgbImage.from_pixels(pixels), src)
        bundle = encrypt_pipeline(src, PipelineConfig(seed=seed))
        plain = decrypt_pipeline(*bundle.paths, out_path=Path(tmp) / "dec.ppm")
        assert np.array_equal(plain.pixels, pixels)
        assert (Path(tmp) / "dec.ppm").read_bytes() == src.read_bytes()
