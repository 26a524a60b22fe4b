"""Properties over random inputs: parsers fail only with PiouCryptError, the
command line never ends in a traceback, the pipeline round-trips every
image shape, thin strips included, and the PPM header reader agrees with a
byte-at-a-time oracle."""

import contextlib
import functools
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import PPM_WHITESPACE, loop_read_pixels
from pioucrypt import cli
from pioucrypt.errors import PiouCryptError
from pioucrypt.layer1 import RgbImage, generate_layer1_key, parse_layer1_key, serialize_layer1_key
from pioucrypt.oea import oea_encrypt, parse_oea, serialize_oea
from pioucrypt.pipeline import PipelineConfig, decrypt_pipeline, encrypt_pipeline, read_image, write_image
from pioucrypt.prng import Xorshift1024


def valid_oea_text(rng):
    key = rng.integers(0, 256, int(rng.integers(1, 20)), dtype=np.uint8).tobytes()
    plaintext = rng.integers(0, 256, int(rng.integers(0, 60)), dtype=np.uint8).tobytes()
    return serialize_oea(oea_encrypt(plaintext, key))


def valid_layer1_text(rng):
    width, height = (int(v) for v in rng.integers(1, 5, 2))
    rng_key = Xorshift1024(int(rng.integers(1, 2**32)))
    return serialize_layer1_key(generate_layer1_key(rng_key, width, height))


PARSERS = [
    (parse_oea, valid_oea_text),
    (parse_layer1_key, valid_layer1_text),
]

# Characters the two grammars use or are near to, characters they reject
# (tab, CR, '+', '_', an Arabic-Indic digit that int() accepts) and digit
# runs that leave 64-bit range.
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


BUNDLE_FILES = ("img.ppm", "img.cipher.ppm", "img.cipher.oea", "img.key.oeaw")


@functools.cache
def bundle_files():
    """A small image and its bundle, as file name -> bytes (BUNDLE_FILES)."""
    pixels = np.random.default_rng(61).integers(0, 256, (2, 3, 3), dtype=np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "img.ppm"
        write_image(RgbImage(pixels), src)
        bundle = encrypt_pipeline(src, PipelineConfig(seed=7))
        return {path.name: path.read_bytes() for path in (src, *bundle.paths)}


def mutate_bytes(data, edit_list):
    return mutate(data.decode("latin-1"), edit_list).encode("utf-8") if edit_list else data


# Each call runs in a fresh working directory that holds the bundle files and
# an empty directory "out"; "" and "." name that directory. Each argument is
# well formed more often than not, so that most calls get past argument
# parsing.
paths = st.sampled_from([*BUNDLE_FILES, "out", "missing.ppm", "none/x.ppm", "", "."])
images = st.one_of(st.just("img.ppm"), paths)
bundles = st.one_of(st.just(list(BUNDLE_FILES[1:])), st.lists(paths, min_size=3, max_size=3))


def mostly(good, junk):
    """The good strategy three times in four, the junk one otherwise."""
    return st.integers(0, 3).flatmap(lambda pick: junk if pick == 0 else good)


junk_seeds = st.sampled_from(["abc", "-1", "", "0x", "1e3", " 7", "\u0663", str(2**64), "9" * 5000])
seed_texts = mostly(
    st.one_of(st.integers(0, 2**64 - 1).map(str), st.integers(0, 2**64 - 1).map(hex)), junk_seeds
)
components = st.one_of(st.integers(-6, 6), st.sampled_from([2**40, -(2**40), 2**70, -(2**70)]))
pair_texts = mostly(
    st.tuples(components, components).map(lambda p: f"{p[0]},{p[1]}"),
    st.sampled_from(["", "1", "1,2,3", "a,b", "1.5,2", ","]),
)
window_texts = mostly(
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda s: f"{s[0]}x{s[1]}"),
    st.sampled_from(["0x5", "-1x3", "", "5", "axb", "4X3", "3x4x5", "99999999x99999999"]),
)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


# "--seed=-1" rather than "--seed -1", which argparse reads as two options
seed_flag = st.one_of(st.just([]), seed_texts.map(lambda seed: [f"--seed={seed}"]))


@st.composite
def cli_args(draw):
    command = draw(st.sampled_from(["encrypt", "decrypt", "analyze", "lattice"]))
    if command == "encrypt":
        args = [draw(images), *draw(seed_flag), *draw(flag("--out", paths))]
    elif command == "decrypt":
        args = [*draw(bundles), *draw(flag("--out", paths))]
    elif command == "analyze":
        args = [draw(images), *draw(flag("--csv", paths))]
    else:
        args = [f"--v0={draw(pair_texts)}", f"--v1={draw(pair_texts)}"]
        args += [f"--window={draw(window_texts)}", *draw(seed_flag)]
        args += draw(st.lists(st.sampled_from(["--dump-points", "--factors"]), max_size=2))
    args += draw(st.sampled_from([[], [], [], ["--bogus"], ["extra"]]))
    return [command, *args]


NO_EDITS = dict.fromkeys(BUNDLE_FILES, [])


@settings(max_examples=150, deadline=None)
# faults this property found: a malformed $PIOUCRYPT_SEED, basis components
# past int64 in enumeration, and a path with no name ("" or ".")
@example(["encrypt", "img.ppm"], "abc", NO_EDITS)
@example(["analyze", ""], None, NO_EDITS)
@example(["decrypt", "img.cipher.ppm", "img.cipher.oea", "img.key.oeaw", "--out", "."], None, NO_EDITS)
@example(["lattice", f"--v0=0,{2**70}", f"--v1={2**70},0", "--window=5x5"], None, NO_EDITS)
@given(
    cli_args(),
    st.one_of(st.none(), seed_texts, junk_seeds),
    st.fixed_dictionaries({name: st.one_of(st.just([]), edits) for name in BUNDLE_FILES}),
)
def test_cli_never_raises(args, env_seed, file_edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in bundle_files().items():
            (tmp / name).write_bytes(mutate_bytes(data, file_edits[name]))
        (tmp / "out").mkdir()
        with (
            contextlib.chdir(tmp),
            mock.patch.dict(os.environ),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            os.environ.pop(cli.SEED_ENV_VAR, None)
            if env_seed is not None:
                os.environ[cli.SEED_ENV_VAR] = env_seed
            try:
                status = cli.main(args)
            except SystemExit as exc:
                status = exc.code
    # SystemExit with a message exits with status 1
    assert status in (0, 1, 2) or status.startswith("error: ")


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
        write_image(RgbImage(pixels), src)
        bundle = encrypt_pipeline(src, PipelineConfig(seed=seed))
        plain = decrypt_pipeline(*bundle.paths, out_path=Path(tmp) / "dec.ppm")
        assert np.array_equal(plain.pixels, pixels)
        assert (Path(tmp) / "dec.ppm").read_bytes() == src.read_bytes()


def read_outcome(read, arg):
    """The pixels read, or the error's (class, message)."""
    try:
        return read(arg).tolist()
    except PiouCryptError as exc:
        return type(exc), str(exc)


# A valid header: every PPM whitespace byte, and comments ended by LF or CR.
ppm_spaces = st.sampled_from([bytes([b]) for b in PPM_WHITESPACE])
ppm_comments = st.builds(
    lambda text, end: b"#" + text.replace(b"\n", b"").replace(b"\r", b"") + end,
    st.binary(max_size=4),
    st.sampled_from([b"\n", b"\r"]),
)
ppm_separators = st.builds(
    lambda first, rest: first + b"".join(rest),
    ppm_spaces,
    st.lists(st.one_of(ppm_spaces, ppm_comments), max_size=2),
)
# Edits that break it: signs, '_', '#' in a token or an unended comment,
# bytes that are not whitespace to a PPM reader, other magics and maxvals,
# and a cut at any byte.
ppm_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete", "cut"]),
        st.floats(0, 1, exclude_max=True),
        st.sampled_from([b"#", b"+", b"-", b"_", b"0", b"x", b"\x00", b"\x85", b"\x1c", b" ", b"\n", b"P3", b"65535"]),
    ),
    max_size=2,
)


@st.composite
def ppm_files(draw):
    magic = draw(st.sampled_from([b"P6", b"P5"]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = magic + draw(st.one_of(ppm_separators, ppm_comments))
    header += b"%d" % width + draw(ppm_separators) + b"%d" % height + draw(ppm_separators)
    header += b"255" + draw(ppm_spaces)
    payload = draw(st.binary(min_size=width * height * 3, max_size=width * height * 3 + 4))
    for kind, where, piece in draw(ppm_edits):
        at = int(where * (len(header) + 1))
        if kind == "insert":
            header = header[:at] + piece + header[at:]
        elif kind == "replace":
            header = header[:at] + piece + header[at + 1 :]
        elif kind == "delete":
            header = header[:at] + header[at + 1 :]
        else:
            payload = (header + payload)[: int(where * len(header + payload))]
            header = b""
    return header + payload


@settings(max_examples=500, deadline=None)
@given(ppm_files())
def test_read_image_matches_byte_loop_header_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.ppm"
        path.write_bytes(data)
        got = read_outcome(lambda p: read_image(p).pixels, path)
    assert got == read_outcome(loop_read_pixels, data)
