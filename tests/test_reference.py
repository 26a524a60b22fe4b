"""The library's bundles against the reference pipeline of tests/oracles.py.

The reference chains the loop oracles with its own draw order, seed salt,
lattice window and text encodings, so a drift in any of them between the
library's stages shows here on shapes the golden pins do not cover.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_read_pixels, ppm_bytes, reference_decrypt, reference_encrypt
from pioucrypt.pipeline import PipelineConfig, decrypt_pipeline, encrypt_pipeline


def encrypt_both(tmp, data, seed):
    """The bundle files of the library and of the reference for one image file."""
    src = tmp / "img.ppm"
    src.write_bytes(data)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=seed))
    return bundle.paths, [path.read_bytes() for path in bundle.paths], reference_encrypt(data, seed)


@st.composite
def image_files(draw):
    """A P5 or P6 file of 1 to 40 pixels a side."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    size = width * height * (3 if magic == b"P6" else 1)
    payload = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).bytes(size)
    return magic + b"\n%d %d\n255\n" % (width, height) + payload


@settings(deadline=None)
@given(image_files(), st.integers(0, 2**64 - 1))
def test_bundle_matches_the_reference_pipeline(data, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths, library, reference = encrypt_both(tmp, data, seed)
        assert library == list(reference)

        # each side decrypts the other's bundle, and both give back the image
        (tmp / "ref").mkdir()
        reference_paths = [tmp / "ref" / path.name for path in paths]
        for path, blob in zip(reference_paths, reference):
            path.write_bytes(blob)
        decrypt_pipeline(*reference_paths, out_path=tmp / "dec.ppm")
        image = ppm_bytes(loop_read_pixels(data))
        assert (tmp / "dec.ppm").read_bytes() == image
        assert reference_decrypt(*library) == image


def test_bundle_matches_the_reference_over_several_layer1_row_blocks(tmp_path):
    # The 683x400 golden pin: rows of 2,049 bytes, which layer 1 maps in
    # blocks of 191, 191 and 18 rows; the images drawn above fit in one.
    data = b"P6\n683 400\n255\n" + hashlib.shake_256(b"P6 683x400").digest(683 * 400 * 3)
    _, library, reference = encrypt_both(tmp_path, data, 4)
    assert library == list(reference)
    assert reference_decrypt(*library) == ppm_bytes(loop_read_pixels(data))
