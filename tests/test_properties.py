"""Known weaknesses of the scheme as implemented, stated as properties that hold.

These describe what a bundle does not protect (see the README section "What
the scheme does not protect"). They pass on purpose: closing any of them
changes the bundle format, so it needs a new format version.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_random_ppm
from pioucrypt import PipelineConfig, decrypt_pipeline, encrypt_pipeline
from pioucrypt.layer1 import apply_swaps, parse_layer1_key
from pioucrypt.oea import oea_encrypt, parse_oea
from pioucrypt.pipeline import read_image

# (width, height, seed) of the bundles the pipeline-level properties use.
BUNDLES = [(1, 1, 0), (1, 9, 1), (9, 1, 2), (5, 3, 3), (16, 16, 4), (79, 2, 5), (23, 31, 6)]


def recover_without_key(cipher_image_path, oea_cipher_path):
    """Decrypt a bundle from its cipher image and OEA text alone.

    Inside each parity stream, consecutive values differ by one plaintext
    byte, and the first even value is the first plaintext byte minus the
    master key. The layer-1 key text starts with 'P' (80, even), so the
    master key is 80 - se[0] and every byte follows.
    """
    cipher = parse_oea(Path(oea_cipher_path).read_text("ascii"))
    mk = ord("P") - cipher.se[0]
    odd = np.frombuffer(cipher.sc.encode("ascii"), np.uint8) == ord("1")
    plain = np.empty(odd.size, np.int64)
    for mask, values, last in ((~odd, cipher.se, mk), (odd, cipher.so, -mk)):
        stream = np.array(values, np.int64)
        if stream.size:
            stream[-1] += last
            plain[mask] = np.diff(stream, prepend=-mk)
    layer1_key = parse_layer1_key(plain.astype(np.uint8).tobytes().decode("ascii"))
    return apply_swaps(read_image(cipher_image_path), layer1_key.inverse())


def test_bundle_decrypts_without_the_key_file(tmp_path):
    rng = np.random.default_rng(40)
    for width, height, seed in BUNDLES:
        src = tmp_path / f"img{seed}.ppm"
        image = write_random_ppm(src, rng, width, height)
        bundle = encrypt_pipeline(src, PipelineConfig(seed=seed, out_dir=tmp_path))
        recovered = recover_without_key(bundle.paths[0], bundle.paths[1])
        assert np.array_equal(recovered.pixels, image.pixels)


@settings(deadline=None)
@given(st.binary(max_size=300), st.binary(min_size=1, max_size=40))
def test_marker_string_is_the_plaintext_parity(plaintext, key):
    cipher = oea_encrypt(plaintext, key)
    assert cipher.sc == "".join(str(byte % 2) for byte in plaintext)


def test_key_depends_only_on_seed_and_size(tmp_path):
    # Two different images of one size under one seed share every key file,
    # so whoever holds the key files of one can decrypt the other.
    rng = np.random.default_rng(41)
    for width, height, seed in BUNDLES:
        bundles, images = [], []
        for name in ("a", "b"):
            (tmp_path / name).mkdir(exist_ok=True)
            src = tmp_path / name / f"img{seed}.ppm"
            images.append(write_random_ppm(src, rng, width, height))
            bundles.append(encrypt_pipeline(src, PipelineConfig(seed=seed)))
        a, b = bundles
        assert a.paths[1].read_bytes() == b.paths[1].read_bytes()
        assert a.paths[2].read_bytes() == b.paths[2].read_bytes()
        plain_b = decrypt_pipeline(b.paths[0], a.paths[1], a.paths[2], tmp_path / "b.dec.ppm")
        assert np.array_equal(plain_b.pixels, images[1].pixels)


def test_per_channel_histograms_survive_encryption(tmp_path):
    rng = np.random.default_rng(42)
    for width, height, seed in BUNDLES:
        src = tmp_path / f"img{seed}.ppm"
        image = write_random_ppm(src, rng, width, height)
        bundle = encrypt_pipeline(src, PipelineConfig(seed=seed, out_dir=tmp_path))
        cipher = read_image(bundle.paths[0])
        for c in range(3):
            plain_counts = np.bincount(image.pixels[..., c].ravel(), minlength=256)
            cipher_counts = np.bincount(cipher.pixels[..., c].ravel(), minlength=256)
            assert sorted(plain_counts) == sorted(cipher_counts)
