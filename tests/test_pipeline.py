"""Unit tests for image I/O, histograms, the full pipeline, and the CLI."""

import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import traced_peak, write_random_ppm
from pioucrypt import cli, lattice, pipeline
from pioucrypt.errors import (
    DimensionMismatch,
    InvalidConfig,
    KeyMismatch,
    MalformedHeader,
    ParseError,
    PiouCryptError,
    UnsupportedFormat,
)
from pioucrypt.lattice import (
    LatticeVectors,
    WindowSpec,
    derive_lattice_vectors,
    generate_lattice_points,
    nmf_multiplicative,
    serialize_key_matrix,
)
from pioucrypt.layer1 import Layer1Key, RgbImage, apply_swaps, generate_layer1_key
from pioucrypt.oea import master_key, oea_encrypt, serialize_oea
from pioucrypt.pipeline import (
    PipelineConfig,
    analyze,
    decrypt_pipeline,
    encrypt_pipeline,
    histogram,
    read_image,
    write_image,
)
from pioucrypt.prng import (
    LcgParams,
    Tlcg,
    Xorshift1024,
    as_seed,
    xor_bias_empirical,
    xor_bias_expected,
)


def test_read_minimal_ppm(tmp_path):
    payload = bytes(range(12))
    (tmp_path / "t.ppm").write_bytes(b"P6\n2 2\n255\n" + payload)
    image = read_image(tmp_path / "t.ppm")
    assert (image.width, image.height) == (2, 2)
    assert image.pixels[0, 0].tolist() == [0, 1, 2]
    assert image.pixels[1, 1, 2] == 11


def test_read_header_with_comments(tmp_path):
    data = b"P6 # magic\n# a comment line\n 2\t1 # dims\n255\n" + bytes(6)
    (tmp_path / "c.ppm").write_bytes(data)
    image = read_image(tmp_path / "c.ppm")
    assert (image.width, image.height) == (2, 1)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    image = write_random_ppm(tmp_path / "r.ppm", rng, 7, 5)
    again = read_image(tmp_path / "r.ppm")
    assert again == image
    write_image(again, tmp_path / "r2.ppm")
    assert (tmp_path / "r.ppm").read_bytes() == (tmp_path / "r2.ppm").read_bytes()


def test_pgm_promoted_to_rgb(tmp_path):
    (tmp_path / "g.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
    image = read_image(tmp_path / "g.pgm")
    for c in range(3):
        assert image.pixels[..., c].tolist() == [[10, 20], [30, 40]]


def test_unsupported_formats(tmp_path):
    (tmp_path / "bad.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(UnsupportedFormat):
        read_image(tmp_path / "bad.ppm")
    (tmp_path / "deep.ppm").write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(UnsupportedFormat):
        read_image(tmp_path / "deep.ppm")


def test_malformed_headers(tmp_path):
    (tmp_path / "trunc.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(MalformedHeader):
        read_image(tmp_path / "trunc.ppm")
    (tmp_path / "noint.ppm").write_bytes(b"P6\nx 2\n255\n" + bytes(12))
    with pytest.raises(MalformedHeader):
        read_image(tmp_path / "noint.ppm")
    (tmp_path / "eof.ppm").write_bytes(b"P6\n2")
    with pytest.raises(MalformedHeader):
        read_image(tmp_path / "eof.ppm")
    (tmp_path / "zero.ppm").write_bytes(b"P6\n0 2\n255\n")
    with pytest.raises(MalformedHeader, match="width must be >= 1"):
        read_image(tmp_path / "zero.ppm")
    (tmp_path / "maxval.ppm").write_bytes(b"P6\n1 1\n255")
    with pytest.raises(MalformedHeader, match="missing whitespace after maxval"):
        read_image(tmp_path / "maxval.ppm")


# int() reads the first three numbers as 10, 2 and 255, and refuses the last
# with a ValueError; a PPM header number is ASCII digits only
@pytest.mark.parametrize(
    "header",
    [b"P6 1_0 1 255\n", b"P6 +2 1 255\n", b"P6 1 1 2_55\n", b"P6 %s 1 255\n" % (b"9" * 5000)],
    ids=["width-underscore", "height-sign", "maxval-underscore", "width-past-int-digits"],
)
def test_header_numbers_are_ascii_digits(tmp_path, header):
    (tmp_path / "h.ppm").write_bytes(header + bytes(30))
    with pytest.raises(MalformedHeader, match="is not an unsigned decimal integer"):
        read_image(tmp_path / "h.ppm")


def test_read_image_holds_the_file_once(tmp_path):
    # the payload is read straight into the array the image owns, and the
    # file's bytes are not held beside it
    path = tmp_path / "r.ppm"
    write_random_ppm(path, np.random.default_rng(13), 512, 512)
    image, peak = traced_peak(read_image, path)
    assert image.pixels.nbytes == 512 * 512 * 3
    assert peak <= 1.05 * path.stat().st_size
    assert image.pixels.flags.writeable and image.pixels.flags.c_contiguous


@pytest.mark.parametrize("payload", [12, 11], ids=["whole", "truncated"])
def test_read_image_from_a_pipe(tmp_path, payload):
    # a pipe has no size to check the header against, so it is read to its end
    data = b"P6\n# a comment\n2 2\n255\n" + bytes(range(payload))
    fifo = tmp_path / "pipe.ppm"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        if payload == 12:
            assert read_image(fifo).pixels.ravel().tolist() == list(range(12))
        else:
            with pytest.raises(MalformedHeader, match="expected 12 bytes, found 11"):
                read_image(fifo)
    finally:
        writer.join()


def test_read_image_header_past_the_first_read(tmp_path):
    # the header is read in growing pieces, and a comment or a number cut at
    # the end of one is read again whole: here the first 4,096 bytes end
    # inside the comment and the first 8,192 inside the width
    comment = b"#" + b"x" * 7999 + b"\n"
    path = tmp_path / "long.ppm"
    path.write_bytes(b"P6\n" + comment + b"0" * 300 + b"2 1 255\n" + bytes(range(6)))
    assert read_image(path).pixels.ravel().tolist() == list(range(6))


def test_histogram_uniform_block():
    plane = np.full((2, 2), 5, dtype=np.uint8)
    report = histogram(RgbImage(np.stack([plane, plane.copy(), plane.copy()], axis=-1)))
    assert report.shape == (3, 256) and report.dtype == np.int64
    for counts in report:
        assert counts[5] == 4
        assert sum(counts) == 4


def test_analyze_csv(tmp_path):
    white = RgbImage(np.stack([np.full((1, 1), 255, dtype=np.uint8) for _ in range(3)], axis=-1))
    write_image(white, tmp_path / "w.ppm")
    report = analyze(tmp_path / "w.ppm", tmp_path / "w.csv")
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "channel,level,count"
    assert len(lines) == 1 + 768
    assert "red,255,1" in lines
    assert lines[1] == "red,0,0"
    for counts in report:
        assert counts[255] == 1


def test_analyze_matches_histogram(tmp_path):
    rng = np.random.default_rng(3)
    image = write_random_ppm(tmp_path / "a.ppm", rng, 6, 4)
    report = analyze(tmp_path / "a.ppm", tmp_path / "a.csv")
    direct = histogram(image)
    assert np.array_equal(report, direct)


def test_pipeline_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 17, 5)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=7, out_dir=tmp_path))
    assert bundle.paths is not None
    plain = decrypt_pipeline(*bundle.paths, out_path=tmp_path / "dec.ppm")
    assert (tmp_path / "dec.ppm").read_bytes() == src.read_bytes()
    assert plain == read_image(src)
    # with no out_path the image goes beside the cipher image
    decrypt_pipeline(*bundle.paths)
    assert (tmp_path / "img.cipher.dec.ppm").read_bytes() == src.read_bytes()


def test_pipeline_1x1_bundle_contains_259_line_key(tmp_path):
    src = tmp_path / "one.ppm"
    planes = [np.array([[9]]), np.array([[8]]), np.array([[7]])]
    write_image(RgbImage(np.stack(planes, axis=-1).astype(np.uint8)), src)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=5, out_dir=tmp_path))
    from pioucrypt.oea import oea_decrypt, parse_oea

    recovered = oea_decrypt(parse_oea(bundle.paths[1].read_text("ascii")), bundle.paths[2].read_bytes())
    assert len(recovered.decode("ascii").splitlines()) == 259
    decrypt_pipeline(*bundle.paths, out_path=tmp_path / "one.dec.ppm")
    assert (tmp_path / "one.dec.ppm").read_bytes() == src.read_bytes()


def test_pipeline_cipher_dimensions_match(tmp_path):
    rng = np.random.default_rng(17)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 20, 14)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=3, out_dir=tmp_path))
    cipher = read_image(bundle.paths[0])
    assert (cipher.width, cipher.height) == (20, 14)


def test_pipeline_512_square_keeps_dimensions_and_depth(tmp_path):
    rng = np.random.default_rng(59)
    src = tmp_path / "big.ppm"
    write_random_ppm(src, rng, 512, 512)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=1, out_dir=tmp_path))
    cipher = read_image(bundle.paths[0])
    assert (cipher.width, cipher.height) == (512, 512)
    header = bundle.paths[0].read_bytes()[:15]
    assert header == b"P6\n512 512\n255\n"


def test_swapped_key_file_raises_key_mismatch(tmp_path):
    rng = np.random.default_rng(19)
    src_a = tmp_path / "a.ppm"
    src_b = tmp_path / "b.ppm"
    write_random_ppm(src_a, rng, 9, 9)
    write_random_ppm(src_b, rng, 9, 9)
    bundle_a = encrypt_pipeline(src_a, PipelineConfig(seed=1, out_dir=tmp_path))
    bundle_b = encrypt_pipeline(src_b, PipelineConfig(seed=2, out_dir=tmp_path))
    with pytest.raises(KeyMismatch):
        decrypt_pipeline(
            bundle_a.paths[0], bundle_a.paths[1], bundle_b.paths[2],
            out_path=tmp_path / "x.ppm",
        )


def test_truncated_ciphertext_raises_parse_error(tmp_path):
    rng = np.random.default_rng(23)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 6, 6)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=4, out_dir=tmp_path))
    text = bundle.paths[1].read_text()
    bundle.paths[1].write_text("\n".join(text.splitlines()[:3]) + "\n")
    with pytest.raises(ParseError):
        decrypt_pipeline(*bundle.paths, out_path=tmp_path / "x.ppm")


def test_non_ascii_cipher_or_key_text_raises_parse_error(tmp_path):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(29), 4, 4)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=6, out_dir=tmp_path))
    bundle.paths[1].write_bytes(bundle.paths[1].read_bytes() + b"\xff\n")
    with pytest.raises(ParseError, match="ciphertext is not ASCII"):
        decrypt_pipeline(*bundle.paths, out_path=tmp_path / "x.ppm")
    # a well-formed PIOU2 text under the real key whose plaintext is not ASCII
    cipher = oea_encrypt(b"\xff\xfe", bundle.paths[2].read_bytes())
    bundle.paths[1].write_text(serialize_oea(cipher), encoding="ascii")
    with pytest.raises(ParseError, match="recovered key text is not ASCII"):
        decrypt_pipeline(*bundle.paths, out_path=tmp_path / "x.ppm")
    assert not (tmp_path / "x.ppm").exists()


def test_key_with_same_sum_and_prefix_decrypts(tmp_path):
    # A stated property of the scheme, not a defect to fix here: the receiver
    # reads the .oeaw only through its byte sum and its first (sum % 10)
    # bytes, so a different file that agrees on both decrypts exactly.
    rng = np.random.default_rng(31)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 9, 7)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=8, out_dir=tmp_path))
    key = bytearray(bundle.paths[2].read_bytes())
    prefix = sum(key) % 10
    digits = [k for k in range(prefix, len(key)) if chr(key[k]).isdigit()]
    i = digits[0]
    j = next(k for k in digits if key[k] != key[i])
    key[i], key[j] = key[j], key[i]
    wrong = tmp_path / "wrong.key.oeaw"
    wrong.write_bytes(bytes(key))
    assert wrong.read_bytes() != bundle.paths[2].read_bytes()
    decrypt_pipeline(bundle.paths[0], bundle.paths[1], wrong, out_path=tmp_path / "dec.ppm")
    assert (tmp_path / "dec.ppm").read_bytes() == src.read_bytes()


def test_dimension_mismatch_between_key_and_image(tmp_path):
    rng = np.random.default_rng(29)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 8, 4)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=6, out_dir=tmp_path))
    other = tmp_path / "other.ppm"
    write_random_ppm(other, rng, 4, 8)
    with pytest.raises(DimensionMismatch):
        decrypt_pipeline(other, bundle.paths[1], bundle.paths[2], out_path=tmp_path / "x.ppm")


def fail_nth_replace(monkeypatch, n):
    real_replace = os.replace
    calls = {"n": 0}

    def failing_replace(a, b):
        calls["n"] += 1
        if calls["n"] == n:
            raise OSError("disk full")
        return real_replace(a, b)

    monkeypatch.setattr(os, "replace", failing_replace)


def test_encrypt_atomicity_on_replace_failure(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 6, 6)
    out = tmp_path / "out"
    out.mkdir()
    fail_nth_replace(monkeypatch, 3)
    with pytest.raises(OSError):
        encrypt_pipeline(src, PipelineConfig(seed=8, out_dir=out))
    assert list(out.iterdir()) == []


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_reencrypt_failure_restores_previous_bundle(tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(32), 6, 6)
    out = tmp_path / "out"
    out.mkdir()
    encrypt_pipeline(src, PipelineConfig(seed=8, out_dir=out))
    before = snapshot(out)

    fail_nth_replace(monkeypatch, 2)
    with pytest.raises(OSError):
        encrypt_pipeline(src, PipelineConfig(seed=9, out_dir=out))
    assert snapshot(out) == before

    monkeypatch.undo()
    bundle = encrypt_pipeline(src, PipelineConfig(seed=9, out_dir=out))
    assert sorted(out.iterdir()) == sorted(bundle.paths)
    assert snapshot(out) != before


def test_decrypt_output_failure_keeps_previous_file(tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(33), 5, 4)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=3, out_dir=tmp_path))
    out = tmp_path / "dec" / "plain.ppm"
    out.parent.mkdir()
    out.write_bytes(b"previous")

    fail_nth_replace(monkeypatch, 2)
    with pytest.raises(OSError):
        decrypt_pipeline(*bundle.paths, out_path=out)
    assert snapshot(out.parent) == {"plain.ppm": b"previous"}


def test_analyze_failure_keeps_previous_csv(tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(34), 4, 3)
    csv_file = tmp_path / "img.csv"
    csv_file.write_bytes(b"previous")

    def failing_replace(a, b):
        raise OSError("disk full")

    monkeypatch.setattr("pioucrypt.pipeline.os.replace", failing_replace)
    with pytest.raises(OSError):
        analyze(src, csv_file)
    assert snapshot(tmp_path) == {"img.ppm": src.read_bytes(), "img.csv": b"previous"}


@pytest.mark.parametrize("entry", ["write_image", "decrypt_pipeline", "analyze"])
@pytest.mark.parametrize("out", ["", ".", "/"])
def test_nameless_output_path_is_refused_before_any_write(tmp_path, monkeypatch, entry, out):
    src = tmp_path / "img.ppm"
    image = write_random_ppm(src, np.random.default_rng(35), 4, 3)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=5, out_dir=tmp_path))
    write = {
        "write_image": lambda: write_image(image, out),
        "decrypt_pipeline": lambda: decrypt_pipeline(*bundle.paths, out_path=out),
        "analyze": lambda: analyze(src, out),
    }[entry]
    before = snapshot(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(PiouCryptError, match="does not name a file"):
        write()
    assert snapshot(tmp_path) == before


def test_encrypt_missing_out_dir(tmp_path, monkeypatch):
    rng = np.random.default_rng(37)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 5, 5)
    missing = tmp_path / "nope"

    def stage(*args, **kwargs):
        raise AssertionError("a stage ran before the output directory was checked")

    # the directory is checked before the image is read or any layer runs
    for name in ("read_image", "generate_layer1_key", "apply_swaps", "nmf_multiplicative"):
        monkeypatch.setattr(pipeline, name, stage)
    with pytest.raises(NotADirectoryError):
        encrypt_pipeline(src, PipelineConfig(seed=9, out_dir=missing))
    assert not missing.exists()


def test_grayscale_input_encrypts(tmp_path):
    (tmp_path / "g.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    bundle = encrypt_pipeline(tmp_path / "g.pgm", PipelineConfig(seed=12, out_dir=tmp_path))
    plain = decrypt_pipeline(*bundle.paths, out_path=tmp_path / "g.dec.ppm")
    for c in range(3):
        assert plain.pixels[..., c].tolist() == [[1, 2, 3], [4, 5, 6]]


def test_cli_encrypt_decrypt_and_analyze(tmp_path, capsys):
    rng = np.random.default_rng(43)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 10, 6)

    assert cli.main(["encrypt", str(src), "--seed", "0x2A", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3

    out_file = tmp_path / "plain.ppm"
    assert cli.main(["decrypt", *printed, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_bytes() == src.read_bytes()

    csv_file = tmp_path / "h.csv"
    assert cli.main(["analyze", str(src), "--csv", str(csv_file)]) == 0
    capsys.readouterr()
    assert csv_file.read_text().splitlines()[0] == "channel,level,count"


def test_cli_seed_env_fallback(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(47)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, rng, 4, 4)
    via_env = tmp_path / "via_env"
    via_arg = tmp_path / "via_arg"
    via_env.mkdir()
    via_arg.mkdir()
    monkeypatch.setenv("PIOUCRYPT_SEED", "31")
    assert cli.main(["encrypt", str(src), "--out", str(via_env)]) == 0
    capsys.readouterr()
    direct = encrypt_pipeline(src, PipelineConfig(seed=31, out_dir=via_arg))
    for env_path, direct_path in zip(sorted(via_env.iterdir()), sorted(direct.paths)):
        assert env_path.read_bytes() == direct_path.read_bytes()


def test_cli_seed_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PIOUCRYPT_SEED", raising=False)
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(53), 3, 3)
    with pytest.raises(SystemExit):
        cli.main(["encrypt", str(src)])


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_cli_malformed_env_seed_exits_with_error(tmp_path, value):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(53), 3, 3)
    result = run_cli("encrypt", str(src), "--out", str(tmp_path), env={"PIOUCRYPT_SEED": value})
    assert result.returncode == 1
    assert result.stderr.startswith("error: $PIOUCRYPT_SEED: ")
    assert "Traceback" not in result.stderr


def test_cli_error_paths_return_nonzero(tmp_path, capsys):
    missing = tmp_path / "missing.ppm"
    assert cli.main(["analyze", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def run_cli(*args, env=None):
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "pioucrypt.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_lattice_rejects_empty_window():
    result = run_cli("lattice", "--v0=3,1", "--v1=1,3", "--window", "0x5")
    assert result.returncode != 0
    assert "--window dimensions must be >= 1" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_lattice_skewed_basis_finishes():
    # det 1 and 100 points, though one basis vector is 10^8 long
    result = run_cli("lattice", "--v0=1,0", "--v1=100000000,1", "--window", "10x10")
    assert result.returncode == 0
    assert "points 100" in result.stdout


def test_cli_lattice_rejects_huge_window():
    # the cap is 2^24 pixels: 4097 x 4096 is one row of pixels over it
    for window in ("99999999x99999999", "4097x4096"):
        result = run_cli("lattice", "--v0=1,0", "--v1=0,1", "--window", window)
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
    # a sparse basis keeps a window at the cap cheap: 5 x 5 points
    result = run_cli("lattice", "--v0=1000,0", "--v1=0,1000", "--window", "4096x4096")
    assert result.returncode == 0
    assert "points 25" in result.stdout


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["encrypt", "img.ppm", "--seed", "18446744073709551616"], id="seed-2^64"),
        pytest.param(["lattice", "--v0=1,0", "--v1=0,1", "--window", "3xa"], id="window-3xa"),
        pytest.param(["lattice", "--v0=1,0,2", "--v1=0,1", "--window", "3x3"], id="v0-three"),
    ],
)
def test_cli_bad_argument_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    assert excinfo.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_cli_lattice_dump(capsys):
    code = cli.main(
        ["lattice", "--v0", "1,0", "--v1", "0,1", "--window", "4x3", "--dump-points"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "points 12" in out
    assert "0 0" in out and "3 2" in out



@pytest.mark.parametrize(
    "v0,v1,window",
    [
        ("1,0", "0,1", "100x50"),  # 5,000 points: more than one block of rows
        ("3,1", "1,3", "40x30"),
        ("-40,-1", "18,-37", "300x200"),
        ("100000000000000000000,1", "1,0", "7x3"),  # past int64: Python-int points
    ],
)
def test_cli_lattice_dump_bytes_match_one_print_per_point(capsys, v0, v1, window):
    args = ["lattice", f"--v0={v0}", f"--v1={v1}", "--window", window]
    assert cli.main(args) == 0
    head = capsys.readouterr().out
    assert cli.main(args + ["--dump-points"]) == 0
    out = capsys.readouterr().out
    vectors = LatticeVectors(*(tuple(int(c) for c in v.split(",")) for v in (v0, v1)))
    points = generate_lattice_points(vectors, WindowSpec(*(int(d) for d in window.split("x"))))
    assert out == head + "".join(f"{x} {y}\n" for x, y in points)

def test_cli_lattice_factors(capsys):
    code = cli.main(
        ["lattice", "--v0", "2,0", "--v1", "0,2", "--window", "10x10", "--factors"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "points 25" in out
    assert "PIOUW 25 2" in out
    # the printed error is the factorization's own, that of the printed W
    points = generate_lattice_points(LatticeVectors((2, 0), (0, 2)), WindowSpec(10, 10))
    points = points.astype(np.float64)
    factors = nmf_multiplicative(points, 0)
    error = np.linalg.norm(points - factors.W @ factors.H)
    assert f"reconstruction error {error:.5f}\n" in out


def test_cli_lattice_negative_components_equals_form(capsys):
    # negative components need --flag=value so argparse does not read them
    # as options
    code = cli.main(["lattice", "--v0=-40,-1", "--v1=18,-37", "--window", "1000x1000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "det 1498" in out
    assert "points 675" in out


# sha256 of cipher.ppm + cipher.oea + key.oeaw for a fixed (image, seed). The
# pixels come from SHAKE-256 so the inputs do not depend on numpy's generators.
GOLDEN_BUNDLES = [
    ("P6", 1, 1, 5,
     "cb6fb4e516660d6aef2ba9b562c6366868a03a6ad92bfbf90fee2029c00c4ef7"),
    ("P6", 57, 1, 11,
     "df5d122c96471c2c51faf8c93d4008c41646e9821a1f2ecaa2675edd5b664960"),
    ("P6", 1, 57, 12,
     "cf8f9b9e098611e0f8360b4f047251974e8b5c507ed1d30eb5de7348038cf6d2"),
    ("P6", 64, 48, 0xC0FFEE,
     "36965b5e90b1abfa171b08e7f13539639fe12142ac40aba61cf599379b3e16b0"),
    ("P6", 300, 17, 2**64 - 1,
     "5a7d778b0b2257dce9f36ab40f9193be47dde850f9791faf7fde75b0949d3665"),
    ("P5", 23, 9, 42,
     "8b236391abc764e10861d46c37928d3869ba870dad6473073476f6dd05e9d128"),
    # det 3, m = 22,016 lattice points: large enough for the blocked BLAS
    # paths of the NMF loop, which the inputs above stay below
    ("P6", 256, 256, 24,
     "9297bf412feccf940dfcfc3fdb1c9c0d78ea57639a2e64802cfb6b72e8b56b59"),
    # rows of 3,003 bytes: layer 1 maps all 129 rows as one block, which ends
    # on an odd byte
    ("P6", 1001, 129, 3,
     "83709dc5e1f34145b60a349d7430941debc2c12ded24f7a1bdb345f1c6ba4570"),
    # rows of 2,049 bytes: layer 1 maps it in blocks of 191, 191 and 18 rows,
    # and a 191-row block ends on an odd byte
    ("P6", 683, 400, 4,
     "70c3d63f70c8cfff5e1090ae6037714983ecc9d45a32146404dd5de724026a91"),
]


def golden_input(path, magic, width, height):
    channels = 3 if magic == "P6" else 1
    payload = hashlib.shake_256(f"{magic} {width}x{height}".encode()).digest(
        width * height * channels
    )
    path.write_bytes(f"{magic}\n{width} {height}\n255\n".encode() + payload)


@pytest.mark.parametrize("magic,width,height,seed,digest", GOLDEN_BUNDLES)
def test_golden_bundle_bytes(tmp_path, magic, width, height, seed, digest):
    src = tmp_path / "golden.ppm"
    golden_input(src, magic, width, height)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=seed, out_dir=tmp_path))
    blob = b"".join(path.read_bytes() for path in bundle.paths)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_large_m_key_text():
    # The PIOUW text of a 2048 x 2048 image at a tail seed: basis (-31, 59),
    # (-38, 71), m = 102,300 points, several blocks of every BLAS path. Built
    # as encrypt_pipeline builds it; the key does not depend on the pixels.
    seed = 4944949517691095761
    window = WindowSpec(2048, 2048)
    vectors = derive_lattice_vectors(Tlcg.from_seed(seed), window)
    assert (vectors.v0, vectors.v1) == ((-31, 59), (-38, 71))
    points = generate_lattice_points(vectors, window)
    assert len(points) == 102_300
    text = serialize_key_matrix(nmf_multiplicative(points, seed ^ pipeline.NMF_SEED_SALT).W)
    assert len(text) == 1_636_815
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "b8a0e570a497ccaf12864abb441c76a99ecf318d6e7d01581beaa73d0ac80425"
    )


@pytest.mark.parametrize("seed", [np.uint64(11), np.int64(11), np.uint8(11)], ids=lambda s: type(s).__name__)
def test_numpy_seed_gives_the_int_seed_bundle(tmp_path, seed):
    magic, width, height, int_seed, digest = GOLDEN_BUNDLES[1]
    assert seed == int_seed
    src = tmp_path / "golden.ppm"
    golden_input(src, magic, width, height)
    config = PipelineConfig(seed=seed, out_dir=tmp_path)
    assert type(config.seed) is int
    bundle = encrypt_pipeline(src, config)
    blob = b"".join(path.read_bytes() for path in bundle.paths)
    assert hashlib.sha256(blob).hexdigest() == digest

def test_layer1_runs_in_the_array_the_image_was_read_into(tmp_path, monkeypatch):
    read, swapped = [], []

    def read_and_keep(path):
        image = read_image(path)
        read.append(image.pixels)
        return image

    def swap_and_keep(image, key):
        swapped.append(image.pixels)
        return apply_swaps(image, key)

    monkeypatch.setattr(pipeline, "read_image", read_and_keep)
    monkeypatch.setattr(pipeline, "apply_swaps", swap_and_keep)
    src = tmp_path / "golden.ppm"
    golden_input(src, "P6", 64, 48)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=0xC0FFEE, out_dir=tmp_path))
    assert swapped[0] is read[0]
    blob = b"".join(path.read_bytes() for path in bundle.paths)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_BUNDLES[3][4]
    plain = decrypt_pipeline(*bundle.paths, out_path=tmp_path / "plain.ppm")
    assert swapped[1] is plain.pixels is read[1]
    assert (tmp_path / "plain.ppm").read_bytes() == src.read_bytes()


def test_pipeline_peak_memory_is_about_one_image(tmp_path):
    # Layer 1 runs in the array the image is read into, so neither direction
    # holds a second image; at m = 2,165 the lattice, the NMF and both key
    # texts are small beside the 12.6 MB of pixels.
    src = tmp_path / "photo.ppm"
    nbytes = write_random_ppm(src, np.random.default_rng(15), 2048, 2048).pixels.nbytes
    bundle, encrypt_peak = traced_peak(encrypt_pipeline, src, PipelineConfig(seed=1, out_dir=tmp_path))
    paths = bundle.paths
    del bundle
    _, decrypt_peak = traced_peak(decrypt_pipeline, *paths, tmp_path / "plain.ppm")
    assert (tmp_path / "plain.ppm").read_bytes() == src.read_bytes()
    assert encrypt_peak <= 1.3 * nbytes
    assert decrypt_peak <= 1.3 * nbytes


def test_encrypt_peak_at_a_unit_determinant_is_about_one_and_a_half_nmf_buffers(tmp_path):
    # |det| = 1, so m = 262,144 points and the NMF buffer S holds 32 bytes a
    # point. Past the image, no stage holds more than S and W, W and its
    # text, or the key text and its bytes: each about 1.5 S.
    seed, side = 69, 512
    vectors = derive_lattice_vectors(Tlcg.from_seed(seed), WindowSpec(side, side))
    assert abs(vectors.det) == 1
    m = side * side
    src = tmp_path / "unit.ppm"
    nbytes = write_random_ppm(src, np.random.default_rng(69), side, side).pixels.nbytes
    bundle, peak = traced_peak(encrypt_pipeline, src, PipelineConfig(seed=seed, out_dir=tmp_path))
    with open(bundle.paths[2], "rb") as key_file:
        assert key_file.readline() == f"PIOUW {m} 2\n".encode("ascii")
    assert peak - nbytes <= 1.55 * 32 * m


def test_cli_lattice_frees_the_points_before_the_start_point(monkeypatch, capsys):
    points = []
    draws = []

    def generate_and_watch(vectors, window):
        result = generate_lattice_points(vectors, window)
        points.append(weakref.ref(result))
        return result

    class WatchedTlcg(Tlcg):
        def next_units(self, count):
            draws.append(count)
            assert points[0]() is None, "the lattice points are still alive during NMF"
            return super().next_units(count)

    monkeypatch.setattr(cli, "generate_lattice_points", generate_and_watch)
    monkeypatch.setattr(lattice, "Tlcg", WatchedTlcg)
    assert cli.main(["lattice", "--v0", "2,0", "--v1", "0,2", "--window", "10x10", "--factors"]) == 0
    assert len(points) == 1 and len(draws) == 2
    assert "points 25\n" in capsys.readouterr().out


def test_encrypt_frees_the_lattice_points_before_the_start_point(tmp_path, monkeypatch):
    points = []
    draws = []

    def generate_and_watch(vectors, window):
        result = generate_lattice_points(vectors, window)
        points.append(weakref.ref(result))
        return result

    class WatchedTlcg(Tlcg):
        # the factorization's stream: its draws come after the points are in S
        def next_units(self, count):
            draws.append(count)
            assert len(points) == 1
            assert points[0]() is None, "the lattice points are still alive during NMF"
            return super().next_units(count)

    monkeypatch.setattr(pipeline, "generate_lattice_points", generate_and_watch)
    monkeypatch.setattr(lattice, "Tlcg", WatchedTlcg)
    src = tmp_path / "golden.ppm"
    golden_input(src, "P6", 64, 48)
    bundle = encrypt_pipeline(src, PipelineConfig(seed=0xC0FFEE, out_dir=tmp_path))
    assert len(draws) == 2
    blob = b"".join(path.read_bytes() for path in bundle.paths)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_BUNDLES[3][4]


def openblas_corename() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs in this process, or None if it has no name."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


# Run in a child process: print the active kernel, then the golden pins and
# the large-m key pin.
_PINS_UNDER_KERNEL = f"""
import sys
sys.path.insert(0, {os.path.dirname(__file__)!r})
import pytest
from test_pipeline import openblas_corename
print("corename", openblas_corename(), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      {__file__!r} + "::test_golden_bundle_bytes",
                      {__file__!r} + "::test_large_m_key_text"]))
"""


# OpenBLAS picks its kernel per process, and each kernel rounds the NMF's
# products its own way; the 5-decimal key text must not see that.
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Prescott"])
def test_golden_bundle_bytes_under_each_blas_kernel(kernel):
    parent = openblas_corename()
    if parent is None:
        pytest.skip("numpy's OpenBLAS does not name its kernel (no scipy_openblas_get_corename64_)")
    if parent.lower() == kernel.lower():
        pytest.skip(f"{kernel} is already this machine's default kernel")
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": kernel,
        "PYTHONPATH": str(Path(cli.__file__).parents[1]),
    }
    result = subprocess.run(
        [sys.executable, "-c", _PINS_UNDER_KERNEL],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    child = result.stdout.splitlines()[0].removeprefix("corename ")
    assert child != parent
    assert f"{len(GOLDEN_BUNDLES) + 1} passed" in result.stdout


PLANE = np.zeros((2, 2), np.uint8)
PIXELS = np.zeros((2, 2, 3), np.uint8)
STREAM = LcgParams(7, 3, 1, 0)


# Every argument check in the package raises InvalidConfig, whichever check
# trips first.
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: WindowSpec(0, 5), id="WindowSpec"),
        pytest.param(lambda: WindowSpec(2.5, 3), id="WindowSpec-float"),
        pytest.param(lambda: LatticeVectors((1.5, 0), (0, 1)), id="LatticeVectors-float"),
        pytest.param(lambda: LatticeVectors(("x", 0), (0, 1)), id="LatticeVectors-str"),
        pytest.param(lambda: LatticeVectors((1,), (0, 1)), id="LatticeVectors-short"),
        pytest.param(lambda: LatticeVectors((1, 0), 1), id="LatticeVectors-int"),
        pytest.param(lambda: LatticeVectors((1, 2), (2, 4)), id="LatticeVectors-collinear"),
        pytest.param(lambda: LatticeVectors((0, 0), (0, 1)), id="LatticeVectors-zero"),
        pytest.param(lambda: derive_lattice_vectors(Tlcg([LcgParams(7, 1, 0, 3)] * 3), WindowSpec(10, 10)), id="derive_lattice_vectors-constant"),
        pytest.param(lambda: PipelineConfig(seed=-1), id="PipelineConfig"),
        pytest.param(lambda: PipelineConfig(seed=1.5), id="PipelineConfig-float"),
        pytest.param(lambda: PipelineConfig(seed="5"), id="PipelineConfig-str"),
        pytest.param(lambda: Layer1Key(np.zeros((0, 2), np.int64), np.zeros((1, 2), np.int64), np.arange(256, dtype=np.uint8)), id="Layer1Key"),
        pytest.param(lambda: Layer1Key(np.zeros((1, 2), np.int64), np.zeros((1, 2), np.int64), np.zeros(256, np.uint8)), id="Layer1Key-table"),
        pytest.param(lambda: generate_layer1_key(Xorshift1024(0), 3, -1), id="generate_layer1_key"),
        pytest.param(lambda: generate_layer1_key(Xorshift1024(0), 2.5, 2), id="generate_layer1_key-float"),
        pytest.param(lambda: Xorshift1024(0).randint(0, 2.5), id="randint-float"),
        pytest.param(lambda: Xorshift1024(0).randint(5, 2), id="randint-range"),
        pytest.param(lambda: Xorshift1024(0).fill_u64(2.5), id="fill_u64-float"),
        pytest.param(lambda: Xorshift1024(0).fill_u64(-1), id="fill_u64-count"),
        pytest.param(lambda: Tlcg.from_seed(0).randrange(0, 2.5), id="randrange-float"),
        pytest.param(lambda: Tlcg.from_seed(0).randrange(5, 5), id="randrange-range"),
        pytest.param(lambda: Tlcg.from_seed(0).randrange(6, 2), id="randrange-reversed"),
        pytest.param(lambda: Tlcg.from_seed(0).next_units(2.5), id="next_units-float"),
        pytest.param(lambda: Xorshift1024(-1), id="Xorshift1024-seed"),
        pytest.param(lambda: Xorshift1024(1.5), id="Xorshift1024-float"),
        pytest.param(lambda: Xorshift1024(1 << 64), id="Xorshift1024-u64"),
        pytest.param(lambda: as_seed(1 << 64), id="as_seed"),
        pytest.param(lambda: Xorshift1024.from_state([1] * 15), id="from_state-words"),
        pytest.param(lambda: Xorshift1024.from_state([0] * 16), id="from_state-zero"),
        pytest.param(lambda: Xorshift1024.from_state([1] * 16, 16), id="from_state-index"),
        pytest.param(lambda: Xorshift1024.from_state([1.5] * 16), id="from_state-float"),
        pytest.param(lambda: Xorshift1024.from_state([1 << 64] + [0] * 15), id="from_state-u64"),
        pytest.param(lambda: LcgParams(0, 1, 0, 0), id="LcgParams-modulus"),
        pytest.param(lambda: LcgParams(7, 7, 0, 0), id="LcgParams-multiplier"),
        pytest.param(lambda: LcgParams(16, 0, 3, 7), id="LcgParams-multiplier-zero"),
        pytest.param(lambda: LcgParams(7, 3, 7, 0), id="LcgParams-increment"),
        pytest.param(lambda: LcgParams(7, 3, 0, -1), id="LcgParams-seed"),
        pytest.param(lambda: LcgParams(16, 5, 3, 16), id="LcgParams-seed-modulus"),
        pytest.param(lambda: LcgParams(7, 3, 0, 1.5), id="LcgParams-float"),
        pytest.param(lambda: Tlcg([STREAM, STREAM]), id="Tlcg-streams"),
        pytest.param(lambda: Tlcg.from_seed(-1), id="Tlcg.from_seed"),
        pytest.param(lambda: Tlcg.from_seed("5"), id="Tlcg.from_seed-str"),
        pytest.param(lambda: Tlcg.from_seed(1 << 64), id="Tlcg.from_seed-u64"),
        pytest.param(lambda: Tlcg.from_seed(0).next_units(-1), id="next_units-count"),
        pytest.param(lambda: Tlcg([LcgParams(2**32, 3, 0, 0), STREAM, STREAM]).next_units(1), id="next_units-modulus"),
        pytest.param(lambda: xor_bias_expected(1.5, 0.5), id="xor_bias_expected"),
        pytest.param(lambda: xor_bias_expected(-0.1, 0.5), id="xor_bias_expected-negative"),
        pytest.param(lambda: xor_bias_expected(0.5, 1.1), id="xor_bias_expected-q"),
        pytest.param(lambda: xor_bias_empirical(0.5, -0.5, 1, Xorshift1024(0)), id="xor_bias_empirical-unit"),
        pytest.param(lambda: xor_bias_empirical(0.5, 0.5, 0, Xorshift1024(0)), id="xor_bias_empirical-count"),
        pytest.param(lambda: master_key(1, -1), id="master_key"),
        pytest.param(lambda: serialize_key_matrix(np.zeros((0, 2))), id="serialize_key_matrix-shape"),
        pytest.param(lambda: serialize_key_matrix(np.array([[-1.0, 0.0]])), id="serialize_key_matrix-entries"),
        pytest.param(lambda: serialize_key_matrix(np.array([["1", "2"]])), id="serialize_key_matrix-str"),
        pytest.param(lambda: nmf_multiplicative(np.array([["1", "2"]]), 0), id="nmf_multiplicative-str"),
        pytest.param(lambda: nmf_multiplicative([[1, 2], [3]], 0), id="nmf_multiplicative-ragged"),
        pytest.param(lambda: nmf_multiplicative(np.empty((0, 2)), 0), id="nmf_multiplicative-empty"),
        pytest.param(lambda: RgbImage(PLANE), id="RgbImage-ndim"),
        pytest.param(lambda: RgbImage(PIXELS + 0.5), id="RgbImage-dtype"),
        pytest.param(lambda: RgbImage(PIXELS.astype(np.int64)), id="RgbImage-int64"),
        pytest.param(lambda: RgbImage(PIXELS[:0]), id="RgbImage-empty"),
        pytest.param(lambda: RgbImage(PIXELS[..., :2]), id="RgbImage-shapes"),
    ],
)
def test_config_errors_are_piou_and_value_errors(make):
    with pytest.raises(InvalidConfig) as excinfo:
        make()
    assert isinstance(excinfo.value, PiouCryptError)
    assert isinstance(excinfo.value, ValueError)
