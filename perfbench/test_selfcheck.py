"""Quick self-check of the benchmark's own output checks and tracer.

    python3 perfbench/test_selfcheck.py      # or let pytest collect it

On a shrunk input (64x48) it shows that each output check passes on a real
bundle and fails when fed a corrupted one: a flipped pixel byte, a wrong m, a
swapped bundle file, a bad key entry, a rising NMF error. It also checks the
brute-force lattice count against the program's enumeration, that the tracer
leaves bundle bytes unchanged and puts the originals back, and that the
metric names the benchmark prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import prepare  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from pioucrypt import pipeline  # noqa: E402
from pioucrypt.lattice import LatticeVectors, WindowSpec, generate_lattice_points  # noqa: E402
from pioucrypt.pipeline import PipelineConfig  # noqa: E402

WIDTH, HEIGHT = 64, 48


class Sample:
    """Two small images, encrypted and decrypted once each, in a temporary directory."""

    def __init__(self, root: Path):
        self.root = root
        self.inputs = []
        for index in range(2):
            seed, basis = prepare.choose_cipher_seed(
                np.random.default_rng([7, index]), WIDTH, HEIGHT, (1, 10**6)
            )
            inp = prepare.write_input(
                {"name": f"img{index}", "width": WIDTH, "height": HEIGHT, "cipher_seed": seed,
                 "m": checks.lattice_count(basis.v0, basis.v1, WIDTH, HEIGHT)},
                np.random.default_rng(index), root,
            )
            out = root / f"out{index}"
            out.mkdir()
            inp["paths"] = pipeline.encrypt_pipeline(inp["path"], PipelineConfig(seed=seed, out_dir=out)).paths
            inp["decrypted"] = out / "dec.ppm"
            pipeline.decrypt_pipeline(*inp["paths"], out_path=inp["decrypted"])
            self.inputs.append(inp)


def with_sample(test):
    def run():
        work = HERE / "_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            test(Sample(Path(tmp)))

    run.__name__ = test.__name__
    return run


def flip_byte(path: Path, offset_from_end: int, new_value: int | None = None) -> None:
    data = bytearray(path.read_bytes())
    data[-offset_from_end] = data[-offset_from_end] ^ 1 if new_value is None else new_value
    path.write_bytes(bytes(data))


@with_sample
def test_checks_pass_on_real_bundles(sample):
    for inp in sample.inputs:
        header, entries = checks.read_key_matrix(inp["paths"][2])
        assert checks.check_decrypted(inp["decrypted"], inp["path"]) is None
        assert checks.check_histograms(inp["paths"][0], inp["channel_counts"]) is None
        assert checks.check_key_header(header, inp["m"]) is None
        assert checks.check_key_entries(header, entries) is None


@with_sample
def test_flipped_pixel_byte_fails(sample):
    inp = sample.inputs[0]
    flip_byte(inp["decrypted"], 5)
    assert "differs" in checks.check_decrypted(inp["decrypted"], inp["path"])

    # Move one cipher pixel to a level whose count cannot make up for it.
    cipher = inp["paths"][0]
    blue = np.frombuffer(cipher.read_bytes()[-WIDTH * HEIGHT * 3 :], np.uint8)[2::3]
    counts = np.bincount(blue, minlength=256)
    level = next(v for v in range(256) if counts[v] != counts[blue[-1]] - 1 and v != blue[-1])
    flip_byte(cipher, 1, level)
    assert "channel B" in checks.check_histograms(cipher, inp["channel_counts"])


@with_sample
def test_wrong_m_fails(sample):
    inp = sample.inputs[0]
    header, _ = checks.read_key_matrix(inp["paths"][2])
    assert checks.check_key_header(header, inp["m"] + 1) is not None
    key = inp["paths"][2]
    text = key.read_text()
    key.write_text(text.replace(f"PIOUW {inp['m']} ", f"PIOUW {inp['m'] + 1} ", 1))
    header, entries = checks.read_key_matrix(key)
    assert checks.check_key_header(header, inp["m"]) is not None
    assert "entries" in checks.check_key_entries(header, entries)


@with_sample
def test_swapped_bundle_file_fails(sample):
    first, other = sample.inputs
    digest = checks.bundle_sha256(first["paths"])
    assert checks.bundle_sha256(first["paths"]) == digest
    shutil.copyfile(other["paths"][2], first["paths"][2])
    assert checks.bundle_sha256(first["paths"]) != digest
    header, _ = checks.read_key_matrix(first["paths"][2])
    if other["m"] != first["m"]:
        assert checks.check_key_header(header, first["m"]) is not None


@with_sample
def test_bad_key_entries_fail(sample):
    key = sample.inputs[0]["paths"][2]
    lines = key.read_text().split("\n")
    for bad in ("-1.00000", "nan", "x"):
        row = lines[1].split(" ")
        key.write_text("\n".join([lines[0], " ".join([bad] + row[1:])] + lines[2:]))
        header, entries = checks.read_key_matrix(key)
        assert checks.check_key_entries(header, entries) is not None, bad


def test_rising_error_history_fails():
    assert checks.check_error_history([3.0, 2.0, 2.0, 1.0]) is None
    assert "iteration 2" in checks.check_error_history([3.0, 2.0, 2.5])
    assert checks.check_error_history([3.0]) is not None


def test_lattice_count_matches_enumeration():
    cases = [
        ((-40, -1), (18, -37), 1000, 1000),
        ((3, 1), (1, 3), 7, 5),
        ((5, -2), (-1, 4), 64, 48),
        ((600, 1), (-7, 13), 16384, 32),
        ((1, 600), (13, -7), 32, 16384),
    ]
    for v0, v1, w, h in cases:
        expected = len(generate_lattice_points(LatticeVectors(v0, v1), WindowSpec(w, h)))
        assert checks.lattice_count(v0, v1, w, h) == expected, (v0, v1, w, h)


@with_sample
def test_tracer_keeps_bytes_and_restores(sample):
    inp = sample.inputs[0]
    plain_digest = checks.bundle_sha256(inp["paths"])
    original = pipeline.encrypt_pipeline
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        pipeline.encrypt_pipeline(inp["path"], PipelineConfig(seed=inp["cipher_seed"], out_dir=inp["paths"][0].parent))
        tracer.op = 1
        pipeline.decrypt_pipeline(*inp["paths"], out_path=inp["decrypted"])
        tracer.op = None
    finally:
        tracer.uninstall()
    assert pipeline.encrypt_pipeline is original
    assert checks.bundle_sha256(inp["paths"]) == plain_digest
    names = {span.name for span in tracer.spans}
    assert {"pipeline.encrypt_pipeline", "layer1.apply_swaps", tracing.NMF, "oea.oea_decrypt"} <= names
    assert checks.check_error_history(tracer.nmf_history(0)) is None
    assert checks.check_decrypted(inp["decrypted"], inp["path"]) is None
    metrics = tracing.per_operation_metrics(tracer, {0: "encrypt", 1: "decrypt"})
    assert metrics["lattice.m"] == inp["m"]
    assert metrics["layer1.swaps"] == WIDTH + HEIGHT


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == {**worker.END_TO_END_UNITS, "setup_s": "s"}
    assert per_layer == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(prepare.WORKLOADS)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-checks passed")
