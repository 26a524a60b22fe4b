"""The benchmark's per-layer timings find the library's stages by name.

perfbench/tracing.py times a stage by swapping a recorder in for the function
of that name in the pipeline's modules. A stage that the pipeline stopped
calling by that name would read 0 s in the traced benchmark, with no error.
"""

import sys
from pathlib import Path

import numpy as np

from oracles import write_random_ppm
from pioucrypt import pipeline
from pioucrypt.pipeline import PipelineConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

# layer1.apply_lut was folded into apply_swaps, so its metric reads 0 until
# the benchmark takes its per-layer figures from somewhere else.
UNTIMED = {"layer1.lut_s"}


def test_every_timed_stage_is_recorded(tmp_path):
    src = tmp_path / "img.ppm"
    write_random_ppm(src, np.random.default_rng(44), 24, 16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        bundle = pipeline.encrypt_pipeline(src, PipelineConfig(seed=44, out_dir=tmp_path))
        tracer.op = 1
        pipeline.decrypt_pipeline(*bundle.paths, out_path=tmp_path / "dec.ppm")
    finally:
        tracer.op = None
        tracer.uninstall()
    assert (tmp_path / "dec.ppm").read_bytes() == src.read_bytes()
    metrics = tracing.per_operation_metrics(tracer, {0: "encrypt", 1: "decrypt"})
    zero = {name for name, unit, _, _ in tracing.PER_OPERATION if unit == "s" and metrics[name] == 0}
    assert zero <= UNTIMED, zero
