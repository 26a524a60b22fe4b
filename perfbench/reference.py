"""Reference figures for the extreme lattice tail, measured once and not gated.

    python3 perfbench/reference.py [--case det1|seed42]

Each case encrypts and decrypts one synthetic image once, in a fresh process,
and prints one JSON line: wall times, m, |det|, bundle sizes and peak RSS.
- det1: 1024x1024 with the first cipher seed (counting up from 0) whose basis
  has |det| = 1, so every pixel is a lattice point (m = 1,048,576).
- seed42: 4096x4096 with cipher seed 42 (m = 839,680).
These calls last 10-30 s each, too long to repeat inside a benchmark run; the
lattice-tail workload stops well short of them.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import prepare
from pioucrypt import pipeline
from pioucrypt.lattice import WindowSpec, derive_lattice_vectors
from pioucrypt.pipeline import PipelineConfig
from pioucrypt.prng import Tlcg

HERE = Path(__file__).resolve().parent


def first_unit_det_seed(width: int, height: int) -> int:
    window = WindowSpec(width, height)
    seed = 0
    while abs(derive_lattice_vectors(Tlcg.from_seed(seed), window).det) != 1:
        seed += 1
    return seed


def measure(case: str) -> dict:
    if case == "det1":
        width = height = 1024
        seed = first_unit_det_seed(width, height)
    else:
        width = height = 4096
        seed = 42
    basis = derive_lattice_vectors(Tlcg.from_seed(seed), WindowSpec(width, height))
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        tmp = Path(tmp)
        image = prepare.write_input(
            {"name": case, "width": width, "height": height}, np.random.default_rng(0), tmp
        )
        start = perf_counter()
        bundle = pipeline.encrypt_pipeline(image["path"], PipelineConfig(seed=seed, out_dir=tmp))
        encrypt_s = perf_counter() - start
        paths = bundle.paths
        del bundle
        start = perf_counter()
        pipeline.decrypt_pipeline(*paths, out_path=tmp / "dec.ppm")
        decrypt_s = perf_counter() - start
        sizes = [p.stat().st_size for p in paths]
        header = paths[2].read_text().split("\n", 1)[0]
        wrong = checks.check_decrypted(tmp / "dec.ppm", image["path"])
        if wrong:
            raise SystemExit(wrong)
    return {
        "case": case,
        "size": f"{width}x{height}",
        "cipher_seed": seed,
        "det": basis.det,
        "m": int(header.split()[1]),
        "encrypt_s": round(encrypt_s, 2),
        "decrypt_s": round(decrypt_s, 2),
        "cipher_ppm_B": sizes[0],
        "cipher_oea_B": sizes[1],
        "key_oeaw_B": sizes[2],
        "peak_rss_MB": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=("det1", "seed42"))
    args = parser.parse_args()
    if args.case:
        print(json.dumps(measure(args.case)), flush=True)
        return 0
    for case in ("det1", "seed42"):  # one fresh process each, for its own peak RSS
        subprocess.run([sys.executable, __file__, "--case", case], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
