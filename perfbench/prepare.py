"""A workload's inputs: cipher seeds chosen by m band, and synthetic RGB PPMs.

    python3 perfbench/prepare.py --selection SELECTION.json --out DIR

Two steps, both drawn from the workload seed so that the same seed always
gives the same inputs. `select()` draws candidate cipher seeds and keeps, for
each image, the first whose lattice has a point count `m` inside the
workload's band; run.py does this once per run, before set-up is timed,
because the number of candidates it takes varies with the seed and is not the
program's work. The script part generates the pixels and writes the PPMs and
the manifest; run.py times it as part of every set-up.

The manifest records what the output checks need: the basis, `det`, `m` as
counted by the benchmark's own brute force (`checks.lattice_count`) and the
sorted per-channel histogram of each image.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import lattice_count, sorted_channel_counts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from pioucrypt.lattice import WindowSpec, derive_lattice_vectors, generate_lattice_points  # noqa: E402
from pioucrypt.prng import Tlcg  # noqa: E402


# Image shapes (width, height) and the band of m the cipher seeds must fall in.
# photo: m near its median at 2048^2 (about 2,060 over 3,000 seeds), so NMF is
# under a tenth of an encrypt. lattice-tail: just above the p99 at 2048^2 (91k
# over 3,000 seeds), where NMF dominates an encrypt yet a call still repeats
# within one run; the band is narrow because NMF time and key size grow
# linearly with m. strip: a thin window holds a handful of points, so NMF is
# nil; one exact m gives the same key size on every seed.
@dataclass(frozen=True)
class Workload:
    shapes: tuple[tuple[int, int], ...]
    m_band: tuple[int, int]


WORKLOADS = {
    "photo": Workload(((2048, 2048), (2048, 2048)), (2_000, 2_100)),
    "lattice-tail": Workload(((2048, 2048),), (102_000, 104_000)),
    "strip": Workload(((16384, 32), (32, 16384)), (10, 10)),
}

# A small input encrypted and decrypted before timing, so first-call costs
# (lazy imports, BLAS start-up) stay out of the timed calls.
WARMUP = {"name": "warmup", "width": 64, "height": 48, "cipher_seed": 1}

MAX_CANDIDATES = 1_000_000


def choose_cipher_seed(rng, width: int, height: int, band: tuple[int, int]):
    """The first candidate seed whose lattice has m inside the band.

    A candidate whose estimate w*h/|det| lies more than 10% outside the band
    is skipped, so the program's own enumeration, which decides, runs only
    on near misses.
    """
    lo, hi = band
    window = WindowSpec(width, height)
    for _ in range(MAX_CANDIDATES):
        seed = int(rng.integers(0, 1 << 63))
        basis = derive_lattice_vectors(Tlcg.from_seed(seed), window)
        if not lo / 1.1 <= width * height / abs(basis.det) <= hi * 1.1:
            continue
        if lo <= len(generate_lattice_points(basis, window)) <= hi:
            return seed, basis
    raise RuntimeError(f"no cipher seed with m in {band} among {MAX_CANDIDATES} candidates")


def select(workload: str, seed: int) -> dict:
    """Shapes, cipher seeds, bases and brute-force m of a workload's images."""
    inputs = []
    for index, (width, height) in enumerate(WORKLOADS[workload].shapes):
        cipher_seed, basis = choose_cipher_seed(
            np.random.default_rng([seed, index, 0]), width, height, WORKLOADS[workload].m_band
        )
        inputs.append({
            "name": f"img{index}",
            "width": width,
            "height": height,
            "cipher_seed": cipher_seed,
            "v0": list(basis.v0),
            "v1": list(basis.v1),
            "det": basis.det,
            "m": lattice_count(basis.v0, basis.v1, width, height),
        })
    return {"workload": workload, "seed": seed, "inputs": inputs}


def make_image(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """A colour ramp plus noise: uneven histograms, as in a photo."""
    fx, fy = (int(v) for v in rng.integers(1, 4, 2))
    ramp_x = (np.arange(width) * fx // 8).astype(np.uint8)[None, :, None]
    ramp_y = (np.arange(height) * fy // 8).astype(np.uint8)[:, None, None]
    offsets = rng.integers(0, 256, 3, dtype=np.uint8)
    pixels = ramp_y + ramp_x + offsets  # uint8 arithmetic wraps mod 256
    pixels += rng.integers(0, 48, pixels.shape, dtype=np.uint8)
    return pixels


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    height, width, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_input(inp: dict, rng: np.random.Generator, out: Path) -> dict:
    """Generate and write one image; return its manifest entry."""
    pixels = make_image(rng, inp["width"], inp["height"])
    path = out / f"{inp['name']}.ppm"
    write_ppm(path, pixels)
    return {**inp, "path": str(path), "channel_counts": sorted_channel_counts(pixels)}


def write_inputs(selection: dict, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    inputs = [
        write_input(inp, np.random.default_rng([selection["seed"], index, 1]), out)
        for index, inp in enumerate(selection["inputs"])
    ]
    warmup = write_input(WARMUP, np.random.default_rng(0), out)
    manifest = {**selection, "inputs": inputs, "warmup": warmup}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selection", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    write_inputs(json.loads(args.selection.read_text()), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
