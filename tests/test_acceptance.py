"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at run time.
"""

import math
from contextlib import contextmanager

import numpy as np

from oracles import TLCG_PARAMETER_SETS, lcg_step, random_image, reference_expand, reference_step
from pioucrypt.lattice import (
    LatticeVectors,
    WindowSpec,
    generate_lattice_points,
    nmf_multiplicative,
)
from pioucrypt.layer1 import apply_swaps, generate_layer1_key
from pioucrypt.oea import key_weight, oea_decrypt, oea_encrypt
from pioucrypt.pipeline import (
    PipelineConfig,
    decrypt_pipeline,
    encrypt_pipeline,
    histogram,
    write_image,
)
from pioucrypt.prng import LcgParams, Tlcg, Xorshift1024, xor_bias_empirical, xor_bias_expected


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_c1_end_to_end_losslessness(tmp_path):
    with criterion("C1 end-to-end losslessness"):
        rng = np.random.default_rng(20240101)
        sizes = [(1, 1), (2, 3), (17, 5), (64, 64), (128, 128)]
        seeds = [3, 71, 0xDEADBEEF, 2**64 - 1]
        index = 0
        for width, height in sizes:
            for _ in range(5):
                index += 1
                src = tmp_path / f"img{index}.ppm"
                write_image(random_image(rng, width, height), src)
                for seed in seeds:
                    out_dir = tmp_path / f"run{index}_{seed}"
                    out_dir.mkdir()
                    bundle = encrypt_pipeline(src, PipelineConfig(seed=seed, out_dir=out_dir))
                    dec = out_dir / "dec.ppm"
                    decrypt_pipeline(*bundle.paths, out_path=dec)
                    assert dec.read_bytes() == src.read_bytes(), (
                        f"round trip mismatch at {width}x{height} seed {seed}"
                    )


def test_c2_lattice_count_reproduction():
    with criterion("C2 lattice count reproduction"):
        vectors = LatticeVectors((-40, -1), (18, -37))
        points = generate_lattice_points(vectors, WindowSpec(1000, 1000))
        count = points.shape[0]

        # independent brute-force enumeration over a generous index box
        det = abs(vectors.det)
        reach = (40 * 1000 + 37 * 1000) // det + 3
        brute = set()
        for n1 in range(-reach, reach + 1):
            for n2 in range(-reach, reach + 1):
                x = n1 * -40 + n2 * 18
                y = n1 * -1 + n2 * -37
                if 0 <= x < 1000 and 0 <= y < 1000:
                    brute.add((x, y))
        assert count == len(brute), f"enumeration {count} != brute force {len(brute)}"

        # externally pinned reference for this basis/window. 668 is not a
        # count but the area estimate w*h/|det| = 10^6 / 1498 = 667.56,
        # rounded; exact enumeration of the defined point set yields 675
        assert 666 <= count <= 670, (
            f"point count {count} (verified against brute force) is outside the "
            f"pinned 668 +/- 2 band"
        )


def test_c3_nmf_monotonicity_and_convergence():
    with criterion("C3 NMF monotonicity and convergence"):
        # 50 random non-negative matrices, shapes up to 200 x 2: error never
        # increases beyond the multiplicative slack plus the epsilon-guard
        # floor allowance
        for k in range(50):
            rng = np.random.default_rng(2000 + k)
            m = int(rng.integers(2, 201))
            V = rng.uniform(0.0, 100.0, (m, 2))
            history = []
            nmf_multiplicative(V, k, error_history=history)
            floor_slack = 1e-9 * float(np.linalg.norm(V))
            for step, (before, after) in enumerate(zip(history, history[1:])):
                assert after <= before * (1 + 1e-9) + floor_slack, (
                    f"matrix {k} ({m}x2): error rose {before} -> {after} at step {step}"
                )

        # exactly factorizable matrices reach relative error < 1e-4 within
        # the 500-iteration budget (rank-1 content at rank 2)
        convergence_cases = [np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])]
        for k in range(9):
            rng = np.random.default_rng(12000 + k)
            m = int(rng.integers(3, 21))
            col = rng.uniform(0.5, 5.0, m)
            convergence_cases.append(np.column_stack((col, col * rng.uniform(1.2, 3.0))))
        for index, V in enumerate(convergence_cases):
            history = []
            nmf_multiplicative(V, index, error_history=history)
            rel = history[-1] / float(np.linalg.norm(V))
            assert rel < 1e-4, f"case {index}: relative error {rel:.2e} after 500 iterations"


def test_c4_histogram_permutation_invariance():
    with criterion("C4 histogram permutation invariance"):
        rng = np.random.default_rng(777)
        for trial in range(20):
            width = int(rng.integers(1, 50))
            height = int(rng.integers(1, 50))
            image = random_image(rng, width, height)
            # the pass runs in place, so the plain counts are taken before it
            plain_report = histogram(image)
            cipher_report = histogram(apply_swaps(image, generate_layer1_key(Xorshift1024(trial), width, height)))
            for c, name in enumerate(("red", "green", "blue")):
                plain_counts = plain_report[c]
                cipher_counts = cipher_report[c]
                assert sum(plain_counts) == width * height
                assert sum(cipher_counts) == width * height
                assert sorted(plain_counts) == sorted(cipher_counts), (
                    f"trial {trial} channel {name}: bin multisets differ"
                )


def test_c5_oea_round_trip():
    with criterion("C5 OEA round trip"):
        import random as pyrandom

        rng = pyrandom.Random(424242)
        for trial in range(1000):
            key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
            plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(0, 2000)))
            cipher = oea_encrypt(plaintext, key)
            assert len(cipher.sc) == len(plaintext)
            redundancy = key_weight(key) % 10
            assert len(cipher.red1) == redundancy and len(cipher.red2) == redundancy
            assert oea_decrypt(cipher, key) == plaintext, f"trial {trial} failed"

        hand = oea_encrypt(b"Hi", b"A")
        assert hand.sc == "01"
        assert hand.se.tolist() == [-188]
        assert hand.so.tolist() == [105]
        assert hand.red1 == "00000"
        assert hand.red2.tolist() == [195] * 5


def test_c6_prng_oracle_equivalence():
    with criterion("C6 PRNG oracle equivalence"):
        gen = Xorshift1024(42)

        # independent transcription of the generator: seed expansion and step
        words, index = reference_expand(42), 0
        for k in range(1000):
            expected, words, index = reference_step(words, index)
            assert gen.next_u64() == expected, f"divergence at output {k}"

        # TLCG against direct recurrence arithmetic for three parameter sets
        for raw in TLCG_PARAMETER_SETS:
            tlcg = Tlcg([LcgParams(*p) for p in raw])
            values = [p[3] for p in raw]
            for _ in range(500):
                values = [lcg_step(v, a, c, m) for (m, a, c, _), v in zip(raw, values)]
                assert tlcg.randrange(0, 1000) == sum(values) % 1000


def test_c7_xor_bias_law():
    with criterion("C7 XOR bias law"):
        rng = Xorshift1024(2024)
        n = 10**6
        for p, q in ((0.3, 0.8), (0.1, 0.1), (0.5, 0.9)):
            analytic = xor_bias_expected(p, q)
            empirical = xor_bias_empirical(p, q, n, rng)
            bound = 3 * math.sqrt(analytic * (1 - analytic) / n)
            assert abs(empirical - analytic) <= bound, (
                f"(p={p}, q={q}): |{empirical:.6f} - {analytic:.6f}| > {bound:.6f}"
            )


def test_c8_pipeline_determinism(tmp_path):
    with criterion("C8 pipeline determinism"):
        rng = np.random.default_rng(31337)
        src = tmp_path / "img.ppm"
        write_image(random_image(rng, 33, 21), src)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        bundle_a = encrypt_pipeline(src, PipelineConfig(seed=0xC0FFEE, out_dir=dir_a))
        bundle_b = encrypt_pipeline(src, PipelineConfig(seed=0xC0FFEE, out_dir=dir_b))
        for path_a, path_b in zip(bundle_a.paths, bundle_b.paths):
            assert path_a.read_bytes() == path_b.read_bytes(), (
                f"bundle files differ: {path_a.name}"
            )
