"""Unit tests for lattice enumeration and the multiplicative factorization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_points,
    buffered_nmf,
    membership_points,
    per_entry_key_text,
    temporaries_nmf,
    traced_peak,
)
import pioucrypt
from pioucrypt import _text
from pioucrypt.errors import InvalidConfig, PiouCryptError
from pioucrypt.lattice import (
    _NMF_BLOCK_COLUMNS,
    FactorPair,
    LatticeVectors,
    WindowSpec,
    derive_lattice_vectors,
    generate_lattice_points,
    nmf_multiplicative,
    serialize_key_matrix,
    vector_component_bound,
)
from pioucrypt.prng import Tlcg


class ScriptedDraws:
    """Stand-in stream that returns pre-scripted draw values."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def randrange(self, lo, hi):
        if hi <= lo:
            raise InvalidConfig(f"empty range: [{lo}, {hi})")
        self.calls.append((lo, hi))
        return self.values.pop(0)


def test_window_and_vector_validation():
    # the refused windows and bases are rows of the InvalidConfig table in test_pipeline.py
    assert LatticeVectors((-40, -1), (18, -37)).det == 1498


@pytest.mark.parametrize(
    "v0,v1,width,height,count",
    [
        ((0, 2**70), (2**70, 0), 5, 5, 1),
        ((2**63, 1), (0, -(2**63)), 5, 5, 1),
        ((7, 2**64), (2**64, 3), 5, 5, 1),
        ((1, 1), (2**70, 0), 7, 9, 7),
        ((5, 1), (3, 2**63 + 7), 40, 40, 8),
        ((2, 3), (2**66, 2**65 + 1), 30, 30, 10),
    ],
    ids=["axes", "int64-ends", "skewed", "one-a-row", "few-rows", "two-a-row"],
)
def test_basis_past_int64_enumerates(v0, v1, width, height, count):
    # the basis and its determinant are past int64, the points in the window are not
    points = generate_lattice_points(LatticeVectors(v0, v1), WindowSpec(width, height))
    assert points.dtype == np.int64
    assert points.tolist() == membership_points(v0, v1, width, height)
    assert len(points) == count


def test_component_bound():
    assert vector_component_bound(WindowSpec(1000, 1000)) == 40
    assert vector_component_bound(WindowSpec(10, 10)) == 4
    assert vector_component_bound(WindowSpec(100, 100)) == 4
    assert vector_component_bound(WindowSpec(126, 20)) == 6


def test_derive_rejects_collinear_then_accepts():
    stub = ScriptedDraws([1, 0, 2, 0, 1, 0, 0, 1])
    vectors = derive_lattice_vectors(stub, WindowSpec(1000, 1000))
    assert vectors == LatticeVectors((1, 0), (0, 1))
    assert len(stub.calls) == 8
    assert all(call == (-40, 41) for call in stub.calls)


def test_derive_rejects_zero_vector():
    stub = ScriptedDraws([0, 0, 0, 1, 3, 1, 1, 2])
    vectors = derive_lattice_vectors(stub, WindowSpec(50, 50))
    assert vectors == LatticeVectors((3, 1), (1, 2))


def test_derive_gives_up_after_64_attempts():
    stub = ScriptedDraws([1, 0, 2, 0] * 64)
    with pytest.raises(InvalidConfig):
        derive_lattice_vectors(stub, WindowSpec(10, 10))
    assert len(stub.calls) == 256


def test_derive_from_real_stream_is_deterministic():
    window = WindowSpec(128, 64)
    first = derive_lattice_vectors(Tlcg.from_seed(5), window)
    second = derive_lattice_vectors(Tlcg.from_seed(5), window)
    assert first == second
    bound = vector_component_bound(window)
    for component in (*first.v0, *first.v1):
        assert -bound <= component <= bound


def test_unit_lattice_fills_window():
    points = generate_lattice_points(LatticeVectors((1, 0), (0, 1)), WindowSpec(10, 10))
    assert points.shape == (100, 2)


def test_even_lattice_count():
    points = generate_lattice_points(LatticeVectors((2, 0), (0, 2)), WindowSpec(10, 10))
    assert points.shape[0] == 25
    assert np.all(points % 2 == 0)


def test_reference_basis_count_matches_brute_force():
    vectors = LatticeVectors((-40, -1), (18, -37))
    points = generate_lattice_points(vectors, WindowSpec(1000, 1000))
    oracle = brute_force_points(vectors.v0, vectors.v1, 1000, 1000)
    assert [tuple(row) for row in points.tolist()] == oracle
    assert points.shape[0] == 675


def test_points_sorted_unique_in_window():
    vectors = LatticeVectors((3, -2), (-1, 4))
    window = WindowSpec(37, 23)
    points = generate_lattice_points(vectors, window)
    rows = [tuple(r) for r in points.tolist()]
    assert rows == sorted(set(rows), key=lambda p: (p[1], p[0]))
    assert all(0 <= x < 37 and 0 <= y < 23 for x, y in rows)


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(42)
    skew_rng = np.random.default_rng(43)
    checked = 0
    while checked < 200:
        comps = rng.integers(-6, 7, 4)
        det = comps[0] * comps[3] - comps[1] * comps[2]
        if det == 0:
            continue
        width = int(rng.integers(1, 41))
        height = int(rng.integers(1, 41))
        vectors = LatticeVectors((int(comps[0]), int(comps[1])), (int(comps[2]), int(comps[3])))
        points = generate_lattice_points(vectors, WindowSpec(width, height))
        oracle = brute_force_points(vectors.v0, vectors.v1, width, height)
        assert [tuple(r) for r in points.tolist()] == oracle
        # the same lattice under a skewed basis gives the same points
        k, j = (int(c) for c in skew_rng.integers(-10**6, 10**6, 2))
        (ax, ay), (bx, by) = vectors.v0, vectors.v1
        bx, by = bx + k * ax, by + k * ay
        skewed = LatticeVectors((ax + j * bx, ay + j * by), (bx, by))
        assert abs(skewed.det) == abs(vectors.det)
        points = generate_lattice_points(skewed, WindowSpec(width, height))
        assert [tuple(r) for r in points.tolist()] == oracle
        checked += 1


def test_unit_lattice_peak_memory_is_one_and_a_half_results():
    # each column is filled through one temporary of m values at a time
    unit = LatticeVectors((1, 0), (0, 1))
    points, peak = traced_peak(generate_lattice_points, unit, WindowSpec(1024, 1024))
    assert points.shape == (1024 * 1024, 2)
    assert peak <= 1.6 * points.nbytes


def test_point_count_respects_area_bound():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 50:
        comps = rng.integers(-8, 9, 4)
        det = comps[0] * comps[3] - comps[1] * comps[2]
        if det == 0 or (comps[0] == 0 and comps[1] == 0) or (comps[2] == 0 and comps[3] == 0):
            continue
        width = int(rng.integers(10, 80))
        height = int(rng.integers(10, 80))
        vectors = LatticeVectors((int(comps[0]), int(comps[1])), (int(comps[2]), int(comps[3])))
        count = generate_lattice_points(vectors, WindowSpec(width, height)).shape[0]
        shortest = min(math.hypot(*vectors.v0), math.hypot(*vectors.v1))
        slack = abs(det) * (2 * (width + height) / shortest + 4)
        assert abs(count * abs(det) - width * height) <= slack
        checked += 1


def test_nmf_rejects_empty_and_negative():
    with pytest.raises(InvalidConfig):
        nmf_multiplicative(np.empty((0, 2)), 0)
    with pytest.raises(ValueError):
        nmf_multiplicative(np.array([[1.0, -2.0]]), 0)
    for data, seed in (
        (np.array([[1.0, -2.0]]), 0),
        (np.array([[np.inf]]), 0),
        (np.ones((2, 2)), -1),
    ):
        with pytest.raises(PiouCryptError):
            nmf_multiplicative(data, seed)


def test_nmf_takes_integer_points_as_they_are():
    # the pipeline passes its int64 points without a float64 copy
    points = generate_lattice_points(LatticeVectors((3, 1), (-1, 2)), WindowSpec(300, 200))
    assert points.dtype == np.int64
    int_history, float_history = [], []
    a = nmf_multiplicative(points, 9, error_history=int_history)
    b = nmf_multiplicative(points.astype(np.float64), 9, error_history=float_history)
    assert a.W.tobytes() == b.W.tobytes()
    assert a.H.tobytes() == b.H.tobytes()
    assert int_history == float_history
    with pytest.raises(InvalidConfig):
        nmf_multiplicative(np.empty((0, 2), np.int64), 0)
    with pytest.raises(InvalidConfig):
        nmf_multiplicative(np.array([[1, -2]]), 0)


def test_nmf_zero_matrix():
    history = []
    factors = nmf_multiplicative(np.zeros((5, 2)), 4, error_history=history)
    assert history[-1] == 0.0
    assert np.all(factors.W >= 0) and np.all(factors.H >= 0)
    assert np.max(factors.W @ factors.H) == 0.0


def test_nmf_rank1_matrix_converges_and_matches_reference_loop():
    V = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    history = []
    nmf_multiplicative(V, 11, error_history=history)
    assert history[-1] / np.linalg.norm(V) < 1e-4

    # independent plain-numpy reference of the same multiplicative procedure
    ref_rng = np.random.default_rng(0)
    W = ref_rng.uniform(0.01, 1.0, (4, 2))
    H = ref_rng.uniform(0.01, 1.0, (2, 2))
    for _ in range(500):
        H = H * (W.T @ V) / (W.T @ W @ H + 1e-9)
        W = W * (V @ H.T) / (W @ H @ H.T + 1e-9)
    assert np.linalg.norm(V - W @ H) / np.linalg.norm(V) < 1e-4


def test_nmf_error_monotone_and_nonnegative():
    # multiplicative slack while the error is large, plus an absolute
    # allowance at the epsilon-guard floor where the error sits at ~1e-9
    rng = np.random.default_rng(17)
    for trial in range(12):
        m = int(rng.integers(2, 120))
        V = rng.uniform(0.0, 50.0, (m, 2))
        history = []
        factors = nmf_multiplicative(V, trial, error_history=history)
        floor_slack = 1e-9 * np.linalg.norm(V)
        for before, after in zip(history, history[1:]):
            assert after <= before * (1 + 1e-9) + floor_slack
        assert np.all(factors.W >= 0) and np.all(factors.H >= 0)


def test_nmf_deterministic():
    V = np.random.default_rng(7).uniform(0, 10, (40, 2))
    a = nmf_multiplicative(V, 21)
    b = nmf_multiplicative(V, 21)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)


def assert_factor_shape(factors, V):
    m, n = V.shape
    assert factors.W.shape == (m, 2) and factors.W.flags.c_contiguous
    assert factors.H.shape == (2, n)
    assert np.all(factors.W >= 0) and np.all(factors.H >= 0)


# The loop runs its products over the transposed factors, and past one block
# it sums its Gram matrix block by block, so its sums round differently from
# the oracle's, by a relative 1e-10 or less after 500 steps; the bound leaves
# room for that and stays far below the key text's 5 decimals. Where the error sits at its floor, that noise can move the step
# at which the relative change first falls under the tolerance, so the values
# are compared with the oracle run for the loop's own number of steps.
NMF_RTOL = 1e-8

BLOCK = _NMF_BLOCK_COLUMNS


def assert_same_bits(factors, history, expected):
    W, H, expected_history = expected
    assert factors.W.tobytes() == W.tobytes()
    assert factors.H.tobytes() == H.tobytes()
    assert history == expected_history


def assert_nmf_follows_temporaries(V, seed):
    """Check the factors against the oracle run for as many steps; return
    them with the loop's error history."""
    history = []
    factors = nmf_multiplicative(V, seed, error_history=history)
    assert_factor_shape(factors, V)
    W, H, _ = temporaries_nmf(V, seed, steps=len(history) - 1)
    np.testing.assert_allclose(factors.W, W, rtol=NMF_RTOL, atol=0)
    np.testing.assert_allclose(factors.H, H, rtol=NMF_RTOL, atol=0)
    return factors, history


def assert_nmf_key_matches_temporaries(V, seed):
    factors, history = assert_nmf_follows_temporaries(V, seed)
    W, _, expected = temporaries_nmf(V, seed)
    assert serialize_key_matrix(factors.W) == serialize_key_matrix(W)
    return history, expected


# The last two sizes end on a one-column block and on a partial block.
@pytest.mark.parametrize("m", [1, 2, 10, 3000, BLOCK + 1, 2 * BLOCK + 5])
def test_nmf_matches_temporaries_loop_on_lattice_points(m):
    # the pipeline's shape: integer (x, y) coordinates, rank 2, 500 steps
    V = np.random.default_rng(m).integers(0, 2048, (m, 2)).astype(np.float64)
    history, expected = assert_nmf_key_matches_temporaries(V, m)
    assert len(history) == len(expected)


# A seed for each row count at which the factorization of an all-ones matrix
# stops before its last step, on a relative change that is below the
# tolerance but not zero. The step itself follows last-bit noise: at m = 3000
# the oracle stops after 243 steps and the loop after 407.
EARLY_STOP_SEEDS = {1: 30, 2: 3, 10: 0, 3000: 0}


@pytest.mark.parametrize("m", [1, 2, 10, 3000])
def test_nmf_matches_temporaries_loop_when_it_stops_early(m):
    V, seed = np.ones((m, 2)), EARLY_STOP_SEEDS[m]
    factors, history = assert_nmf_follows_temporaries(V, seed)
    assert len(history) < 501
    assert 0 < abs(history[-2] - history[-1]) / history[-2] < 1e-9
    # the stop step follows last-bit noise, so it is also a check on the bits
    assert_same_bits(factors, history, buffered_nmf(V, seed))


# Within one block of the sweep its products are the buffered loop's, so the
# factors and the error history keep their bits.
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 10, 3000, BLOCK - 1, BLOCK])
def test_nmf_sweep_keeps_the_buffered_loop_bits_within_one_block(m, n):
    V = np.random.default_rng(10 * m + n).integers(0, 2048, (m, n))
    history = []
    factors = nmf_multiplicative(V, m + n, error_history=history)
    assert_same_bits(factors, history, buffered_nmf(V, m + n))


# Past one block the sweep adds the blocks' Gram matrices and squared errors
# in block order, and that is all that moves its bits from the buffered
# loop's, here on three blocks. (A one-column block is left out: numpy rounds
# a product with a single column differently.)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nmf_sweep_sums_its_blocks_in_order(n):
    m = 2 * BLOCK + 5
    V = np.random.default_rng(n).integers(0, 2048, (m, n))
    history = []
    factors = nmf_multiplicative(V, n, error_history=history)
    assert_same_bits(factors, history, buffered_nmf(V, n, block=BLOCK))


# Prints the sha256 of the error history of the golden 256x256 seed-24 input:
# m = 22,016 points, so its blocks' squared residuals are 32,768 and 11,264
# values.
_ERROR_HISTORY_DIGEST = """
import hashlib
import numpy as np
from pioucrypt.lattice import WindowSpec, derive_lattice_vectors, generate_lattice_points, nmf_multiplicative
from pioucrypt.pipeline import NMF_SEED_SALT
from pioucrypt.prng import Tlcg
window = WindowSpec(256, 256)
points = generate_lattice_points(derive_lattice_vectors(Tlcg.from_seed(24), window), window)
assert len(points) == 22016
history = []
nmf_multiplicative(points, 24 ^ NMF_SEED_SALT, error_history=history)
print(hashlib.sha256(np.array(history).tobytes()).hexdigest())
"""


def test_nmf_error_history_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10,000 values over its threads
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(pioucrypt.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", _ERROR_HISTORY_DIGEST], capture_output=True, text=True, env=env, timeout=300
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


def test_nmf_matches_temporaries_loop_on_zero_matrix():
    # the error reaches exactly 0, so the stop fires on a zero relative change
    V = np.zeros((2, 2))
    history = []
    factors = nmf_multiplicative(V, 4, error_history=history)
    assert_factor_shape(factors, V)
    assert_same_bits(factors, history, temporaries_nmf(V, 4))


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2, 10, 3000]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_nmf_matches_temporaries_loop(m, n, seed, data_seed):
    V = np.random.default_rng(data_seed).integers(0, 2048, (m, n)).astype(np.float64)
    assert_nmf_key_matches_temporaries(V, seed)


def test_reconstruction_probe_row_product():
    W = np.array([[3.53299, 2.09400]])
    H = np.array([[2.67699, 6.99999], [8.69999, 4.47100]])
    product = W @ H
    assert product[0, 0] == pytest.approx(27.675557960099997, abs=1e-12)
    assert product[0, 1] == pytest.approx(34.0931686701, abs=1e-12)
    assert np.linalg.norm(product - W @ H) < 1e-12


def test_serialize_key_matrix_shapes_and_exact_text():
    assert serialize_key_matrix(np.zeros((668, 2))).splitlines()[0] == b"PIOUW 668 2"
    assert serialize_key_matrix(np.array([[0.0, 0.0]])) == b"PIOUW 1 2\n0.00000 0.00000\n"


# 0.0, -0.0, and odd multiples of 2^-6, which lie exactly halfway between
# two 5-decimal values
KEY_TEXT_EDGES = [0.0, -0.0, 1 / 64, 3 / 64, 0.5 + 5 / 64, 1234 + 9 / 64, 5e-6, 4.999995]


ROWS = _text.FORMAT_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, ROWS, ROWS + 3, 2 * ROWS])
def test_key_text_matches_per_entry_format(rows):
    rng = np.random.default_rng(rows)
    W = rng.uniform(0.0, 2100.0, (rows, 2))
    W.ravel()[: len(KEY_TEXT_EDGES)] = KEY_TEXT_EDGES[: W.size]
    W[-1, -1] = -0.0
    assert serialize_key_matrix(W) == per_entry_key_text(W)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.one_of(st.sampled_from(KEY_TEXT_EDGES), st.floats(0.0, 1e7)),
                min_size=cols,
                max_size=cols,
            ),
            min_size=1,
            max_size=20,
        )
    )
)
def test_key_text_matches_per_entry_format_on_any_entries(rows):
    W = np.array(rows, dtype=np.float64)
    assert serialize_key_matrix(W) == per_entry_key_text(W)


def test_serialize_key_matrix_validation():
    with pytest.raises(ValueError):
        serialize_key_matrix(np.array([[-1.0, 2.0]]))
    with pytest.raises(ValueError):
        serialize_key_matrix(np.array([1.0, 2.0]))


def test_factor_pair_is_named():
    pair = FactorPair(np.ones((2, 2)), np.ones((2, 2)))
    assert pair.W is pair[0] and pair.H is pair[1]


@pytest.mark.parametrize("m", [1, 16_383, 16_384, 16_385, 32_773])
def test_start_point_drawn_a_block_at_a_time_is_one_draw(m):
    # the factorization draws W one block of points at a time; each call
    # continues the stream, so the values and the streams' end are those of
    # one next_units(2m)
    whole, blocked = Tlcg.from_seed(m), Tlcg.from_seed(m)
    expected = whole.next_units(2 * m)
    parts = [
        blocked.next_units(2 * (min(lo + _NMF_BLOCK_COLUMNS, m) - lo))
        for lo in range(0, m, _NMF_BLOCK_COLUMNS)
    ]
    assert np.array_equal(np.concatenate(parts), expected)
    assert blocked.values == whole.values
