"""Unit tests for lattice enumeration and the multiplicative factorization."""

import math

import numpy as np
import pytest

from pioucrypt.errors import (
    DegenerateVectors,
    EmptyMatrix,
    InvalidRange,
    ParseError,
    ShapeMismatch,
)
from pioucrypt.lattice import (
    FactorPair,
    LatticeVectors,
    NmfConfig,
    WindowSpec,
    derive_lattice_vectors,
    generate_lattice_points,
    nmf_multiplicative,
    parse_key_matrix,
    reconstruction_error,
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
            raise InvalidRange(f"empty range: [{lo}, {hi})")
        self.calls.append((lo, hi))
        return self.values.pop(0)


def brute_force_points(v0, v1, width, height):
    # independent enumeration: coarse index radius from a norm bound, then
    # a full grid sweep
    det = v0[0] * v1[1] - v0[1] * v1[0]
    r1 = (abs(v1[1]) * width + abs(v1[0]) * height) // abs(det) + 2
    r2 = (abs(v0[1]) * width + abs(v0[0]) * height) // abs(det) + 2
    n1, n2 = np.meshgrid(np.arange(-r1, r1 + 1), np.arange(-r2, r2 + 1), indexing="ij")
    xs = n1 * v0[0] + n2 * v1[0]
    ys = n1 * v0[1] + n2 * v1[1]
    mask = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    return sorted(zip(xs[mask].tolist(), ys[mask].tolist()), key=lambda p: (p[1], p[0]))


def test_window_and_vector_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 5)
    with pytest.raises(DegenerateVectors):
        LatticeVectors((1, 0), (2, 0))
    with pytest.raises(DegenerateVectors):
        LatticeVectors((0, 0), (0, 1))
    vectors = LatticeVectors((-40, -1), (18, -37))
    assert vectors.det == 1498


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
    with pytest.raises(DegenerateVectors):
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
        # the same lattice under a skewed basis, which enumeration reduces back
        k, j = (int(c) for c in skew_rng.integers(-10**6, 10**6, 2))
        (ax, ay), (bx, by) = vectors.v0, vectors.v1
        bx, by = bx + k * ax, by + k * ay
        skewed = LatticeVectors((ax + j * bx, ay + j * by), (bx, by))
        assert abs(skewed.det) == abs(vectors.det)
        points = generate_lattice_points(skewed, WindowSpec(width, height))
        assert [tuple(r) for r in points.tolist()] == oracle
        checked += 1


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


def test_nmf_config_validation():
    with pytest.raises(ValueError):
        NmfConfig(rank=0)
    with pytest.raises(ValueError):
        NmfConfig(max_iterations=0)
    with pytest.raises(ValueError):
        NmfConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        NmfConfig(tolerance=-1.0)


def test_nmf_rejects_empty_and_negative():
    with pytest.raises(EmptyMatrix):
        nmf_multiplicative(np.empty((0, 2)))
    with pytest.raises(ValueError):
        nmf_multiplicative(np.array([[1.0, -2.0]]))


def test_nmf_fixed_point_stays_put():
    rng = np.random.default_rng(3)
    W0 = rng.uniform(0.5, 2.0, (6, 2))
    H0 = rng.uniform(0.5, 2.0, (2, 2))
    V = W0 @ H0
    factors = nmf_multiplicative(V, NmfConfig(max_iterations=10, tolerance=0.0), init=(W0, H0))
    assert np.max(np.abs(factors.W - W0) / W0) < 1e-6
    assert np.max(np.abs(factors.H - H0) / H0) < 1e-6


def test_nmf_zero_matrix():
    history = []
    factors = nmf_multiplicative(np.zeros((5, 2)), NmfConfig(seed=4), error_history=history)
    assert history[-1] == 0.0
    assert np.all(factors.W >= 0) and np.all(factors.H >= 0)
    assert np.max(factors.W @ factors.H) == 0.0


def test_nmf_rank1_matrix_converges_and_matches_reference_loop():
    V = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    history = []
    nmf_multiplicative(V, NmfConfig(seed=11), error_history=history)
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
        factors = nmf_multiplicative(V, NmfConfig(seed=trial), error_history=history)
        floor_slack = 1e-9 * np.linalg.norm(V)
        for before, after in zip(history, history[1:]):
            assert after <= before * (1 + 1e-9) + floor_slack
        assert np.all(factors.W >= 0) and np.all(factors.H >= 0)


def test_nmf_deterministic():
    V = np.random.default_rng(7).uniform(0, 10, (40, 2))
    a = nmf_multiplicative(V, NmfConfig(seed=21))
    b = nmf_multiplicative(V, NmfConfig(seed=21))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)


def test_nmf_init_shape_checked():
    V = np.ones((4, 2))
    with pytest.raises(ShapeMismatch):
        nmf_multiplicative(V, NmfConfig(), init=(np.ones((3, 2)), np.ones((2, 2))))


def test_reconstruction_error_examples():
    V = np.array([[1.0]])
    assert reconstruction_error(V, np.array([[0.0]]), np.array([[0.0]])) == 1.0
    W0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    H0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert reconstruction_error(W0 @ H0, W0, H0) == 0.0
    with pytest.raises(ShapeMismatch):
        reconstruction_error(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))


def test_reconstruction_probe_row_product():
    W = np.array([[3.53299, 2.09400]])
    H = np.array([[2.67699, 6.99999], [8.69999, 4.47100]])
    product = W @ H
    assert product[0, 0] == pytest.approx(27.675557960099997, abs=1e-12)
    assert product[0, 1] == pytest.approx(34.0931686701, abs=1e-12)
    assert reconstruction_error(product, W, H) < 1e-12


def test_serialize_key_matrix_shapes_and_exact_text():
    assert serialize_key_matrix(np.zeros((668, 2))).splitlines()[0] == "PIOUW 668 2"
    assert serialize_key_matrix(np.array([[0.0, 0.0]])) == "PIOUW 1 2\n0.00000 0.00000\n"


def test_serialize_key_matrix_validation():
    with pytest.raises(ValueError):
        serialize_key_matrix(np.array([[-1.0, 2.0]]))
    with pytest.raises(ValueError):
        serialize_key_matrix(np.array([1.0, 2.0]))


def test_key_matrix_round_trip_at_quantized_precision():
    rng = np.random.default_rng(23)
    for _ in range(5):
        W = rng.uniform(0, 900, (int(rng.integers(1, 50)), 2))
        text = serialize_key_matrix(W)
        back = parse_key_matrix(text)
        assert np.max(np.abs(back - W)) <= 5e-6
        assert serialize_key_matrix(back) == text


def test_parse_key_matrix_errors():
    with pytest.raises(ParseError):
        parse_key_matrix("PIOUW 1 2\n0.10000 0.20000")  # missing newline
    with pytest.raises(ParseError):
        parse_key_matrix("WRONG 1 2\n0.10000 0.20000\n")
    with pytest.raises(ParseError):
        parse_key_matrix("PIOUW 2 2\n0.10000 0.20000\n")
    with pytest.raises(ParseError):
        parse_key_matrix("PIOUW 1 2\n0.10000\n")
    with pytest.raises(ParseError) as excinfo:
        parse_key_matrix("PIOUW 1 2\n-0.10000 0.20000\n")
    assert excinfo.value.line == 2


def test_factor_pair_is_named():
    pair = FactorPair(np.ones((2, 2)), np.ones((2, 2)))
    assert pair.W is pair[0] and pair.H is pair[1]
