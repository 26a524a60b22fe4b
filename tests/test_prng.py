"""Unit tests for the deterministic generators and the XOR bias law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    TLCG_PARAMETER_SETS,
    lcg_step,
    reference_expand,
    reference_step,
    scalar_units,
    traced_peak,
)
from pioucrypt.errors import InvalidConfig
from pioucrypt.pipeline import NMF_SEED_SALT
from pioucrypt.prng import (
    DEFAULT_TLCG_MODULUS,
    LcgParams,
    Tlcg,
    Xorshift1024,
    XS1024_MULTIPLIER,
    xor_bias_empirical,
    xor_bias_expected,
)


def test_seed_expansion_frozen_values():
    gen = Xorshift1024(0)
    assert gen.s[0] == 1442695040888963407
    assert gen.s[1] == 1876011003808476466
    assert gen.p == 0


def test_seed_expansion_matches_big_integer_oracle():
    for seed in (0, 1, 42, 2**64 - 1):
        gen = Xorshift1024(seed)
        assert gen.s == reference_expand(seed)
        assert gen.p == 0


def test_single_step_worked_example():
    gen = Xorshift1024.from_state(range(1, 17))
    out = gen.next_u64()
    assert gen.s[1] == 4297064451
    assert out == 13859315694294268191
    assert gen.p == 1


def test_multiplier_constant():
    assert XS1024_MULTIPLIER == 0x106689D45497FDB5 == 1181783497276652981


def test_thousand_step_oracle_equivalence():
    gen = Xorshift1024(7)
    words, index = list(gen.s), gen.p
    for _ in range(1000):
        expected, words, index = reference_step(words, index)
        assert gen.next_u64() == expected


def test_index_advances_mod_16():
    gen = Xorshift1024(3)
    for k in range(40):
        before = gen.p
        gen.next_u64()
        assert gen.p == (before + 1) & 15


def test_fill_matches_single_draws():
    a = Xorshift1024(99)
    b = Xorshift1024.from_state(a.s, a.p)
    assert a.fill_u64(57) == [b.next_u64() for _ in range(57)]
    assert a.s == b.s and a.p == b.p


def test_determinism_across_instances():
    assert Xorshift1024(11).fill_u64(200) == Xorshift1024(11).fill_u64(200)


def test_randint_singleton_consumes_one_draw():
    gen = Xorshift1024.from_state(range(1, 17))
    assert gen.randint(5, 5) == 5
    assert gen.p == 1
    assert gen.randint(0, 0) == 0
    assert gen.p == 2


def test_randint_modulo_mapping_frozen():
    gen = Xorshift1024.from_state(range(1, 17))
    assert gen.randint(0, 9) == 13859315694294268191 % 10


def test_lcg_params_validation():
    # the refused parameters are rows of the InvalidConfig table in test_pipeline.py
    params = LcgParams(16, 5, 3, 7)
    assert params.multiplier == 5


def test_tlcg_constant_streams_worked_example():
    streams = [LcgParams(DEFAULT_TLCG_MODULUS, 1, 0, s) for s in (4, 5, 6)]
    tlcg = Tlcg(streams)
    for _ in range(5):
        assert tlcg.randrange(0, 10) == 5


def test_tlcg_trivial_ranges():
    streams = [LcgParams(97, 13, 5, s) for s in (1, 2, 3)]
    tlcg = Tlcg(streams)
    assert all(tlcg.randrange(0, 1) == 0 for _ in range(10))
    assert all(tlcg.randrange(7, 8) == 7 for _ in range(10))


def test_tlcg_matches_direct_recurrence():
    for raw in TLCG_PARAMETER_SETS:
        tlcg = Tlcg([LcgParams(*p) for p in raw])
        values = [p[3] for p in raw]
        for _ in range(200):
            values = [lcg_step(x, a, c, m) for (m, a, c, _), x in zip(raw, values)]
            assert tlcg.randrange(10, 60) == sum(values) % 50 + 10


def test_tlcg_advances_all_streams_once():
    tlcg = Tlcg.from_seed(123)
    shadow = Tlcg.from_seed(123)
    tlcg.randrange(0, 1000)
    for k, stream in enumerate(shadow.streams):
        expected = lcg_step(shadow.values[k], stream.multiplier, stream.increment, stream.modulus)
        assert tlcg.values[k] == expected


def test_tlcg_from_seed_deterministic():
    a = Tlcg.from_seed(77)
    b = Tlcg.from_seed(77)
    assert [a.randrange(0, 10**6) for _ in range(50)] == [
        b.randrange(0, 10**6) for _ in range(50)
    ]


def test_next_units_in_half_open_interval():
    draws = Tlcg.from_seed(31).next_units(2000)
    assert draws.dtype == np.float64 and draws.shape == (2000,)
    assert np.all((draws > 0.0) & (draws <= 1.0))


# the pipeline's NMF seed for the largest master seed
SALTED_MAX_SEED = (2**64 - 1) ^ NMF_SEED_SALT


@pytest.mark.parametrize("seed", [0, SALTED_MAX_SEED])
def test_next_units_match_scalar_draws_at_fixed_seeds(seed):
    bulk = Tlcg.from_seed(seed)
    scalar = Tlcg.from_seed(seed)
    assert bulk.next_units(5000).tolist() == scalar_units(scalar, 5000)
    assert bulk.values == scalar.values


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, SALTED_MAX_SEED]), st.integers(0, 2**64 - 1)),
    count=st.integers(1, 5000),
)
def test_next_units_match_scalar_draws(seed, count):
    bulk = Tlcg.from_seed(seed)
    scalar = Tlcg.from_seed(seed)
    assert bulk.next_units(count).tolist() == scalar_units(scalar, count)
    assert bulk.values == scalar.values


def test_next_units_continue_custom_streams():
    # small and mixed moduli, and calls that continue one another
    raw = TLCG_PARAMETER_SETS[1]
    bulk = Tlcg([LcgParams(*p) for p in raw])
    scalar = Tlcg([LcgParams(*p) for p in raw])
    for count in (1, 2, 3, 700, 1):
        assert bulk.next_units(count).tolist() == scalar_units(scalar, count)
        assert bulk.values == scalar.values


def test_next_units_peak_is_two_count_long_arrays():
    # the sum and one stream buffer are alive together, then the sum and the
    # float result: the stream buffer is freed before the result is made
    units, peak = traced_peak(Tlcg.from_seed(3).next_units, 2**20)
    assert peak <= 2.1 * units.nbytes


def test_next_units_count_bounds():
    tlcg = Tlcg.from_seed(9)
    assert tlcg.next_units(0).shape == (0,)
    assert tlcg.values == Tlcg.from_seed(9).values
    with pytest.raises(ValueError):
        tlcg.next_units(-1)
    # int64 products stay exact only for moduli up to 2^31, which LcgParams holds
    assert LcgParams(2**31, 3, 1, 0).modulus == 2**31
    with pytest.raises(InvalidConfig, match=r"^modulus must satisfy 0 < m <= 2\^31$"):
        LcgParams(2**31 + 11, 3, 1, 0)


def test_xor_bias_expected_values():
    assert xor_bias_expected(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert xor_bias_expected(0.0, 0.0) == 0.0
    assert xor_bias_expected(0.3, 0.8) == pytest.approx(0.62, abs=1e-12)


def test_xor_bias_expected_symmetry_and_equal_mean_form():
    grid = [k / 10 for k in range(11)]
    for p in grid:
        for q in grid:
            assert xor_bias_expected(p, q) == pytest.approx(xor_bias_expected(q, p), abs=1e-15)
        assert xor_bias_expected(p, p) == pytest.approx(2 * p * (1 - p), abs=1e-15)


def test_xor_bias_distance_from_half_maximized_at_extremes():
    grid = [k / 10 for k in range(1, 10)]
    distances = {p: abs(xor_bias_expected(p, p) - 0.5) for p in grid}
    best = max(distances, key=distances.get)
    assert abs(best - 0.5) == max(abs(p - 0.5) for p in grid)


def test_xor_bias_empirical_degenerate_exact():
    rng = Xorshift1024(5)
    assert xor_bias_empirical(1.0, 1.0, 1000, rng) == 0.0
    assert xor_bias_empirical(1.0, 0.0, 1000, rng) == 1.0
    assert xor_bias_empirical(0.0, 0.0, 1000, rng) == 0.0


def test_xor_bias_empirical_three_sigma_property():
    rng = Xorshift1024(404)
    cases = [(0.2, 0.7, 200_000), (0.45, 0.45, 200_000), (0.9, 0.1, 100_000)]
    for p, q, n in cases:
        analytic = xor_bias_expected(p, q)
        mean = xor_bias_empirical(p, q, n, rng)
        bound = 3 * math.sqrt(analytic * (1 - analytic) / n)
        assert abs(mean - analytic) <= bound
