"""Unit tests for the deterministic generators and the XOR bias law."""

import math

import pytest

from pioucrypt.errors import AllZeroState, InvalidRange
from pioucrypt.prng import (
    DEFAULT_TLCG_MODULUS,
    LcgParams,
    Tlcg,
    Xorshift1024,
    XS1024_MULTIPLIER,
    xor_bias_empirical,
    xor_bias_expected,
)

M64 = 2**64


def reference_expand(seed):
    # big-integer transcription of the seed expansion, kept independent of
    # the library implementation
    out = []
    x = seed
    for _ in range(16):
        x = (6364136223846793005 * x + 1442695040888963407) % M64
        out.append(x)
    return out


def lcg_step(x, multiplier, increment, modulus):
    return (multiplier * x + increment) % modulus


def reference_step(words, index):
    # step-by-step transcription of the published generator procedure
    words = list(words)
    s0 = words[index]
    index = (index + 1) % 16
    s1 = words[index]
    s1 = (s1 ^ (s1 << 31)) % M64
    s1 = s1 ^ s0 ^ (s1 >> 11) ^ (s0 >> 30)
    words[index] = s1
    return (s1 * 0x106689D45497FDB5) % M64, words, index


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


def test_seed_bounds_rejected():
    with pytest.raises(ValueError):
        Xorshift1024(-1)
    with pytest.raises(ValueError):
        Xorshift1024(2**64)


def test_all_zero_state_rejected():
    with pytest.raises(AllZeroState):
        Xorshift1024.from_state([0] * 16)


def test_from_state_validation():
    with pytest.raises(ValueError):
        Xorshift1024.from_state([1] * 15)
    with pytest.raises(ValueError):
        Xorshift1024.from_state([1] * 16, index=16)
    with pytest.raises(ValueError):
        Xorshift1024.from_state([2**64] + [0] * 15)


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


def test_randint_empty_range():
    gen = Xorshift1024(1)
    with pytest.raises(InvalidRange):
        gen.randint(6, 5)


def test_lcg_params_validation():
    params = LcgParams(16, 5, 3, 7)
    assert params.multiplier == 5
    with pytest.raises(ValueError):
        LcgParams(0, 1, 0, 0)
    with pytest.raises(ValueError):
        LcgParams(16, 0, 3, 7)
    with pytest.raises(ValueError):
        LcgParams(16, 16, 3, 7)
    with pytest.raises(ValueError):
        LcgParams(16, 5, 16, 7)
    with pytest.raises(ValueError):
        LcgParams(16, 5, 3, 16)


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


def test_tlcg_empty_range():
    tlcg = Tlcg.from_seed(5)
    with pytest.raises(InvalidRange):
        tlcg.randrange(5, 5)
    with pytest.raises(InvalidRange):
        tlcg.randrange(6, 2)


def test_tlcg_matches_direct_recurrence():
    parameter_sets = [
        [(2**31 - 1, 16807, 12345, 42), (2**31 - 1, 48271, 67891, 7), (97, 13, 5, 1)],
        [(2**16 + 1, 75, 74, 1), (2**31 - 1, 69621, 0, 9), (101, 7, 3, 55)],
        [(10**9 + 7, 123456, 654321, 111), (9973, 8, 1, 0), (2**31 - 1, 16807, 1, 3)],
    ]
    for raw in parameter_sets:
        streams = [LcgParams(*p) for p in raw]
        tlcg = Tlcg(streams)
        values = [p[3] for p in raw]
        for _ in range(200):
            values = [(a * x + c) % m for (m, a, c, _), x in zip(raw, values)]
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


def test_next_unit_in_half_open_interval():
    tlcg = Tlcg.from_seed(31)
    draws = [tlcg.next_unit() for _ in range(2000)]
    assert all(0.0 < u <= 1.0 for u in draws)


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


def test_xor_bias_expected_domain():
    with pytest.raises(ValueError):
        xor_bias_expected(-0.1, 0.5)
    with pytest.raises(ValueError):
        xor_bias_expected(0.5, 1.1)


def test_xor_bias_empirical_degenerate_exact():
    rng = Xorshift1024(5)
    assert xor_bias_empirical(1.0, 1.0, 1000, rng) == 0.0
    assert xor_bias_empirical(1.0, 0.0, 1000, rng) == 1.0
    assert xor_bias_empirical(0.0, 0.0, 1000, rng) == 0.0


def test_xor_bias_empirical_tracks_analytic_value():
    rng = Xorshift1024(2024)
    mean = xor_bias_empirical(0.3, 0.8, 10**6, rng)
    assert abs(mean - 0.62) <= 0.003


def test_xor_bias_empirical_sample_count_validation():
    with pytest.raises(ValueError):
        xor_bias_empirical(0.5, 0.5, 0, Xorshift1024(1))


def test_xor_bias_empirical_three_sigma_property():
    rng = Xorshift1024(404)
    cases = [(0.2, 0.7, 200_000), (0.45, 0.45, 200_000), (0.9, 0.1, 100_000)]
    for p, q, n in cases:
        analytic = xor_bias_expected(p, q)
        mean = xor_bias_empirical(p, q, n, rng)
        bound = 3 * math.sqrt(analytic * (1 - analytic) / n)
        assert abs(mean - analytic) <= bound
