"""Deterministic pseudo-random sources for the pioucrypt pipeline.

Two generators drive all randomness: Xorshift1024* (pixel scrambling) and a
triple linear congruential generator, "TLCG" (lattice construction and
factorization start points). Both run as exact integer arithmetic -- plain
Python integers, and for the TLCG's bulk draws int64 numpy arrays whose every
product stays below 2^62 -- so sequences are bit-exact across platforms; the
sequence consumed by each caller is part of the key-material contract.

The module also carries the XOR bias law for independent biased bits, used to
sanity-check the generators' bit streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidConfig, as_int

_MASK64 = (1 << 64) - 1

# Output multiplier of Xorshift1024*.
XS1024_MULTIPLIER = 0x106689D45497FDB5

# Mixed congruential step (mod 2^64) used to expand one seed word into the
# 16-word generator state.
SEED_EXPAND_MULTIPLIER = 6364136223846793005
SEED_EXPAND_INCREMENT = 1442695040888963407


def as_seed(value) -> int:
    """value as a Python int seed in 0..2^64 - 1, the range of every master seed."""
    seed = as_int(value, "seed")
    if not 0 <= seed <= _MASK64:
        raise InvalidConfig("seed must fit in an unsigned 64-bit integer")
    return seed


class Xorshift1024:
    """Xorshift1024*: 16 words of 64-bit state with a star output scrambler.

    One instance must be advanced by a single logical owner at a time;
    independent instances can run concurrently.
    """

    __slots__ = ("s", "p")

    def __init__(self, seed: int):
        x = as_seed(seed)
        # the increment is odd, so no step maps 0 to 0 and the state is never all zero
        state = []
        for _ in range(16):
            x = (SEED_EXPAND_MULTIPLIER * x + SEED_EXPAND_INCREMENT) & _MASK64
            state.append(x)
        self.s = state
        self.p = 0

    @classmethod
    def from_state(cls, words: Sequence[int], index: int = 0) -> "Xorshift1024":
        """Build a generator from 16 explicit state words and a word index."""
        words = [as_int(w, "state word") for w in words]
        index = as_int(index, "state index")
        if len(words) != 16 or not all(0 <= w <= _MASK64 for w in words):
            raise InvalidConfig("state must be 16 unsigned 64-bit words")
        if not any(words):
            raise InvalidConfig("the all-zero state is absorbing")
        if not 0 <= index <= 15:
            raise InvalidConfig("state index must be in 0..15")
        gen = cls.__new__(cls)
        gen.s = words
        gen.p = index
        return gen

    def next_u64(self) -> int:
        """Advance one step and return the next 64-bit output."""
        return self.fill_u64(1)[0]

    def fill_u64(self, count: int) -> list[int]:
        """Draw `count` outputs in one call (hot path for layer-1 keys and the bias checks)."""
        count = as_int(count, "count")
        if count < 0:
            raise InvalidConfig("count must be >= 0")
        s = self.s
        p = self.p
        mask = _MASK64
        mult = XS1024_MULTIPLIER
        out = [0] * count
        for k in range(count):
            s0 = s[p]
            p = (p + 1) & 15
            s1 = s[p]
            s1 ^= (s1 << 31) & mask
            s1 ^= s0 ^ (s1 >> 11) ^ (s0 >> 30)
            s[p] = s1
            out[k] = (s1 * mult) & mask
        self.p = p
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the closed range [lo, hi]; always consumes one draw.

        Plain modulo mapping: the bias is negligible for the byte and index
        ranges used here and keeps the draw sequence trivially portable.
        """
        lo, hi = as_int(lo, "lo"), as_int(hi, "hi")
        if lo > hi:
            raise InvalidConfig(f"empty range: lo={lo} > hi={hi}")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class LcgParams:
    """One congruential stream configuration: x -> (a*x + c) mod m, 0 < m <= 2^31.

    The modulus bound keeps every product of the TLCG's bulk draws exact in int64.
    """

    modulus: int
    multiplier: int
    increment: int
    seed: int

    def __post_init__(self):
        for name in ("modulus", "multiplier", "increment", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not 0 < self.modulus <= 1 << 31:
            raise InvalidConfig("modulus must satisfy 0 < m <= 2^31")
        if not 0 < self.multiplier < self.modulus:
            raise InvalidConfig("multiplier must satisfy 0 < a < m")
        if not 0 <= self.increment < self.modulus:
            raise InvalidConfig("increment must satisfy 0 <= c < m")
        if not 0 <= self.seed < self.modulus:
            raise InvalidConfig("seed must satisfy 0 <= x < m")


DEFAULT_TLCG_MODULUS = 2**31 - 1
DEFAULT_TLCG_MULTIPLIERS = (16807, 48271, 69621)
DEFAULT_TLCG_INCREMENTS = (12345, 67891, 1013904223)

# Per-stream seed offsets so one master seed yields three distinct streams.
_STREAM_SEED_OFFSETS = (0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35)


class Tlcg:
    """Three independent congruential streams, summed then range-reduced.

    `randrange(lo, hi)` is half-open: the reduction modulus is `hi - lo`, so
    `hi` itself is never produced. Callers that need an inclusive upper bound
    pass `hi + 1`.
    """

    __slots__ = ("streams", "values")

    def __init__(self, streams: Iterable[LcgParams]):
        streams = tuple(streams)
        if len(streams) != 3 or not all(isinstance(s, LcgParams) for s in streams):
            raise InvalidConfig("Tlcg needs exactly three LcgParams streams")
        self.streams = streams
        self.values = [s.seed for s in streams]

    @classmethod
    def from_seed(cls, seed: int) -> "Tlcg":
        """Derive the three default streams' seeds from a single master seed in 0..2^64 - 1."""
        seed = as_seed(seed)
        m = DEFAULT_TLCG_MODULUS
        return cls(
            LcgParams(m, a, c, (seed + off) % m)
            for a, c, off in zip(
                DEFAULT_TLCG_MULTIPLIERS, DEFAULT_TLCG_INCREMENTS, _STREAM_SEED_OFFSETS
            )
        )

    def randrange(self, lo: int, hi: int) -> int:
        """Value in [lo, hi); advances all three streams exactly once."""
        lo, hi = as_int(lo, "lo"), as_int(hi, "hi")
        if hi <= lo:
            raise InvalidConfig(f"empty range: [{lo}, {hi})")
        total = 0
        for k, st in enumerate(self.streams):
            v = (st.multiplier * self.values[k] + st.increment) % st.modulus
            self.values[k] = v
            total += v
        return total % (hi - lo) + lo

    def next_units(self, count: int) -> np.ndarray:
        """`count` uniform draws in (0, 1] with 24-bit resolution.

        Draw k is (randrange(0, 2^24) + 1) * 2^-24 for the k-th scalar draw,
        and the streams end where `count` scalar draws leave them. Each
        stream's values come from doubling its jump-ahead map
        x -> A*x + C (mod m) over int64 arrays: LcgParams holds m <= 2^31, so
        every product stays below 2^62.
        """
        count = as_int(count, "count")
        if count < 0:
            raise InvalidConfig("count must be >= 0")
        if count == 0:
            return np.empty(0)
        total = np.zeros(count, dtype=np.int64)
        xs = np.empty(count, dtype=np.int64)
        for k, st in enumerate(self.streams):
            xs[0] = (st.multiplier * self.values[k] + st.increment) % st.modulus
            # (a, c) maps x_i to x_{i+done}
            a, c, done = st.multiplier, st.increment, 1
            while done < count:
                step = min(done, count - done)
                np.multiply(xs[:step], a, out=xs[done : done + step])
                xs[done : done + step] += c
                xs[done : done + step] %= st.modulus
                a, c = a * a % st.modulus, (a * c + c) % st.modulus
                done += step
            self.values[k] = int(xs[-1])
            total += xs
        # freed before the float result, so the peak is two count-long arrays
        del xs
        total %= 1 << 24
        total += 1
        return total * 2.0**-24


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidConfig(f"{name} must lie in [0, 1], got {value}")


def xor_bias_expected(p: float, q: float) -> float:
    """Expected value of X xor Y for independent bits with means p and q."""
    _check_unit(p, "p")
    _check_unit(q, "q")
    return p + q - 2.0 * p * q


def xor_bias_empirical(p: float, q: float, n: int, rng: Xorshift1024) -> float:
    """Empirical mean of X xor Y over n independent bit pairs.

    Bits come from thresholding generator outputs mapped to [0, 1) at 53-bit
    resolution; each pair consumes the X draw first, then the Y draw.
    """
    _check_unit(p, "p")
    _check_unit(q, "q")
    if n < 1:
        raise InvalidConfig("sample count must be >= 1")
    draws = np.array(rng.fill_u64(2 * n), dtype=np.uint64)
    u = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53
    x = u[0::2] < p
    y = u[1::2] < q
    return float(np.mean(x != y))
