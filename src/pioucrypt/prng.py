"""Deterministic pseudo-random sources for the pioucrypt pipeline.

Two generators drive all randomness: Xorshift1024* (pixel scrambling) and a
triple linear congruential generator, "TLCG" (lattice construction and
factorization start points). Both run as exact integer arithmetic, so
sequences are bit-exact across platforms; the sequence consumed by each caller
is part of the key-material contract. The Xorshift1024* state recurrence runs
on Python integers, 16 steps at a time in one 1024-bit integer, and its output
multiply is one uint64 array product, which wraps mod 2^64 exactly; the TLCG's
bulk draws are int64 arrays whose every product stays below 2^62.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidConfig, as_int

_MASK64 = (1 << 64) - 1

# Output multiplier of Xorshift1024*.
XS1024_MULTIPLIER = 0x106689D45497FDB5
_MULTIPLIER_U64 = np.uint64(XS1024_MULTIPLIER)


def _lanes(word: int) -> int:
    """word in each of the 16 lanes of 64 bits of a packed Xorshift1024 state."""
    return sum(word << (64 * lane) for lane in range(16))


# Masks of Xorshift1024.fill_u64's packed state: all 16 lanes, and in each
# lane the bits a shift by 31 left, 11 right, 30 right or 60 right keeps.
_ALL_LANES = _lanes(_MASK64)
_SHIFTED_31 = _lanes(_MASK64 ^ ((1 << 31) - 1))
_SHIFTED_11 = _lanes(_MASK64 >> 11)
_SHIFTED_30 = _lanes(_MASK64 >> 30)
_SHIFTED_60 = _lanes(_MASK64 >> 60)

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

    def next_u64(self) -> int:
        """Advance one step and return the next 64-bit output."""
        return int(self.fill_u64(1)[0])

    def fill_u64(self, count: int) -> np.ndarray:
        """Draw `count` outputs in one call, as uint64 (hot path for layer-1 keys).

        Step n writes the state word x_n = T(x_{n-16}) ^ U(x_{n-1}), with
        T(b) = c ^ (c >> 11) for c = b ^ (b << 31) mod 2^64 and
        U(a) = a ^ (a >> 30), and outputs x_n times the multiplier mod 2^64.
        The last 16 words are packed into one 1024-bit int, oldest in the
        lowest 64-bit lane, so 16 steps run as one:
        - T of every lane gives the T terms of the next 16 steps, and U of
          the newest word joins the first of them;
        - the U chain through them is a prefix scan over the lanes in four
          doublings: adding U^d of the lanes d below for d = 1, 2, 4, 8.
          Over GF(2), U^2(a) = a ^ (a >> 60) and U^4(a) = a ^ (a >> 120),
          which is a, since a shift past 63 empties a lane.

        The output multiply is one uint64 array product, which wraps mod 2^64
        exactly.
        """
        count = as_int(count, "count")
        if count < 0:
            raise InvalidConfig("count must be >= 0")
        start = (self.p + 1) & 15
        oldest_first = np.array(self.s[start:] + self.s[:start], np.uint64).tobytes()
        words = int.from_bytes(oldest_first, "little")
        blocks = [oldest_first]
        for _ in range(-(-count // 16)):
            c = words ^ ((words << 31) & _SHIFTED_31)
            c ^= (c >> 11) & _SHIFTED_11
            newest = words >> 960
            c ^= newest ^ (newest >> 30)
            d = (c << 64) & _ALL_LANES
            c ^= d ^ ((d >> 30) & _SHIFTED_30)
            d = (c << 128) & _ALL_LANES
            c ^= d ^ ((d >> 60) & _SHIFTED_60)
            c ^= (c << 256) & _ALL_LANES
            words = c ^ ((c << 512) & _ALL_LANES)
            blocks.append(words.to_bytes(128, "little"))
        sequence = np.frombuffer(b"".join(blocks), np.uint64)
        # the 16 words after `count` steps, back in ring order: the newest at p
        self.p = (self.p + count) & 15
        ring = sequence[count : count + 16].tolist()
        self.s = ring[15 - self.p :] + ring[: 15 - self.p]
        return sequence[16 : 16 + count] * _MULTIPLIER_U64

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the closed range [lo, hi]; always consumes one draw.

        Plain modulo mapping: the bias is negligible for the byte and index
        ranges used here and keeps the draw sequence trivially portable.

        No encrypt, decrypt, analyze or lattice run calls it: the layer-1 key
        draws through fill_u64. It stays because perfbench/tracing.py wraps
        it by name to count draws, and tests/test_layer1.py replays table
        draws through it. It can go once the benchmark takes its draw counts
        from a run report of the library (the ROADMAP's run-report item).
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
