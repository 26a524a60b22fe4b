"""Lattice-point generation and the factorization that yields the layer-2 key.

An integer basis pair is drawn from the TLCG, every lattice point inside the
image-sized window is enumerated row by row from the basis's Hermite normal
form into an m x 2 matrix of (x, y) coordinates in (y, x) order, and that
matrix is factorized into non-negative W (m x rank) and H (rank x n) by
multiplicative updates. The serialized W text is the secret key consumed by
the second security layer; decryption never reconstructs the point matrix, so
the approximation error of the factorization is irrelevant to losslessness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _text
from .errors import DegenerateVectors, EmptyMatrix, InvalidConfig
from .prng import Tlcg

KEY_MATRIX_MAGIC = "PIOUW"

# The factorization's fixed settings: the rank of W and H, the step budget,
# the guard added to every denominator, and the relative change of the error
# below which the loop stops early.
NMF_RANK = 2
NMF_MAX_ITERATIONS = 500
NMF_EPSILON = 1e-9
NMF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    """Axis-aligned enumeration window: x in [0, width), y in [0, height)."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidConfig("window dimensions must be >= 1")


@dataclass(frozen=True)
class LatticeVectors:
    """Integer basis pair spanning the point set; must not be collinear."""

    v0: tuple[int, int]
    v1: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "v0", (int(self.v0[0]), int(self.v0[1])))
        object.__setattr__(self, "v1", (int(self.v1[0]), int(self.v1[1])))
        if self.det == 0:
            raise DegenerateVectors(f"basis {self.v0}, {self.v1} is collinear or zero")

    @property
    def det(self) -> int:
        return self.v0[0] * self.v1[1] - self.v0[1] * self.v1[0]


def vector_component_bound(window: WindowSpec) -> int:
    """Largest component magnitude drawn for a basis vector in this window."""
    return max(4, math.ceil(max(window.width, window.height) / 25))


def derive_lattice_vectors(tlcg: Tlcg, window: WindowSpec) -> LatticeVectors:
    """Draw a basis pair from the TLCG, rejecting degenerate candidates.

    Draw order per attempt: v0.x, v0.y, v1.x, v1.y, each uniform over
    [-B, B] where B = vector_component_bound(window).
    """
    bound = vector_component_bound(window)
    for _ in range(64):
        x0 = tlcg.randrange(-bound, bound + 1)
        y0 = tlcg.randrange(-bound, bound + 1)
        x1 = tlcg.randrange(-bound, bound + 1)
        y1 = tlcg.randrange(-bound, bound + 1)
        if (x0 or y0) and (x1 or y1) and x0 * y1 - y0 * x1 != 0:
            return LatticeVectors((x0, y0), (x1, y1))
    raise DegenerateVectors("64 consecutive degenerate draws; check TLCG parameters")


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g (extended Euclid)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def generate_lattice_points(vectors: LatticeVectors, window: WindowSpec) -> np.ndarray:
    """Enumerate every lattice point inside the window.

    Returns an m x 2 int64 array of (x, y) rows sorted ascending by (y, x).
    The points are read off the basis's Hermite normal form: with
    g = gcd(v0.y, v1.y) = s*v0.y + t*v1.y and d = |det| / g, the lattice's
    rows are y = k*g, and row k holds exactly x = (k*shift mod d) + j*d for
    shift = s*v0.x + t*v1.x. So the rows come out in (y, x) order and the
    result does not depend on which basis of the lattice is given.
    """
    (v0x, v0y), (v1x, v1y) = vectors.v0, vectors.v1
    width, height = window.width, window.height
    g, s, t = _bezout(v0y, v1y)
    d = abs(vectors.det) // g
    shift = (s * v0x + t * v1x) % d
    ys = np.arange(0, height, min(g, height), dtype=np.int64)
    # k * shift stays below height * d; past int64 the starts are Python ints.
    ks = np.arange(len(ys), dtype=np.int64 if height * d < 2**63 else object)
    starts = ks * shift % d
    inside = starts < width
    starts = starts[inside].astype(np.int64)
    ys = ys[inside]
    # When d >= width every row holds one point and its step is never taken,
    # so d, which may be past int64, is never multiplied.
    step = min(d, width)
    counts = (width - 1 - starts) // step + 1
    m = int(counts.sum())
    # Point i, in a row whose first point is point `first`, has
    # x = start + (i - first) * step. Each column is filled through one m-long
    # temporary at a time, so the call peaks at 1.5x the array it returns.
    points = np.empty((m, 2), dtype=np.int64)
    points[:, 1] = np.repeat(ys, counts)
    xs = points[:, 0]
    np.multiply(np.arange(m, dtype=np.int64), step, out=xs)
    xs += np.repeat(starts - (np.cumsum(counts) - counts) * step, counts)
    return points


class FactorPair(NamedTuple):
    """Non-negative factors approximating data ~= W @ H."""

    W: np.ndarray
    H: np.ndarray


def nmf_multiplicative(data, seed: int, *, error_history: list | None = None) -> FactorPair:
    """Factorize a non-negative matrix by multiplicative updates.

    Per iteration H is rescaled by (W^T V) / (W^T W H + eps) and then W by
    (V H^T) / (W H H^T + eps), element-wise, with W of rank NMF_RANK. Stops
    after NMF_MAX_ITERATIONS steps, or once the relative change of the
    reconstruction error drops below NMF_TOLERANCE.

    The start point's entries are drawn uniformly in (0, 1] from a TLCG
    stream seeded by seed (W row-major, then H row-major).
    error_history: optional list collecting the error before iteration 0 and
    after each iteration.
    An integer array is cast straight into the loop's buffer; any other data
    is converted to float64 first.
    """
    if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
        V = data
    else:
        V = np.asarray(data, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
        raise EmptyMatrix(f"cannot factorize a matrix of shape {V.shape}")
    if np.any(V < 0) or not np.all(np.isfinite(V)):
        raise InvalidConfig("data entries must be non-negative and finite")
    m, n = V.shape
    r = NMF_RANK
    stream = Tlcg.from_seed(seed)
    # The loop works on the transposes: S holds the columns of W in its first
    # r rows and those of V in the rest, so every m-wide operand is a few long
    # contiguous rows, and one product gives both W^T W and W^T V.
    S = np.empty((r + n, m))
    Wt = S[:r]
    Vt = S[r:]
    Wt[...] = stream.next_units(m * r).reshape(m, r).T
    Vt[...] = V.T
    H = stream.next_units(r * n).reshape(r, n)

    num = np.empty((r, m))
    den = np.empty((r, m))
    residual = np.empty((n, m))
    flat = residual.reshape(-1)

    def error() -> float:
        np.matmul(H.T, Wt, out=residual)
        np.subtract(Vt, residual, out=residual)
        return math.sqrt(np.dot(flat, flat))

    err = error()
    if error_history is not None:
        error_history.append(err)
    for _ in range(NMF_MAX_ITERATIONS):
        gram = Wt @ S.T
        denom_h = gram[:, :r] @ H
        denom_h += NMF_EPSILON
        H *= gram[:, r:] / denom_h
        np.matmul(H @ H.T, Wt, out=den)
        den += NMF_EPSILON
        np.matmul(H, Vt, out=num)
        np.divide(num, den, out=num)
        Wt *= num
        new_err = error()
        if error_history is not None:
            error_history.append(new_err)
        rel_change = 0.0 if err == 0.0 else abs(err - new_err) / err
        err = new_err
        if rel_change < NMF_TOLERANCE:
            break
    return FactorPair(np.ascontiguousarray(Wt.T), H)


def serialize_key_matrix(matrix) -> str:
    """Render a non-negative matrix as the layer-2 key text (5 decimals)."""
    W = np.asarray(matrix, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise InvalidConfig("key matrix must be 2-D and non-empty")
    if np.any(W < 0) or not np.all(np.isfinite(W)):
        raise InvalidConfig("key matrix entries must be non-negative and finite")
    rows, cols = W.shape
    row_format = " ".join(["%.5f"] * cols) + "\n"
    return "".join([f"{KEY_MATRIX_MAGIC} {rows} {cols}\n", *_text.format_rows(row_format, W)])
