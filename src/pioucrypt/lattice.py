"""Lattice-point generation and the factorization that yields the layer-2 key.

An integer basis pair is drawn from the TLCG, every lattice point inside the
image-sized window is enumerated into an m x 2 matrix of coordinates, and that
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

from .errors import (
    DegenerateVectors,
    EmptyMatrix,
    InvalidConfig,
    ShapeMismatch,
)
from .prng import Tlcg

KEY_MATRIX_MAGIC = "PIOUW"

# Rows of the key text rendered by one string format.
_KEY_FORMAT_ROWS = 4096

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


def _ceil_div(a: int, b: int) -> int:
    # exact ceiling division for any sign of b (b != 0)
    return -((-a) // b)


def _reduced_basis(a: tuple[int, int], b: tuple[int, int]):
    """Lagrange-Gauss reduction of a basis; spans the same lattice.

    Returns (v, u): u is a shortest non-zero lattice vector and v a shortest
    one independent of u, so the angle between them lies in [60, 120] degrees.
    """

    def norm2(p):
        return p[0] * p[0] + p[1] * p[1]

    u, v = sorted((a, b), key=norm2)
    while True:
        n = norm2(u)
        # q is the integer nearest to <u, v> / |u|^2
        q = (2 * (u[0] * v[0] + u[1] * v[1]) + n) // (2 * n)
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if norm2(v) >= n:
            return v, u
        u, v = v, u


def generate_lattice_points(vectors: LatticeVectors, window: WindowSpec) -> np.ndarray:
    """Enumerate every lattice point inside the window.

    Returns an m x 2 integer array of (x, y) rows sorted ascending by (y, x).
    The basis is reduced first, so at most about width + height index rows
    are walked, however skewed the given basis is.
    Index bounds come from mapping the window corners through the inverse
    basis with a +/-2 margin; within those bounds each index row is reduced to
    its exact in-window sub-interval, so the result is the full point set.
    """
    (v0x, v0y), (v1x, v1y) = _reduced_basis(vectors.v0, vectors.v1)
    det = v0x * v1y - v0y * v1x
    x_max = window.width - 1
    y_max = window.height - 1

    corners = ((0, 0), (x_max, 0), (0, y_max), (x_max, y_max))
    n1_images = [(v1y * x - v1x * y) / det for x, y in corners]
    n2_images = [(v0x * y - v0y * x) / det for x, y in corners]
    lo1 = math.floor(min(n1_images)) - 2
    hi1 = math.ceil(max(n1_images)) + 2
    lo2 = math.floor(min(n2_images)) - 2
    hi2 = math.ceil(max(n2_images)) + 2

    rows = []  # (x, y, count): first point and point count of each index row
    for n1 in range(lo1, hi1 + 1):
        cx = n1 * v0x
        cy = n1 * v0y
        lo, hi = lo2, hi2
        if v1x > 0:
            lo = max(lo, _ceil_div(-cx, v1x))
            hi = min(hi, (x_max - cx) // v1x)
        elif v1x < 0:
            lo = max(lo, _ceil_div(x_max - cx, v1x))
            hi = min(hi, (-cx) // v1x)
        elif not 0 <= cx <= x_max:
            continue
        if v1y > 0:
            lo = max(lo, _ceil_div(-cy, v1y))
            hi = min(hi, (y_max - cy) // v1y)
        elif v1y < 0:
            lo = max(lo, _ceil_div(y_max - cy, v1y))
            hi = min(hi, (-cy) // v1y)
        elif not 0 <= cy <= y_max:
            continue
        if lo > hi:
            continue
        rows.append((cx + lo * v1x, cy + lo * v1y, hi - lo + 1))

    m = sum(count for _, _, count in rows)
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if m == len(rows):
        # One point a row never takes a step, whose size may be past int64.
        v1x = v1y = 0
    # The rows are written into two preallocated columns, and each column is
    # gathered into sorted order on its own, so at most four arrays of m
    # values are alive at once.
    xs = np.empty(m, dtype=np.int64)
    ys = np.empty(m, dtype=np.int64)
    start = 0
    for x, y, count in rows:
        steps = np.arange(count, dtype=np.int64)
        end = start + count
        xs[start:end] = x + steps * v1x
        ys[start:end] = y + steps * v1y
        start = end
    order = np.lexsort((xs, ys))
    xs = xs[order]
    ys = ys[order]
    del order
    return np.column_stack((xs, ys))


class FactorPair(NamedTuple):
    """Non-negative factors approximating data ~= W @ H."""

    W: np.ndarray
    H: np.ndarray


def reconstruction_error(data, W, H) -> float:
    """Frobenius norm of data - W @ H."""
    V = np.asarray(data, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if (
        V.ndim != 2
        or W.ndim != 2
        or H.ndim != 2
        or W.shape[0] != V.shape[0]
        or H.shape[1] != V.shape[1]
        or W.shape[1] != H.shape[0]
    ):
        raise ShapeMismatch(
            f"incompatible shapes: V{V.shape}, W{W.shape}, H{H.shape}"
        )
    return float(np.linalg.norm(V - W @ H))


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
    """
    V = np.asarray(data, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
        raise EmptyMatrix(f"cannot factorize a matrix of shape {V.shape}")
    if np.any(V < 0) or not np.all(np.isfinite(V)):
        raise InvalidConfig("data entries must be non-negative and finite")
    if seed < 0:
        raise InvalidConfig("seed must be non-negative")
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
        raise ValueError("key matrix must be 2-D and non-empty")
    if np.any(W < 0) or not np.all(np.isfinite(W)):
        raise ValueError("key matrix entries must be non-negative and finite")
    rows, cols = W.shape
    row_format = " ".join(["%.5f"] * cols) + "\n"
    parts = [f"{KEY_MATRIX_MAGIC} {rows} {cols}\n"]
    # One %-format per block of rows: formatting the whole matrix at once
    # holds a tuple of every entry. Adding 0.0 prints -0.0 as 0.00000.
    for start in range(0, rows, _KEY_FORMAT_ROWS):
        block = W[start : start + _KEY_FORMAT_ROWS] + 0.0
        parts.append((row_format * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)
