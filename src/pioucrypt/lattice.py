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

from . import _text
from .errors import DegenerateVectors, EmptyMatrix, ParseError, ShapeMismatch
from .prng import Tlcg

KEY_MATRIX_MAGIC = "PIOUW"


@dataclass(frozen=True)
class WindowSpec:
    """Axis-aligned enumeration window: x in [0, width), y in [0, height)."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("window dimensions must be >= 1")


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

    xs_parts = []
    ys_parts = []
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
        n2 = np.arange(lo, hi + 1, dtype=np.int64)
        xs_parts.append(cx + n2 * v1x)
        ys_parts.append(cy + n2 * v1y)

    if not xs_parts:
        return np.empty((0, 2), dtype=np.int64)
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    order = np.lexsort((xs, ys))
    return np.column_stack((xs[order], ys[order]))


@dataclass(frozen=True)
class NmfConfig:
    """Factorization knobs; defaults give the plain multiplicative loop."""

    rank: int = 2
    max_iterations: int = 500
    epsilon: float = 1e-9
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def nmf_multiplicative(
    data,
    config: NmfConfig | None = None,
    init: tuple | None = None,
    error_history: list | None = None,
) -> FactorPair:
    """Factorize a non-negative matrix by multiplicative updates.

    Per iteration H is rescaled by (W^T V) / (W^T W H + eps) and then W by
    (V H^T) / (W H H^T + eps), element-wise. Stops at max_iterations or when
    the relative change of the reconstruction error drops below the tolerance.

    init: optional (W0, H0) pair to start from; otherwise entries are drawn
    uniformly in (0, 1] from a TLCG stream seeded by config.seed (W row-major,
    then H row-major).
    error_history: optional list collecting the error before iteration 0 and
    after each iteration.
    """
    cfg = config if config is not None else NmfConfig()
    V = np.asarray(data, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
        raise EmptyMatrix(f"cannot factorize a matrix of shape {V.shape}")
    if np.any(V < 0) or not np.all(np.isfinite(V)):
        raise ValueError("data entries must be non-negative and finite")
    m, n = V.shape
    r = cfg.rank

    if init is not None:
        W = np.array(init[0], dtype=np.float64)
        H = np.array(init[1], dtype=np.float64)
        if W.shape != (m, r) or H.shape != (r, n):
            raise ShapeMismatch(
                f"init shapes must be ({m}, {r}) and ({r}, {n}), got {W.shape}, {H.shape}"
            )
        if np.any(W < 0) or np.any(H < 0):
            raise ValueError("init factors must be non-negative")
    else:
        stream = Tlcg.from_seed(cfg.seed)
        W = np.array([[stream.next_unit() for _ in range(r)] for _ in range(m)])
        H = np.array([[stream.next_unit() for _ in range(n)] for _ in range(r)])

    eps = cfg.epsilon
    err = float(np.linalg.norm(V - W @ H))
    if error_history is not None:
        error_history.append(err)
    for _ in range(cfg.max_iterations):
        # eps is added in place: one more m x rank temporary per step made a
        # factorization of 103k points about 25% slower
        denom_h = W.T @ W @ H
        denom_h += eps
        H *= (W.T @ V) / denom_h
        denom_w = W @ (H @ H.T)
        denom_w += eps
        W *= (V @ H.T) / denom_w
        new_err = float(np.linalg.norm(V - W @ H))
        if error_history is not None:
            error_history.append(new_err)
        rel_change = 0.0 if err == 0.0 else abs(err - new_err) / err
        err = new_err
        if rel_change < cfg.tolerance:
            break
    return FactorPair(W, H)


def serialize_key_matrix(matrix) -> str:
    """Render a non-negative matrix as the layer-2 key text (5 decimals)."""
    W = np.asarray(matrix, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise ValueError("key matrix must be 2-D and non-empty")
    if np.any(W < 0) or not np.all(np.isfinite(W)):
        raise ValueError("key matrix entries must be non-negative and finite")
    lines = [f"{KEY_MATRIX_MAGIC} {W.shape[0]} {W.shape[1]}"]
    for row in W:
        lines.append(" ".join(f"{(v if v != 0 else 0.0):.5f}" for v in row))
    return "\n".join(lines) + "\n"


def parse_key_matrix(text: str) -> np.ndarray:
    """Parse the key text back into a matrix (values at 5-decimal precision)."""
    lines = _text.split_lines(text, "key matrix text")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != KEY_MATRIX_MAGIC:
        raise ParseError(f"header must be '{KEY_MATRIX_MAGIC} <rows> <cols>'", 1)
    rows, cols = _text.canon_ints(header[1:], "dimensions", 1)
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be >= 1", 1)
    if len(lines) != rows + 1:
        raise ParseError(f"expected {rows + 1} lines, found {len(lines)}", len(lines) + 1)
    out = np.empty((rows, cols), dtype=np.float64)
    for index in range(rows):
        line_no = index + 2
        tokens = lines[index + 1].split(" ")
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries", line_no)
        for column, token in enumerate(tokens):
            if not token or token[0] in "+-":
                raise ParseError(f"entry {token!r} is not a non-negative decimal", line_no)
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"entry {token!r} is not a number", line_no) from None
            if not math.isfinite(value):
                raise ParseError(f"entry {token!r} is not finite", line_no)
            out[index, column] = value
    return out
