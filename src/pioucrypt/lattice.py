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
from .errors import InvalidConfig, as_int
from .prng import Tlcg

KEY_MATRIX_MAGIC = b"PIOUW"

# The factorization's fixed settings: the rank of W and H, the step budget,
# the guard added to every denominator, and the relative change of the error
# below which the loop stops early.
NMF_RANK = 2
NMF_MAX_ITERATIONS = 500
NMF_EPSILON = 1e-9
NMF_TOLERANCE = 1e-9

# Columns of S per block of a factorization step: 512 KiB of S for two-column
# points, which each step's products read while the block is in cache.
_NMF_BLOCK_COLUMNS = 16384

# Values per np.dot of a block's squared residual. Past 10,000 values
# OpenBLAS splits a dot over its threads and adds their partial sums, so its
# last bits would depend on the thread count.
_DOT_VALUES = 10000


@dataclass(frozen=True)
class WindowSpec:
    """Axis-aligned enumeration window: x in [0, width), y in [0, height)."""

    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"window {name}"))
        if self.width < 1 or self.height < 1:
            raise InvalidConfig("window dimensions must be >= 1")


@dataclass(frozen=True)
class LatticeVectors:
    """Integer basis pair spanning the point set; must not be collinear."""

    v0: tuple[int, int]
    v1: tuple[int, int]

    def __post_init__(self):
        for name in ("v0", "v1"):
            try:
                x, y = getattr(self, name)
            except (TypeError, ValueError):
                raise InvalidConfig(f"{name} must be an (x, y) pair") from None
            object.__setattr__(self, name, (as_int(x, f"{name} x"), as_int(y, f"{name} y")))
        if self.det == 0:
            raise InvalidConfig(f"basis {self.v0}, {self.v1} is collinear or zero")

    @property
    def det(self) -> int:
        return self.v0[0] * self.v1[1] - self.v0[1] * self.v1[0]


def vector_component_bound(window: WindowSpec) -> int:
    """Largest component magnitude drawn for a basis vector in this window."""
    return max(4, math.ceil(max(window.width, window.height) / 25))


def derive_lattice_vectors(tlcg: Tlcg, window: WindowSpec) -> LatticeVectors:
    """Draw a basis pair from the TLCG, rejecting degenerate candidates.

    Draw order per attempt: v0.x, v0.y, v1.x, v1.y, each uniform over
    [-B, B] where B = vector_component_bound(window). A draw is kept when
    its determinant is non-zero, which also rules out a zero vector.
    """
    bound = vector_component_bound(window)
    for _ in range(64):
        x0 = tlcg.randrange(-bound, bound + 1)
        y0 = tlcg.randrange(-bound, bound + 1)
        x1 = tlcg.randrange(-bound, bound + 1)
        y1 = tlcg.randrange(-bound, bound + 1)
        if x0 * y1 - y0 * x1 != 0:
            return LatticeVectors((x0, y0), (x1, y1))
    raise InvalidConfig("64 consecutive degenerate draws; check TLCG parameters")


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


def _nonnegative(data, what: str) -> np.ndarray:
    """data as an array of non-negative finite bool, integer or float entries; an array is kept."""
    try:
        array = np.asarray(data)
    except ValueError:  # a ragged nested sequence
        raise InvalidConfig(f"{what} must be a rectangular array") from None
    if array.dtype.kind not in "biuf":
        raise InvalidConfig(f"{what} must be numbers, not {array.dtype}")
    if np.any(array < 0) or not np.all(np.isfinite(array)):
        raise InvalidConfig(f"{what} entries must be non-negative and finite")
    return array


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
    stream seeded by seed (W row-major, then H row-major). W is drawn one
    block of rows at a time straight into the loop's buffer; each draw
    continues the stream, so the values are those of one draw of all of W.
    error_history: optional list collecting the error before iteration 0 and
    after each iteration.
    The data is cast straight into the loop's buffer, so integer points are
    not copied to float64 first, and the function drops its own references
    to the data once it is there: a caller that passes the data unnamed has
    it freed before the start point is drawn. The block buffers are freed
    before W is copied out, so past the data the call holds the m x (r + n)
    buffer and at most that copy of W beside it.
    """
    V = _nonnegative(data, "data")
    if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
        raise InvalidConfig(f"cannot factorize a matrix of shape {V.shape}")
    m, n = V.shape
    r = NMF_RANK
    stream = Tlcg.from_seed(seed)
    # The loop works on the transposes: S holds the columns of W in its first
    # r rows and those of V in the rest, so every m-wide operand is a few long
    # contiguous rows, and one product gives both W^T W and W^T V.
    S = np.empty((r + n, m))
    S[r:] = V.T
    del data, V

    # Each pass runs over column blocks of S, with buffers the size of one
    # block, viewed at each block's width so that every view is contiguous.
    # The first block writes the Gram matrix W^T S and each later one adds
    # its part, in block order; with one block the products are those of a
    # pass over all of S at once. The squared error is summed in block
    # order too, each block's in pieces of at most _DOT_VALUES values.
    # W's start point is drawn block by block as the blocks are laid out,
    # so the draw holds a block's values at a time, not all of W's.
    width = min(m, _NMF_BLOCK_COLUMNS)
    num_buffer, den_buffer, res_buffer = np.empty(r * width), np.empty(r * width), np.empty(n * width)
    gram = np.empty((r, r + n))
    part = np.empty((r, r + n))
    blocks = []
    for lo in range(0, m, width):
        Sb = S[:, lo : lo + width]
        cols = Sb.shape[1]
        Sb[:r] = stream.next_units(cols * r).reshape(cols, r).T
        flat = res_buffer[: n * cols]
        blocks.append((
            Sb[:r], Sb[r:], Sb.T,
            num_buffer[: r * cols].reshape(r, cols),
            den_buffer[: r * cols].reshape(r, cols),
            flat.reshape(n, cols),
            [flat[at : at + _DOT_VALUES] for at in range(0, flat.size, _DOT_VALUES)],
            gram if lo == 0 else part,
        ))
    H = stream.next_units(r * n).reshape(r, n)
    Ht = H.T

    def sweep(HHt) -> float:
        """One pass: update W unless HHt is None, then return the error and
        leave W^T S, for the next H update, in gram."""
        total = 0.0
        for Wb, Vb, SbT, num, den, residual, pieces, gram_out in blocks:
            if HHt is not None:
                np.matmul(HHt, Wb, out=den)
                den += NMF_EPSILON
                np.matmul(H, Vb, out=num)
                np.divide(num, den, out=num)
                Wb *= num
            np.matmul(Ht, Wb, out=residual)
            np.subtract(Vb, residual, out=residual)
            for piece in pieces:
                total += np.dot(piece, piece)
            np.matmul(Wb, SbT, out=gram_out)
            if gram_out is part:
                np.add(gram, part, out=gram)
        return math.sqrt(total)

    err = sweep(None)
    if error_history is not None:
        error_history.append(err)
    for _ in range(NMF_MAX_ITERATIONS):
        denom_h = gram[:, :r] @ H
        denom_h += NMF_EPSILON
        H *= gram[:, r:] / denom_h
        new_err = sweep(H @ Ht)
        if error_history is not None:
            error_history.append(new_err)
        rel_change = 0.0 if err == 0.0 else abs(err - new_err) / err
        err = new_err
        if rel_change < NMF_TOLERANCE:
            break
    del blocks, flat, num_buffer, den_buffer, res_buffer
    return FactorPair(np.ascontiguousarray(S[:r].T), H)


def serialize_key_matrix(matrix) -> bytes:
    """Render a non-negative matrix as the layer-2 key's ASCII text (5 decimals)."""
    W = _nonnegative(matrix, "key matrix")
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise InvalidConfig("key matrix must be 2-D and non-empty")
    rows, cols = W.shape
    row_format = b" ".join([b"%.5f"] * cols) + b"\n"
    parts = [b"%s %d %d\n" % (KEY_MATRIX_MAGIC, rows, cols)]
    # one %-format per block of about _text.BLOCK_VALUES entries; adding 0
    # writes -0.0 as 0.00000
    step = max(1, _text.BLOCK_VALUES // cols)
    for start in range(0, rows, step):
        block = W[start : start + step] + 0
        parts.append(row_format * len(block) % tuple(block.ravel().tolist()))
    return b"".join(parts)
