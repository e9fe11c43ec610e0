"""RBF kernel Gram products and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles:
sum_j grad_y K(x_i, x_j) = (x_i sum_j G_ij - sum_j G_ij x_j) / h^2, which
the flow folds into its right-hand side (imputer.velocity).

There is one Gram computation, gram_matmul(x, rhs, h) = G(x, x) @ rhs. It
builds G in tiles, computes each entry once and never holds G whole. Tile c
goes to lane c % 2 (lanes.run): the two lanes run at once, with numpy's
OpenBLAS at one thread, and a Gram of one tile runs on the caller alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import lanes
from .lanes import LANES

# Rows of the Gram built at a time per lane in gram_matmul(). A tile is
# not cache-sized (128 x 4800 doubles is 4.9 MB); the height only trades
# per-tile overhead against tile memory. One product at 4792 x 11 with a
# 22-wide right-hand side (12 interleaved rounds, 2-core VM) took 64.2 /
# 60.7 / 67.0 ms at 64 / 128 / 256 rows per lane, against 87.1 ms for one
# lane of 256 rows with two BLAS threads; two lanes of 128 hold the tile
# memory one lane of 256 held. Up to this many rows there is one tile;
# past it, a row's sum is split between tiles, so results agree across
# heights to round-off.
_TILE_ROWS = 128

# Columns of a tile's transposed product taken at a time, so a lane holds a
# K x _BLOCK_COLS product, not a K x N one. The product above took 67.6 /
# 63.1 / 59.4 / 58.6 / 56.6 ms in blocks of 128 / 256 / 512 / 1024 / all
# 4792 columns; 512 costs 5% of the product and keeps two lanes' blocks
# (K x 1024 doubles) below the K x N each would hold unblocked.
_BLOCK_COLS = 512


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel settings.

    bandwidth: the length scale h > 0.
    use_median_heuristic: when set, h is taken once per round, from the
    round's starting matrix (median pairwise distance / sqrt(2)).
    """

    bandwidth: float = 0.5
    use_median_heuristic: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {self.bandwidth}")


def _gram_operands(x: np.ndarray, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """Left (N, D + 2) and right (D + 2, N) Gram operands of x.

    With c = -1/(2 h^2), left = [-2c x | c||x||^2 | 1] and right =
    [x | 1 | c||x||^2]^T, so left[a] @ right[:, b] is c ||x_a - x_b||^2, and
    slices of the two give any block of the Gram of x with itself. right is
    the transpose of a C-contiguous (N, D + 2) array, so a column slice
    right[:, s:] has the strides of the right operand of x[s:] alone. (A
    C-contiguous right operand is no faster, and one-row tiles of its
    strided slices take a different BLAS path.)
    """
    c = -0.5 / (bandwidth * bandwidth)
    norms = c * (x * x).sum(axis=1, keepdims=True)
    ones = np.ones_like(norms)
    left = np.hstack([(-2.0 * c) * x, norms, ones])
    right = np.hstack([x, ones, norms]).T
    return left, right


def _gram_tile(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(min(left @ right, 0)): the Gram block of two operand slices,
    written into out, a C-contiguous float64 array of the block's shape."""
    out = np.matmul(left, right, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def gram_matmul(x: np.ndarray, rhs: np.ndarray, bandwidth: float) -> np.ndarray:
    """G @ rhs for the RBF Gram G[i, j] = exp(-||x_i - x_j||^2 / (2 h^2)) of
    x with itself; x is (N, D), rhs is (N, K) and the result is (N, K).

    The operands are built once and G is built in upper-triangular tiles of
    _TILE_ROWS rows. Tile c goes to lane c % 2, which clamps and
    exponentiates it in place in its own reused buffer. Tile [s:e] holds
    only G[s:e, s:], the diagonal block and the columns to its right. G is
    symmetric, so the tile serves two products, each added into the lane's
    (N, K) sum:

    - G[s:e, s:] @ rhs[s:] gives rows s:e their sum over columns s and up;
    - rhs[s:e]^T @ G[s:e, e:] is G[e:, s:e] @ rhs[s:e] transposed: the rows
      below the tile summed over its columns. It is taken _BLOCK_COLS
      columns at a time, with the small K x B operand on the left (the
      equivalent G[:, b:]^T @ rhs[s:e] packs the tall transposed tile).

    Lane 0's sum is the result: lane 1's is added to it after both lanes
    finish, so the arithmetic depends on the tile height and block width
    only, not on whether the lanes ran at once. Memory is
    O(2 * _TILE_ROWS * N) besides the O(N (D + K)) operands and sums.
    """
    x = np.asarray(x, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if x.ndim != 2 or rhs.ndim != 2 or x.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"x and rhs must be 2-D with equal row counts, got {x.shape} and {rhs.shape}"
        )
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    n, k = rhs.shape
    left, right = _gram_operands(x, bandwidth)
    starts = range(0, n, _TILE_ROWS)
    sums = [np.zeros((n, k)) for _ in range(max(1, min(LANES, len(starts))))]

    def lane(j: int) -> None:
        acc = sums[j]
        rows = min(_TILE_ROWS, n)
        tile_buf, upper = np.empty(rows * n), np.empty((rows, k))
        lower = np.empty(k * min(_BLOCK_COLS, n))
        for s in starts[j::LANES]:
            e = min(s + _TILE_ROWS, n)
            b, w = e - s, n - s
            g = _gram_tile(left[s:e], right[:, s:], out=tile_buf[: b * w].reshape(b, w))
            acc[s:e] += np.matmul(g, rhs[s:], out=upper[:b])
            for c in range(e, n, _BLOCK_COLS):
                f = min(c + _BLOCK_COLS, n)
                out = lower[: k * (f - c)].reshape(k, f - c)
                acc[c:f] += np.matmul(rhs[s:e].T, g[:, c - s : f - s], out=out).T

    lanes.run(lane, len(sums))
    prod, *others = sums
    for other in others:
        prod += other
    return prod


def median_bandwidth(x: np.ndarray) -> float:
    """Median pairwise distance divided by sqrt(2), floored at 1e-6."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 points")
    sq = pdist(x, "sqeuclidean")
    k = sq.size // 2
    # One in-place partition at k: sq[k] is the upper middle, and the lower
    # middle of an even count is the largest value left of it.
    sq.partition(k)
    if sq.size % 2:
        med = float(np.sqrt(sq[k]))
    else:
        med = float((np.sqrt(sq[:k].max()) + np.sqrt(sq[k])) / 2.0)
    return max(med / np.sqrt(2.0), 1e-6)

