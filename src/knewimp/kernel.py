"""RBF kernel Gram products and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles:
sum_j grad_y K(x_i, x_j) = (x_i sum_j G_ij - sum_j G_ij x_j) / h^2, which
the flow folds into its right-hand side (imputer.velocity).

There is one Gram computation, gram_matmul(x, rhs, h) = G(x, x) @ rhs. It
builds G in tiles of rows, one cache-sized column block at a time, computes
each entry once and never holds G, or even one full-width tile of it. The
tiles run on lanes.run's two lanes.

The bandwidth of median mode is SVGD's median heuristic: median_bandwidth
takes np.median of scipy's pdist distances, in place, over sqrt(2). Its
n(n-1)/2 distances are O(n^2), so check_median_memory sizes them against
physical memory first (through score.check_memory). The flow never holds
them for all N rows: euler_impute passes median_bandwidth a seeded
subsample of 2000 rows when N is larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import lanes
from .score import check_memory, check_positive

# Rows of the Gram tile a lane takes at a time in gram_matmul(). One
# product at 4792 x 11 with a 22-wide right-hand side (12 interleaved
# rounds, 2-core VM) took 64.2 / 60.7 / 67.0 ms at 64 / 128 / 256 rows per
# lane, against 87.1 ms for one lane of 256 rows with two BLAS threads.
# Up to this many rows there is one tile; past it, a row's sum is split
# between tiles, so results agree across heights to round-off.
_TILE_ROWS = 128

# Columns of a tile built, exponentiated and multiplied at a time, so a lane
# holds a _TILE_ROWS x _BLOCK_COLS block (512 KB, inside one core's 2 MB L2)
# whatever N is. At 4792 x 11 with K = 22 (2-core VM) the traced peak of one
# product fell 12.9 -> 4.1 MB against full-width tiles (128 x 4792 doubles,
# 4.9 MB a lane), and its time did not move: medians of 36 interleaved
# calls 54.5 / 55.8 ms full-width, 54.3 / 54.5 ms in blocks. Up to this
# many rows every tile is one block; past it, a row's upper sum is split
# between blocks, so results agree across widths to round-off.
_BLOCK_COLS = 512


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel settings.

    bandwidth: the length scale h > 0.
    use_median_heuristic: when set, h is taken once per round, from the
    round's starting matrix (median pairwise distance / sqrt(2)), and
    bandwidth must keep its default: any other bandwidth is a ValueError
    naming both fields, since the median would override it.
    """

    bandwidth: float = 0.5
    use_median_heuristic: bool = False

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        if self.use_median_heuristic and self.bandwidth != KernelConfig.bandwidth:
            raise ValueError(
                f"bandwidth={self.bandwidth} would be ignored with "
                "use_median_heuristic=True; set one or the other"
            )


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
    x with itself; x is (N, D), rhs is (N, K) and the result is (N, K). The
    bandwidth h must be finite and > 0.

    The operands are built once and G is built in upper-triangular tiles of
    _TILE_ROWS rows, split between lanes.run's lanes. Tile [s:e] covers
    only G[s:e, s:], the diagonal block and the columns to its right, and
    the lane builds it one block of _BLOCK_COLS columns [c:f] at a time,
    clamping and exponentiating the block in place in its own reused
    buffer. G is symmetric, so each block serves two products while it is
    still in cache:

    - G[s:e, c:f] @ rhs[c:f] is added into rows s:e of the lane's (N, K)
      sum: after the tile's last block they hold their sum over columns s
      and up;
    - for the block's columns c' at or past e, rhs[s:e]^T @ G[s:e, c':f] is
      G[c':f, s:e] @ rhs[s:e] transposed: those rows below the tile summed
      over its columns, added into the lane's sum. The small K x B operand
      is on the left (the equivalent G^T @ rhs[s:e] packs the transposed
      block).

    Each lane returns its sum, and lane 1's is added to lane 0's, which is
    the result, so the arithmetic depends on the tile height and block
    width only. Memory is O(2 * _TILE_ROWS * _BLOCK_COLS), whatever N,
    besides the O(N (D + K)) operands and sums.
    """
    x = np.asarray(x, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if x.ndim != 2 or rhs.ndim != 2 or x.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"x and rhs must be 2-D with equal row counts, got {x.shape} and {rhs.shape}"
        )
    check_positive("bandwidth", bandwidth)
    n, k = rhs.shape
    left, right = _gram_operands(x, bandwidth)

    def lane(_: int, starts: range) -> np.ndarray:
        acc = np.zeros((n, k))
        block_buf = np.empty(min(_TILE_ROWS, n) * min(_BLOCK_COLS, n))
        for s in starts:
            e = min(s + _TILE_ROWS, n)
            for c in range(s, n, _BLOCK_COLS):
                f = min(c + _BLOCK_COLS, n)
                out = block_buf[: (e - s) * (f - c)].reshape(e - s, f - c)
                g = _gram_tile(left[s:e], right[:, c:f], out=out)
                acc[s:e] += g @ rhs[c:f]
                lo = max(c, e)
                if lo < f:
                    acc[lo:f] += (rhs[s:e].T @ g[:, lo - c :]).T
        return acc

    prod, *others = lanes.run(lane, range(0, n, _TILE_ROWS))
    for other in others:
        prod += other
    return prod


def check_median_memory(n: int) -> None:
    """MemoryError naming n unless the n(n-1)/2 float64 pairwise distances
    of the median heuristic over n rows fit in physical memory."""
    pairs = n * (n - 1) // 2
    check_memory(8 * pairs, f"median bandwidth over {n} rows ({pairs} pairwise distances)")


def median_bandwidth(x: np.ndarray) -> float:
    """Median pairwise distance divided by sqrt(2), floored at 1e-6.

    The distances are checked against physical memory (check_median_memory)
    before they are built, and np.median(overwrite_input=True) reorders
    them in place, so the peak is the one array of n(n-1)/2 distances.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 points")
    check_median_memory(n)
    med = float(np.median(pdist(x), overwrite_input=True))
    return max(med / np.sqrt(2.0), 1e-6)
