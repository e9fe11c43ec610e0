"""RBF kernel Gram products and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles:
sum_j grad_y K(x_i, x_j) = (x_i sum_j G_ij - sum_j G_ij x_j) / h^2, which
the flow folds into its right-hand side (imputer.velocity).

There is one Gram computation, gram_matmul(x, rhs, h) = G(x, x) @ rhs. It
builds G in upper-triangular tiles of rows, computes each entry once and
never holds G. The tiles run on lanes.run's two lanes.

The default bandwidth is worked out from the rows by SVGD's median
heuristic (median mode): median_bandwidth takes np.median of scipy's pdist
distances, in place, over sqrt(2). Its n(n-1)/2 distances are O(n^2), so
it sizes them against physical memory first (through score.check_memory).
The flow never holds them for all N rows: euler_impute passes
median_bandwidth a seeded subsample of 2000 rows when N is larger.
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


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel settings.

    use_median_heuristic (default): h is taken once per round, from the
    round's starting matrix (median pairwise distance / sqrt(2)); bandwidth
    then stands in only for a round of one row, which has no pairwise
    distance.
    bandwidth: the length scale h > 0. A fixed h is written
    KernelConfig(bandwidth=h, use_median_heuristic=False). With the median
    on, bandwidth must keep its default: any other bandwidth, such as
    KernelConfig(bandwidth=0.7) alone, is a ValueError naming both fields,
    since the median would override it.
    """

    bandwidth: float = 0.5
    use_median_heuristic: bool = True

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        if self.use_median_heuristic and self.bandwidth != KernelConfig.bandwidth:
            raise ValueError(
                f"bandwidth={self.bandwidth} would be ignored with "
                "use_median_heuristic=True; a fixed bandwidth needs use_median_heuristic=False"
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
    _TILE_ROWS rows, split between lanes.run's lanes. Tile [s:e] is
    G[s:e, s:], the diagonal block and the columns to its right, built,
    clamped and exponentiated whole in the lane's one reused buffer. G is
    symmetric, so each tile serves two products:

    - G[s:e, s:] @ rhs[s:] is added into rows s:e of the lane's (N, K) sum:
      their sum over columns s and up;
    - rhs[s:e]^T @ G[s:e, e:] is G[e:, s:e] @ rhs[s:e] transposed: the rows
      below the tile summed over its columns, added into the lane's sum.
      The small K x (e - s) operand is on the left (the equivalent
      G^T @ rhs[s:e] packs the transposed tile).

    Each lane returns its sum, and lane 1's is added to lane 0's, which is
    the result, so the arithmetic depends on the tile height only. Memory
    is O(_TILE_ROWS * N) per lane besides the O(N (D + K)) operands and
    sums; imputer.velocity() never passes more than 1024 rows.
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
        tile_buf = np.empty(min(_TILE_ROWS, n) * n)
        for s in starts:
            e = min(s + _TILE_ROWS, n)
            out = tile_buf[: (e - s) * (n - s)].reshape(e - s, n - s)
            g = _gram_tile(left[s:e], right[:, s:], out=out)
            acc[s:e] += g @ rhs[s:]
            acc[e:] += (rhs[s:e].T @ g[:, e - s :]).T
        return acc

    prod, *others = lanes.run(lane, range(0, n, _TILE_ROWS))
    for other in others:
        prod += other
    return prod


def median_bandwidth(x: np.ndarray) -> float:
    """Median pairwise distance divided by sqrt(2), floored at 1e-6.

    The n(n-1)/2 float64 distances are checked against physical memory
    (a MemoryError naming n) before they are built, and
    np.median(overwrite_input=True) reorders them in place, so the peak is
    the one array of distances.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 points")
    pairs = n * (n - 1) // 2
    check_memory(8 * pairs, f"median bandwidth over {n} rows ({pairs} pairwise distances)")
    med = float(np.median(pdist(x), overwrite_input=True))
    return max(med / np.sqrt(2.0), 1e-6)
