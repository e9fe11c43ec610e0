"""RBF kernel Gram products and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles:
sum_j grad_y K(x_i, x_j) = (x_i sum_j G_ij - sum_j G_ij x_j) / h^2, which
the flow folds into its right-hand side (imputer.velocity).

There is one Gram computation, gram_matmul(x, rhs, h) = G(x, x) @ rhs. It
builds G in tiles, computes each entry once and never holds G whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

# Rows of the Gram built at a time in gram_matmul(). A tile is not
# cache-sized (256 x 4800 doubles is 9.8 MB); the height only trades
# per-tile overhead against tile memory. The flow's velocity() at 4898 x 11
# (4789 incomplete rows, cheap score, 12 interleaved rounds on a 2-core VM)
# took 1.16 / 1.04 / 1 / 1.01 times as long at 64 / 128 / 256 / 512 rows,
# so 256 is the smallest height without a loss. Up to this many rows there
# is one tile; past it, a row's sum is split between tiles, so results
# agree across heights to round-off.
_TILE_ROWS = 256


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
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


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
    _TILE_ROWS rows, clamped and exponentiated in place in one reused
    buffer. Tile [s:e] holds only G[s:e, s:], the diagonal block and the
    columns to its right. G is symmetric, so the tile serves two products:

    - G[s:e, s:] @ rhs[s:] gives rows s:e of the product their sum over
      columns s and up;
    - rhs[s:e]^T @ G[s:e, e:] is G[e:, s:e] @ rhs[s:e] transposed: the rows
      below the tile summed over its columns. It is added into one K x N
      accumulator, which is added, transposed, to the product once after
      the last tile.

    The second is written with the small K x B operand on the left: the
    equivalent G[:, b:]^T @ rhs[s:e] makes a threaded BLAS pack the tall
    transposed tile, which costs time and memory. Memory is
    O(_TILE_ROWS * N) besides the O(N (D + K)) operands and result.
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
    prod = np.empty((n, k))
    below = np.zeros((k, n))
    tile_buf = np.empty(min(_TILE_ROWS, n) * n)
    for s in range(0, n, _TILE_ROWS):
        e = min(s + _TILE_ROWS, n)
        b, w = e - s, n - s
        g = _gram_tile(left[s:e], right[:, s:], out=tile_buf[: b * w].reshape(b, w))
        np.matmul(g, rhs[s:], out=prod[s:e])
        if e < n:
            below[:, e:] += rhs[s:e].T @ g[:, b:]
    prod += below.T
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

