"""RBF kernel Gram matrices and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles:
sum_j grad_y K(x_i, x_j) = (x_i sum_j G_ij - sum_j G_ij x_j) / h^2, which
the flow folds into its score block (imputer.velocity).

There is one Gram. _gram_operands(x, h) builds the operands
[-2c x | c||x||^2 | 1] and [x | 1 | c||x||^2]^T, with c = -1/(2 h^2);
_gram_tile multiplies a slice of each (inner size D + 2, giving the scaled
squared distances), clamps at 0 and exponentiates in place. gram() is
those two steps; the flow builds the operands once per step and calls
_gram_tile on slices of them, in a buffer it reuses for every tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist


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
    right[:, s:] has the strides of the right operand of x[s:] alone: BLAS
    takes the same path for both, and a block from slices is bit-identical
    to gram() on the same rows. (A C-contiguous right operand is no faster,
    and one-row blocks of its strided slices take a different BLAS path.)
    """
    c = -0.5 / (bandwidth * bandwidth)
    norms = c * (x * x).sum(axis=1, keepdims=True)
    ones = np.ones_like(norms)
    left = np.hstack([(-2.0 * c) * x, norms, ones])
    right = np.hstack([x, ones, norms]).T
    return left, right


def _gram_tile(
    left: np.ndarray, right: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """exp(min(left @ right, 0)): the Gram block of two operand slices,
    written into out (a C-contiguous float64 array) when given."""
    out = np.matmul(left, right, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def gram(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF Gram matrix G[i, j] = exp(-||x_i - y_j||^2 / (2 h^2)), shape (N, M).

    The one product of x's left and y's right operand (inner size D + 2) is
    the scaled squared distance; it is clamped at 0 against round-off and
    exponentiated in place.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"point clouds must be 2-D with equal width, got {x.shape} and {y.shape}"
        )
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    return _gram_tile(_gram_operands(x, bandwidth)[0], _gram_operands(y, bandwidth)[1])


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

