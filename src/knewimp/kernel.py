"""RBF kernel Gram matrices and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles.

gram() is the one Gram: a single matrix product gives the scaled squared
distances, which are clamped and exponentiated in place, inside a buffer
the caller may pass (the flow reuses one per step).
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
    use_median_heuristic: when set, h is recomputed from the current point
    cloud (median pairwise distance / sqrt(2)) instead of the fixed value.
    """

    bandwidth: float = 0.5
    use_median_heuristic: bool = False

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


def gram(
    x: np.ndarray, y: np.ndarray, bandwidth: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """RBF Gram matrix G[i, j] = exp(-||x_i - y_j||^2 / (2 h^2)), shape (N, M).

    With c = -1/(2 h^2), the one product [-2c x | c||x||^2 | 1] @
    [y | 1 | c||y||^2]^T of inner size D + 2 is c ||x_i - y_j||^2. It goes
    into out, which is then clamped at 0 against round-off and exponentiated
    in place. out, when given, must be a C-contiguous float64 (N, M) array,
    and it is returned; otherwise a new array is.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"point clouds must be 2-D with equal width, got {x.shape} and {y.shape}"
        )
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    c = -0.5 / (bandwidth * bandwidth)
    x_norms = c * (x * x).sum(axis=1, keepdims=True)
    y_norms = c * (y * y).sum(axis=1, keepdims=True)
    out = np.matmul(
        np.hstack([(-2.0 * c) * x, x_norms, np.ones_like(x_norms)]),
        np.hstack([y, np.ones_like(y_norms), y_norms]).T,
        out=out,
    )
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


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


def resolve_bandwidth(cfg: KernelConfig, x: np.ndarray) -> float:
    """Bandwidth to use for the point cloud x under cfg."""
    if cfg.use_median_heuristic and x.shape[0] >= 2:
        return median_bandwidth(x)
    return cfg.bandwidth
