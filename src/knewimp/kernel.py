"""RBF kernel Gram matrices and bandwidth selection.

The kernel K(x, y) = exp(-||x - y||^2 / (2 h^2)) supplies the geometry for
the particle velocity field: Gram matrices smooth per-particle scores, and,
because grad_y K(x, y) = ((x - y) / h^2) K(x, y), the same Gram also
carries the attraction term between particles.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, shape (N, M).

    Uses the expanded-square identity so the whole computation is three
    BLAS-friendly products; clamps tiny negative round-off at zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"point clouds must be 2-D with equal width, got {x.shape} and {y.shape}"
        )
    sq = (
        (x * x).sum(axis=1)[:, None]
        + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    return np.maximum(sq, 0.0)


def gram(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF Gram matrix G[i, j] = exp(-||x_i - y_j||^2 / (2 h^2))."""
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    return np.exp(squared_distances(x, y) / (-2.0 * bandwidth * bandwidth))


def median_bandwidth(x: np.ndarray) -> float:
    """Median pairwise distance divided by sqrt(2), floored at 1e-6."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 points")
    sq = pdist(x, "sqeuclidean")
    k = sq.size // 2
    if sq.size % 2:
        med = float(np.sqrt(np.partition(sq, k)[k]))
    else:
        lo, hi = np.sqrt(np.partition(sq, (k - 1, k))[k - 1 : k + 1])
        med = float((lo + hi) / 2.0)
    return max(med / np.sqrt(2.0), 1e-6)


def resolve_bandwidth(cfg: KernelConfig, x: np.ndarray) -> float:
    """Bandwidth to use for the point cloud x under cfg."""
    if cfg.use_median_heuristic and x.shape[0] >= 2:
        return median_bandwidth(x)
    return cfg.bandwidth
