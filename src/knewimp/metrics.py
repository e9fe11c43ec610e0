"""Imputation quality metrics.

MAE averages absolute errors over the missing cells, those where the mask
is 0; tabular.checked_mask checks that it holds only 0 and 1. The
distributional metric is the squared 2-Wasserstein distance between the
imputed and true versions of the rows that contain at least one missing
cell, each cloud carrying uniform weights. For equal-size uniform measures its exact value
is a minimum-cost assignment, which wasserstein2 solves at every size: the
m x m cost matrix takes O(m^2) memory and the solver cubic time in the
worst case. A cost matrix larger than the machine's physical memory is
refused with MemoryError before it is allocated (check_w2_memory sizes it
for score.check_memory), and only one is built and solved at a time,
whatever the number of threads: at m = 4800 one is 184 MB.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .score import check_memory
from .tabular import TabularDataset, checked_mask

# Held while a cost matrix exists, so that experiment's seed pool never
# holds two at once.
_W2_LOCK = threading.Lock()


@dataclass(frozen=True)
class MetricReport:
    """MAE and squared Wasserstein distance plus the missingness counts."""

    mae: float
    wass: float
    m0: int
    m1: int

    def as_dict(self) -> dict:
        return {"mae": self.mae, "wass": self.wass, "m0": self.m0, "m1": self.m1}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def mae(truth: np.ndarray, imputed: np.ndarray, mask: np.ndarray) -> float:
    """Mean absolute error over the missing cells (mask == 0). mask must have
    truth's shape and only 0/1 entries."""
    truth = np.asarray(truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    if truth.shape != imputed.shape:
        raise ValueError(f"shape mismatch: truth {truth.shape}, imputed {imputed.shape}")
    missing = checked_mask(mask, truth.shape) == 0.0
    m0 = int(missing.sum())
    if m0 == 0:
        raise ValueError("no missing cells: MAE is undefined")
    return float(np.abs(truth[missing] - imputed[missing]).mean())


def check_w2_memory(m: int) -> None:
    """MemoryError naming m unless the m x m float64 cost matrix of an exact
    W2 over m rows fits in the machine's physical memory."""
    check_memory(8 * m * m, f"exact W2 over {m} rows ({m} x {m} cost matrix)")


def wasserstein2(truth_rows: np.ndarray, imputed_rows: np.ndarray) -> float:
    """Squared 2-Wasserstein distance between two equal-size uniform clouds,
    solved exactly as the underlying assignment problem. Calls on several
    threads build and solve their cost matrices one at a time."""
    a = np.asarray(truth_rows, dtype=np.float64)
    b = np.asarray(imputed_rows, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cloud shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError(f"clouds must be non-empty 2-D arrays, got {a.shape}")
    check_w2_memory(a.shape[0])
    with _W2_LOCK:
        cost = cdist(a, b, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())


def evaluate(ds: TabularDataset, imputed: np.ndarray) -> MetricReport:
    """Full report against ds.truth: MAE over missing cells, Wasserstein
    over the rows that have at least one missing cell."""
    if ds.truth is None:
        raise ValueError("dataset has no ground truth to evaluate against")
    imputed = np.asarray(imputed, dtype=np.float64)
    missing = ds.mask == 0.0
    incomplete_rows = missing.any(axis=1)
    # mae() raises first when imputed's shape is not the table's or no cell
    # is missing.
    return MetricReport(
        mae=mae(ds.truth, imputed, ds.mask),
        wass=wasserstein2(ds.truth[incomplete_rows], imputed[incomplete_rows]),
        m0=int(missing.sum()),
        m1=int(incomplete_rows.sum()),
    )
