"""Mask simulation under the three classical missingness mechanisms.

MCAR draws each cell independently. MAR keeps a random subset of columns
fully observed and masks the rest through a logistic model of the observed
columns, with the bias calibrated by bisection to hit the requested rate.
MNAR reuses the MAR construction and then hides parts of the logistic
model's own inputs with an extra MCAR overlay. simulate() draws all three,
redrawing from the same generator until each column keeps an observed cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .score import sigmoid

MAX_MASK_ATTEMPTS = 100


class Mechanism(str, Enum):
    MCAR = "mcar"
    MAR = "mar"
    MNAR = "mnar"


@dataclass(frozen=True)
class MissingSpec:
    """Target mechanism and rates for mask simulation.

    rate: missing fraction over maskable cells, open interval (0, 1).
    observed_fraction: fraction of columns kept fully observed (MAR/MNAR).
    mcar_overlay_rate: MCAR rate applied to the logistic-input columns
    (MNAR only); defaults to rate when omitted.
    """

    mechanism: Mechanism
    rate: float
    observed_fraction: float = 0.3
    mcar_overlay_rate: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")
        if not 0.0 < self.observed_fraction < 1.0:
            raise ValueError(
                f"observed_fraction must be in (0, 1), got {self.observed_fraction}"
            )
        if self.mcar_overlay_rate is not None and not 0.0 < self.mcar_overlay_rate < 1.0:
            raise ValueError(
                f"mcar_overlay_rate must be in (0, 1), got {self.mcar_overlay_rate}"
            )

    @property
    def overlay_rate(self) -> float:
        return self.rate if self.mcar_overlay_rate is None else self.mcar_overlay_rate


def calibrate_bias(logits: np.ndarray, target_rate: float) -> float:
    """Bias b with mean(sigmoid(logits + b)) within 1e-6 of target_rate.

    mean sigmoid is strictly increasing in b, so a bracketing bisection
    always succeeds for target_rate in (0, 1).
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate must be in (0, 1), got {target_rate}")
    logits = np.asarray(logits, dtype=np.float64).ravel()

    def mean_prob(b: float) -> float:
        return float(sigmoid(logits + b).mean())

    lo, hi = -1.0, 1.0
    while mean_prob(lo) > target_rate:
        lo *= 2.0
    while mean_prob(hi) < target_rate:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = mean_prob(mid)
        if abs(rate - target_rate) <= 1e-6:
            return mid
        if rate < target_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _standardize_columns(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1]), 1e-12)
    return (x - mean) / std


def _draw(truth: np.ndarray, spec: MissingSpec, rng: np.random.Generator) -> np.ndarray:
    """One mask under spec from rng; its columns are not checked.

    MAR: k = ceil(observed_fraction * D) columns stay fully observed, the
    rest go missing through a logistic model of those columns. The model's
    inputs are the observed columns standardized; its weights are standard
    normal, one per (observed, maskable) column pair, and its bias is
    calibrated so the mean missing probability is spec.rate. MNAR then
    hides the model's input columns with an MCAR overlay, so missingness
    depends on values that are themselves unobserved.
    """
    n, d = truth.shape
    if spec.mechanism is Mechanism.MCAR:
        return (rng.random((n, d)) >= spec.rate).astype(np.float64)
    k = math.ceil(spec.observed_fraction * d)
    if k < 1 or k >= d:
        raise ValueError(
            f"observed_fraction {spec.observed_fraction} keeps {k} of {d} columns; "
            "need at least 1 and fewer than all"
        )
    observed_cols = rng.choice(d, size=k, replace=False)
    maskable_cols = np.setdiff1d(np.arange(d), observed_cols)
    inputs = _standardize_columns(truth[:, observed_cols])
    weights = rng.standard_normal((k, maskable_cols.size))
    logits = inputs @ weights
    bias = calibrate_bias(logits, spec.rate)
    prob_missing = sigmoid(logits + bias)
    draws = rng.random((n, maskable_cols.size))
    mask = np.ones((n, d), dtype=np.float64)
    mask[:, maskable_cols] = draws >= prob_missing
    if spec.mechanism is Mechanism.MNAR:
        mask[:, observed_cols] = rng.random((n, k)) >= spec.overlay_rate
    return mask


def simulate(truth: np.ndarray, spec: MissingSpec) -> np.ndarray:
    """Mask (1 = observed) under spec over the complete matrix truth,
    redrawn until every column keeps an observed cell.

    Every attempt draws from one generator seeded once with spec.seed, so a
    retry continues that seed's stream instead of repeating the next seed's
    first draw.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim != 2:
        raise ValueError(f"truth must be 2-D, got shape {truth.shape}")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth must be complete (no NaN or infinite entries)")
    rng = np.random.default_rng(spec.seed)
    for _ in range(MAX_MASK_ATTEMPTS):
        mask = _draw(truth, spec, rng)
        observed = mask.sum(axis=0)
        if np.all(observed >= 1.0):
            return mask
    raise RuntimeError(
        f"could not draw a mask without a fully missing column "
        f"(column {int(np.argmin(observed))}) in {MAX_MASK_ATTEMPTS} attempts"
    )
