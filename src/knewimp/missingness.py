"""Mask simulation under the three classical missingness mechanisms.

MCAR draws each cell independently. MAR keeps a random 30% of the columns
(rounded up) fully observed and masks the rest through a logistic model of
the observed columns, standardized by tabular.standardize, with the bias
calibrated by bisection to hit the requested rate (the recipe of Muzellec
et al., ICML 2020). MNAR reuses the MAR construction and then hides the
logistic model's own inputs with an MCAR overlay at the same rate. simulate() draws all three, redrawing from
the same generator until each column keeps an observed cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .score import check_count, sigmoid
from .tabular import TabularDataset, standardize

MAX_MASK_ATTEMPTS = 100

# Fraction of the columns (rounded up) that MAR and MNAR keep fully observed.
_OBSERVED_FRACTION = 0.3


class Mechanism(str, Enum):
    MCAR = "mcar"
    MAR = "mar"
    MNAR = "mnar"


@dataclass(frozen=True)
class MissingSpec:
    """Mechanism, missing rate and seed of a simulated mask.

    mechanism: a Mechanism or its value ("mcar", "mar", "mnar"), kept as
    the Mechanism. rate: missing fraction over maskable cells, open
    interval (0, 1). Under MNAR it is also the MCAR rate at which the
    logistic model's input columns are hidden. seed: an integer >= 0.
    """

    mechanism: Mechanism
    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "mechanism", Mechanism(self.mechanism))
        except ValueError:
            names = ", ".join(m.value for m in Mechanism)
            raise ValueError(
                f"mechanism must be one of {names}, got {self.mechanism!r}"
            ) from None
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")
        check_count("seed", self.seed, least=0)


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


def _draw(truth: np.ndarray, spec: MissingSpec, rng: np.random.Generator) -> np.ndarray:
    """One mask under spec from rng; its columns are not checked.

    MAR: k = ceil(0.3 * D) columns stay fully observed, the rest go missing
    through a logistic model of those columns. The model's inputs are the
    observed columns standardized; its weights are standard normal, one per
    (observed, maskable) column pair, and its bias is calibrated so the
    mean missing probability is spec.rate. MNAR then hides the model's
    input columns with an MCAR overlay at spec.rate, so missingness depends
    on values that are themselves unobserved. A table of one column has
    none left to mask under MAR or MNAR, which is a ValueError.
    """
    n, d = truth.shape
    if spec.mechanism is Mechanism.MCAR:
        return (rng.random((n, d)) >= spec.rate).astype(np.float64)
    k = math.ceil(_OBSERVED_FRACTION * d)
    if k >= d:
        raise ValueError(
            f"{spec.mechanism.value} keeps {k} of {d} columns fully observed "
            "and has none left to mask; it needs at least 2 columns"
        )
    observed_cols = rng.choice(d, size=k, replace=False)
    maskable_cols = np.setdiff1d(np.arange(d), observed_cols)
    inputs = standardize(TabularDataset(truth[:, observed_cols]))[0].values
    weights = rng.standard_normal((k, maskable_cols.size))
    logits = inputs @ weights
    bias = calibrate_bias(logits, spec.rate)
    prob_missing = sigmoid(logits + bias)
    draws = rng.random((n, maskable_cols.size))
    mask = np.ones((n, d), dtype=np.float64)
    mask[:, maskable_cols] = draws >= prob_missing
    if spec.mechanism is Mechanism.MNAR:
        mask[:, observed_cols] = rng.random((n, k)) >= spec.rate
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
