"""Mask simulation under the three classical missingness mechanisms.

MCAR draws each cell independently. MAR keeps a random 30% of the columns
(rounded up) fully observed and masks the rest through a logistic model of
the observed columns, standardized by tabular.standardize, with the bias
that hits the requested rate found by Brent's method (scipy's brentq;
the recipe of Muzellec et al., ICML 2020). MNAR reuses the MAR
construction and then hides the logistic model's own inputs with an MCAR
overlay at the same rate. simulate() refuses a truth with a NaN or
infinite cell (score.check_finite) and draws all three, redrawing from
the same generator until tabular.first_empty_column finds no empty
column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from .score import check_count, check_finite, sigmoid
from .tabular import TabularDataset, first_empty_column, standardize

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

    The mean rate rises strictly with b, so Brent's method finds b on the
    bracket ±(max|logits| + 800): there sigmoid is exactly 0 at one end
    and exactly 1 at the other, which brackets every rate in (0, 1). The
    rate's slope in b is at most 1/4, so xtol = 1e-9 keeps it well inside
    1e-6. logits must be non-empty and finite.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate must be in (0, 1), got {target_rate}")
    logits = np.asarray(logits, dtype=np.float64).ravel()
    if not logits.size:
        raise ValueError("logits must hold at least one value")
    check_finite("logits", logits)
    reach = float(np.abs(logits).max()) + 800.0
    return brentq(
        lambda b: float(sigmoid(logits + b).mean()) - target_rate, -reach, reach, xtol=1e-9
    )


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
    check_finite("truth", truth)
    rng = np.random.default_rng(spec.seed)
    for _ in range(MAX_MASK_ATTEMPTS):
        mask = _draw(truth, spec, rng)
        empty = first_empty_column(mask)
        if empty is None:
            return mask
    raise RuntimeError(
        f"could not draw a mask without a fully missing column "
        f"(column {empty}) in {MAX_MASK_ATTEMPTS} attempts"
    )
