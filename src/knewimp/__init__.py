"""Missing-value imputation by kernelized particle flow.

The pipeline alternates two phases: estimating the score (log-density
gradient) of the joint data distribution with a small MLP trained by
denoising score matching, and moving the missing coordinates of every row
along a kernel-smoothed, attraction-regularized velocity field integrated
with forward Euler. Masks for the standard missingness mechanisms and the
usual pointwise/distributional metrics round out the toolkit.

The package exports the pipeline: tables, masks, the configs, knewimp()
and the metrics. The layers under it (the velocity and the Euler flow,
the Gram product and the bandwidth, the score network's training, the
bias calibration) are imported from their own modules.
"""

from .imputer import ImputationResult, WgfConfig, knewimp
from .kernel import KernelConfig
from .metrics import MetricReport, evaluate, mae, wasserstein2
from .missingness import Mechanism, MissingSpec, simulate
from .score import DsmConfig, ScoreNetwork
from .tabular import (
    StandardizationStats,
    TabularDataset,
    from_complete,
    load_csv,
    mean_impute,
    standardize,
    write_csv,
)

__all__ = [
    "DsmConfig",
    "ImputationResult",
    "KernelConfig",
    "Mechanism",
    "MetricReport",
    "MissingSpec",
    "ScoreNetwork",
    "StandardizationStats",
    "TabularDataset",
    "WgfConfig",
    "evaluate",
    "from_complete",
    "knewimp",
    "load_csv",
    "mae",
    "mean_impute",
    "simulate",
    "standardize",
    "wasserstein2",
    "write_csv",
]

__version__ = "0.1.0"
