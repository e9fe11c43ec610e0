"""Missing-value imputation by kernelized particle flow.

The pipeline alternates two phases: estimating the score (log-density
gradient) of the joint data distribution with a small MLP trained by
denoising score matching, and moving the missing coordinates of every row
along a kernel-smoothed, attraction-regularized velocity field integrated
with forward Euler. Masks for the standard missingness mechanisms and the
usual pointwise/distributional metrics round out the toolkit.
"""

from .imputer import (
    ImputationResult,
    WgfConfig,
    euler_impute,
    knewimp,
    velocity,
)
from .kernel import KernelConfig, gram_matmul, median_bandwidth
from .metrics import MetricReport, evaluate, mae, wasserstein2
from .missingness import (
    Mechanism,
    MissingSpec,
    calibrate_bias,
    simulate,
)
from .score import (
    DsmConfig,
    ScoreNetwork,
    dsm_loss_and_grad,
    forward,
    init_network,
    train,
)
from .tabular import (
    StandardizationStats,
    TabularDataset,
    from_complete,
    initialize_missing,
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
    "calibrate_bias",
    "dsm_loss_and_grad",
    "euler_impute",
    "evaluate",
    "forward",
    "from_complete",
    "gram_matmul",
    "init_network",
    "initialize_missing",
    "knewimp",
    "load_csv",
    "mae",
    "mean_impute",
    "median_bandwidth",
    "simulate",
    "standardize",
    "train",
    "velocity",
    "wasserstein2",
    "write_csv",
]

__version__ = "0.1.0"
