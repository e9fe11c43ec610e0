"""Particle-flow imputation loop.

Each data row is a particle whose missing coordinates move along a velocity
field built from two ingredients: a score function (rows in, their
estimates of grad log p out), smoothed across particles by an RBF kernel,
and a kernel-gradient term that pulls particles together (weighted by
ner_weight) to discourage the spread a pure sampling procedure would
produce. The field is integrated by forward Euler; training the score
model and simulating the flow alternate for a configured number of rounds.
velocity() and euler_impute() take any score function; knewimp() hands
each round's flow partial(forward, net), its trained network bound to
score.forward. Each round's flow runs at one bandwidth h, which
euler_impute() takes from the round's starting matrix; h, like
KernelConfig.bandwidth, must be finite and > 0. In median mode knewimp()
checks that the pairwise distances fit in memory before any training.
The flow starts from tabular.initialize_missing (the mean fill,
tabular.mean_impute, plus jitter) and never reads the ground truth;
metrics.evaluate() scores the finished matrix.

Each Euler step costs O(N^2 D) in the kernel sums. velocity() evaluates
them over the incomplete rows only. The attraction is folded into the
score block, so one Gram product with a 2D-wide right-hand side,
kernel.gram_matmul, gives both terms in O(N) memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import kernel
from .kernel import KernelConfig
from .score import (
    DsmConfig,
    ScoreNetwork,
    TrainingDivergence,
    check_count,
    check_finite,
    check_positive,
    forward,
    init_network,
    train,
)
from .tabular import TabularDataset, checked_mask, initialize_missing

# A score function: rows in, the score at each row out.
ScoreFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WgfConfig:
    """Flow-simulation settings.

    ner_weight weighs the particle-attraction (negative-entropy) term;
    step_size and num_steps control the Euler integration; num_loops is the
    number of train-then-simulate rounds.
    """

    ner_weight: float = 1.0
    step_size: float = 0.1
    num_steps: int = 500
    num_loops: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.ner_weight < np.inf:
            raise ValueError(f"ner_weight must be finite and >= 0, got {self.ner_weight}")
        check_positive("step_size", self.step_size)
        check_count("num_steps", self.num_steps)
        check_count("num_loops", self.num_loops)


@dataclass(frozen=True)
class ImputationResult:
    """Final imputed matrix, phase timings and the trained network.

    imputed carries the observed entries bit-exactly and fills every missing
    cell; timings separate score-model training from flow simulation. The
    trained score network rides along for checkpointing.
    """

    imputed: np.ndarray
    estimate_seconds: float
    impute_seconds: float
    network: Optional[ScoreNetwork] = None


def velocity(
    x: np.ndarray, mask: np.ndarray, score: ScoreFn, h: float, ner_weight: float
) -> np.ndarray:
    """Per-particle velocity under the RBF bandwidth h, zero on observed coordinates.

    score maps rows to their scores. With s_j the masked score of row j
    and free_j = 1 - mask_j, row i receives

        v_i = (1/N) * sum_j [ G[i,j] * s_j
                              - ner_weight * grad_y K(x_i, y)|_{y=x_j} ⊙ free_j ]

    restricted to its own missing coordinates. The RBF kernel gradient
    expands to ((x_i - x_j)/h^2) G[i,j], so with lam = ner_weight / h^2 the
    attraction folds into the score block:

        v_i = (1/N) [ sum_j G[i,j] (s_j + lam x_j) ⊙ free_j
                      - lam x_i ⊙ sum_j G[i,j] free_j ],

    and one product of G with the 2D-wide right-hand side
    [(S + lam X) ⊙ F | F], kernel.gram_matmul, gives both sums. Rows
    without a missing cell get zero velocity and add zero to every sum, so
    only the incomplete rows are evaluated: score runs on them alone (it
    must act row by row), and G is built over them alone. The
    divisor stays N. The mask must hold only 0 and 1, and h must be finite
    and > 0.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = checked_mask(mask, x.shape)
    check_positive("bandwidth", h)
    n, d = x.shape
    rows = np.flatnonzero((mask == 0.0).any(axis=1))
    v = np.zeros_like(x)
    x_rows, free_rows = x[rows], 1.0 - mask[rows]
    lam = ner_weight / (h * h)
    rhs = np.empty((rows.size, 2 * d))
    rhs[:, :d] = (score(x_rows) + lam * x_rows) * free_rows
    rhs[:, d:] = free_rows
    prod = kernel.gram_matmul(x_rows, rhs, h)
    v_rows = prod[:, :d]
    v_rows -= lam * x_rows * prod[:, d:]
    v_rows /= n
    if not np.all(np.isfinite(v_rows)):
        raise FloatingPointError("velocity field contains non-finite values")
    v[rows] = v_rows * free_rows
    return v


def euler_impute(
    x0: np.ndarray,
    mask: np.ndarray,
    score: ScoreFn,
    kcfg: KernelConfig,
    wcfg: WgfConfig,
) -> np.ndarray:
    """Forward-Euler integration of the velocity field for one round.

    The bandwidth is fixed for the whole round: median_bandwidth(x0) in
    median mode when x0 has at least 2 rows, else kcfg.bandwidth.
    Observed entries are held at x0 bit-for-bit on every step. Errors
    name the step within the round.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x = x0.copy()
    mask = checked_mask(mask, x0.shape)
    check_finite("initial matrix", x)
    observed = mask == 1.0
    held = x0[observed]
    use_median = kcfg.use_median_heuristic and x0.shape[0] >= 2
    h = kernel.median_bandwidth(x0) if use_median else kcfg.bandwidth
    for step in range(1, wcfg.num_steps + 1):
        try:
            v = velocity(x, mask, score, h, wcfg.ner_weight)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"flow blew up at step {step}: {exc}; "
                "reduce the step size"
            ) from exc
        x = np.where(observed, x0, x + wcfg.step_size * v)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(
                f"state became non-finite at step {step}; "
                "reduce the step size"
            )
    if not np.array_equal(x[observed], held):
        raise RuntimeError("internal invariant violation: observed entries changed")
    return x


def knewimp(
    ds: TabularDataset,
    dcfg: DsmConfig,
    kcfg: KernelConfig,
    wcfg: WgfConfig,
    hidden: Optional[int] = None,
    seed: int = 0,
    initial_net: Optional[ScoreNetwork] = None,
) -> ImputationResult:
    """Alternating estimate/impute rounds on a standardized dataset.

    Each round trains the score model on the current imputed matrix (warm
    starting from the previous round's parameters) and then advances the
    particles along the flow, whose score is partial(forward, net). The
    master seed drives initialization, the network draw, and every round's
    training batches and noise through independent child streams.
    initial_net, when given, replaces the fresh seeded network (checkpoint
    warm start). hidden is the network's hidden width: None means 256 for a
    fresh network and initial_net's width for a warm start, and a width
    initial_net does not have is a ValueError naming both. A dataset
    without a missing cell is rejected before any training, and so, in
    median mode, is one whose pairwise distances do not fit in physical
    memory (a MemoryError naming the rows and bytes). ds.truth is never
    read. A diverging round re-raises its error with "round r of R" added
    to the message. seed must be an integer >= 0; anything else is a
    ValueError before any work.
    """
    check_count("seed", seed, least=0)
    if not np.any(ds.mask == 0.0):
        raise ValueError("dataset has no missing cells; nothing to impute")
    if kcfg.use_median_heuristic:
        kernel.check_median_memory(ds.values.shape[0])
    seeds = np.random.SeedSequence(seed).spawn(wcfg.num_loops + 2)
    init_seed, net_seed, *train_seeds = (int(s.generate_state(1)[0]) for s in seeds)

    x = initialize_missing(ds, seed=init_seed)
    if initial_net is None:
        net = init_network(ds.n_cols, 256 if hidden is None else hidden, seed=net_seed)
    else:
        net = initial_net
        width = net.layer_dims[1]
        if hidden not in (None, width):
            raise ValueError(
                f"hidden width {hidden} disagrees with initial_net's hidden width {width}"
            )
    if net.input_dim != ds.n_cols:
        raise ValueError(
            f"network expects {net.input_dim} columns, dataset has {ds.n_cols}"
        )
    estimate_seconds = 0.0
    impute_seconds = 0.0
    for loop, train_seed in enumerate(train_seeds):
        try:
            t0 = time.perf_counter()
            net, _ = train(net, x, dcfg, seed=train_seed)
            estimate_seconds += time.perf_counter() - t0

            t0 = time.perf_counter()
            x = euler_impute(x, ds.mask, partial(forward, net), kcfg, wcfg)
            impute_seconds += time.perf_counter() - t0
        except (TrainingDivergence, FloatingPointError) as exc:
            raise type(exc)(f"round {loop + 1} of {wcfg.num_loops}: {exc}") from exc
    return ImputationResult(
        imputed=x,
        estimate_seconds=estimate_seconds,
        impute_seconds=impute_seconds,
        network=net,
    )
