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
euler_impute() takes from the round's starting matrix (in median mode,
from a seeded subsample of at most _MEDIAN_ROWS of its rows); h, like
KernelConfig.bandwidth, must be finite and > 0. Each round's flow draws
from its own seeded generator. The flow starts from
tabular.initialize_missing (the mean fill, tabular.mean_impute, plus
jitter) and never reads the ground truth; metrics.evaluate() scores the
finished matrix.

velocity() evaluates the kernel sums over the incomplete rows only. The
attraction is folded into the score block, so one Gram product with a
2D-wide right-hand side, kernel.gram_matmul, gives both terms in O(N)
memory. Up to _KERNEL_BATCH incomplete rows that product is exact and a
step costs O(m^2 D) for m incomplete rows. Past it, each step takes the
sums within random batches of about _KERNEL_BATCH rows (the random batch
method of Jin, Li & Liu, J. Comput. Phys. 2020), rescaled to unbiased
estimates of the full sums, so a step costs O(m _KERNEL_BATCH D).
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

# Incomplete rows past which velocity() takes its kernel sums within random
# batches, about this many rows each (ROADMAP item 19). At the Wine shape
# (4898 x 11, median bandwidth, 2-core VM) batches of 1024 rows moved MAE
# over mean fill's by at most 0.001 and halved the flow's time, at 2 x 500
# and 8 x 50 steps over 3 seeds. With a row-sum velocity at median/4,
# batches of 1024 / 512 / 256 rows cost 0.0009 / 0.0028 / 0.0056 of that
# ratio, and 256-row batches were slower than none (per-batch overhead).
_KERNEL_BATCH = 1024

# Rows past which median mode takes the median bandwidth over a seeded
# subsample of this many distinct rows (ROADMAP item 1 Step 3). At
# 4898 x 11 that took 31 ms against 266 ms over all rows, held 16 MB of
# distances against 92 MB, and moved h by 0.3-0.6% over three draws.
_MEDIAN_ROWS = 2000


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
    x: np.ndarray,
    mask: np.ndarray,
    score: ScoreFn,
    h: float,
    ner_weight: float,
    rng: np.random.Generator,
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
    r = [(S + lam X) ⊙ F | F], kernel.gram_matmul, gives both sums. Rows
    without a missing cell get zero velocity and add zero to every sum, so
    only the m incomplete rows are evaluated: score runs on them alone, once
    (it must act row by row), and G is built over them alone. The divisor
    stays N.

    Up to _KERNEL_BATCH incomplete rows the sums are exact and rng is not
    drawn from. Past it, rng permutes the m rows and np.array_split cuts
    the permutation into ceil(m / _KERNEL_BATCH) batches of at least
    _KERNEL_BATCH / 2 rows, and every sum over j runs within row i's batch
    b of n_b rows (the random batch method):

        sum_j G[i,j] r_j  ~  r_i + (m - 1)/(n_b - 1) sum_{j in b, j != i} G[i,j] r_j.

    The self term is exact (K(x, x) = 1) and the pair terms are unbiased;
    one gram_matmul per batch gives them. The weights apply to all 2D
    columns of r, so the attraction is rescaled with the score. The mask
    must hold only 0 and 1, and h must be finite and > 0.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = checked_mask(mask, x.shape)
    check_positive("bandwidth", h)
    n, d = x.shape
    rows = np.flatnonzero((mask == 0.0).any(axis=1))
    m = rows.size
    v = np.zeros_like(x)
    x_rows, free_rows = x[rows], 1.0 - mask[rows]
    lam = ner_weight / (h * h)
    rhs = np.empty((m, 2 * d))
    rhs[:, :d] = (score(x_rows) + lam * x_rows) * free_rows
    rhs[:, d:] = free_rows
    if m <= _KERNEL_BATCH:
        prod = kernel.gram_matmul(x_rows, rhs, h)
    else:
        prod = np.empty_like(rhs)
        for b in np.array_split(rng.permutation(m), -(-m // _KERNEL_BATCH)):
            self_term = rhs[b]
            part = kernel.gram_matmul(x_rows[b], self_term, h)
            part -= self_term
            part *= (m - 1) / (b.size - 1)
            part += self_term
            prod[b] = part
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
    seed: int,
) -> np.ndarray:
    """Forward-Euler integration of the velocity field for one round.

    seed seeds the round's one np.random.Generator. The bandwidth is fixed
    for the whole round: in median mode, when x0 has at least 2 rows, the
    median_bandwidth of x0, or of _MEDIAN_ROWS distinct rows of x0 that
    the generator draws first when x0 has more; else kcfg.bandwidth. Every
    velocity() call then draws its random batches from the same generator,
    so the round is deterministic per seed. Observed entries are held at
    x0 bit-for-bit on every step. Errors name the step within the round.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x = x0.copy()
    mask = checked_mask(mask, x0.shape)
    check_finite("initial matrix", x)
    observed = mask == 1.0
    held = x0[observed]
    rng = np.random.default_rng(seed)
    n = x0.shape[0]
    h = kcfg.bandwidth
    if kcfg.use_median_heuristic and n >= 2:
        rows = rng.choice(n, _MEDIAN_ROWS, replace=False) if n > _MEDIAN_ROWS else slice(None)
        h = kernel.median_bandwidth(x0[rows])
    for step in range(1, wcfg.num_steps + 1):
        try:
            v = velocity(x, mask, score, h, wcfg.ner_weight, rng)
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
    master seed drives initialization, the network draw, every round's
    training batches and noise, and every round's flow (its median
    subsample and kernel batches) through independent child streams:
    SeedSequence(seed).spawn(2 * num_loops + 2) gives the init, network,
    num_loops training and num_loops flow seeds, in that order.
    initial_net, when given, replaces the fresh seeded network (checkpoint
    warm start). hidden is the network's hidden width: None means 256 for a
    fresh network and initial_net's width for a warm start, and a width
    initial_net does not have is a ValueError naming both. A dataset
    without a missing cell is rejected before any training. ds.truth is
    never read. A diverging round re-raises its error with "round r of R"
    added to the message. seed must be an integer >= 0; anything else is a
    ValueError before any work.
    """
    check_count("seed", seed, least=0)
    if not np.any(ds.mask == 0.0):
        raise ValueError("dataset has no missing cells; nothing to impute")
    seeds = np.random.SeedSequence(seed).spawn(2 * wcfg.num_loops + 2)
    init_seed, net_seed, *round_seeds = (int(s.generate_state(1)[0]) for s in seeds)
    train_seeds, flow_seeds = round_seeds[: wcfg.num_loops], round_seeds[wcfg.num_loops :]

    x = initialize_missing(ds, seed=init_seed)
    if initial_net is None:
        net = init_network(ds.n_cols, 256 if hidden is None else hidden, seed=net_seed)
    else:
        net = initial_net
        width = net.layer_dims[1]
        if hidden not in (None, width):
            raise ValueError(f"hidden width {hidden} disagrees with the warm-start "
                             f"network's hidden width {width}")
    if net.input_dim != ds.n_cols:
        raise ValueError(
            f"network expects {net.input_dim} columns, dataset has {ds.n_cols}"
        )
    estimate_seconds = 0.0
    impute_seconds = 0.0
    for loop, (train_seed, flow_seed) in enumerate(zip(train_seeds, flow_seeds)):
        try:
            t0 = time.perf_counter()
            net, _ = train(net, x, dcfg, seed=train_seed)
            estimate_seconds += time.perf_counter() - t0

            t0 = time.perf_counter()
            x = euler_impute(x, ds.mask, partial(forward, net), kcfg, wcfg, flow_seed)
            impute_seconds += time.perf_counter() - t0
        except (TrainingDivergence, FloatingPointError) as exc:
            raise type(exc)(f"round {loop + 1} of {wcfg.num_loops}: {exc}") from exc
    return ImputationResult(
        imputed=x,
        estimate_seconds=estimate_seconds,
        impute_seconds=impute_seconds,
        network=net,
    )
