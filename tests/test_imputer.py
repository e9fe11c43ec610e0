import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import knewimp.imputer as imputer_mod
import knewimp.kernel as kernel_mod
import knewimp.score as score_mod
from knewimp.imputer import (
    ImputationResult,
    WgfConfig,
    euler_impute,
    knewimp,
    velocity,
)
from knewimp.kernel import KernelConfig, median_bandwidth
from knewimp.lanes import LANES
from knewimp.metrics import mae
from knewimp.missingness import Mechanism, MissingSpec, simulate
from knewimp.score import DsmConfig, TrainingDivergence, forward, init_network, train
from knewimp.tabular import (
    TabularDataset, from_complete, initialize_missing, mean_impute, standardize,
)
from oracles import (
    dense_velocity,
    rbm_pair_weights,
    gaussian_conditional_mean,
    grad_gram_second,
    mixture_conditional_mean,
)

KCFG = KernelConfig(bandwidth=1.0, use_median_heuristic=False)


def zero_score(x):
    return np.zeros_like(x)


def gaussian_score(x):
    return -x


class TestVelocity:
    def test_single_particle_equals_masked_score(self):
        net = init_network(2, 8, seed=2)
        x = np.array([[0.7, -0.3]])
        mask = np.array([[0.0, 0.0]])
        v = velocity(x, mask, partial(forward, net), 1.0, 3.0, np.random.default_rng(0))
        assert v == pytest.approx(forward(net, x), rel=1e-14)

    def test_two_particle_attraction_value(self):
        # Zero score, two free 1-D particles at 0 and 2, h=1: each particle
        # is pulled toward the other with speed ner_weight * exp(-2).
        x = np.array([[0.0], [2.0]])
        mask = np.zeros((2, 1))
        for lam in (0.5, 1.0, 2.0):
            v = velocity(x, mask, zero_score, 1.0, ner_weight=lam, rng=np.random.default_rng(0))
            expect = lam * np.exp(-2.0)
            assert v[0, 0] == pytest.approx(expect, rel=1e-12)
            assert v[1, 0] == pytest.approx(-expect, rel=1e-12)

    def test_zero_on_observed_coordinates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            mask = (rng.random((n, d)) > 0.5).astype(float)
            net = init_network(d, 8, seed=int(rng.integers(1000)))
            v = velocity(x, mask, partial(forward, net), 0.5, 1.0, np.random.default_rng(0))
            assert np.all(v[mask == 1.0] == 0.0)

    def test_pairwise_distance_shrinks_under_attraction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal((2, 3))
            mask = np.zeros((2, 3))
            v = velocity(x, mask, zero_score, 1.5, 1.0, np.random.default_rng(0))
            stepped = x + 0.05 * v
            assert np.linalg.norm(stepped[0] - stepped[1]) < np.linalg.norm(x[0] - x[1])


def reference_velocity(x, mask, net, h, ner_weight):
    """The velocity as its literal double sum; independent oracle.

    v_i = (1/N) sum_j [G_ij s_j - ner_weight grad_y K(x_i, x_j) ⊙ f_j] ⊙ f_i,
    where f = 1 - mask and s_j is the masked score.
    """
    n = x.shape[0]
    free = 1.0 - mask
    scores = forward(net, x) * free
    v = np.zeros_like(x)
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            g_ij = np.exp(-(diff @ diff) / (2.0 * h * h))
            v[i] += g_ij * scores[j] - ner_weight * grad_gram_second(x[i], x[j], h) * free[j]
    return v / n * free


TILE_HEIGHTS = (1, 7, kernel_mod._TILE_ROWS, 10_000)


class TestVelocityOracle:
    @pytest.mark.parametrize("tile", TILE_HEIGHTS)
    def test_matches_double_sum(self, monkeypatch, tile):
        monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
        rng = np.random.default_rng(31)
        for trial in range(12):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 7))
            x = rng.standard_normal((n, d))
            mask = (rng.random((n, d)) > rng.uniform(0.2, 0.8)).astype(float)
            mask[rng.random(n) < 0.2] = 1.0  # fully observed rows
            mask[rng.random(n) < 0.2] = 0.0  # fully missing rows
            net = init_network(d, 16, seed=trial)
            use_median = n >= 2 and trial % 3 == 0
            drawn = float(rng.uniform(0.4, 2.0))
            h = median_bandwidth(x) if use_median else drawn
            lam = float(rng.uniform(0.0, 3.0))
            v = velocity(x, mask, partial(forward, net), h, lam, np.random.default_rng(0))
            ref = reference_velocity(x, mask, net, h, lam)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_complete_and_empty_masks(self):
        x = np.random.default_rng(32).standard_normal((6, 3))
        net = init_network(3, 8, seed=0)
        rng = np.random.default_rng(0)
        v = velocity(x, np.ones((6, 3)), partial(forward, net), 1.0, 1.0, rng)
        assert np.array_equal(v, np.zeros((6, 3)))
        ref = reference_velocity(x, np.zeros((6, 3)), net, 1.0, 1.0)
        v = velocity(x, np.zeros((6, 3)), partial(forward, net), 1.0, 1.0, rng)
        assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_euler_impute_independent_of_tile_height(self, monkeypatch):
        rng = np.random.default_rng(33)
        x0 = rng.standard_normal((40, 3))
        mask = (rng.random((40, 3)) > 0.4).astype(float)
        net = init_network(3, 16, seed=34)
        cfg = WgfConfig(step_size=0.1, num_steps=15, num_loops=1)
        runs = []
        for tile in TILE_HEIGHTS:
            monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
            runs.append(euler_impute(x0, mask, partial(forward, net), KCFG, cfg, 0))
        for x in runs[1:]:
            assert np.abs(x - runs[0]).max() <= 1e-12 * np.abs(runs[0]).max()


def incomplete_rows_table(m, n_complete, d, seed):
    """n_complete fully observed rows, then m rows with at least one missing
    cell each."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m + n_complete, d))
    mask = (rng.random(x.shape) > 0.4).astype(float)
    mask[:n_complete] = 1.0
    mask[n_complete + np.arange(m), rng.integers(0, d, m)] = 0.0
    return x, mask


class TestVelocityAcrossTiles:
    """The default tile height over one tile, a tile plus one row (two
    lanes), a tile per lane, a one-row third tile, and a ragged last tile
    past 512 rows, against the dense N x N oracle."""

    @pytest.mark.parametrize("m", [128, 129, 256, 257, 601])
    def test_matches_dense_oracle(self, m):
        assert kernel_mod._TILE_ROWS == 128
        x, mask = incomplete_rows_table(m, 23, 5, seed=m)
        net = init_network(5, 16, seed=m)
        for h in (1.5, median_bandwidth(x)):
            v = velocity(x, mask, partial(forward, net), h, 0.7, np.random.default_rng(0))
            ref = dense_velocity(x, mask, forward(net, x), h, 0.7)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [129, 257, 601])
    @pytest.mark.parametrize("h", [0.25, 1.5])
    def test_folded_attraction_matches_dense_oracle(self, m, h):
        # The attraction rides in the score block as lambda * x with
        # lambda = ner_weight / h^2, up to 160 here; a fold that is off by
        # a factor or a sign, or that skips the transposed tiles, fails.
        x, mask = incomplete_rows_table(m, 23, 5, seed=m + 1)
        net = init_network(5, 16, seed=m + 1)
        scores = forward(net, x)
        for ner_weight in (0.0, 3.0, 10.0):
            v = velocity(x, mask, partial(forward, net), h, ner_weight, np.random.default_rng(0))
            ref = dense_velocity(x, mask, scores, h, ner_weight)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_step_memory_is_tile_rows_plus_linear(self):
        # Doubles a step past _KERNEL_BATCH incomplete rows holds. Per row:
        # the rows' values, free mask and velocity, the 2D-wide right-hand
        # side and product, the row index and the permutation. Per row of a
        # batch, at most _KERNEL_BATCH of them: its values and 2D-wide self
        # term, its two (D + 2)-wide Gram operands, the x-wide temporaries
        # of building them and their norm column, and each lane's 2D-wide
        # sum. Per lane: one _TILE_ROWS x _KERNEL_BATCH Gram tile, a
        # tile-high upper product and a batch-wide transposed product, 2D
        # doubles each per row or column. The last two parts are the same
        # at both row counts. numpy's fixed-size ufunc buffers get 2**17
        # bytes. An m x m array, a batch x batch Gram or a 2D x m temporary
        # at 6000 rows would break the bound. BLAS packing buffers are not
        # traced.
        d = 4
        tile, batch = kernel_mod._TILE_ROWS, imputer_mod._KERNEL_BATCH
        per_row = 7 * d + 2
        per_batch_row = 3 * d + 2 * (d + 2) + d + 2 + LANES * 2 * d
        per_lane = tile * batch + 2 * d * (tile + batch)
        fixed = per_batch_row * batch + LANES * per_lane
        for m in (2000, 6000):
            assert m > batch
            x, mask = incomplete_rows_table(m, 0, d, seed=3)
            tracemalloc.start()
            try:
                velocity(x, mask, gaussian_score, 1.5, 1.0, np.random.default_rng(0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * (per_row * m + fixed) + 2**17


def drawn_batches(seed, mask, batch):
    """The batches, as row indices, that velocity() draws from
    default_rng(seed) with _KERNEL_BATCH = batch."""
    rows = np.flatnonzero((mask == 0.0).any(axis=1))
    perm = np.random.default_rng(seed).permutation(rows.size)
    return [rows[b] for b in np.array_split(perm, -(-rows.size // batch))]


class TestRandomBatches:
    """Past _KERNEL_BATCH incomplete rows the kernel sums run within random
    batches, rescaled by (m - 1)/(n_b - 1) off the self term."""

    @pytest.mark.parametrize("batch", [7, 64])
    @pytest.mark.parametrize("m", [129, 601])
    def test_matches_rbm_oracle(self, monkeypatch, batch, m):
        monkeypatch.setattr(imputer_mod, "_KERNEL_BATCH", batch)
        x, mask = incomplete_rows_table(m, 23, 5, seed=m + 2)
        net = init_network(5, 16, seed=m + 2)
        scores = forward(net, x)
        batches = drawn_batches(m, mask, batch)
        assert all(batch // 2 <= len(b) <= batch for b in batches)
        weights = rbm_pair_weights(x.shape[0], batches)
        for h, ner_weight in ((1.5, 0.7), (0.25, 3.0)):
            v = velocity(x, mask, partial(forward, net), h, ner_weight, np.random.default_rng(m))
            ref = dense_velocity(x, mask, scores, h, ner_weight, weights)
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()
            exact = dense_velocity(x, mask, scores, h, ner_weight)
            assert np.abs(v - exact).max() > 1e-3 * np.abs(exact).max()

    @pytest.mark.parametrize(
        "m, sizes",
        [(1025, [513, 512]), (2049, [683] * 3), (1024, [1024]), (4999, [1000] * 4 + [999])],
    )
    def test_one_product_per_batch(self, monkeypatch, m, sizes):
        # At the default _KERNEL_BATCH, one exact product up to 1024 rows,
        # then ceil(m / 1024) batches of at least 512 rows cover every
        # incomplete row once. No product sees more than _KERNEL_BATCH
        # rows, which bounds gram_matmul's tiles at _TILE_ROWS x 1024.
        x, mask = incomplete_rows_table(m, 5, 2, seed=m)
        seen, gram_matmul = [], kernel_mod.gram_matmul

        def spy(rows, rhs, h):
            seen.append(rows)
            return gram_matmul(rows, rhs, h)

        monkeypatch.setattr(kernel_mod, "gram_matmul", spy)
        velocity(x, mask, gaussian_score, 1.5, 1.0, np.random.default_rng(0))
        assert [len(rows) for rows in seen] == sizes
        assert max(len(rows) for rows in seen) <= imputer_mod._KERNEL_BATCH
        covered = np.sort(np.concatenate(seen), axis=0)
        assert np.array_equal(covered, np.sort(x[5:], axis=0))

    def test_exact_up_to_the_batch_size(self, monkeypatch):
        # m == _KERNEL_BATCH takes the one exact product, bit for bit, and
        # draws nothing from the generator.
        x, mask = incomplete_rows_table(129, 23, 5, seed=36)
        score = partial(forward, init_network(5, 16, seed=36))
        exact = velocity(x, mask, score, 1.5, 0.7, np.random.default_rng(0))
        monkeypatch.setattr(imputer_mod, "_KERNEL_BATCH", 129)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert np.array_equal(velocity(x, mask, score, 1.5, 0.7, rng), exact)
        assert rng.bit_generator.state == state

    def test_euler_impute_deterministic_per_seed_across_tiles(self, monkeypatch):
        monkeypatch.setattr(imputer_mod, "_KERNEL_BATCH", 64)
        x0, mask = incomplete_rows_table(200, 10, 3, seed=37)
        score = partial(forward, init_network(3, 16, seed=37))
        cfg = WgfConfig(step_size=0.1, num_steps=10, num_loops=1)
        runs = []
        for tile in (1, 7, 128):
            monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
            runs.append(euler_impute(x0, mask, score, KCFG, cfg, 5))
        assert np.array_equal(euler_impute(x0, mask, score, KCFG, cfg, 5), runs[-1])
        for x in runs[:-1]:
            assert np.abs(x - runs[-1]).max() <= 1e-12 * np.abs(runs[-1]).max()
        other = euler_impute(x0, mask, score, KCFG, cfg, 6)
        assert np.abs(other - runs[-1]).max() > 1e-6


def test_median_over_a_seeded_subsample(monkeypatch):
    # Past 2000 rows median mode takes h over 2000 distinct rows of x0,
    # drawn per seed; up to 2000 rows, over all of them.
    seen = []

    def spy(x):
        seen.append(x)
        return median_bandwidth(x)

    monkeypatch.setattr(kernel_mod, "median_bandwidth", spy)
    x0, mask = incomplete_rows_table(20, 2480, 3, seed=38)
    kcfg = KernelConfig()
    cfg = WgfConfig(num_steps=1, num_loops=1)
    for seed in (1, 1, 2):
        euler_impute(x0, mask, zero_score, kcfg, cfg, seed)
    index = {row.tobytes(): i for i, row in enumerate(x0)}
    first, again, other = ([index[row.tobytes()] for row in x] for x in seen)
    assert len(set(first)) == len(first) == 2000
    assert first == again and first != other
    seen.clear()
    euler_impute(x0[-2000:], mask[-2000:], zero_score, kcfg, cfg, 1)
    assert len(seen) == 1 and np.array_equal(seen[0], x0[-2000:])


def test_conditional_mean_oracle_closed_form():
    # Two columns with correlation rho: E[x_2 | x_1] = rho x_1, and a row
    # with nothing observed gets the mean, 0.
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    x = np.array([[2.0, 9.0], [9.0, -1.5], [9.0, 9.0], [3.0, 4.0]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    expect = np.array([[2.0, 1.2], [-0.9, -1.5], [0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(gaussian_conditional_mean(x, mask, cov), expect, rtol=0, atol=1e-15)


def bayes_floor_ratio():
    """MAE over the Bayes floor on 1000 x 11 Gaussian AR(1) rows
    (correlation 0.7^|i-j|) under MCAR 0.3, at the default config with the
    per-round median bandwidth. The floor is the conditional mean under the
    true covariance, the best any imputer can do in expectation. The data
    and mask seeds are drawn apart from knewimp's, so its starting jitter
    is not the data's noise."""
    n, d, rho = 1000, 11, 0.7
    cov = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    truth = np.random.default_rng(2024).standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    mask = simulate(truth, MissingSpec(mechanism=Mechanism.MCAR, rate=0.3, seed=2025))
    floor = mae(truth, gaussian_conditional_mean(truth, mask, cov), mask)
    kcfg = KernelConfig()
    result = knewimp(from_complete(truth, mask), DsmConfig(), kcfg, WgfConfig(), seed=0)
    return mae(truth, result.imputed, mask) / floor


def test_median_bandwidth_near_the_bayes_floor():
    # 1000 rows train full-batch at the default _BATCH_ROWS.
    ratio = bayes_floor_ratio()
    assert ratio <= 1.2, f"MAE is {ratio:.3f} x the Bayes floor"


def test_minibatch_training_near_the_bayes_floor(monkeypatch):
    # The same table trained on minibatches of 256 rows, under the same gate.
    monkeypatch.setattr(score_mod, "_BATCH_ROWS", 256)
    ratio = bayes_floor_ratio()
    assert ratio <= 1.2, f"MAE is {ratio:.3f} x the Bayes floor"


def test_mixture_conditional_mean_oracle_closed_form():
    # Components N(+-(1, 1), [[1, .5], [.5, 1]]) with weights 1/4 and 3/4.
    # x_1 = 1 observed: the conditional means of x_2 are 1 and 0, and the
    # posterior of the first component is 1 / (1 + 3 e^-2). x_2 = -1
    # observed: they are 0 and -1, and that posterior is 1 / (1 + 3 e^2). A
    # row with nothing observed gets the mixture mean, -1/2.
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    means = np.array([[1.0, 1.0], [-1.0, -1.0]])
    x = np.array([[1.0, 9.0], [9.0, -1.0], [9.0, 9.0], [3.0, 4.0]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    p1, p2 = 1.0 / (1.0 + 3.0 * np.exp(-2.0)), 1.0 / (1.0 + 3.0 * np.exp(2.0))
    expect = np.array([[1.0, p1], [p2 - 1.0, -1.0], [-0.5, -0.5], [3.0, 4.0]])
    got = mixture_conditional_mean(x, mask, [0.25, 0.75], means, cov)
    assert np.allclose(got, expect, rtol=0, atol=1e-15)


class MixtureTable:
    """1000 x 11 rows from three Gaussian components (weights 0.4 / 0.3 /
    0.3, means 1.5 x a random +-1 vector each, shared covariance
    0.5 x 0.5^|i-j|), standardized by the mixture's true mean and sd, under
    MCAR 0.3. Its Bayes floor E[x_m | x_o] is not linear in x_o. The data
    and mask seeds are drawn apart from knewimp's."""

    n, d, weights = 1000, 11, np.array([0.4, 0.3, 0.3])

    def __init__(self):
        d, w = self.d, self.weights
        cov = 0.5 * 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        means = 1.5 * np.random.default_rng(7).choice([-1.0, 1.0], size=(3, d))
        mean = w @ means
        full = cov + (w[:, None] * (means - mean)).T @ (means - mean)
        sd = np.sqrt(np.diag(full))
        rng = np.random.default_rng(2024)
        labels = rng.choice(3, size=self.n, p=w)
        draws = rng.standard_normal((self.n, d)) @ np.linalg.cholesky(cov).T + means[labels]
        self.truth = (draws - mean) / sd
        self.means, self.cov = (means - mean) / sd, cov / np.outer(sd, sd)
        self.mask = simulate(self.truth, MissingSpec(mechanism=Mechanism.MCAR, rate=0.3, seed=2025))
        self.ds = from_complete(self.truth, self.mask)
        self.mean_fill = mae(self.truth, mean_impute(self.ds), self.mask)
        # The best linear imputer: the Gaussian conditional mean under the
        # table's true (standardized) covariance.
        linear = gaussian_conditional_mean(self.truth, self.mask, full / np.outer(sd, sd))
        self.linear_floor = self.ratio(linear)
        self.mixture_floor = self.ratio(
            mixture_conditional_mean(self.truth, self.mask, w, self.means, self.cov)
        )

    def ratio(self, imputed):
        """MAE over the missing cells, as a fraction of mean fill's."""
        return mae(self.truth, imputed, self.mask) / self.mean_fill

    def score(self, x):
        """The exact score of the mixture: each component's Gaussian score
        weighted by its posterior at x."""
        dev = x[:, None, :] - self.means
        solved = dev @ np.linalg.inv(self.cov)
        log_post = np.log(self.weights) - 0.5 * (dev * solved).sum(axis=2)
        post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        return -(post[:, :, None] * solved).sum(axis=1)


@pytest.fixture(scope="module")
def mixture():
    return MixtureTable()


def test_exact_score_flow_beats_the_linear_floor(mixture):
    # One round of 1000 steps of 0.1 at the median bandwidth, driven by the
    # true score, lands below the best linear imputer (0.431 < 0.458; the
    # mixture floor is 0.395): the flow itself can use the non-linear law.
    x0 = initialize_missing(mixture.ds, seed=0)
    kcfg = KernelConfig()
    wcfg = WgfConfig(num_steps=1000, step_size=0.1, num_loops=1)
    ratio = mixture.ratio(euler_impute(x0, mixture.mask, mixture.score, kcfg, wcfg, 0))
    assert ratio < mixture.linear_floor, (ratio, mixture.linear_floor)


def test_learned_flow_near_the_mixture_floor(mixture):
    # The default config with the median bandwidth, seed 0, measured 1.19 x
    # the mixture floor (0.470 against a linear floor of 0.458). This is a
    # regression guard; the target for quality work is the learned flow
    # below the linear floor, as the exact-score flow already is.
    kcfg = KernelConfig()
    result = knewimp(mixture.ds, DsmConfig(), kcfg, WgfConfig(), seed=0)
    ratio = mixture.ratio(result.imputed) / mixture.mixture_floor
    assert ratio <= 1.25, f"MAE is {ratio:.3f} x the mixture floor"


class TestMaskEntries:
    @pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, "shape"])
    def test_bad_mask_rejected(self, bad):
        x = np.random.default_rng(14).standard_normal((4, 2))
        mask = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        if bad == "shape":
            mask, match = mask[:3], "mask shape"
        else:
            mask[2, 1], match = bad, "0 or 1"
        with pytest.raises(ValueError, match=match):
            velocity(x, mask, zero_score, 1.0, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match=match):
            euler_impute(x, mask, zero_score, KCFG, WgfConfig(num_steps=2, num_loops=1), 0)


class TestBandwidth:
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_velocity_rejects_bad_bandwidth(self, h):
        x = np.random.default_rng(15).standard_normal((4, 2))
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            velocity(x, np.zeros((4, 2)), zero_score, h, 1.0, np.random.default_rng(0))

    def test_median_mode_holds_the_starting_median(self):
        # Median mode resolves h once, from x0, and keeps it for every step.
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal((40, 3))
        mask = (rng.random((40, 3)) > 0.4).astype(float)
        score = partial(forward, init_network(3, 16, seed=17))
        cfg = WgfConfig(step_size=0.1, num_steps=10, num_loops=1)
        median = euler_impute(x0, mask, score, KernelConfig(), cfg, 0)
        fixed_h = KernelConfig(bandwidth=median_bandwidth(x0), use_median_heuristic=False)
        fixed = euler_impute(x0, mask, score, fixed_h, cfg, 0)
        assert np.array_equal(median, fixed)
        # One row has no pairwise distance: the fixed bandwidth stands in.
        x1, mask1 = x0[:1], np.zeros((1, 3))
        median = euler_impute(x1, mask1, score, KernelConfig(), cfg, 0)
        fixed_h = KernelConfig(use_median_heuristic=False)
        fixed = euler_impute(x1, mask1, score, fixed_h, cfg, 0)
        assert np.array_equal(median, fixed)


class TestEulerImpute:
    def test_linear_decay_contract(self):
        # dx/dt = -x integrated with step 0.5 halves the state each step.
        x0 = np.array([[1.0]])
        mask = np.zeros((1, 1))
        cfg = WgfConfig(ner_weight=0.0, step_size=0.5, num_steps=2, num_loops=1)
        x = euler_impute(x0, mask, gaussian_score, KCFG, cfg, 0)
        assert x[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_zero_velocity_fixed_point(self):
        net = init_network(2, 4, seed=0)
        for w in net.weights:
            w[:] = 0.0
        x0 = np.random.default_rng(6).standard_normal((5, 2))
        mask = (np.random.default_rng(7).random((5, 2)) > 0.5).astype(float)
        cfg = WgfConfig(ner_weight=0.0, step_size=0.1, num_steps=20, num_loops=1)
        x = euler_impute(x0, mask, partial(forward, net), KCFG, cfg, 0)
        assert np.array_equal(x, x0)

    def test_observed_entries_bit_identical(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((20, 3))
        mask = (rng.random((20, 3)) > 0.4).astype(float)
        net = init_network(3, 16, seed=9)
        cfg = WgfConfig(step_size=0.1, num_steps=50, num_loops=1)
        x = euler_impute(x0, mask, partial(forward, net), KCFG, cfg, 0)
        obs = mask == 1.0
        assert np.array_equal(x[obs], x0[obs])
        assert not np.array_equal(x[~obs], x0[~obs])

    def test_geometric_contraction_single_particle(self):
        x0 = np.array([[1.7]])
        mask = np.zeros((1, 1))
        cfg = WgfConfig(ner_weight=0.0, step_size=0.1, num_steps=200, num_loops=1)
        x = euler_impute(x0, mask, gaussian_score, KCFG, cfg, 0)
        assert abs(x[0, 0] - 0.9**200 * 1.7) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_step(self):
        big = lambda x: x * 1e8  # strongly expanding field
        x0 = np.array([[1.0]])
        mask = np.zeros((1, 1))
        cfg = WgfConfig(ner_weight=0.0, step_size=10.0, num_steps=100, num_loops=1)
        with pytest.raises(FloatingPointError, match="step"):
            euler_impute(x0, mask, big, KCFG, cfg, 0)


def make_dataset(n=120, rho=0.8, rate=0.3, seed=0):
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    truth = rng.standard_normal((n, 2)) @ chol.T
    mask = (rng.random((n, 2)) >= rate).astype(float)
    mask[0] = 1.0
    ds, _ = standardize(from_complete(truth, mask))
    return ds


class TestKnewimp:
    FAST = dict(
        dcfg=DsmConfig(epochs=60),
        kcfg=KernelConfig(bandwidth=0.5, use_median_heuristic=False),
        wcfg=WgfConfig(step_size=0.1, num_steps=80, num_loops=2),
        hidden=32,
    )

    def test_deterministic(self):
        ds = make_dataset()
        a = knewimp(ds, seed=5, **self.FAST)
        b = knewimp(ds, seed=5, **self.FAST)
        assert np.array_equal(a.imputed, b.imputed)

    def test_observed_entries_preserved(self):
        ds = make_dataset(seed=1)
        result = knewimp(ds, seed=2, **self.FAST)
        obs = ds.mask == 1.0
        assert np.array_equal(result.imputed[obs], ds.values[obs])
        assert np.all(np.isfinite(result.imputed))

    def test_single_loop_unrolls(self):
        ds = make_dataset(seed=3)
        cfg = dict(self.FAST)
        cfg["wcfg"] = WgfConfig(step_size=0.1, num_steps=80, num_loops=1)
        seed = 7
        result = knewimp(ds, seed=seed, **cfg)

        # Children 0-2 seed the start, the network and the round's training,
        # child 3 the round's flow.
        init_seed, net_seed, train_seed, flow_seed = (
            s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(4)
        )
        x = initialize_missing(ds, seed=init_seed)
        net = init_network(ds.n_cols, 32, seed=net_seed)
        net, _ = train(net, x, cfg["dcfg"], seed=train_seed)
        x = euler_impute(x, ds.mask, partial(forward, net), cfg["kcfg"], cfg["wcfg"], flow_seed)
        assert np.array_equal(result.imputed, x)

    def test_metric_improves_on_correlated_data(self):
        ds = make_dataset(n=200, seed=4)
        result = knewimp(ds, seed=9, **self.FAST)
        # knewimp()'s starting matrix: its first child seed initializes.
        init_seed = int(np.random.SeedSequence(9).spawn(1)[0].generate_state(1)[0])
        first = mae(ds.truth, initialize_missing(ds, seed=init_seed), ds.mask)
        last = mae(ds.truth, result.imputed, ds.mask)
        assert last < first

    def test_timings_positive(self):
        ds = make_dataset(seed=5)
        result = knewimp(ds, seed=1, **self.FAST)
        assert result.estimate_seconds > 0.0
        assert result.impute_seconds > 0.0

    def test_never_reads_the_truth(self, monkeypatch):
        # With every metric made to fail, a dataset that carries its truth
        # runs to the same matrix as one without.
        ds = make_dataset(seed=6)
        without = knewimp(replace(ds, truth=None), seed=3, **self.FAST)

        def fail(*args, **kwargs):
            raise AssertionError("a metric was computed during the run")

        monkeypatch.setattr("knewimp.metrics.mae", fail)
        monkeypatch.setattr("knewimp.metrics.wasserstein2", fail)
        with_truth = knewimp(ds, seed=3, **self.FAST)
        assert np.array_equal(with_truth.imputed, without.imputed)

    def test_flow_error_names_the_round(self, monkeypatch):
        ds = make_dataset(seed=7)
        rounds = []
        real_train, real_velocity = imputer_mod.train, imputer_mod.velocity

        def counting_train(*args, **kwargs):
            rounds.append(len(rounds) + 1)
            return real_train(*args, **kwargs)

        def velocity_failing_in_round_2(*args):
            if rounds[-1] == 2:
                raise FloatingPointError("velocity field contains non-finite values")
            return real_velocity(*args)

        monkeypatch.setattr(imputer_mod, "train", counting_train)
        monkeypatch.setattr(imputer_mod, "velocity", velocity_failing_in_round_2)
        with pytest.raises(FloatingPointError, match="^round 2 of 2: flow blew up at step 1:"):
            knewimp(ds, seed=1, **self.FAST)

    def test_training_error_names_the_round(self, monkeypatch):
        ds = make_dataset(seed=8)
        rounds = []
        real_train = imputer_mod.train

        def train_failing_in_round_2(*args, **kwargs):
            rounds.append(len(rounds) + 1)
            if rounds[-1] == 2:
                raise TrainingDivergence("training diverged at epoch 3")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(imputer_mod, "train", train_failing_in_round_2)
        with pytest.raises(
            TrainingDivergence, match="^round 2 of 2: training diverged at epoch 3$"
        ):
            knewimp(ds, seed=1, **self.FAST)

    def test_no_missing_cells_rejected_before_training(self, monkeypatch):
        truth = np.random.default_rng(13).standard_normal((10, 2))
        ds = from_complete(truth, np.ones((10, 2)))

        def fail_train(*args, **kwargs):
            raise AssertionError("trained on a complete table")

        monkeypatch.setattr(imputer_mod, "train", fail_train)
        with pytest.raises(ValueError, match="no missing cells"):
            knewimp(ds, seed=0, **self.FAST)

    def test_network_rides_along(self):
        ds = make_dataset(seed=7)
        result = knewimp(ds, seed=4, **self.FAST)
        assert result.network is not None
        assert result.network.input_dim == ds.n_cols


# One small knewimp() run, its imputed matrix saved to argv[1]; argv[2] == "1"
# turns on the median bandwidth. With 1200 rows (1121 of them incomplete),
# training and the flow's score forward both run over more than one chunk
# of score._CHUNK_ROWS (three at 512 rows), and the flow's kernel sums run
# in random batches (two of about 560 rows at _KERNEL_BATCH = 1024).
_BLAS_RUN = """
import sys
import numpy as np
from knewimp import DsmConfig, KernelConfig, WgfConfig, knewimp
from knewimp.tabular import from_complete, standardize

rng = np.random.default_rng(0)
truth = rng.standard_normal((1200, 8)) @ rng.standard_normal((8, 8))
mask = (rng.random(truth.shape) >= 0.3).astype(float)
ds, _ = standardize(from_complete(truth, mask))
result = knewimp(
    ds,
    DsmConfig(epochs=5),
    KernelConfig(use_median_heuristic=sys.argv[2] == "1"),
    WgfConfig(num_steps=5, num_loops=2),
    hidden=256,
    seed=1,
)
np.save(sys.argv[1], result.imputed)
"""


class TestThreadDeterminism:
    @pytest.mark.parametrize("median", ["0", "1"])
    def test_blas_thread_count(self, tmp_path, median):
        # Multithreaded BLAS may split sums differently, so the runs agree to
        # round-off (the benchmark's 1e-9 relative), not bit for bit.
        src = str(Path(imputer_mod.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        imputed = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out), median],
                           env=env, check=True, timeout=300)
            imputed.append(np.load(out))
        one, two = imputed
        assert np.abs(one - two).max() <= 1e-9 * max(np.abs(one).max(), 1.0)


class TestMeanImpute:
    def test_standardized_missing_near_zero(self):
        ds = make_dataset(seed=8)
        imputed = mean_impute(ds)
        assert np.abs(imputed[ds.mask == 0.0]).max() < 1e-10

    def test_no_missing_identity(self):
        truth = np.random.default_rng(12).standard_normal((5, 2))
        ds = from_complete(truth, np.ones((5, 2)))
        assert np.array_equal(mean_impute(ds), truth)

    def test_column_mean_value(self):
        values = np.array([[1.0, 0.0], [3.0, 0.0], [np.nan, 0.0]])
        ds = TabularDataset(values=values)
        assert mean_impute(ds)[2, 0] == pytest.approx(2.0)


def test_wgf_config_validation():
    with pytest.raises(ValueError):
        WgfConfig(step_size=0.0)
    with pytest.raises(ValueError):
        WgfConfig(num_steps=0)
    with pytest.raises(ValueError):
        WgfConfig(num_loops=0)
    with pytest.raises(ValueError):
        WgfConfig(ner_weight=-0.5)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("make", [
    lambda v: KernelConfig(bandwidth=v, use_median_heuristic=False),
    lambda v: WgfConfig(step_size=v),
    lambda v: WgfConfig(ner_weight=v),
], ids=["bandwidth", "step_size", "ner_weight"])
def test_non_finite_settings_rejected(make, value):
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "whole-float", "bool"])
@pytest.mark.parametrize("make, field", [
    (lambda v: DsmConfig(epochs=v), "epochs"),
    (lambda v: WgfConfig(num_steps=v), "num_steps"),
    (lambda v: WgfConfig(num_loops=v), "num_loops"),
    (lambda v: init_network(2, v, seed=0), "hidden"),
], ids=["epochs", "num_steps", "num_loops", "hidden"])
def test_non_integer_counts_rejected(make, field, value):
    # Refused up front, not by range() or numpy after a round of training.
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        make(value)


def test_numpy_integer_counts_accepted():
    three = np.int64(3)
    assert DsmConfig(epochs=three).epochs == 3
    assert WgfConfig(num_steps=three, num_loops=three).num_loops == 3
    assert init_network(2, three, seed=0).layer_dims == [2, 3, 3, 2]


class TestSeed:
    def setup_method(self):
        rng = np.random.default_rng(20)
        truth = rng.standard_normal((12, 2))
        self.ds = from_complete(truth, (rng.random((12, 2)) > 0.3).astype(float))
        self.cfgs = (DsmConfig(epochs=1), KCFG, WgfConfig(num_steps=1, num_loops=1))

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, -1], ids=["fraction", "whole-float", "bool", "negative"])
    def test_bad_seed_refused_before_any_work(self, monkeypatch, bad):
        monkeypatch.setattr(imputer_mod, "initialize_missing", None)  # never reached
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            knewimp(self.ds, *self.cfgs, seed=bad)

    def test_numpy_integer_seed_accepted(self):
        got = knewimp(self.ds, *self.cfgs, hidden=4, seed=np.int64(3)).imputed
        assert np.array_equal(got, knewimp(self.ds, *self.cfgs, hidden=4, seed=3).imputed)


class TestHiddenWidth:
    def setup_method(self):
        rng = np.random.default_rng(19)
        truth = rng.standard_normal((12, 2))
        self.ds = from_complete(truth, (rng.random((12, 2)) > 0.3).astype(float))
        self.cfgs = (DsmConfig(epochs=1), KCFG, WgfConfig(num_steps=1, num_loops=1))

    def test_fresh_network_defaults_to_256(self):
        result = knewimp(self.ds, *self.cfgs, seed=0)
        assert result.network.layer_dims == [2, 256, 256, 2]

    def test_warm_start_takes_the_checkpoint_width(self):
        net = init_network(2, 8, seed=0)
        for hidden in (None, 8):
            result = knewimp(self.ds, *self.cfgs, hidden=hidden, initial_net=net)
            assert result.network.layer_dims == [2, 8, 8, 2]

    def test_non_integer_width_refused_before_training(self, monkeypatch):
        monkeypatch.setattr(imputer_mod, "train", None)  # never reached
        with pytest.raises(ValueError, match="hidden must be an integer >= 1, got 8.0"):
            knewimp(self.ds, *self.cfgs, hidden=8.0)

    def test_width_mismatch_names_both(self, monkeypatch):
        monkeypatch.setattr(imputer_mod, "train", None)  # never reached
        net = init_network(2, 8, seed=0)
        with pytest.raises(ValueError, match="hidden width 16 .* hidden width 8"):
            knewimp(self.ds, *self.cfgs, hidden=16, initial_net=net)
