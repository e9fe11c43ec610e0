import os
import tracemalloc

import numpy as np
import pytest

from knewimp import kernel as kernel_mod
from knewimp import lanes
from knewimp.imputer import WgfConfig, knewimp
from knewimp.kernel import (
    KernelConfig,
    _gram_operands,
    _gram_tile,
    gram_matmul,
    median_bandwidth,
)
from knewimp.lanes import LANES
from knewimp.score import DsmConfig
from knewimp.tabular import from_complete
from oracles import grad_gram_second


def gram(x, h):
    """The Gram of x with itself, from gram_matmul with an identity
    right-hand side: each output entry is one tile entry times 1."""
    return gram_matmul(x, np.eye(len(x)), h)


def cross_gram(x, y, h):
    """G(x, y) as the off-diagonal block of the Gram of x stacked on y."""
    return gram(np.vstack([x, y]), h)[: len(x), len(x):]


def literal_gram(a, b, h):
    diff = a[:, None, :] - b[None, :, :]
    return np.exp(-(diff * diff).sum(axis=2) / (2.0 * h * h))


def fd_grad_second(x_i, y_j, h, step=1e-6):
    """Central finite differences of K(x_i, .) at y_j; independent oracle."""
    y_j = np.asarray(y_j, dtype=np.float64)
    out = np.empty_like(y_j)
    for d in range(y_j.size):
        plus = y_j.copy()
        minus = y_j.copy()
        plus[d] += step
        minus[d] -= step
        kp = cross_gram(x_i[None, :], plus[None, :], h)[0, 0]
        km = cross_gram(x_i[None, :], minus[None, :], h)[0, 0]
        out[d] = (kp - km) / (2.0 * step)
    return out


class TestGram:
    def test_single_identical_point(self):
        x = np.array([[1.5, -2.0]])
        g = gram(x, 0.5)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0)

    def test_distance_matching_bandwidth_scale(self):
        # ||x - y||^2 = 2 h^2  =>  K = exp(-1)
        h = 0.7
        x = np.zeros((1, 2))
        y = np.array([[h * np.sqrt(2.0), 0.0]])
        assert cross_gram(x, y, h)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_unit_offset_closed_form(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 1.0]])
        assert cross_gram(x, y, 1.0)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetry_on_self(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((17, 4))
        for tile in (1, 5, 17):
            monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
            g = gram(x, 0.5)
            assert np.allclose(g, g.T, atol=1e-15)
            assert np.allclose(np.diag(g), 1.0)

    def test_dimension_mismatch(self):
        for x, rhs in (
            (np.zeros((2, 3)), np.zeros((3, 2))),
            (np.zeros(3), np.zeros((3, 1))),
            (np.zeros((3, 2)), np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="equal row counts"):
                gram_matmul(x, rhs, 1.0)

    def test_bad_bandwidth(self):
        for h in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
                gram_matmul(np.zeros((1, 1)), np.eye(1), h)

    def test_monotone_decay_in_distance(self):
        h = 0.9
        dists = np.linspace(0.1, 4.0, 25)
        vals = cross_gram(np.zeros((1, 1)), dists[:, None], h)[0]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_psd_on_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            eigmin = np.linalg.eigvalsh(gram(x, 0.5)).min()
            assert eigmin >= -1e-8


class TestGramContract:
    def test_matches_literal_definition(self):
        rng = np.random.default_rng(43)
        for d in range(1, 17):
            for offset in (0.0, 1.0, 2.0, 3.0):
                x = rng.standard_normal((int(rng.integers(1, 30)), d)) + offset
                y = rng.standard_normal((int(rng.integers(1, 30)), d)) + offset
                h = float(rng.uniform(0.5, 2.0))
                assert np.abs(cross_gram(x, y, h) - literal_gram(x, y, h)).max() <= 1e-12
                assert np.abs(gram(x, h) - literal_gram(x, x, h)).max() <= 1e-12

    def test_entries_in_unit_interval(self, monkeypatch):
        # Far from the origin the expanded square cancels ~1e3 against ~1e3,
        # so without the clamp a diagonal entry can come out above 1.
        monkeypatch.setattr(kernel_mod, "_TILE_ROWS", 16)
        rng = np.random.default_rng(47)
        for d in (1, 5, 11, 16):
            x = rng.standard_normal((40, d)) + 10.0
            for g in (gram(x, 0.5), cross_gram(x, rng.standard_normal((9, d)), 0.5)):
                assert g.min() >= 0.0 and g.max() <= 1.0


class TestOneGram:
    @pytest.mark.parametrize("tile", [1, 7, 256])
    def test_tiles_from_shared_operands_equal_gram(self, monkeypatch, tile):
        # With an identity right-hand side, gram_matmul returns the entries
        # of the upper-triangular tiles built from operands made once,
        # unchanged, and below each tile's diagonal block the same entries
        # transposed; one-row tiles of one to three columns and a ragged
        # last tile included. (A diagonal block is built whole, so it is
        # symmetric only to round-off: its (i, j) and (j, i) sums run in
        # different orders.) The reference is built one whole tile at a
        # time, as a column slice's BLAS product can differ in the last bit
        # from a wider one's, and under the one-thread pin the lanes build
        # their tiles with.
        monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
        rng = np.random.default_rng(53)
        n = 601
        x = rng.standard_normal((n, 11)) + 1.0
        for h in (0.25, 1.5):
            g = gram(x, h)
            left, right = _gram_operands(x, h)
            for s in range(0, n, tile):
                e = min(s + tile, n)
                out = np.empty((e - s, n - s))
                with lanes._pinned():
                    ref = _gram_tile(left[s:e], right[:, s:], out=out)
                assert np.array_equal(g[s:e, s:], ref)
                assert np.array_equal(g[e:, s:e], ref[:, e - s:].T)


class TestGramMatmul:
    @pytest.mark.parametrize("tile", [1, 7, 256, 10_000])
    def test_matches_dense_product(self, monkeypatch, tile):
        # One tile, many, ragged last tiles and one-row tiles, against the
        # literal dense G @ rhs.
        monkeypatch.setattr(kernel_mod, "_TILE_ROWS", tile)
        rng = np.random.default_rng(59)
        for n, d, k in ((601, 11, 22), (300, 3, 1), (2, 2, 5)):
            x = rng.standard_normal((n, d)) + 1.0
            rhs = rng.standard_normal((n, k))
            for h in (0.25, 1.5):
                ref = literal_gram(x, x, h) @ rhs
                got = gram_matmul(x, rhs, h)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_workspace_is_one_tile_high_per_lane(self):
        # Doubles traced per row: the two (D + 2)-wide operands, the x-wide
        # temporaries of building them, their norm column, and each lane's
        # (N, K) sum (lane 0's is the product). Per lane: one _TILE_ROWS x N
        # Gram tile, a K x N transposed product and a _TILE_ROWS x K upper
        # product. numpy's fixed-size ufunc buffers get 2**17 bytes. An
        # N x N array breaks the bound at both sizes. BLAS packing buffers
        # are not traced.
        d, k = 11, 22
        tile = kernel_mod._TILE_ROWS
        per_row = 2 * (d + 2) + d + 2 + LANES * k
        rng = np.random.default_rng(61)
        for n in (3000, 12_000):
            assert n > LANES * tile
            per_lane = tile * n + k * n + tile * k
            x, rhs = rng.standard_normal((n, d)), rng.standard_normal((n, k))
            tracemalloc.start()
            try:
                gram_matmul(x, rhs, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * (per_row * n + LANES * per_lane) + 2**17
            assert 8 * n * n > 8 * (per_row * n + LANES * per_lane) + 2**17

    def test_zero_rows(self):
        out = gram_matmul(np.empty((0, 3)), np.empty((0, 4)), 1.0)
        assert out.shape == (0, 4)


class TestGradGramSecond:
    def test_coincident_points_zero(self):
        x = np.array([0.3, -0.7, 1.1])
        assert np.all(grad_gram_second(x, x, 0.5) == 0.0)

    def test_unit_separation_value(self):
        # Oracle value frozen from central finite differences of the kernel.
        g = grad_gram_second(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        fd = fd_grad_second(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        assert g == pytest.approx(fd, rel=1e-6)
        assert g == pytest.approx([np.exp(-0.5), 0.0], abs=1e-12)

    def test_antisymmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            gy = grad_gram_second(x, y, 0.8)
            gx = grad_gram_second(y, x, 0.8)
            assert gy == pytest.approx(-gx, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            h = float(rng.uniform(0.3, 2.0))
            analytic = grad_gram_second(x, y, h)
            numeric = fd_grad_second(x, y, h)
            denom = max(np.abs(numeric).max(), 1e-9)
            assert np.abs(analytic - numeric).max() / denom < 1e-6


class TestMedianBandwidth:
    def test_two_points(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])  # distance sqrt(2)
        assert median_bandwidth(x) == pytest.approx(1.0, rel=1e-12)

    def test_duplicated_cloud_keeps_median(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 3))
        base = median_bandwidth(x)
        dup = np.vstack([x, x])
        # Duplicates add zero distances symmetrically; median shifts but the
        # brute-force recomputation must agree with the function itself.
        assert median_bandwidth(dup) == pytest.approx(brute_median(dup), rel=1e-12)
        assert base == pytest.approx(brute_median(x), rel=1e-12)

    def test_identical_points_floor(self):
        x = np.zeros((5, 2))
        assert median_bandwidth(x) == 1e-6

    def test_against_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(2, 40)), 3))
            assert median_bandwidth(x) == pytest.approx(brute_median(x), rel=1e-12)
        # n(n-1)/2 = 1, 3, 6, 10, 15, 21 pairs: odd and even middle counts.
        for n in range(2, 8):
            x = rng.standard_normal((n, 3))
            assert median_bandwidth(x) == pytest.approx(brute_median(x), rel=1e-12)
        # Tied distances: points 0..3 on a line give 1, 1, 1, 2, 2, 3 (two
        # unequal middles among ties); an integer 4 x 4 grid (120 pairs) and
        # rounded clouds with repeated rows tie throughout.
        grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        tied = [np.arange(4.0)[:, None], grid]
        for n in (9, 14, 21):
            x = np.round(rng.standard_normal((n, 2)))
            tied.append(np.vstack([x, x[: n // 3]]))
        for x in tied:
            assert median_bandwidth(x) == pytest.approx(brute_median(x), rel=1e-12)
        # 780 pairs each; with numpy's introselect these clouds leave the
        # lower middle elsewhere than just left of the kth value.
        for seed in (75, 171, 219):
            x = np.random.default_rng(seed).standard_normal((40, 3))
            assert median_bandwidth(x) == pytest.approx(brute_median(x), rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.zeros((1, 2)))

    def test_peak_is_the_one_distance_array(self):
        # 3000 rows have 4498500 distances, 36 MB. np.median reorders them
        # in place; a copy of them (np.median without overwrite_input) or
        # of their squares would double the peak.
        n = 3000
        x = np.random.default_rng(41).standard_normal((n, 11))
        tracemalloc.start()
        try:
            median_bandwidth(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (n - 1) // 2 + 2**20

    def test_distances_larger_than_memory_fail_first(self, monkeypatch):
        # 10 pages of 4096 B hold the 8 n(n-1)/2 bytes of distances up to
        # n = 101; at 102 rows pdist is never called.
        memory = {"SC_PHYS_PAGES": 10, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        assert median_bandwidth(np.zeros((101, 2))) == 1e-6

        def fail_pdist(*args, **kwargs):
            raise AssertionError("pdist called")

        monkeypatch.setattr(kernel_mod, "pdist", fail_pdist)
        match = r"102 rows \(5151 pairwise distances\) needs 41208 bytes"
        with pytest.raises(MemoryError, match=match):
            median_bandwidth(np.zeros((102, 2)))


def brute_median(x):
    dists = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dists.append(np.linalg.norm(x[i] - x[j]))
    return max(float(np.median(dists)) / np.sqrt(2.0), 1e-6)


def test_median_bandwidth_once_per_round(monkeypatch):
    # Median mode takes h from each round's starting matrix, not every step:
    # 2 rounds of 5 steps call median_bandwidth twice.
    calls = []

    def counted(x):
        calls.append(x.shape)
        return median_bandwidth(x)

    monkeypatch.setattr(kernel_mod, "median_bandwidth", counted)
    rng = np.random.default_rng(18)
    truth = rng.standard_normal((30, 3))
    ds = from_complete(truth, (rng.random((30, 3)) > 0.3).astype(float))
    wcfg = WgfConfig(num_steps=5, num_loops=2)
    kcfg = KernelConfig()
    knewimp(ds, DsmConfig(epochs=2), kcfg, wcfg, hidden=8, seed=0)
    assert calls == [(30, 3), (30, 3)]


def test_fixed_bandwidth_with_median_refused():
    # The median would override any bandwidth but the default, silently.
    with pytest.raises(ValueError, match=r"bandwidth=0\.7 .*use_median_heuristic"):
        KernelConfig(bandwidth=0.7, use_median_heuristic=True)
    # The median is the default, so a fixed h alone is refused too.
    with pytest.raises(ValueError, match=r"bandwidth=0\.7 .*use_median_heuristic"):
        KernelConfig(bandwidth=0.7)
    assert KernelConfig() == KernelConfig(bandwidth=0.5, use_median_heuristic=True)
    assert KernelConfig(bandwidth=0.7, use_median_heuristic=False).bandwidth == 0.7


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(bandwidth=-1.0, use_median_heuristic=False)
