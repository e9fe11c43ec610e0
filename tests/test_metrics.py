import json
import os
import threading
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from knewimp import metrics as metrics_mod
from knewimp.metrics import MetricReport, evaluate, mae, wasserstein2
from knewimp.tabular import from_complete
from oracles import wasserstein2_bruteforce


class TestMae:
    def test_hand_example(self):
        truth = np.array([[1.0, 3.0]])
        imputed = np.array([[1.5, 2.5]])
        mask = np.zeros((1, 2))
        assert mae(truth, imputed, mask) == pytest.approx(0.5)

    def test_perfect_imputation(self):
        truth = np.array([[1.0, 2.0]])
        mask = np.array([[0.0, 1.0]])
        assert mae(truth, truth.copy(), mask) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((5, 3))
        imputed = rng.standard_normal((5, 3))
        mask = (rng.random((5, 3)) > 0.5).astype(float)
        mask[0, 0] = 0.0
        total, count = 0.0, 0
        for i in range(5):
            for j in range(3):
                if mask[i, j] == 0.0:
                    total += abs(truth[i, j] - imputed[i, j])
                    count += 1
        assert mae(truth, imputed, mask) == pytest.approx(total / count, abs=1e-15)

    def test_no_missing_cells(self):
        with pytest.raises(ValueError, match="no missing cells"):
            mae(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))

    def test_mask_must_be_zero_or_one(self):
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            mae(np.zeros((2, 2)), np.ones((2, 2)), np.array([[0.5, 0.0], [1.0, 2.0]]))

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="mask shape"):
            mae(np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 3)))


class TestBruteForce:
    def test_single_pair(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert wasserstein2_bruteforce(a, b) == pytest.approx(25.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((4, 2))
        base = wasserstein2_bruteforce(a, b)
        perm = np.random.default_rng(2).permutation(4)
        assert wasserstein2_bruteforce(a, b[perm]) == pytest.approx(base, abs=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            wasserstein2_bruteforce(np.zeros((9, 1)), np.zeros((9, 1)))


class TestExact:
    def test_two_diracs(self):
        a = np.array([[0.0]])
        b = np.array([[2.5]])
        assert wasserstein2(a, b) == pytest.approx(6.25)

    def test_identical_clouds(self):
        x = np.random.default_rng(3).standard_normal((10, 3))
        assert wasserstein2(x, x.copy()) == 0.0

    def test_interleaved_pairs(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert wasserstein2(a, b) == pytest.approx(1.0)
        assert wasserstein2_bruteforce(a, b) == pytest.approx(1.0)

    def test_equals_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((m, d))
            b = rng.standard_normal((m, d))
            exact = wasserstein2(a, b)
            brute = wasserstein2_bruteforce(a, b)
            assert abs(exact - brute) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 3))
        assert wasserstein2(a, b) == pytest.approx(
            wasserstein2(b, a), abs=1e-12
        )

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((6, 2))
            assert wasserstein2(a, np.flipud(a)) == pytest.approx(0.0, abs=1e-12)
            b = a + rng.standard_normal((6, 2)) * 0.1
            assert wasserstein2(a, b) > 0.0

    def test_scale_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 3))
        b = rng.standard_normal((9, 3))
        assert wasserstein2(2.0 * a, 2.0 * b) == 4.0 * wasserstein2(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein2(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_cost_matrix_larger_than_memory_fails_first(self, monkeypatch):
        # 10 pages of 4096 B hold an m x m float64 cost matrix up to m = 71.
        memory = {"SC_PHYS_PAGES": 10, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        a = np.zeros((72, 2))
        with pytest.raises(MemoryError, match=r"72 rows .* 41472 bytes"):
            wasserstein2(a, a)
        assert wasserstein2(a[:71], a[:71]) == 0.0

    def test_one_cost_matrix_at_a_time(self, monkeypatch):
        # Four threads evaluate at once; each solve waits a little, so
        # without the module's lock two solves would overlap.
        in_flight, most = [0], [0]
        count = threading.Lock()

        def slow_solve(cost):
            with count:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            time.sleep(0.02)
            with count:
                in_flight[0] -= 1
            return linear_sum_assignment(cost)

        monkeypatch.setattr(metrics_mod, "linear_sum_assignment", slow_solve)
        rng = np.random.default_rng(8)
        clouds = [rng.standard_normal((2, 20, 3)) for _ in range(4)]
        results = [None] * len(clouds)

        def run(k):
            results[k] = wasserstein2(*clouds[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(clouds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert most[0] == 1
        monkeypatch.undo()
        assert results == [wasserstein2(*c) for c in clouds]


class TestEvaluate:
    def make_ds(self):
        truth = np.array(
            [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
        )
        mask = np.array(
            [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 1.0]]
        )
        return from_complete(truth, mask)

    def test_perfect_imputation(self):
        ds = self.make_ds()
        report = evaluate(ds, ds.truth.copy())
        assert report.mae == 0.0
        assert report.wass == 0.0
        assert report.m0 == 2
        assert report.m1 == 2

    def test_wass_restricted_to_incomplete_rows(self):
        ds = self.make_ds()
        imputed = ds.truth.copy()
        imputed[0, 1] += 1.0
        imputed[2, 0] -= 2.0
        report = evaluate(ds, imputed)
        rows = [0, 2]
        by_hand = wasserstein2(ds.truth[rows], imputed[rows])
        assert report.wass == pytest.approx(by_hand, abs=1e-12)
        assert report.m1 == 2

    def test_fully_observed_rejected(self):
        truth = np.ones((3, 2))
        ds = from_complete(truth, np.ones((3, 2)))
        with pytest.raises(ValueError, match="no missing cells"):
            evaluate(ds, truth)

    def test_imputed_shape_must_match(self):
        truth = np.ones((3, 2))
        ds = from_complete(truth, np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError) as exc:
            evaluate(ds, np.ones((3, 3)))
        assert "(3, 2)" in str(exc.value) and "(3, 3)" in str(exc.value)

    def test_truth_required(self):
        ds = self.make_ds()
        ds_no_truth = from_complete(ds.truth, ds.mask)
        object.__setattr__(ds_no_truth, "truth", None)
        with pytest.raises(ValueError, match="ground truth"):
            evaluate(ds_no_truth, ds.truth)

    def test_json_schema(self):
        report = MetricReport(mae=0.5, wass=0.25, m0=3, m1=2)
        payload = json.loads(report.to_json())
        assert set(payload) == {"mae", "wass", "m0", "m1"}
        assert payload["mae"] == 0.5

    def test_large_cloud_is_solved_exactly(self):
        # 600 incomplete rows: the assignment solver runs at every size, so
        # the report equals an assignment computed here from scratch.
        rng = np.random.default_rng(11)
        n, d = 600, 2
        truth = rng.standard_normal((n, d))
        mask = np.ones((n, d))
        mask[np.arange(n), rng.integers(0, d, n)] = 0.0
        ds = from_complete(truth, mask)
        imputed = np.where(mask == 1.0, truth, rng.standard_normal((n, d)))
        report = evaluate(ds, imputed)
        cost = ((truth[:, None, :] - imputed[None, :, :]) ** 2).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert report.m1 == n
        assert abs(report.wass - cost[rows, cols].mean()) <= 1e-12
