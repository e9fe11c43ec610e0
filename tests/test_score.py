import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from knewimp import score as score_mod
from knewimp.lanes import LANES
from test_lanes import blas_thread_counts
from knewimp.score import (
    Adam,
    DsmConfig,
    ScoreNetwork,
    TrainingDivergence,
    dsm_loss_and_grad,
    forward,
    init_network,
    load_network,
    save_network,
    sigmoid,
    train,
)


def loss_only(net, x, noise, sigma):
    """Loss recomputed without the gradient path; finite-difference probe."""
    out = forward(net, x + noise)
    resid = out + noise / sigma**2
    return 0.5 * (resid * resid).sum() / x.shape[0]


def stable_sigmoid(z):
    """Overflow-free split form: exp is only taken of non-positive values."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


class TestSigmoid:
    def test_matches_stable_sigmoid_at_extremes(self):
        z = np.array([[-800.0, -40.0, 0.0, 40.0, 800.0]])
        buf = np.empty_like(z)
        with np.errstate(invalid="raise", divide="raise"):
            sig = sigmoid(z)
            filled = sigmoid(z, out=buf)
        ref = stable_sigmoid(z)
        assert np.all(np.isfinite(sig))
        np.testing.assert_allclose(sig, ref, rtol=1e-15, atol=0.0)
        assert sig[0, 0] == 0.0 and sig[0, -1] == 1.0
        assert np.array_equal(filled, sig)

    def test_matches_stable_sigmoid_on_random_input(self):
        z = np.random.default_rng(40).standard_normal((50, 20)) * 10.0
        # Two ulps of 1.0: the forms differ only in rounding order.
        assert np.abs(sigmoid(z) - stable_sigmoid(z)).max() <= 2 * np.finfo(float).eps

    def test_out_is_filled_and_returned(self):
        z = np.random.default_rng(41).standard_normal((6, 5)) * 10.0
        expected = sigmoid(z)
        buf = np.full_like(z, np.nan)
        assert sigmoid(z, out=buf) is buf
        assert np.array_equal(buf, expected)
        # In place over its own input.
        assert sigmoid(z, out=z) is z
        assert np.array_equal(z, expected)


BAD_SEEDS = pytest.mark.parametrize(
    "bad", [2.5, 3.0, True, -1], ids=["fraction", "whole-float", "bool", "negative"]
)


class TestInit:
    def test_layer_shapes(self):
        net = init_network(3, 8, seed=0)
        assert [w.shape for w in net.weights] == [(3, 8), (8, 8), (8, 3)]
        assert [b.shape for b in net.biases] == [(8,), (8,), (3,)]
        assert net.layer_dims == [3, 8, 8, 3]

    def test_deterministic(self):
        a = init_network(4, 16, seed=7)
        b = init_network(4, 16, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_uniform_bounds_and_zero_biases(self):
        net = init_network(5, 32, seed=3)
        dims = [5, 32, 32]
        for w, fan_in in zip(net.weights, dims):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.abs(w).max() <= bound
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_network(0, 8, seed=0)

    @BAD_SEEDS
    def test_bad_seed_names_the_field(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            init_network(3, 8, seed=bad)

    def test_numpy_integer_seed_accepted(self):
        a, b = init_network(3, 8, seed=np.uint32(7)), init_network(3, 8, seed=7)
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = init_network(3, 8, seed=0)
        for w in net.weights:
            w[:] = 0.0
        x = np.random.default_rng(0).standard_normal((5, 3))
        assert np.all(forward(net, x) == 0.0)

    def test_row_independence(self):
        net = oracles.float64_network(init_network(4, 8, seed=1))
        x = np.random.default_rng(1).standard_normal((6, 4))
        full = forward(net, x)
        for i in range(6):
            row = forward(net, x[i : i + 1])
            assert row[0] == pytest.approx(full[i], rel=1e-14)

    def test_finite_output(self):
        net = init_network(7, 16, seed=2)
        x = np.random.default_rng(2).standard_normal((11, 7)) * 5.0
        assert np.all(np.isfinite(forward(net, x)))

    def test_dimension_mismatch(self):
        net = init_network(3, 8, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 4)))

    def test_non_finite_input(self):
        net = init_network(2, 4, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.array([[1.0, np.nan]]))


class TestDsmLossAndGrad:
    def test_target_row_value(self):
        # noise (0.02, -0.01) at sigma 0.1 regresses onto (-2, 1); with a
        # zero network the loss is half the squared target norm.
        net = init_network(2, 4, seed=0)
        for w in net.weights:
            w[:] = 0.0
        noise = np.array([[0.02, -0.01]])
        loss, _, _ = dsm_loss_and_grad(net, np.zeros((1, 2)), noise)
        assert loss == pytest.approx(0.5 * (2.0**2 + 1.0**2), rel=1e-12)

    def test_zero_network_zero_noise_loss(self):
        net = init_network(3, 8, seed=0)
        for w in net.weights:
            w[:] = 0.0
        x = np.random.default_rng(3).standard_normal((4, 3))
        loss, _, _ = dsm_loss_and_grad(net, x, np.zeros_like(x))
        assert loss == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        net = oracles.float64_network(init_network(3, 8, seed=5))
        x = rng.standard_normal((5, 3))
        noise = 0.1 * rng.standard_normal((5, 3))
        loss, g_w, g_b = dsm_loss_and_grad(net, x, noise)
        step = 1e-5
        for grads, arrays in ((g_w, net.weights), (g_b, net.biases)):
            for g, arr in zip(grads, arrays):
                flat = arr.ravel()
                g_flat = g.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = loss_only(net, x, noise, score_mod._SIGMA)
                    flat[idx] = orig - step
                    down = loss_only(net, x, noise, score_mod._SIGMA)
                    flat[idx] = orig
                    numeric = (up - down) / (2.0 * step)
                    denom = max(abs(numeric), 1e-8)
                    assert abs(g_flat[idx] - numeric) / denom < 1e-5

    def test_shape_mismatch(self):
        net = init_network(3, 8, seed=0)
        with pytest.raises(ValueError):
            dsm_loss_and_grad(net, np.zeros((2, 3)), np.zeros((3, 3)))

    def test_empty_batch_rejected(self):
        net = init_network(3, 8, seed=0)
        with pytest.raises(ValueError, match="at least one row"):
            dsm_loss_and_grad(net, np.zeros((0, 3)), np.zeros((0, 3)))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = [np.ones((3, 3)), np.full(3, 2.0)]
        before = [p.copy() for p in params]
        opt = Adam(params, lr=0.1)
        for _ in range(5):
            opt.step(params, [np.zeros_like(p) for p in params])
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_descends_quadratic(self):
        p = [np.array([5.0])]
        opt = Adam(p, lr=0.1)
        for _ in range(300):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) < 0.1

    def test_non_contiguous_parameter_refused(self):
        # Adam steps flat views; a strided parameter would only be copied.
        with pytest.raises(ValueError, match="C-contiguous"):
            Adam([np.ones((4, 3)).T], lr=0.1)


class TestTrain:
    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            DsmConfig(epochs=0)

    def test_loss_decreases_on_gaussian_data(self):
        rng = np.random.default_rng(6)
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        x = rng.standard_normal((200, 2)) @ np.linalg.cholesky(cov).T
        net = init_network(2, 32, seed=8)
        _, history = train(net, x, DsmConfig(epochs=200), seed=3)
        assert np.mean(history[-10:]) < np.mean(history[:10])

    def test_deterministic_history(self):
        x = np.random.default_rng(7).standard_normal((50, 3))
        net = init_network(3, 8, seed=1)
        _, h1 = train(net, x, DsmConfig(epochs=20), seed=9)
        _, h2 = train(net, x, DsmConfig(epochs=20), seed=9)
        assert h1 == h2

    def test_input_network_untouched(self):
        x = np.random.default_rng(8).standard_normal((30, 2))
        net = init_network(2, 8, seed=2)
        snapshot = [w.copy() for w in net.weights]
        train(net, x, DsmConfig(epochs=5), seed=0)
        for w, s in zip(net.weights, snapshot):
            assert np.array_equal(w, s)

    def test_divergence_names_epoch(self):
        x = np.random.default_rng(9).standard_normal((10, 2)) * 1e160
        net = init_network(2, 4, seed=0)
        with pytest.raises(TrainingDivergence, match="epoch 0"):
            train(net, x, DsmConfig(epochs=3), seed=0)

    def test_non_finite_data_rejected(self):
        net = init_network(2, 4, seed=0)
        bad = np.array([[1.0, np.inf]])
        with pytest.raises(ValueError):
            train(net, bad, DsmConfig(epochs=1), seed=0)

    @BAD_SEEDS
    def test_bad_seed_names_the_field(self, bad):
        x = np.random.default_rng(10).standard_normal((10, 2))
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            train(init_network(2, 4, seed=0), x, DsmConfig(epochs=1), seed=bad)

    def test_numpy_integer_seed_accepted(self):
        x = np.random.default_rng(10).standard_normal((10, 2))
        net = init_network(2, 4, seed=0)
        cfg = DsmConfig(epochs=3)
        assert train(net, x, cfg, seed=np.int64(5))[1] == train(net, x, cfg, seed=5)[1]


def checkpoint_payload(dims):
    """save_network's JSON fields for layers of the given widths."""
    return {
        "layer_dims": list(dims),
        "weights": [np.full((a, b), 0.1).tolist() for a, b in zip(dims[:-1], dims[1:])],
        "biases": [[0.0] * b for b in dims[1:]],
    }


def _replaced(field, index, value):
    payload = checkpoint_payload([2, 4, 4, 2])
    payload[field][index] = value
    return payload


# Checkpoints that are not a finite [D, H, H, D] network; a str is written
# as is, anything else as JSON.
MALFORMED_CHECKPOINTS = {
    "not_json": "{",
    "json_list": [checkpoint_payload([2, 4, 4, 2])],
    "no_weights": {"layer_dims": [2, 4, 4, 2], "biases": checkpoint_payload([2, 4, 4, 2])["biases"]},
    "no_weight_arrays": {**checkpoint_payload([2, 4, 4, 2]), "weights": []},
    "one_long_bias": _replaced("biases", 0, [0.0]),
    "two_layers": checkpoint_payload([2, 4, 2]),
    "four_layers": checkpoint_payload([2, 4, 4, 4, 2]),
    "output_width": checkpoint_payload([2, 4, 4, 3]),
    "unequal_hidden": checkpoint_payload([2, 4, 5, 2]),
    "unchained": _replaced("weights", 1, np.full((5, 4), 0.1).tolist()),
    "one_d_weight": _replaced("weights", 0, [0.1, 0.1]),
    "ragged_weight": _replaced("weights", 0, [[0.1], [0.1, 0.1]]),
    "text_weight": _replaced("weights", 2, "w"),
    "zero_width": checkpoint_payload([2, 0, 0, 2]),
    "bad_header": {**checkpoint_payload([2, 4, 4, 2]), "layer_dims": [2, 4, 4, 3]},
    "nan_weight": _replaced("weights", 1, np.full((4, 4), np.nan).tolist()),
    "inf_bias": _replaced("biases", 2, [0.0, np.inf]),
}


def write_checkpoint(tmp_path, content):
    path = tmp_path / "bad.json"
    text = content if isinstance(content, str) else json.dumps(content)
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = init_network(3, 8, seed=4)
        path = str(tmp_path / "net.json")
        save_network(path, net)
        loaded = load_network(path)
        assert loaded.layer_dims == net.layer_dims
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, net.biases):
            assert np.array_equal(a, b)

    def test_forward_agrees_after_reload(self, tmp_path):
        net = init_network(4, 8, seed=5)
        path = str(tmp_path / "net.json")
        save_network(path, net)
        x = np.random.default_rng(10).standard_normal((7, 4))
        assert np.array_equal(forward(load_network(path), x), forward(net, x))

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        net = random_network(np.random.default_rng(95), 3, 8)
        path = str(tmp_path / "net.json")
        save_network(path, net)
        for a, b in zip(load_network(path).parameters(), net.parameters()):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)

    def test_float64_checkpoint_loads_as_its_float32_rounding(self, tmp_path):
        rng = np.random.default_rng(96)
        net = oracles.float64_network(init_network(3, 8, seed=0))
        for p in net.parameters():
            p[...] = rng.standard_normal(p.shape)
        path = str(tmp_path / "net.json")
        save_network(path, net)
        for a, b in zip(load_network(path).parameters(), net.parameters()):
            assert a.dtype == np.float32 and np.array_equal(a, b.astype(np.float32))

    def test_parameter_beyond_float32_refused(self, tmp_path):
        path = write_checkpoint(tmp_path, _replaced("weights", 1, np.full((4, 4), 1e39).tolist()))
        with pytest.raises(ValueError, match="bad.json: .* not finite in float32"):
            load_network(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_names_the_file(self, tmp_path, case):
        path = write_checkpoint(tmp_path, MALFORMED_CHECKPOINTS[case])
        with pytest.raises(ValueError, match="bad.json"):
            load_network(path)



def random_network(rng, d, hidden):
    """A network with nonzero biases, so every bias path is exercised."""
    net = init_network(d, hidden, seed=int(rng.integers(1 << 30)))
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape)
    return net


class TestBitExactOracle:
    """The buffered forward, backward and Adam step against the allocating
    expressions in oracles.py: same operations in the same order, so equal
    bit for bit, not merely close."""

    def test_loss_and_gradients(self):
        rng = np.random.default_rng(50)
        for _ in range(60):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (50, 6, 32))
            net = oracles.float64_network(random_network(rng, d, hidden))
            x = 2.0 * rng.standard_normal((n, d))
            noise = 0.1 * rng.standard_normal((n, d))
            loss, g_w, g_b = dsm_loss_and_grad(net, x, noise)
            ref_loss, ref_w, ref_b = oracles.dsm_loss_and_grad(
                net, x, noise, score_mod._SIGMA
            )
            assert loss == ref_loss
            for g, ref in zip(g_w + g_b, ref_w + ref_b):
                assert g.shape == ref.shape and np.array_equal(g, ref)

    def test_forward(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (50, 6, 32))
            net = oracles.float64_network(random_network(rng, d, hidden))
            x = 3.0 * rng.standard_normal((n, d))
            assert np.array_equal(forward(net, x), oracles.forward_trace(net, x)[0])

    def test_adam_step(self):
        rng = np.random.default_rng(52)
        # 300 x 300 spans three Adam blocks, the last one short.
        shapes = [(16, 9), (9,), (1,), (300, 300)]
        assert 2 * score_mod._ADAM_BLOCK < 300 * 300 < 3 * score_mod._ADAM_BLOCK
        params = [rng.standard_normal(s) for s in shapes]
        ref_params = [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(params, lr=0.01)
        for t in range(1, 8):
            grads = [rng.standard_normal(s) for s in shapes]
            opt.step(params, grads)
            oracles.adam_step(ref_params, grads, m, v, t, lr=0.01)
        for p, ref in zip(params + opt.m + opt.v, ref_params + m + v):
            assert np.array_equal(p, ref)

    def test_train_matches_literal_loop(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((40, 3))
        net = oracles.float64_network(random_network(rng, 3, 16))
        cfg = DsmConfig(epochs=5)
        trained, history = train(net, x, cfg, seed=11)

        ref = net.copy()
        params = ref.parameters()
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        noise_rng = np.random.default_rng(11)
        ref_history = []
        for t in range(1, cfg.epochs + 1):
            noise = score_mod._SIGMA * noise_rng.standard_normal(x.shape)
            loss, g_w, g_b = oracles.dsm_loss_and_grad(ref, x, noise, score_mod._SIGMA)
            ref_history.append(loss)
            oracles.adam_step(params, g_w + g_b, m, v, t, score_mod._LR)
        assert history == ref_history
        for p, r in zip(trained.parameters(), params):
            assert np.array_equal(p, r)


def close(got, want, rtol):
    """Largest difference within rtol of want's largest magnitude."""
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    return float(np.abs(got - want).max()) <= rtol * scale


class TestChunking:
    """Rows run in chunks of score._CHUNK_ROWS. Against the full-batch
    formulas in oracles.py the result is bit-identical when one chunk covers
    the batch, and equal to round-off when the gradients are summed over
    several chunks."""

    RTOL = 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_loss_and_gradients(self, monkeypatch, chunk):
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(60 + chunk)
        for _ in range(25):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (50, 6, 32))
            net = oracles.float64_network(random_network(rng, d, hidden))
            x = 2.0 * rng.standard_normal((n, d))
            noise = 0.1 * rng.standard_normal((n, d))
            loss, g_w, g_b = dsm_loss_and_grad(net, x, noise)
            ref_loss, ref_w, ref_b = oracles.dsm_loss_and_grad(
                net, x, noise, score_mod._SIGMA
            )
            pairs = list(zip(g_w + g_b, ref_w + ref_b))
            assert all(g.shape == ref.shape for g, ref in pairs)
            if n <= chunk:
                assert loss == ref_loss
                assert all(np.array_equal(g, ref) for g, ref in pairs)
            else:
                assert loss == pytest.approx(ref_loss, rel=self.RTOL, abs=0.0)
                assert all(close(g, ref, self.RTOL) for g, ref in pairs)

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_forward(self, monkeypatch, chunk):
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(70 + chunk)
        for _ in range(25):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (50, 6, 32))
            net = oracles.float64_network(random_network(rng, d, hidden))
            x = 3.0 * rng.standard_normal((n, d))
            got, want = forward(net, x), oracles.forward_trace(net, x)[0]
            if n <= chunk:
                assert np.array_equal(got, want)
            else:
                assert got.shape == want.shape and close(got, want, self.RTOL)

    def test_train_agrees_across_chunk_heights(self, monkeypatch):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((45, 3))
        net = oracles.float64_network(random_network(rng, 3, 16))
        runs = []
        for chunk in (1, 7, 45):
            monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
            runs.append(train(net, x, DsmConfig(epochs=5), seed=12))
        (ref_net, ref_hist), *others = runs
        for got_net, got_hist in others:
            np.testing.assert_allclose(got_hist, ref_hist, rtol=self.RTOL, atol=0.0)
            for p, ref in zip(got_net.parameters(), ref_net.parameters()):
                assert close(p, ref, self.RTOL)

    @staticmethod
    def assert_others_left_alone(buffers, net, x):
        """A call on a dict filled for another shape gets arrays of its own:
        the old entries stay as they were, none of them backs the returned
        gradients, and the result is bit for bit an uncached call's."""
        before = {key: (own, [a.copy() for a in own.act + tuple(own.g_w + own.g_b)])
                  for key, own in buffers.items()}
        noise = 0.1 * np.ones_like(x)
        want_loss, want_w, want_b = dsm_loss_and_grad(net, x, noise)
        loss, g_w, g_b = dsm_loss_and_grad(net, x, noise, buffers)
        assert loss == want_loss
        assert all(np.array_equal(g, w) for g, w in zip(g_w + g_b, want_w + want_b))
        assert len(buffers) > len(before)
        for key, (own, arrays) in before.items():
            assert buffers[key] is own
            mine = own.act + tuple(own.g_w + own.g_b)
            assert all(np.array_equal(a, b) for a, b in zip(mine, arrays))
            assert not any(np.shares_memory(g, a) for g in g_w + g_b for a in mine)

    def test_buffers_for_another_network_rejected(self):
        x = np.random.default_rng(83).standard_normal((10, 3))
        buffers = {}
        dsm_loss_and_grad(init_network(3, 8, seed=0), x, 0.1 * x, buffers)
        self.assert_others_left_alone(buffers, init_network(3, 16, seed=0), x)

    def test_buffers_for_another_dtype_rejected(self):
        x = np.random.default_rng(85).standard_normal((10, 3))
        net = init_network(3, 8, seed=0)
        buffers = {}
        dsm_loss_and_grad(net, x, 0.1 * x, buffers)
        self.assert_others_left_alone(buffers, oracles.float64_network(net), x)

    def test_buffers_for_another_chunk_height_rejected(self, monkeypatch):
        net = init_network(3, 8, seed=0)
        x = np.random.default_rng(84).standard_normal((20, 3))
        buffers = {}
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 7)
        dsm_loss_and_grad(net, x, 0.1 * x, buffers)
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 8)
        self.assert_others_left_alone(buffers, net, x)

    def test_one_buffers_dict_across_shapes(self, monkeypatch):
        # Calls of another N, width or chunk height share one dict and get
        # bit for bit what a call without one gets. 13 rows in chunks of 7
        # give each lane one chunk; 20 rows give lane 0 two.
        rng = np.random.default_rng(82)
        buffers = {}
        for n, d, hidden, chunk in ((5, 3, 8, 7), (13, 3, 8, 7), (20, 3, 8, 7), (20, 3, 16, 7),
                                    (20, 4, 8, 7), (20, 3, 8, 8), (13, 3, 8, 7), (20, 3, 8, 7)):
            monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
            net = random_network(rng, d, hidden)
            x = rng.standard_normal((n, d))
            noise = 0.1 * rng.standard_normal((n, d))
            want_loss, want_w, want_b = dsm_loss_and_grad(net, x, noise)
            loss, g_w, g_b = dsm_loss_and_grad(net, x, noise, buffers)
            assert loss == want_loss
            assert all(np.array_equal(g, w) for g, w in zip(g_w + g_b, want_w + want_b))

    def test_divergence_in_last_chunk_only(self, monkeypatch):
        # Rows 14-19 form the third chunk of 7; the first two train finitely.
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 7)
        x = np.random.default_rng(81).standard_normal((20, 2))
        x[14:] *= 1e160
        net = init_network(2, 4, seed=0)
        # The backward pass never runs on the overflowed chunk, so nothing
        # warns on the way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence) as info:
                train(net, x, DsmConfig(epochs=3), seed=0)
        assert str(info.value) == "training diverged at epoch 0"


class TestFloat32:
    """init_network and load_network make float32 networks, which compute
    in float32 and return float64 scores. Each result is held to the
    float64 oracles on a float64 copy of the same parameters."""

    RTOL = 1e-5

    def test_init_is_the_float64_draw_rounded(self):
        net = init_network(5, 32, seed=3)
        rng = np.random.default_rng(3)
        for w, fan_in, fan_out in zip(net.weights, (5, 32, 32), (32, 32, 5)):
            bound = 1.0 / np.sqrt(fan_in)
            draw = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            assert w.dtype == np.float32 and np.array_equal(w, draw.astype(np.float32))
        assert all(b.dtype == np.float32 and not b.any() for b in net.biases)

    def test_forward_within_the_float64_oracle(self):
        # Up to 600 rows: several chunks on both lanes.
        rng = np.random.default_rng(91)
        for _ in range(20):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (600, 6, 64))
            net = random_network(rng, d, hidden)
            x = 3.0 * rng.standard_normal((n, d))
            got = forward(net, x)
            want = oracles.forward_trace(oracles.float64_network(net), x)[0]
            assert net.dtype == np.float32 and got.dtype == np.float64
            assert got.shape == want.shape and close(got, want, self.RTOL)

    def test_loss_and_gradients_within_the_float64_oracle(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            n, d, hidden = (int(rng.integers(1, k + 1)) for k in (600, 6, 64))
            net = random_network(rng, d, hidden)
            x = 2.0 * rng.standard_normal((n, d))
            noise = 0.1 * rng.standard_normal((n, d))
            loss, g_w, g_b = dsm_loss_and_grad(net, x, noise)
            ref_loss, ref_w, ref_b = oracles.dsm_loss_and_grad(
                oracles.float64_network(net), x, noise, score_mod._SIGMA
            )
            assert loss == pytest.approx(ref_loss, rel=self.RTOL, abs=0.0)
            for g, ref in zip(g_w + g_b, ref_w + ref_b):
                assert g.dtype == np.float32 and g.shape == ref.shape
                assert close(g, ref, self.RTOL)

    def test_train_is_bit_equal_per_seed(self):
        # 600 rows: three chunks, so both lanes run.
        x = np.random.default_rng(93).standard_normal((600, 3))
        net = init_network(3, 16, seed=1)
        cfg = DsmConfig(epochs=8)
        (a_net, a_hist), (b_net, b_hist) = (train(net, x, cfg, seed=9) for _ in range(2))
        assert a_hist == b_hist
        for p, q in zip(a_net.parameters(), b_net.parameters()):
            assert p.dtype == np.float32 and np.array_equal(p, q)
        assert train(net, x, cfg, seed=10)[1] != a_hist

    # Chunks of 1 and 7 against one chunk of 45 measured at most 9.6e-8 of
    # the largest parameter or loss here, and 1.2e-7 over seeds 80-89.
    CHUNK_RTOL = 1e-6

    def test_train_agrees_across_chunk_heights(self, monkeypatch):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((45, 3))
        net = random_network(rng, 3, 16)
        runs = []
        for chunk in (1, 7, 45):
            monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
            runs.append(train(net, x, DsmConfig(epochs=5), seed=12))
        (ref_net, ref_hist), *others = runs
        for got_net, got_hist in others:
            np.testing.assert_allclose(got_hist, ref_hist, rtol=self.CHUNK_RTOL, atol=0.0)
            for p, ref in zip(got_net.parameters(), ref_net.parameters()):
                assert p.dtype == np.float32 and close(p, ref, self.CHUNK_RTOL)

    def test_forward_refuses_input_beyond_float32(self):
        # 1e39 is a finite float64 and inf in float32.
        net = init_network(2, 4, seed=0)
        with pytest.raises(ValueError, match="network input in float32 must be complete"):
            forward(net, np.array([[0.5, 1e39]]))

    def test_training_data_beyond_float32_diverges(self):
        x = np.random.default_rng(94).standard_normal((10, 2))
        x[3, 1] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergence, match="epoch 0"):
                train(init_network(2, 4, seed=0), x, DsmConfig(epochs=3), seed=0)


class TestMinibatch:
    """Each epoch is one Adam step on min(N, score._BATCH_ROWS) rows. Past
    _BATCH_ROWS the rows are drawn without replacement from the training
    seed's stream, before that epoch's noise; up to it no index is drawn
    and every epoch trains on all rows, as a full-batch loop does."""

    B = 16

    @pytest.fixture(autouse=True)
    def small_batch(self, monkeypatch):
        monkeypatch.setattr(score_mod, "_BATCH_ROWS", self.B)

    @staticmethod
    def literal_loop(net, x, cfg, seed, batch_rows):
        """dsm_loss_and_grad and Adam, one epoch at a time; batch_rows None
        trains on every row."""
        ref = net.copy()
        params = ref.parameters()
        opt = Adam(params, score_mod._LR)
        rng = np.random.default_rng(seed)
        history = []
        for _ in range(cfg.epochs):
            batch = x
            if batch_rows is not None:
                batch = x[rng.choice(x.shape[0], size=batch_rows, replace=False)]
            noise = score_mod._SIGMA * rng.standard_normal(batch.shape)
            loss, g_w, g_b = dsm_loss_and_grad(ref, batch, noise)
            history.append(loss)
            opt.step(params, g_w + g_b)
        return ref, history

    @pytest.mark.parametrize("n, batch_rows", [(10, None), (16, None), (40, 16)])
    def test_matches_literal_loop(self, n, batch_rows):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((n, 3))
        net = random_network(rng, 3, 16)
        cfg = DsmConfig(epochs=6)
        trained, history = train(net, x, cfg, seed=13)
        ref, ref_history = self.literal_loop(net, x, cfg, 13, batch_rows)
        assert history == ref_history
        for p, r in zip(trained.parameters(), ref.parameters()):
            assert np.array_equal(p, r)

    @staticmethod
    def record_epochs(monkeypatch):
        """Record each call through the module attribute, which the
        benchmark's score.epoch probe wraps; returns the list of (batch
        copy, buffers) that the calls append to."""
        real = score_mod.dsm_loss_and_grad
        calls = []

        def recording(net, x_clean, noise, buffers=None):
            calls.append((x_clean.copy(), buffers))
            return real(net, x_clean, noise, buffers=buffers)

        monkeypatch.setattr(score_mod, "dsm_loss_and_grad", recording)
        return calls

    def test_each_epoch_sees_batch_rows_distinct_rows(self, monkeypatch):
        x = np.random.default_rng(56).standard_normal((50, 3))
        row_of = {row.tobytes(): i for i, row in enumerate(x)}
        calls = self.record_epochs(monkeypatch)
        train(init_network(3, 8, seed=0), x, DsmConfig(epochs=20), seed=1)
        seen = [[row_of[row.tobytes()] for row in batch] for batch, _ in calls]
        assert len(seen) == 20
        assert all(len(set(rows)) == len(rows) == self.B for rows in seen)
        # Each epoch draws afresh, so the batches do not repeat one subset.
        assert len(set().union(*seen)) > self.B

    @pytest.mark.parametrize("n, chunk, scratch", [
        (5, 7, [False]), (14, 7, [False, False]), (40, 7, [True, False]), (40, 4, [True, True]),
    ])
    def test_every_epoch_reuses_one_buffers_dict(self, monkeypatch, n, chunk, scratch):
        # Batches of min(n, B) rows in chunks go to lanes 0, 1, 0, 1: a lane
        # keeps buffers only with a chunk, and a scratch set only with two.
        monkeypatch.setattr(score_mod, "_CHUNK_ROWS", chunk)
        calls = self.record_epochs(monkeypatch)
        x = np.random.default_rng(58).standard_normal((n, 3))
        train(init_network(3, 8, seed=0), x, DsmConfig(epochs=4), seed=1)
        buffers = calls[0][1]
        assert len(calls) == 4 and all(b is buffers for _, b in calls)
        keys = sorted(buffers)
        assert [key[0] for key in keys] == list(range(len(scratch)))
        assert [buffers[key].scratch is not None for key in keys] == scratch

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(57).standard_normal((45, 3))
        net = init_network(3, 8, seed=1)
        cfg = DsmConfig(epochs=8)
        (a_net, a_hist), (b_net, b_hist) = (train(net, x, cfg, seed=9) for _ in range(2))
        assert a_hist == b_hist
        assert all(np.array_equal(p, q) for p, q in zip(a_net.parameters(), b_net.parameters()))
        assert train(net, x, cfg, seed=10)[1] != a_hist


class TestMemory:
    """Hidden-layer memory is bounded by the chunk height, not by N: at
    5000 rows and 256 hidden units one N x H float32 array alone is 5 MB.
    The bounds count buffers per lane at the module's constants, F bytes
    an element for the network's own arrays and 8 for float64 ones; 5000
    rows make 20 chunks for forward(), and a training batch of _BATCH_ROWS
    rows makes 4, so both lanes run."""

    N, D, H = 5000, 8, 256

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def setup_method(self):
        self.net = init_network(self.D, self.H, seed=0)
        self.F = self.net.dtype.itemsize
        self.x = np.random.default_rng(90).standard_normal((self.N, self.D))
        self.params = sum(p.size for p in self.net.parameters())
        self.chunk = score_mod._CHUNK_ROWS
        self.chunk_h = self.chunk * self.H
        self.batch = score_mod._BATCH_ROWS
        self.adam_block = score_mod._ADAM_BLOCK
        assert self.N > self.batch > (LANES + 1) * self.chunk

    def test_train_peak(self):
        # Per lane: five chunk-high (rows, H) buffers serve the forward and
        # the backward pass, beside the lane's noised input, target and
        # output chunks and two parameter-sized sets (its gradient sum and
        # a later chunk's gradients). Shared: the float64 (B, D) gathered
        # batch and noise and their casts to the network's dtype, the index
        # draw (at most one int64 per row), three parameter-sized sets (the
        # network copy and Adam's m and v) and Adam's two block-sized
        # scratch arrays. Half a chunk-high buffer covers the small
        # temporaries, so a sixth buffer in either lane fails.
        cfg = DsmConfig(epochs=2)
        peak = self.peak_bytes(lambda: train(self.net, self.x, cfg, seed=0))
        per_lane = 5 * self.chunk_h + 3 * self.chunk * self.D + 2 * self.params
        shared = 2 * self.batch * self.D + 3 * self.params + 2 * self.adam_block
        float64 = 2 * self.batch * self.D + self.N
        bound = self.F * (LANES * per_lane + shared + self.chunk_h // 2) + 8 * float64
        assert peak <= bound, (peak, bound)

    def test_adam_allocates_m_v_and_two_blocks(self):
        # The 256 x 256 weight is two Adam blocks. A scratch pair per
        # parameter would be two more parameter-sized sets (0.56 MB here);
        # the blocks need two arrays of 128 KB.
        params = self.net.parameters()
        assert max(p.size for p in params) > self.adam_block
        peak = self.peak_bytes(lambda: Adam(params, lr=1e-3))
        assert peak <= self.F * (2 * self.params + 2 * self.adam_block) + 16384, peak

    def test_train_peak_grows_by_the_index_draw_alone(self):
        # From 5000 to 20 000 rows the peak may grow by one int64 per row
        # for the index draw and one bool per cell for the finiteness
        # check: 16 bytes a row at D = 8. An (N, D) float64 array would add
        # 64 bytes a row, an (N, H) one 2048.
        cfg = DsmConfig(epochs=2)
        big = np.random.default_rng(91).standard_normal((4 * self.N, self.D))
        small_peak = self.peak_bytes(lambda: train(self.net, self.x, cfg, seed=0))
        big_peak = self.peak_bytes(lambda: train(self.net, big, cfg, seed=0))
        growth = big_peak - small_peak
        assert growth <= (8 + self.D) * 3 * self.N, growth

    def test_forward_peak(self):
        # Three chunk-high hidden buffers per lane, the float64 (N, D)
        # output, and the input's cast to the network's dtype with its
        # finiteness mask.
        peak = self.peak_bytes(lambda: forward(self.net, self.x))
        bound = self.F * (3 * LANES + 1) * self.chunk_h + 16 * self.N * self.D
        assert peak <= bound, (peak, bound)


def _check_concurrent_training():
    """Four threads on two or more cores, with a short switch interval,
    interleave the epochs of same-shaped runs; each must equal its serial
    result bit for bit, and the BLAS thread counts must end as they began."""
    blas_before = blas_thread_counts()
    rng = np.random.default_rng(54)
    net = init_network(4, 32, seed=3)
    cfg = DsmConfig(epochs=40)
    data = [rng.standard_normal((120, 4)) * (1 + k) for k in range(4)]
    serial = [train(net, x, cfg, seed=k) for k, x in enumerate(data)]
    results = [None] * len(data)

    def run(k):
        results[k] = train(net, data[k], cfg, seed=k)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(data))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert blas_thread_counts() == blas_before
    for (got_net, got_hist), (want_net, want_hist) in zip(results, serial):
        assert got_hist == want_hist
        for a, b in zip(got_net.parameters(), want_net.parameters()):
            assert np.array_equal(a, b)


def test_concurrent_training_matches_serial():
    """train() calls running at once share no buffers."""
    _check_concurrent_training()


def test_concurrent_multi_chunk_training_matches_serial(monkeypatch):
    """The same with 120 rows in chunks of 50, so each call also shares no
    per-chunk gradient scratch, and the calls' lanes pin and release BLAS
    threads at once."""
    monkeypatch.setattr(score_mod, "_CHUNK_ROWS", 50)
    _check_concurrent_training()
