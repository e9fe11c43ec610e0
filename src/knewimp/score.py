"""Score model: a two-hidden-layer MLP trained by denoising score matching.

The network maps a data row to an estimate of the gradient of the log
density at that row. Training perturbs the data with Gaussian noise of
scale sigma and regresses the network output at the noised point onto the
conditional score -noise / sigma^2. Gradients are computed by hand so the
whole stack stays in float64 numpy and can be checked against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class TrainingDivergence(RuntimeError):
    """Raised when the DSM loss stops being finite during training."""


@dataclass(frozen=True)
class DsmConfig:
    """Denoising-score-matching training settings."""

    sigma: float = 0.1
    epochs: int = 200
    lr: float = 1e-3

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class ScoreNetwork:
    """MLP with layer sizes [D, H, H, D] and Swish after the hidden layers.

    weights[i] has shape (fan_in, fan_out); biases[i] has shape (fan_out,).
    The output layer is linear: scores are unconstrained in sign and scale.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "ScoreNetwork":
        return ScoreNetwork(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def parameters(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)


def init_network(d: int, hidden: int, seed: int) -> ScoreNetwork:
    """Uniform fan-in initialization U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    zero biases."""
    if d < 1 or hidden < 1:
        raise ValueError(f"dimensions must be >= 1, got d={d}, hidden={hidden}")
    rng = np.random.default_rng(seed)
    dims = [d, hidden, hidden, d]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return ScoreNetwork(weights=weights, biases=biases)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), elementwise.

    exp(-z) overflows to inf for z below about -709, which yields the
    correct limit sigmoid = 0, so the overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        sig = np.exp(-z)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return sig


def _swish(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (swish(z), sigmoid(z)); the sigmoid is reused in backprop."""
    sig = sigmoid(z)
    return z * sig, sig


def _forward_trace(net: ScoreNetwork, x: np.ndarray):
    z1 = x @ net.weights[0] + net.biases[0]
    a1, s1 = _swish(z1)
    z2 = a1 @ net.weights[1] + net.biases[1]
    a2, s2 = _swish(z2)
    out = a2 @ net.weights[2] + net.biases[2]
    return out, (z1, s1, a1, z2, s2, a2)


def forward(net: ScoreNetwork, x: np.ndarray) -> np.ndarray:
    """Row-wise score estimates for a batch x of shape (N, D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"expected (N, {net.input_dim}) input, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("network input contains non-finite values")
    out, _ = _forward_trace(net, x)
    return out


def dsm_loss_and_grad(
    net: ScoreNetwork,
    x_clean: np.ndarray,
    noise: np.ndarray,
    sigma: float,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """DSM loss and its exact parameter gradients.

    The network is evaluated at the noised point x_clean + noise and its
    output regressed onto -noise / sigma^2:

        loss = 1/2 * mean_i || f(x_i + e_i) + e_i / sigma^2 ||^2

    Returns (loss, weight gradients, bias gradients), index-aligned with
    net.weights / net.biases.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    x_clean = np.asarray(x_clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x_clean.shape:
        raise ValueError(f"noise shape {noise.shape} != data shape {x_clean.shape}")
    n = x_clean.shape[0]
    x_noised = x_clean + noise
    target = -noise / (sigma * sigma)
    # Overflow here is the divergence signal itself; it is detected on the
    # loss value, so the transient warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        out, (z1, s1, a1, z2, s2, a2) = _forward_trace(net, x_noised)
        resid = out - target
        loss = float(0.5 * (resid * resid).sum() / n)
    if not np.isfinite(loss):
        raise TrainingDivergence("DSM loss is not finite")

    d_out = resid / n
    g_w3 = a2.T @ d_out
    g_b3 = d_out.sum(axis=0)
    d_a2 = d_out @ net.weights[2].T
    d_z2 = d_a2 * (s2 * (1.0 + z2 * (1.0 - s2)))
    g_w2 = a1.T @ d_z2
    g_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ net.weights[1].T
    d_z1 = d_a1 * (s1 * (1.0 + z1 * (1.0 - s1)))
    g_w1 = x_noised.T @ d_z1
    g_b1 = d_z1.sum(axis=0)
    return loss, [g_w1, g_w2, g_w3], [g_b1, g_b2, g_b3]


class Adam:
    """Adam with bias correction over a fixed list of parameter arrays."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[np.ndarray], lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def train(
    net: ScoreNetwork,
    x: np.ndarray,
    cfg: DsmConfig,
    seed: int,
) -> tuple[ScoreNetwork, list[float]]:
    """Full-batch DSM training with fresh noise each epoch.

    Returns an updated copy of the network and the per-epoch loss history;
    the input network is left untouched. seed drives the noise draws, so
    the result is deterministic per (net, x, cfg, seed).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("training data contains non-finite values")
    rng = np.random.default_rng(seed)
    net = net.copy()
    params = net.parameters()
    opt = Adam(params, cfg.lr)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        noise = cfg.sigma * rng.standard_normal(x.shape)
        try:
            loss, g_w, g_b = dsm_loss_and_grad(net, x, noise, cfg.sigma)
        except TrainingDivergence as exc:
            raise TrainingDivergence(f"training diverged at epoch {epoch}") from exc
        history.append(loss)
        opt.step(params, g_w + g_b)
    return net, history


def save_network(path: str, net: ScoreNetwork) -> None:
    """JSON checkpoint: layer shapes plus flat parameter arrays."""
    import json

    payload = {
        "layer_dims": net.layer_dims,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_network(path: str) -> ScoreNetwork:
    import json

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
    net = ScoreNetwork(weights=weights, biases=biases)
    if net.layer_dims != payload["layer_dims"]:
        raise ValueError(f"{path}: checkpoint shape header does not match tensors")
    return net
