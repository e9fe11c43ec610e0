"""Score model: a two-hidden-layer MLP trained by denoising score matching.

The network maps a data row to an estimate of the gradient of the log
density at that row. Training perturbs the data with Gaussian noise of
scale _SIGMA and regresses the network output at the noised point onto the
conditional score -noise / _SIGMA^2, one Adam step of rate _LR per epoch.
Both are constants, not settings, so the noise and its target cannot
disagree. Gradients are computed by hand in numpy. The network computes in
float32: init_network and load_network make float32 parameters, and
forward and dsm_loss_and_grad cast their float64 input to the network's
dtype, so the GEMMs of width H run at float32 speed while forward still
returns float64 scores. Every function
follows the dtype of the network it is given: a float64 network runs the
same operations in float64, which is how the tests pin the arithmetic
against plain expressions and finite differences. A finite float64 value
beyond float32's range is not silently scored as inf: forward and
load_network refuse it, and training data that holds one diverges. The
package's argument checks live here too: check_count
(integers), check_positive (finite and > 0), check_finite (arrays
without NaN or ±inf) and check_memory (an array that fits in the
machine's physical memory).

Each training epoch is one Adam step on a minibatch of at most
_BATCH_ROWS rows, drawn without replacement from the training seed's
stream, so an epoch costs O(_BATCH_ROWS * H^2) whatever N is. A table of
at most _BATCH_ROWS rows is its own batch every epoch.

The forward and backward passes run over the rows in chunks of at most
_CHUNK_ROWS on lanes.run's lanes, and write into preallocated buffers of
that height with in-place ufuncs and matmul(out=), in the operation order
of the plain expressions, so hidden-layer memory is O(2 * _CHUNK_ROWS * H)
whatever N is. Up to _CHUNK_ROWS rows there is one chunk and results are
bit-identical to the plain expressions; past it they agree to round-off.
Each lane of a DSM evaluation takes its buffers from a dict that the
caller passes, and makes them the first time under a key of its lane and
the evaluation's shape and dtype; train() makes one dict per call and
passes it every epoch, so the first epoch allocates and the later ones
reuse. Per
lane, five chunk-high (rows, H) buffers hold the forward activations (the
two Swish outputs share one, and the backward pass recomputes the first
from z1 and s1), and the backward pass writes each of its values into one
of them that is dead by then. Adam steps each parameter in flat blocks of
at most _ADAM_BLOCK elements through one pair of block-sized scratch
arrays. Buffers never outlive the call that made them, so concurrent calls
share nothing.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import lanes

# Rows per forward/backward chunk. Median float32 DSM epoch (a batch of
# 1024 rows of 4898 x 11, H = 256) over 6 interleaved rounds (2-core VM,
# OpenBLAS 0.3.31), two lanes: 14.8 / 8.9 / 8.2 ms at 128 / 256 / 512
# rows, against 9.7 ms for one 1024-row chunk with two BLAS threads. 512
# ties 256 within the quartiles (7.96-9.45 against 8.62-9.23 ms); 256 rows
# give two lanes the chunk-high buffers one lane had at 512.
_CHUNK_ROWS = 256

# Rows per DSM training epoch. At 4898 x 11, H = 256 (2-core VM, OpenBLAS
# 0.3.31), 200 float32 epochs took 6.1-6.9 s full-batch and 1.8 s at 1024
# rows. 1024 keeps every table of up to 1024 rows full-batch and
# bit-identical.
_BATCH_ROWS = 1024

# Elements per Adam block: the scratch pair is at most this long, whatever
# the parameter sizes. One float32 step at D = 11, H = 256 (2-core VM,
# numpy 2.4, medians of 200 steps) took 396 us in blocks of 32768, 584 us
# in blocks of 8192 and 414 us with a pair as long as the largest
# parameter.
_ADAM_BLOCK = 32768

# DSM noise scale: small, so the noised density's score is close to the data's.
_SIGMA = 0.1

# Adam learning rate: Adam's usual default (Kingma & Ba, ICLR 2015).
_LR = 1e-3


class TrainingDivergence(RuntimeError):
    """Raised when the DSM loss stops being finite during training."""


def check_count(name: str, value: int, least: int = 1) -> None:
    """ValueError naming name unless value is an integer >= least. numpy
    integers count as integers; bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """ValueError naming name unless value is finite and > 0 (NaN is not)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def check_finite(name: str, values: np.ndarray) -> None:
    """ValueError naming name unless every entry of values is finite (no
    NaN, no ±inf)."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be complete (no NaN or infinite entries)")


def _cast(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """values as an array of dtype, not copied if it already is one. A
    finite value beyond dtype's range becomes ±inf without a warning; each
    caller's own finiteness check reports it."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=dtype)


def check_memory(nbytes: int, what: str) -> None:
    """MemoryError unless nbytes fit in the machine's physical memory; the
    message reads "<what> needs <nbytes> bytes; ..."."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise MemoryError(f"{what} needs {nbytes} bytes; this machine has {memory} bytes")


@dataclass(frozen=True)
class DsmConfig:
    """Denoising-score-matching training settings: the number of epochs.
    The noise scale and the learning rate are score._SIGMA and score._LR."""

    epochs: int = 200

    def __post_init__(self) -> None:
        check_count("epochs", self.epochs)


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

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def copy(self) -> "ScoreNetwork":
        return ScoreNetwork(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def parameters(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)


def init_network(d: int, hidden: int, seed: int) -> ScoreNetwork:
    """Uniform fan-in initialization U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    zero biases, in float32: the weights are a float64 draw rounded to
    float32. seed must be an integer >= 0."""
    check_count("d", d)
    check_count("hidden", hidden)
    check_count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    dims = [d, hidden, hidden, d]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    return ScoreNetwork(weights=weights, biases=biases)


def sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), elementwise, in z's float
    dtype (float64 for integer z).

    exp(-z) overflows to inf for z below about -709 in float64 (-88.7 in
    float32), which yields the correct limit sigmoid = 0, so the overflow
    warning is silenced. out, when given, must be an array of z's shape and
    dtype, and it is filled and returned (it may be z itself); otherwise a
    new array is.
    """
    if out is None:
        out = np.empty(np.shape(z), dtype=np.result_type(z, 1.0))
    np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _forward(
    net: ScoreNetwork,
    x: np.ndarray,
    act: Sequence[np.ndarray],
) -> np.ndarray:
    """One forward pass that writes each hidden pre-activation z, its
    sigmoid s and its Swish a = z * s into the (N, H) buffers
    act = (z1, s1, a1, z2, s2, a2), and returns the output, a new (N, D)
    array of the network's dtype.

    Each value is formed in the same operation order as x @ W + b and
    z * sigmoid(z), so the result is bit-identical to the allocating form.
    Buffers may alias where a value is dead before the next is written:
    forward() passes z1 is a1, s1 is s2 and z2 is a2, and _dsm_chunk passes
    a1 is a2, since a1 is dead once z2 is formed.
    """
    z1, s1, a1, z2, s2, a2 = act
    w, b = net.weights, net.biases
    np.matmul(x, w[0], out=z1)
    z1 += b[0]
    sigmoid(z1, out=s1)
    np.multiply(z1, s1, out=a1)
    np.matmul(a1, w[1], out=z2)
    z2 += b[1]
    sigmoid(z2, out=s2)
    np.multiply(z2, s2, out=a2)
    out = np.matmul(a2, w[2])
    out += b[2]
    return out


def _swish_grad(z: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """out = s * (1 + z * (1 - s)), the derivative of z * sigmoid(z)."""
    np.subtract(1.0, s, out=out)
    out *= z
    out += 1.0
    out *= s


def forward(net: ScoreNetwork, x: np.ndarray) -> np.ndarray:
    """Row-wise score estimates for a batch x of shape (N, D).

    x is cast to the network's dtype first, and an entry that is not
    finite there (NaN, ±inf, or a float64 beyond float32's range for a
    float32 network) is a ValueError. The hidden layers run _CHUNK_ROWS
    rows at a time; each lane allocates three (min(N, _CHUNK_ROWS), H)
    buffers of the network's dtype for this call. Each chunk's output is
    written into its slice of the float64 (N, D) result, so the lanes
    write disjoint rows.
    """
    x = _cast(x, net.dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"expected (N, {net.input_dim}) input, got {x.shape}")
    check_finite(f"network input in {net.dtype}", x)
    n = x.shape[0]
    shape = (min(n, _CHUNK_ROWS), net.weights[0].shape[1])
    out = np.empty((n, net.layer_dims[-1]))

    def lane(_: int, starts: range) -> None:
        za, s, zb = (np.empty(shape, dtype=net.dtype) for _ in range(3))
        for start in starts:
            chunk = x[start : start + _CHUNK_ROWS]
            m = chunk.shape[0]
            za_m, s_m, zb_m = za[:m], s[:m], zb[:m]
            out[start : start + m] = _forward(net, chunk, (za_m, s_m, za_m, zb_m, s_m, zb_m))

    lanes.run(lane, range(0, n, _CHUNK_ROWS))
    return out


class _LaneBuffers:
    """The reused arrays of one lane of a DSM evaluation: five (rows, H)
    activations z1, s1, a, z2, s2, where a holds a1 and then a2, which
    _dsm_chunk's backward pass reuses for its own values, and the
    gradients. One gradient set holds the lane's sum; a lane of more than
    one chunk has a second that holds each later chunk's gradients before
    they are added in."""

    def __init__(self, net: ScoreNetwork, rows: int, chunks: int) -> None:
        h = net.weights[0].shape[1]
        self.act = tuple(np.empty((rows, h), dtype=net.dtype) for _ in range(5))
        self.g_w, self.g_b = _gradient_set(net)
        self.scratch = _gradient_set(net) if chunks > 1 else None


def _gradient_set(net: ScoreNetwork) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases]


def _dsm_chunk(
    net: ScoreNetwork,
    x_clean: np.ndarray,
    noise: np.ndarray,
    n: int,
    buf: _LaneBuffers,
    g_w: list[np.ndarray],
    g_b: list[np.ndarray],
) -> float:
    """Forward, residual and backward over one chunk of m rows.

    Returns the chunk's sum of squared residuals and writes its share of
    the gradients (residuals divided by the full batch size n) into g_w and
    g_b. A non-finite sum is returned before the backward pass runs.
    """
    z1, s1, a, z2, s2 = (b[: x_clean.shape[0]] for b in buf.act)
    # Overflow here is the divergence signal itself; it is detected on the
    # squared sum, so the transient warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        x_noised = x_clean + noise
        target = np.negative(noise)
        target /= _SIGMA * _SIGMA
        resid = _forward(net, x_noised, (z1, s1, a, z2, s2, a))
        resid -= target
        sq = float(np.multiply(resid, resid, out=target).sum())
    if not np.isfinite(sq):
        return sq

    # a holds a2 now. Every backward value goes into an activation buffer
    # that is dead by then: swish'(z2) into a once g_w[2] has read a2,
    # d_z2 into z2 and d_z1 into s2 once swish'(z2) has read both, and
    # swish'(z1) into a once g_w[1] has read a1. a1 = z1 * s1 is formed
    # again in a, by the forward pass's multiply, so it is bit-identical; a
    # sixth (rows, H) buffer per lane would only hold it for this read.
    w = net.weights
    d_out = np.divide(resid, n, out=resid)
    np.matmul(a.T, d_out, out=g_w[2])
    np.sum(d_out, axis=0, out=g_b[2])
    _swish_grad(z2, s2, out=a)
    d_z2 = np.matmul(d_out, w[2].T, out=z2)
    d_z2 *= a
    np.multiply(z1, s1, out=a)
    np.matmul(a.T, d_z2, out=g_w[1])
    np.sum(d_z2, axis=0, out=g_b[1])
    _swish_grad(z1, s1, out=a)
    d_z1 = np.matmul(d_z2, w[1].T, out=s2)
    d_z1 *= a
    np.matmul(x_noised.T, d_z1, out=g_w[0])
    np.sum(d_z1, axis=0, out=g_b[0])
    return sq


def dsm_loss_and_grad(
    net: ScoreNetwork,
    x_clean: np.ndarray,
    noise: np.ndarray,
    buffers: Optional[dict] = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """DSM loss and its exact parameter gradients.

    The network is evaluated at the noised point x_clean + noise and its
    output regressed onto -noise / _SIGMA^2:

        loss = 1/2 * mean_i || f(x_i + e_i) + e_i / _SIGMA^2 ||^2

    train() draws noise at scale _SIGMA. x_clean and noise are cast to the
    network's dtype, and the gradients are arrays of that dtype;
    a value beyond its range becomes inf, so the loss is not finite and
    TrainingDivergence is raised. Returns (loss, weight gradients, bias
    gradients), index-aligned with net.weights / net.biases. The rows run in
    chunks of _CHUNK_ROWS on lanes.run's lanes: a lane writes its first
    chunk's gradients straight into its gradient set and adds each later
    chunk's to it, and returns its chunks' summed squared residuals with its
    buffers. Lane 1's sums are then added to lane 0's, which are the result;
    the loss divides the summed squares by N. A lane stops at a chunk whose
    sum is not finite, and TrainingDivergence is raised once both have
    stopped. buffers, when given, is a dict in which each lane keeps its
    _LaneBuffers under (lane, N, chunk rows, D, H, dtype), made on first
    use, so a call of another shape or dtype never gets arrays made for this
    one. A call that finds its lanes' entries allocates only a chunk's
    (rows, D) noised input, target and output, and the returned gradients
    are arrays of the dict, overwritten by the next call of this shape.
    Calls running at once must not share a dict.
    """
    x_clean, noise = _cast(x_clean, net.dtype), _cast(noise, net.dtype)
    if noise.shape != x_clean.shape:
        raise ValueError(f"noise shape {noise.shape} != data shape {x_clean.shape}")
    n = x_clean.shape[0]
    if n < 1:
        raise ValueError("DSM needs at least one row")
    cache = {} if buffers is None else buffers
    shape = (n, min(n, _CHUNK_ROWS), *net.weights[0].shape, net.dtype)

    def lane(k: int, starts: range) -> tuple[float, _LaneBuffers]:
        key = (k, *shape)
        own = cache.get(key)
        if own is None:
            own = cache[key] = _LaneBuffers(net, shape[1], len(starts))
        sq = 0.0
        for i, start in enumerate(starts):
            rows = slice(start, start + _CHUNK_ROWS)
            c_w, c_b = own.scratch if i else (own.g_w, own.g_b)
            sq += _dsm_chunk(net, x_clean[rows], noise[rows], n, own, c_w, c_b)
            if not np.isfinite(sq):
                break
            if i:
                for g, c in zip(own.g_w + own.g_b, c_w + c_b):
                    g += c
        return sq, own

    results = lanes.run(lane, range(0, n, _CHUNK_ROWS))
    total = sum(sq for sq, _ in results)
    if not np.isfinite(total):
        raise TrainingDivergence("DSM loss is not finite")
    (_, first), *others = results
    for _, other in others:
        for g, c in zip(first.g_w + first.g_b, other.g_w + other.g_b):
            g += c
    return 0.5 * total / n, first.g_w, first.g_b


class Adam:
    """Adam with bias correction over a fixed list of C-contiguous parameter
    arrays.

    Each step runs in place over each parameter in flat blocks of at most
    _ADAM_BLOCK elements, through one pair of scratch arrays of the largest
    block's length, allocated here. Every element goes through the same
    operations in the same order as the textbook update, so the blocks
    change no bit; they only keep the scratch from growing with the
    parameters.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[np.ndarray], lr: float) -> None:
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam needs C-contiguous parameter arrays")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = min(_ADAM_BLOCK, max((p.size for p in params), default=0))
        dtype = params[0].dtype if params else np.float64
        self._scratch = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for flats in zip(params, grads, self.m, self.v):
            p, g, m, v = (np.ravel(f) for f in flats)
            for start in range(0, p.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                self._update(p[block], g[block], m[block], v[block], c1, c2)

    def _update(
        self, p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, c1: float, c2: float
    ) -> None:
        a, b = (s[: p.size] for s in self._scratch)
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=a)
        v += np.multiply(a, g, out=a)
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=a)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        p -= a


def train(
    net: ScoreNetwork,
    x: np.ndarray,
    cfg: DsmConfig,
    seed: int,
) -> tuple[ScoreNetwork, list[float]]:
    """Minibatch DSM training with fresh noise of scale _SIGMA each epoch
    and Adam at rate _LR.

    Returns an updated copy of the network and the per-epoch loss history;
    the input network is left untouched. seed, an integer >= 0, drives
    every draw, so the result is deterministic per (net, x, cfg, seed).
    Each epoch takes one Adam step on a batch of B = min(N, _BATCH_ROWS)
    rows: past _BATCH_ROWS it first draws B distinct row indices from the
    seed's stream and gathers those rows, then draws the (B, D) noise; a
    table of at most _BATCH_ROWS rows draws only the noise and trains on
    all its rows. The gradient runs in chunks of _CHUNK_ROWS on two lanes
    (see dsm_loss_and_grad), which take their chunk-high activations and
    gradients from one buffers dict made here and passed every epoch. The
    batch, the noise, those lane buffers and Adam's state are allocated
    once per call and reused every epoch, so memory is O(B (D + H)) beside
    the O(N) index draw and the parameter-sized sets, whatever N is. The
    batch and the noise are float64, drawn as for any network, and
    dsm_loss_and_grad casts them to the network's dtype.
    """
    check_count("seed", seed, least=0)
    x = np.asarray(x, dtype=np.float64)
    check_finite("training data", x)
    rng = np.random.default_rng(seed)
    net = net.copy()
    params = net.parameters()
    opt = Adam(params, _LR)
    n = x.shape[0]
    rows = min(n, _BATCH_ROWS)
    buffers: dict = {}
    batch = x if rows == n else np.empty((rows, x.shape[1]))
    noise = np.empty(batch.shape)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        if batch is not x:
            np.take(x, rng.choice(n, size=rows, replace=False), axis=0, out=batch)
        rng.standard_normal(out=noise)
        noise *= _SIGMA
        try:
            loss, g_w, g_b = dsm_loss_and_grad(net, batch, noise, buffers=buffers)
        except TrainingDivergence as exc:
            raise TrainingDivergence(f"training diverged at epoch {epoch}") from exc
        history.append(loss)
        opt.step(params, g_w + g_b)
    return net, history


def save_network(path: str, net: ScoreNetwork) -> None:
    """JSON checkpoint: layer shapes plus flat parameter arrays."""
    payload = {
        "layer_dims": net.layer_dims,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_network(path: str) -> ScoreNetwork:
    """Read a save_network() checkpoint as a float32 network: a float32
    checkpoint loads bit-exactly, a float64 one as its float32 rounding.
    Anything but a [D, H, H, D] network with parameters finite in float32
    and a layer_dims header that says so raises ValueError naming the
    file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        weights = [_cast(w, np.float32) for w in payload["weights"]]
        biases = [_cast(b, np.float32) for b in payload["biases"]]
        header = payload["layer_dims"]
        d, h = weights[0].shape
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{path}: not a score network checkpoint ({exc!r})") from exc
    shapes = [a.shape for a in weights + biases]
    if min(d, h) < 1 or shapes != [(d, h), (h, h), (h, d), (h,), (h,), (d,)]:
        raise ValueError(f"{path}: not a [D, H, H, D] network; parameter shapes {shapes}")
    if header != [d, h, h, d]:
        raise ValueError(f"{path}: checkpoint shape header does not match tensors")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ValueError(f"{path}: checkpoint holds parameters that are not finite in float32")
    return ScoreNetwork(weights=weights, biases=biases)
