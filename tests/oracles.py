"""Slow, plainly correct reference implementations used only by the tests."""

import itertools
import math

import numpy as np

from knewimp.score import ScoreNetwork

BRUTE_FORCE_LIMIT = 8


def grad_gram_second(x_i, y_j, bandwidth):
    """Gradient of K(x_i, y) with respect to y, evaluated at y = y_j.

    For the RBF kernel this is ((x_i - y_j) / h^2) * K(x_i, y_j): the kernel
    increases as y moves toward x_i, so the gradient points from y_j to x_i.
    """
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    x_i = np.asarray(x_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    diff = x_i - y_j
    k = np.exp((diff * diff).sum() / (-2.0 * bandwidth * bandwidth))
    return (diff / (bandwidth * bandwidth)) * k


def dense_velocity(x, mask, scores, bandwidth, ner_weight, weights=1.0):
    """The flow velocity from the full N x N Gram and the N x N x D array of
    pairwise kernel gradients, summed over every row j at once.

    v_i = (1/N) sum_j W_ij [G_ij s_j - ner_weight grad_y K(x_i, x_j) ⊙ f_j] ⊙ f_i,
    with f = 1 - mask, s the score at x, masked by f, and W the pair
    weights: 1 everywhere for the exact sums, rbm_pair_weights for random
    batches.
    """
    x = np.asarray(x, dtype=np.float64)
    free = 1.0 - np.asarray(mask, dtype=np.float64)
    h2 = bandwidth * bandwidth
    diff = x[:, None, :] - x[None, :, :]
    g = weights * np.exp((diff * diff).sum(axis=2) / (-2.0 * h2))
    smoothed = g @ (np.asarray(scores, dtype=np.float64) * free)
    attraction = ((diff / h2) * g[:, :, None] * free[None, :, :]).sum(axis=1)
    return (smoothed - ner_weight * attraction) / x.shape[0] * free


def rbm_pair_weights(n, batches):
    """The N x N pair weights of the random batch method over the given
    batches of row indices, m rows in all: (m - 1)/(n_b - 1) between two
    rows of one batch of n_b rows, 0 across batches, and 1 on the self
    term."""
    m = sum(len(b) for b in batches)
    weights = np.zeros((n, n))
    for b in batches:
        weights[np.ix_(b, b)] = (m - 1) / (len(b) - 1)
    np.fill_diagonal(weights, 1.0)
    return weights


def gaussian_conditional_mean(x, mask, cov):
    """E[x_m | x_o] row by row for zero-mean Gaussian rows with covariance
    cov: cov_mo cov_oo^-1 x_o in the missing cells (0 in a row with nothing
    observed), the observed cells copied. Under the true covariance this is
    the Bayes floor: no imputer has a lower expected squared error."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    for i in range(x.shape[0]):
        obs = mask[i] == 1.0
        miss = ~obs
        if not miss.any():
            continue
        out[i, miss] = 0.0
        if obs.any():
            weights = np.linalg.solve(cov[np.ix_(obs, obs)], x[i, obs])
            out[i, miss] = cov[np.ix_(miss, obs)] @ weights
    return out


def mixture_conditional_mean(x, mask, weights, means, cov):
    """E[x_m | x_o] row by row for rows from the Gaussian mixture
    sum_k weights[k] N(means[k], cov): each component's conditional mean
    means[k]_m + cov_mo cov_oo^-1 (x_o - means[k]_o), weighted by the
    component's posterior given x_o (its prior weight in a row with nothing
    observed), in the missing cells; the observed cells copied. Under the
    true law this is the Bayes floor."""
    x = np.asarray(x, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    log_w = np.log(np.asarray(weights, dtype=np.float64))
    out = x.copy()
    for i in range(x.shape[0]):
        obs = mask[i] == 1.0
        miss = ~obs
        if not miss.any():
            continue
        dev = x[i, obs] - means[:, obs]
        solved = np.linalg.solve(cov[np.ix_(obs, obs)], dev.T).T
        log_post = log_w - 0.5 * (dev * solved).sum(axis=1)
        post = np.exp(log_post - log_post.max())
        post /= post.sum()
        out[i, miss] = post @ (means[:, miss] + solved @ cov[np.ix_(miss, obs)].T)
    return out


def wasserstein2_bruteforce(truth_rows, imputed_rows):
    """Minimum mean squared pairing cost over all permutations."""
    a = np.asarray(truth_rows, dtype=np.float64)
    b = np.asarray(imputed_rows, dtype=np.float64)
    m = a.shape[0]
    if m > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to m <= {BRUTE_FORCE_LIMIT}, got {m}")
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    best = math.inf
    for perm in itertools.permutations(range(m)):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        best = min(best, total)
    return best / m


def float64_network(net):
    """A float64 copy of net. The package runs a float64 network in
    float64 throughout, so the oracles below pin its arithmetic bit for
    bit and finite differences resolve its gradients."""
    return ScoreNetwork(
        weights=[w.astype(np.float64) for w in net.weights],
        biases=[b.astype(np.float64) for b in net.biases],
    )


def _swish(z):
    """(z * sigmoid(z), sigmoid(z)), each a new array."""
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig, sig


def forward_trace(net, x):
    """The score network's forward pass as plain expressions, one new array
    per operation; returns the output and the hidden activations."""
    z1 = x @ net.weights[0] + net.biases[0]
    a1, s1 = _swish(z1)
    z2 = a1 @ net.weights[1] + net.biases[1]
    a2, s2 = _swish(z2)
    out = a2 @ net.weights[2] + net.biases[2]
    return out, (z1, s1, a1, z2, s2, a2)


def dsm_loss_and_grad(net, x_clean, noise, sigma):
    """DSM loss and hand-derived gradients, each value a new array."""
    n = x_clean.shape[0]
    x_noised = x_clean + noise
    target = -noise / (sigma * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        out, (z1, s1, a1, z2, s2, a2) = forward_trace(net, x_noised)
        resid = out - target
        loss = float(0.5 * (resid * resid).sum() / n)
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


def adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (1-based) with bias correction; updates params, m and v."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * g * g
        p -= lr * (m_i / c1) / (np.sqrt(v_i / c2) + eps)
