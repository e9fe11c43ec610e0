"""Slow, plainly correct reference implementations used only by the tests."""

import itertools
import math

import numpy as np

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
