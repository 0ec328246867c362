"""Effective sample size by Geyer's initial positive sequence estimator.

Geyer, "Practical Markov chain Monte Carlo", Statistical Science 7 (1992).
For a series of K draws with empirical autocovariances g_0, g_1, ..., the
pair sums G_j = g_{2j} + g_{2j+1} of a reversible chain are positive; the
estimator sums them up to (not including) the first non-positive one, giving
the integrated autocorrelation time tau = -1 + 2 * sum_j G_j / g_0 and
ESS = K / tau.
"""

from __future__ import annotations

import numpy as np


def autocovariance(values) -> np.ndarray:
    """Biased (divide by K) autocovariances at lags 0..K-1, via FFT."""
    x = np.asarray(values, dtype=float)
    k = len(x)
    x = x - x.mean()
    size = 1 << (2 * k - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    return np.fft.irfft(spectrum * np.conjugate(spectrum), size)[:k] / k


def effective_sample_size(values) -> float | None:
    """ESS of one statistic's series; None when the series is constant."""
    k = len(values)
    if k < 2:
        return None
    gamma = autocovariance(values)
    if gamma[0] <= 0.0:
        return None
    total = 0.0
    for j in range(k // 2):
        pair = gamma[2 * j] + gamma[2 * j + 1]
        if pair <= 0.0:
            break
        total += pair
    tau = max(-1.0 + 2.0 * total / gamma[0], 1.0 / k)
    return k / tau
