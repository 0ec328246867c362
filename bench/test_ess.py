"""Tests of the ESS estimator against series whose ESS is known.

    python3 -m pytest bench/test_ess.py
"""

import numpy as np
import pytest

from ess import autocovariance, effective_sample_size


def ar1(rho: float, k: int, rng) -> np.ndarray:
    x = np.empty(k)
    x[0] = rng.standard_normal() / np.sqrt(1.0 - rho * rho)
    noise = rng.standard_normal(k)
    for t in range(1, k):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def test_autocovariance_matches_direct_sum():
    x = np.random.default_rng(1).standard_normal(50)
    d = x - x.mean()
    direct = [np.dot(d[: 50 - lag], d[lag:]) / 50 for lag in range(50)]
    assert np.allclose(autocovariance(x), direct)


def test_iid_series_has_ess_near_k():
    rng = np.random.default_rng(2)
    k = 20_000
    estimates = [effective_sample_size(rng.standard_normal(k)) for _ in range(5)]
    assert np.median(estimates) == pytest.approx(k, rel=0.1)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_series_has_ess_k_one_minus_rho_over_one_plus_rho(rho):
    rng = np.random.default_rng(3)
    k = 20_000
    estimates = [effective_sample_size(ar1(rho, k, rng)) for _ in range(5)]
    assert np.median(estimates) == pytest.approx(k * (1 - rho) / (1 + rho), rel=0.15)


def test_constant_series_has_no_ess():
    assert effective_sample_size([3, 3, 3, 3]) is None
    assert effective_sample_size([7]) is None


def test_trending_series_has_tiny_ess():
    # A chain that has not forgotten its start carries about one draw.
    assert effective_sample_size(np.linspace(99.0, 90.0, 200)) < 5
