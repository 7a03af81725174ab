"""Tests for the seeded Monte Carlo samplers and KS machinery."""

import math

import numpy as np
import pytest
from scipy import stats

from gemax.errors import ParameterError
from gemax.mc import (
    empirical_cdf,
    ks_critical_1pct,
    ks_statistic,
    sample_lambda_max,
)
from helpers import ks_two_sample, sample_lambda_max_dense


class TestSampler:
    def test_determinism(self):
        a = sample_lambda_max(2, 3, 500, seed=11)
        b = sample_lambda_max(2, 3, 500, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_sensitivity(self):
        a = sample_lambda_max(2, 3, 500, seed=11)
        b = sample_lambda_max(2, 3, 500, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_sorted(self):
        run = sample_lambda_max(1, 4, 300, seed=5)
        assert np.all(np.diff(run.samples) >= 0)

    def test_bad_beta(self):
        with pytest.raises(ParameterError):
            sample_lambda_max(3, 2, 10, seed=0)

    def test_n1_gaussian(self):
        # [DERIVED] a single beta = 2 eigenvalue is N(0, 1/2): KS test
        # against the exact normal CDF
        run = sample_lambda_max(2, 1, 20_000, seed=42)
        d = ks_statistic(run, lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5)))
        assert d < ks_critical_1pct(run.count)

    def test_n1_beta4_gaussian(self):
        # [DERIVED] a single beta = 4 eigenvalue is N(0, 1/4)
        run = sample_lambda_max(4, 1, 20_000, seed=43)
        d = ks_statistic(run, lambda t: stats.norm.cdf(t, scale=0.5))
        assert d < ks_critical_1pct(run.count)

    def test_tridiagonal_vs_dense(self):
        # the tridiagonal model and the dense GOE sampler target the same
        # distribution; two-sample KS at 1%
        tri = sample_lambda_max(1, 4, 8_000, seed=101)
        dense = sample_lambda_max_dense(1, 4, 8_000, seed=202)
        d = ks_two_sample(tri, dense)
        assert d < ks_critical_1pct(tri.count, dense.count)

    def test_tridiagonal_vs_dense_hermitian(self):
        tri = sample_lambda_max(2, 3, 8_000, seed=303)
        dense = sample_lambda_max_dense(2, 3, 8_000, seed=404)
        d = ks_two_sample(tri, dense)
        assert d < ks_critical_1pct(tri.count, dense.count)


class TestEmpiricalCdf:
    def test_endpoints(self):
        run = sample_lambda_max(2, 2, 100, seed=1)
        assert empirical_cdf(run, float(run.samples[-1])) == 1.0
        assert empirical_cdf(run, float(run.samples[0]) - 1.0) == 0.0

    def test_midpoint_fraction(self):
        run = sample_lambda_max(2, 2, 100, seed=1)
        t = float(run.samples[49])
        assert empirical_cdf(run, t) == pytest.approx(0.5, abs=0.05)


class TestKsStatistic:
    def test_scipy_agreement(self):
        # [DERIVED] scipy.stats.kstest computes the same statistic
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        cdf = lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5))
        ours = ks_statistic(run, cdf)
        ref = stats.kstest(run.samples, cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_grid_interpolation_close(self):
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        cdf = lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5))
        exact = ks_statistic(run, cdf)
        gridded = ks_statistic(run, cdf, grid_points=201)
        assert gridded == pytest.approx(exact, abs=1e-4)

    def test_critical_value(self):
        # [TRIVIAL] 1.63/sqrt(N)
        assert ks_critical_1pct(10_000) == pytest.approx(0.0163, rel=1e-12)
        # harmonic sample size for the two-sample variant
        assert ks_critical_1pct(100, 300) == pytest.approx(1.63 / math.sqrt(75.0), rel=1e-12)
