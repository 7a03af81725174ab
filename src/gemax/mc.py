"""Seeded Monte Carlo sampling of the largest eigenvalue for beta = 1, 2, 4.

The sampler is the tridiagonal beta-Hermite model: a symmetric tridiagonal
matrix with diagonal N(0, 2)/sqrt(2) and k-th subdiagonal chi_{beta(n-k)}/sqrt(2)
has eigenvalue density proportional to

    prod |x_i - x_j|^beta * exp(-sum x_i^2 / 2).

Dividing the eigenvalues by sqrt(beta) converts the Gaussian weight to
exp(-(beta/2) sum x^2), the convention used by the analytic distributions
(for beta = 2 this is the e^{-x^2} weight of the Hermite kernel).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

VALID_BETA = (1, 2, 4)
_BATCH = 2048


@dataclass(frozen=True)
class McRun:
    """A seeded, sorted sample set of largest eigenvalues."""

    beta: int
    n: int
    seed: int
    samples: np.ndarray
    count: int


def sample_lambda_max(beta: int, n: int, count: int, seed: int) -> McRun:
    """Draw `count` largest eigenvalues of the n-eigenvalue beta ensemble."""
    if beta not in VALID_BETA:
        raise ParameterError(f"beta must be one of {VALID_BETA}, got {beta}")
    if n < 1 or count < 1:
        raise ParameterError(f"need n >= 1 and count >= 1, got n={n}, count={count}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    scale = 1.0 / math.sqrt(2.0 * beta)  # tridiagonal /sqrt2, eigenvalues /sqrt(beta)
    dof = beta * np.arange(n - 1, 0, -1, dtype=float)
    out = np.empty(count)
    done = 0
    while done < count:
        m = min(_BATCH, count - done)
        if n == 1:
            out[done : done + m] = rng.normal(0.0, math.sqrt(2.0), size=m) * scale
        else:
            diag = rng.normal(0.0, math.sqrt(2.0), size=(m, n))
            sub = np.sqrt(rng.chisquare(dof, size=(m, n - 1)))
            mats = np.zeros((m, n, n))
            idx = np.arange(n)
            mats[:, idx, idx] = diag
            jdx = np.arange(n - 1)
            mats[:, jdx, jdx + 1] = sub
            mats[:, jdx + 1, jdx] = sub
            out[done : done + m] = np.linalg.eigvalsh(mats)[:, -1] * scale
        done += m
    out.sort()
    return McRun(beta=beta, n=n, seed=seed, samples=out, count=count)


def empirical_cdf(run: McRun, t: float) -> float:
    """Fraction of samples <= t (binary search on the sorted samples)."""
    return bisect_right(run.samples, t) / run.count


def ks_statistic(run: McRun, cdf, grid_points: int = 0) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of the run against a CDF.

    Uses the order-statistic formula max_i max(i/N - F(x_i), F(x_i) - (i-1)/N).
    With grid_points > 0 the CDF is sampled on that many points spanning the
    sample range and evaluated by monotone cubic interpolation, so expensive
    analytic CDFs are called O(grid_points) times instead of once per sample;
    the interpolation error is far below the KS resolution 1/sqrt(N).
    """
    n = run.count
    if grid_points:
        from scipy.interpolate import PchipInterpolator

        lo, hi = float(run.samples[0]), float(run.samples[-1])
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        xs = np.linspace(lo - pad, hi + pad, grid_points)
        ys = np.array([cdf(float(x)) for x in xs])
        values = np.clip(PchipInterpolator(xs, ys)(run.samples), 0.0, 1.0)
    else:
        values = np.array([cdf(float(x)) for x in run.samples])
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - values, values - (i - 1) / n)))


def ks_critical_1pct(count: int, two_sample_count: int | None = None) -> float:
    """1% critical value 1.63/sqrt(N); harmonic N for the two-sample case."""
    if two_sample_count is None:
        return 1.63 / math.sqrt(count)
    eff = count * two_sample_count / (count + two_sample_count)
    return 1.63 / math.sqrt(eff)
