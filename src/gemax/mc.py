"""Seeded Monte Carlo sampling of the largest eigenvalue for beta = 1, 2, 4.

The sampler is the tridiagonal beta-Hermite model (Dumitriu & Edelman,
J. Math. Phys. 43, 2002): a symmetric tridiagonal matrix with diagonal
N(0, 2)/sqrt(2) and k-th subdiagonal chi_{beta(n-k)}/sqrt(2) has eigenvalue
density proportional to

    prod |x_i - x_j|^beta * exp(-sum x_i^2 / 2).

Dividing the eigenvalues by sqrt(beta) converts the Gaussian weight to
exp(-(beta/2) sum x^2), the convention used by the analytic distributions
(for beta = 2 this is the e^{-x^2} weight of the Hermite kernel).

Only the largest eigenvalue is wanted, so no matrix is formed: Sturm-sequence
bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967; LAPACK dstebz)
runs on the diagonal and squared subdiagonal of a whole batch at once.  It
halves a Gershgorin bracket to the last bit of every row's eigenvalue: 53-54
halvings at n >= 16, up to about 64 at n <= 4, where some samples lie near 0.
Each halving is one pass of the n-step pivot recurrence over the batch, so a
batch costs O(batch * n * ~55) time and O(batch * n) memory.
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


def _top_eigenvalue(diag: np.ndarray, sub2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each row's symmetric tridiagonal matrix.

    Row k has diagonal diag[k] (length n) and squared off-diagonal sub2[k]
    (length n - 1).  The LDL^T pivots of T - x I are d_1 = a_1 - x and
    d_i = (a_i - x) - b_{i-1}^2 / d_{i-1}; the largest eigenvalue lies below x
    exactly when all n are negative.  Bisection on that test starts from
    [max a_i, max(a_i + |b_{i-1}| + |b_i|)] (Gershgorin) and halves the
    bracket until its midpoint rounds to an end.  Squared off-diagonals are
    raised to dstebz's pivmin, tiny * max(1, max b^2), so a zero pivot gives
    an IEEE infinity and never 0/0; a zero coupling moves the eigenvalue by
    at most sqrt(pivmin).
    """
    a = np.ascontiguousarray(diag.T)
    b2 = np.ascontiguousarray(sub2.T)
    pivots = np.empty_like(a)
    edge = np.zeros((len(a) + 1, a.shape[1]))
    np.sqrt(b2, out=edge[1:-1])
    np.add(a, edge[:-1], out=pivots)
    pivots += edge[1:]
    lo, hi = a.max(axis=0), pivots.max(axis=0)
    np.maximum(b2, np.finfo(float).tiny * max(1.0, b2.max(initial=0.0)), out=b2)
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            x = 0.5 * (lo + hi)
            if not np.any((lo < x) & (x < hi)):
                return x
            np.subtract(a, x, out=pivots)
            for i in range(1, len(a)):
                pivots[i] -= b2[i - 1] / pivots[i - 1]
            below = pivots.max(axis=0) < 0.0
            hi = np.where(below, x, hi)
            lo = np.where(below, lo, x)


def sample_lambda_max(beta: int, n: int, count: int, seed: int) -> McRun:
    """Draw `count` largest eigenvalues of the n-eigenvalue beta ensemble."""
    if beta not in VALID_BETA:
        raise ParameterError(f"beta must be one of {VALID_BETA}, got {beta}")
    if n < 1 or count < 1:
        raise ParameterError(f"need n >= 1 and count >= 1, got n={n}, count={count}")
    if not 0 <= seed < 2**128:
        raise ParameterError(f"seed must be in [0, 2**128), got {seed}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    scale = 1.0 / math.sqrt(2.0 * beta)  # tridiagonal /sqrt2, eigenvalues /sqrt(beta)
    dof = beta * np.arange(n - 1, 0, -1, dtype=float)
    out = np.empty(count)
    done = 0
    while done < count:
        m = min(_BATCH, count - done)
        diag = rng.normal(0.0, math.sqrt(2.0), size=(m, n))
        sub2 = rng.chisquare(dof, size=(m, n - 1))
        out[done : done + m] = _top_eigenvalue(diag, sub2) * scale
        done += m
    out.sort()
    return McRun(beta=beta, n=n, seed=seed, samples=out, count=count)


def empirical_cdf(run: McRun, t: float) -> float:
    """Fraction of samples <= t (binary search on the sorted samples)."""
    return bisect_right(run.samples, t) / run.count


def _barycentric(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, values) at x; nodes are Chebyshev points of the second kind.

    The second (true) barycentric formula with the weights (-1)^j, halved at
    the two ends (Berrut & Trefethen, SIAM Review 46, 2004), which no affine
    map of the nodes changes.  x is taken _BATCH points at a time, so the
    largest temporary is _BATCH x len(nodes); a point on a node takes that
    node's value.
    """
    weights = np.ones_like(nodes)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    out = np.empty_like(x)
    for start in range(0, len(x), _BATCH):
        diff = x[start : start + _BATCH, None] - nodes
        exact = diff == 0.0
        diff[exact] = 1.0
        terms = weights / diff
        chunk = terms @ values / terms.sum(axis=1)
        hit = exact.any(axis=1)
        chunk[hit] = values[exact[hit].argmax(axis=1)]
        out[start : start + _BATCH] = chunk
    return out


def ks_statistic(run: McRun, cdf, grid_points: int = 0) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of the run against a CDF.

    Uses the order-statistic formula max_i max(i/N - F(x_i), F(x_i) - (i-1)/N).
    With grid_points > 0 the CDF is called once, on an array of that many
    Chebyshev points of the second kind spanning the sample range, and the
    samples are evaluated by barycentric interpolation: for the analytic
    CDFs here it converges geometrically, and at 201 points its error is far
    below the KS resolution 1/sqrt(N).  With grid_points = 0 the CDF is
    called once per sample, on a float.
    """
    n = run.count
    if grid_points < 0 or grid_points == 1:
        raise ParameterError(f"need grid_points = 0 or >= 2, got {grid_points}")
    if grid_points:
        lo, hi = float(run.samples[0]), float(run.samples[-1])
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo) + pad
        nodes = mid - half * np.cos(np.pi * np.arange(grid_points) / (grid_points - 1))
        ys = np.asarray(cdf(nodes), dtype=float)
        values = np.clip(_barycentric(nodes, ys, run.samples), 0.0, 1.0)
    else:
        values = np.array([cdf(float(x)) for x in run.samples])
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - values, values - (i - 1) / n)))


def ks_critical_1pct(count: int) -> float:
    """1% critical value 1.63/sqrt(N) of the one-sample KS statistic."""
    return 1.63 / math.sqrt(count)
