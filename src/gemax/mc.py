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
runs on the diagonal and squared subdiagonal of a whole batch at once, and
Newton's method on the same pivot recurrence narrows its bracket.  A batch
takes _HALVINGS = 12 halvings of the Gershgorin bracket, 4-6 Newton passes,
two Sturm passes that confirm a bracket of 4 ulps either side of Newton's
limit and 3 halvings to adjacent floats: 17 Sturm passes (18 in some
batches at n = 8) and 4-6 Newton passes of the n-step recurrence at n >= 8,
where bisection alone took 53-54.  A Sturm pass does 1 division a row and a
Newton pass 2, and a Newton pass costs about 1.8 Sturm passes.  At n <= 4,
where some samples lie near 0 and take more halvings to adjacent floats, it
takes 18-30 Sturm passes (bisection: up to about 64).  A batch costs
O(batch * n * ~26) time and O(batch * n) memory.  The samples are those of
bisection alone, bit for bit (see `_top_eigenvalue`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, check_integers, check_reals

VALID_BETA = (1, 2, 4)
#: the largest sample count and the largest n; up to it numpy refuses a sample or
#: an n too large for memory (MemoryError), past it an n overflows numpy's sizes
COUNT_MAX = 10**18
_BATCH = 2048
#: Sturm halvings of the Gershgorin bracket before Newton's method; with 6, the
#: batch needed 7-11 Newton passes at n = 16..96 and 22 at n = 400, with 12
#: it needs 4-6, and 10-14 all ran the kernel in 0.4-0.56 of bisection's time
_HALVINGS = 12
#: Newton passes at most; a top pair of eigenvalues closer than the bracket
#: makes Newton's convergence linear, and this caps what such a batch loses
_NEWTON_PASSES = 8
#: Newton's passes stop once no column's step is longer than this many ulps
_ULPS = 64
#: half-width, in ulps, of the bracket about Newton's last iterate that two
#: Sturm passes confirm; it closed all 823,296 columns of 402 batches at
#: beta 1, 2, 4 and n 2-400, and bisection finishes any column it leaves open
_CONFIRM_ULPS = 4
#: the tolerance of the KS table's chop: a Chebyshev series is cut where its
#: coefficients level off near rounding relative to the largest
_CHOP_TOL = 2.0**-52


@dataclass(frozen=True)
class McRun:
    """A seeded, sorted sample set of largest eigenvalues.

    Checked when made: ParameterError unless beta is one of VALID_BETA, the
    integers n and count are at least 1, seed is an integer and samples is a
    1-D float array of count finite values in ascending order.
    """

    beta: int
    n: int
    seed: int
    samples: np.ndarray
    count: int

    def __post_init__(self):
        check_integers(beta=self.beta, n=self.n, seed=self.seed, count=self.count)
        if self.beta not in VALID_BETA:
            raise ParameterError(f"beta must be one of {VALID_BETA}, got {self.beta}")
        if self.n < 1 or self.count < 1:
            raise ParameterError(f"need n >= 1 and count >= 1, got n={self.n}, count={self.count}")
        samples = self.samples
        if not (isinstance(samples, np.ndarray) and samples.dtype.kind == "f"
                and samples.shape == (self.count,)):
            raise ParameterError(f"need samples as a 1-D float array of count = {self.count} "
                                 f"values, got {type(samples).__name__} of shape {np.shape(samples)}")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("need finite samples")
        if np.any(samples[1:] < samples[:-1]):
            raise ParameterError("need samples in ascending order")


def _below(a: np.ndarray, b2: np.ndarray, x: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """One Sturm pass: whether each column's largest eigenvalue lies below x[column].

    The LDL^T pivots of T - x I, d_1 = a_1 - x and d_i = (a_i - x) -
    b_{i-1}^2 / d_{i-1}, are written to pivots; the largest eigenvalue lies
    below x exactly when all n are negative.
    """
    np.subtract(a, x, out=pivots)
    quotient = np.empty_like(x)
    for b, prev, row in zip(b2, pivots, pivots[1:]):
        np.divide(b, prev, out=quotient)
        row -= quotient
    return pivots.max(axis=0) < 0.0


def _newton_step(
    a: np.ndarray, b2: np.ndarray, x: np.ndarray, pivots: np.ndarray, slopes: np.ndarray
) -> np.ndarray:
    """One Newton pass: the step f/f' at x for f(x) = det(T - x I) = d_1 ... d_n.

    The pivots' derivatives follow the same recurrence, d_1' = -1 and
    d_i' = -1 + r_{i-1} d_{i-1}' / d_{i-1} with the pivot quotient
    r_{i-1} = b_{i-1}^2 / d_{i-1}, so the log-derivatives s_i = d_i'/d_i,
    written to slopes, follow s_1 = -1/d_1 and s_i = (r_{i-1} s_{i-1} - 1)/d_i:
    two divisions a row, r_{i-1} and s_i.  Then f'/f = sum s_i.  A pivot at
    or near 0 makes the step inf or NaN, which the caller refuses.
    """
    np.subtract(a, x, out=pivots)
    quotient = np.empty_like(x)
    with np.errstate(invalid="ignore"):
        np.divide(-1.0, pivots[0], out=slopes[0])
        for b, prev, row, slope, out in zip(b2, pivots, pivots[1:], slopes, slopes[1:]):
            np.divide(b, prev, out=quotient)
            row -= quotient
            quotient *= slope
            quotient -= 1.0
            np.divide(quotient, row, out=out)
        return 1.0 / slopes.sum(axis=0)


def _narrow(
    a: np.ndarray, b2: np.ndarray, lo: np.ndarray, hi: np.ndarray, pivots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each column's bracket [lo, hi] to a few ulps around Newton's limit.

    Newton's method from hi, right of the top root, falls monotonically to
    it (Wilkinson 1965).  A step is taken only if it lowers x and keeps it at
    or above lo, so a NaN step or one spoiled by rounding is refused; the
    passes stop once no column takes a step longer than _ULPS ulps.  Then
    x -/+ _CONFIRM_ULPS ulps replace lo and hi only where a Sturm pass
    confirms them, and bisection finishes a column they leave open.  The
    ulps are those of the larger of |x| and max |a_i|: near 0 the test's
    rounding is set by the diagonal, not by x, and with ulps of |x| alone
    batches at n = 2, 3 fell back to bisection.
    """
    slopes = np.empty_like(pivots)
    scale = np.maximum(a.max(axis=0), -a.min(axis=0))
    x = hi
    for _ in range(_NEWTON_PASSES):
        step = _newton_step(a, b2, x, pivots, slopes)
        new = x - step
        take = (new < x) & (lo <= new)
        x = np.where(take, new, x)
        ulp = np.spacing(np.maximum(np.abs(x), scale))
        if not np.any(take & (step > _ULPS * ulp)):
            break
    for end in (x - _CONFIRM_ULPS * ulp, x + _CONFIRM_ULPS * ulp):
        inside = (lo < end) & (end < hi)
        below = _below(a, b2, end, pivots)
        hi = np.where(inside & below, end, hi)
        lo = np.where(inside & ~below, end, lo)
    return lo, hi


def _top_eigenvalue(diag: np.ndarray, sub2: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each row's symmetric tridiagonal matrix.

    Row k has diagonal diag[k] (length n) and squared off-diagonal sub2[k]
    (length n - 1).  Bisection on the Sturm test of `_below` starts from
    [max a_i, max(a_i + |b_{i-1}| + |b_i|)] (Gershgorin) and halves the
    bracket until its midpoint rounds to an end.  After _HALVINGS halvings,
    `_narrow` shrinks the bracket by Newton's method to 4 ulps either side of
    its limit, and 3 more halvings decide the last bits: 17 Sturm and 4-6
    Newton passes at n >= 8.  The test is monotone in x under IEEE rounding,
    so the final pair of adjacent floats, and the returned midpoint, are
    those of bisection alone: Newton saves passes but never changes a bit.
    Squared off-diagonals are raised to dstebz's pivmin, tiny * max(1, max
    b^2), so a zero pivot gives an IEEE infinity and never 0/0; a zero
    coupling moves the eigenvalue by at most sqrt(pivmin).
    """
    a = np.ascontiguousarray(diag.T)
    b2 = np.ascontiguousarray(sub2.T)
    pivots, b = a.copy(), np.sqrt(b2)
    pivots[1:] += b
    pivots[:-1] += b
    lo, hi = a.max(axis=0), pivots.max(axis=0)
    del b
    np.maximum(b2, np.finfo(float).tiny * max(1.0, b2.max(initial=0.0)), out=b2)
    halvings = 0
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            x = 0.5 * (lo + hi)
            if not np.any((lo < x) & (x < hi)):
                return x
            below = _below(a, b2, x, pivots)
            hi = np.where(below, x, hi)
            lo = np.where(below, lo, x)
            halvings += 1
            if halvings == _HALVINGS:
                lo, hi = _narrow(a, b2, lo, hi, pivots)


def sample_lambda_max(beta: int, n: int, count: int, seed: int) -> McRun:
    """Draw `count` largest eigenvalues of the n-eigenvalue beta ensemble.

    1 <= n <= COUNT_MAX and 1 <= count <= COUNT_MAX (10^18), else ParameterError;
    an n or count too large for memory raises MemoryError before any draw.
    """
    check_integers(beta=beta, n=n, count=count, seed=seed)
    if beta not in VALID_BETA:
        raise ParameterError(f"beta must be one of {VALID_BETA}, got {beta}")
    if not (1 <= n <= COUNT_MAX and 1 <= count <= COUNT_MAX):
        raise ParameterError(f"need 1 <= n <= {COUNT_MAX:.0e} and 1 <= count <= {COUNT_MAX:.0e}, "
                             f"got n={n}, count={count}")
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


def _check_run(run) -> None:
    """ParameterError naming run unless it is an McRun (which checked itself when made)."""
    if not isinstance(run, McRun):
        raise ParameterError(f"need an McRun as run, got {type(run).__name__}")


def empirical_cdf(run: McRun, t: float) -> float:
    """Fraction of samples <= t (binary search on the sorted samples).

    ParameterError for a run that is not an McRun, and for a NaN or non-real t.
    """
    _check_run(run)
    check_reals(t=t)
    if math.isnan(t):
        raise ParameterError("need a point that is not NaN, got nan")
    return bisect_right(run.samples, t) / run.count


def _checked(values, points: np.ndarray) -> np.ndarray:
    """The CDF's values at points as floats; NumericalError naming the first point not in [0, 1]."""
    values = np.asarray(values, dtype=float)
    bad = ~((0.0 <= values) & (values <= 1.0))
    if bad.any():
        value, point = float(values[bad][0]), float(points[bad][0])
        if not math.isfinite(value):
            raise NumericalError(f"the CDF is not finite at x = {point!r}")
        raise NumericalError(f"the CDF reads {value!r}, outside [0, 1], at x = {point!r}")
    return values


def _chop(coeffs: np.ndarray) -> int:
    """How many leading Chebyshev coefficients to keep; len(coeffs) if none may go.

    Aurentz & Trefethen's standardChop ("Chopping a Chebyshev series", ACM
    TOMS 43, 2017) at tolerance _CHOP_TOL: a plateau must show in the
    normalized monotone envelope of |coeffs| before the series is cut, and
    the cut lies where that envelope, tilted towards the left end, is least.
    Fewer than 17 coefficients are never cut.  The scan stops at the
    envelope's first zero, so the paper's zero-plateau cut never applies.
    """
    n = len(coeffs)
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope /= envelope[0]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1 = envelope[j - 1]
        if e1 == 0.0 or envelope[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(_CHOP_TOL)):
            break
    floor = _CHOP_TOL ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(_CHOP_TOL) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def _chebyshev_series(cdf, mid: float, half: float, cap: int) -> np.ndarray:
    """Chebyshev coefficients of cdf(mid + half u) on [-1, 1], chopped, from at most `cap` points.

    The nodes are the cap's Chebyshev points of the second kind, mid - half
    cos(pi j / (cap - 1)).  They nest when N - 1 doubles, so the grids are
    every stride-th node, the stride halving from the largest power of 2
    that divides cap - 1 and leaves at least 17 points (26, 51, 101, 201
    for cap = 201).  The coarsest grid is one cdf call, and each finer grid
    one call on its new nodes alone.  A grid's coefficients come from one
    DCT-I of its values (one real FFT of their mirror image), and the first
    grid whose series `_chop` cuts returns the cut series.  If none does,
    the cap's full series returns: the interpolant through all cap nodes.
    """
    nodes = mid - half * np.cos(np.pi * np.arange(cap) / (cap - 1))
    stride = 1
    while (cap - 1) // stride % 2 == 0 and (cap - 1) // (2 * stride) >= 16:
        stride *= 2
    values = np.empty(cap)
    values[::stride] = _checked(cdf(nodes[::stride]), nodes[::stride])
    while True:
        grid = values[::stride][::-1]  # at cos(pi j / M), j = 0 .. M
        m = len(grid) - 1
        coeffs = np.fft.rfft(np.concatenate([grid, grid[-2:0:-1]]))[: m + 1].real / m
        coeffs[[0, -1]] *= 0.5
        keep = _chop(coeffs)
        if keep < len(coeffs) or stride == 1:
            return coeffs[:keep]
        stride //= 2
        new = nodes[stride :: 2 * stride]
        values[stride :: 2 * stride] = _checked(cdf(new), new)


def _clenshaw(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Chebyshev series sum c_k T_k(u) at each u, by Clenshaw's recurrence.

    b_k = c_k + 2u b_{k+1} - b_{k+2} runs in three buffers the size of u.
    """
    b1, b2, term = np.zeros_like(u), np.zeros_like(u), np.empty_like(u)
    two_u = 2.0 * u
    for c in coeffs[:0:-1]:
        np.multiply(two_u, b1, out=term)
        np.subtract(term, b2, out=b2)
        b2 += c
        b1, b2 = b2, b1
    np.multiply(u, b1, out=term)
    term -= b2
    term += coeffs[0]
    return term


def ks_statistic(run: McRun, cdf, grid_points: int = 0) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of the run against a CDF.

    Uses the order-statistic formula max_i max(i/N - F(x_i), F(x_i) - (i-1)/N).
    With grid_points > 0 the CDF is called on arrays of Chebyshev points of
    the second kind spanning the sample range, grid_points of them at most:
    on nested grids that reuse every value (26, 51, 101, then 201 points for
    grid_points = 201), until Aurentz & Trefethen's plateau test cuts the
    Chebyshev series at rounding (`_chebyshev_series`).  For the analytic
    CDFs here it stops at 101 or 51 points, with a degree of 33-46; a CDF it
    cannot resolve takes all grid_points.  The samples are evaluated on that
    series by Clenshaw's recurrence.  With grid_points = 0 the CDF is called
    once per sample, on a float.  A CDF value that is not finite or lies
    outside [0, 1] raises NumericalError naming its point; a run that is not
    an McRun, or a cdf that is not callable, raises ParameterError.
    """
    _check_run(run)
    if not callable(cdf):
        raise ParameterError(f"need a callable cdf, got {type(cdf).__name__}")
    n = run.count
    check_integers(grid_points=grid_points)
    if grid_points < 0 or grid_points == 1:
        raise ParameterError(f"need grid_points = 0 or >= 2, got {grid_points}")
    if grid_points:
        lo, hi = float(run.samples[0]), float(run.samples[-1])
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo) + pad
        coeffs = _chebyshev_series(cdf, mid, half, grid_points)
        values = np.clip(_clenshaw(coeffs, (run.samples - mid) / half), 0.0, 1.0)
    else:
        values = _checked([cdf(float(x)) for x in run.samples], run.samples)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - values, values - (i - 1) / n)))


def ks_critical_1pct(count: int) -> float:
    """1% critical value 1.63/sqrt(N) of the one-sample KS statistic."""
    check_integers(count=count)
    if count < 1:
        raise ParameterError(f"need count >= 1, got {count}")
    return 1.63 / math.sqrt(count)
