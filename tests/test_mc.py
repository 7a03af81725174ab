"""Tests for the seeded Monte Carlo samplers and KS machinery."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gemax import mc
from gemax.acceptance import mc_cdf
from gemax.errors import NumericalError, ParameterError
from gemax.mc import (
    _BATCH,
    _chop,
    _top_eigenvalue,
    McRun,
    empirical_cdf,
    ks_critical_1pct,
    ks_statistic,
    sample_lambda_max,
)
from helpers import (
    bisection_top_eigenvalue,
    ks_critical_1pct_two_sample,
    ks_statistic_barycentric,
    ks_two_sample,
    padded_chebyshev_grid,
    sample_lambda_max_dense,
    standard_chop,
)


def dense_eigenvalues(diag, sub2):
    """All eigenvalues of each row's tridiagonal, from the explicit dense matrix."""
    m, n = diag.shape
    mats = np.zeros((m, n, n))
    idx = np.arange(n)
    mats[:, idx, idx] = diag
    sub = np.sqrt(sub2)
    mats[:, idx[:-1], idx[1:]] = sub
    mats[:, idx[1:], idx[:-1]] = sub
    return np.linalg.eigvalsh(mats)


def gershgorin_bracket(diag, sub2):
    edge = np.zeros((diag.shape[0], diag.shape[1] + 1))
    edge[:, 1:-1] = np.sqrt(sub2)
    return diag.max(axis=1), (diag + edge[:, :-1] + edge[:, 1:]).max(axis=1)


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

    @pytest.mark.parametrize("seed", (-1, 2**128), ids=("negative", "2**128"))
    def test_seed_outside_philox_keys(self, seed):
        with pytest.raises(ParameterError):
            sample_lambda_max(2, 2, 10, seed=seed)

    @pytest.mark.parametrize("count", (10, 2048))
    def test_n_bound(self, count):
        # n = 2**70 ended in numpy's ValueError (Maximum allowed size exceeded).
        # Past COUNT_MAX an n is refused by name; up to it numpy refuses one too
        # large for memory before it allocates, as it does a count
        with pytest.raises(ParameterError, match=f"got n={mc.COUNT_MAX + 1}, count={count}$"):
            sample_lambda_max(2, mc.COUNT_MAX + 1, count, seed=0)
        with pytest.raises(MemoryError):
            sample_lambda_max(4, mc.COUNT_MAX, count, seed=0)

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
        assert d < ks_critical_1pct_two_sample(tri.count, dense.count)

    def test_tridiagonal_vs_dense_hermitian(self):
        tri = sample_lambda_max(2, 3, 8_000, seed=303)
        dense = sample_lambda_max_dense(2, 3, 8_000, seed=404)
        d = ks_two_sample(tri, dense)
        assert d < ks_critical_1pct_two_sample(tri.count, dense.count)


class TestMcRun:
    """An McRun checks itself when made, so the KS readers may trust it."""

    @pytest.mark.parametrize(
        "change, message",
        [
            # a reversed copy made ks_statistic read 0.997 against the GUE law
            (lambda r: {"samples": r.samples[::-1].copy()}, "ascending"),
            # empirical_cdf divided 10 samples by a count of 50 and read 0.2 at the top
            (lambda r: {"samples": r.samples[:10].copy()}, "count = 50"),
            # an empty run raised IndexError in ks_statistic
            (lambda r: {"samples": np.empty(0), "count": 0}, "count >= 1"),
            (lambda r: {"samples": r.samples.reshape(5, 10)}, "1-D float array"),
            (lambda r: {"samples": list(r.samples)}, "got list of shape (50,)"),
            (lambda r: {"samples": np.arange(50)}, "1-D float array"),
            (lambda r: {"samples": np.append(r.samples[:-1], np.inf)}, "finite"),
            (lambda r: {"samples": np.append(r.samples[:-1], np.nan)}, "finite"),
            (lambda r: {"beta": 3}, "beta must be one of"),
            (lambda r: {"beta": 2.0}, "integer beta"),
            (lambda r: {"n": 0}, "n >= 1"),
            (lambda r: {"count": 50.0}, "integer count"),
            (lambda r: {"seed": None}, "integer seed"),
        ],
        ids=["reversed", "short", "empty", "2-d", "list", "integers", "inf", "nan", "beta 3",
             "beta float", "n 0", "count float", "seed None"],
    )
    def test_refuses_a_bad_run(self, change, message):
        run = sample_lambda_max(2, 4, 50, seed=1)
        with pytest.raises(ParameterError, match=re.escape(message)):
            replace(run, **change(run))

    def test_accepts_ties_and_a_single_sample(self):
        run = McRun(beta=1, n=2, seed=0, samples=np.array([0.5, 0.5, 1.0]), count=3)
        assert empirical_cdf(run, 0.5) == pytest.approx(2 / 3)
        one = McRun(beta=4, n=1, seed=0, samples=np.array([0.0]), count=1)
        assert ks_statistic(one, lambda t: 0.5) == 0.5


class TestEmpiricalCdf:
    def test_endpoints(self):
        run = sample_lambda_max(2, 2, 100, seed=1)
        assert empirical_cdf(run, float(run.samples[-1])) == 1.0
        assert empirical_cdf(run, float(run.samples[0]) - 1.0) == 0.0

    def test_midpoint_fraction(self):
        run = sample_lambda_max(2, 2, 100, seed=1)
        t = float(run.samples[49])
        assert empirical_cdf(run, t) == pytest.approx(0.5, abs=0.05)

    def test_nan_point_raises(self):
        # bisect_right put a NaN past every sample, so it read 1.0; the
        # infinities are ordered and read 1.0 and 0.0
        run = sample_lambda_max(2, 2, 100, seed=1)
        with pytest.raises(ParameterError, match="nan"):
            empirical_cdf(run, math.nan)
        assert empirical_cdf(run, math.inf) == 1.0
        assert empirical_cdf(run, -math.inf) == 0.0


class TestKsStatistic:
    def test_scipy_agreement(self):
        # [DERIVED] scipy.stats.kstest computes the same statistic
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        cdf = lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5))
        ours = ks_statistic(run, cdf)
        ref = stats.kstest(run.samples, cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_grid_interpolation_close(self):
        # the chopped Chebyshev series of an analytic CDF (measured gap
        # 5.6e-17; monotone cubic interpolation needed 1e-4)
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        cdf = lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5))
        exact = ks_statistic(run, cdf)
        gridded = ks_statistic(run, cdf, grid_points=201)
        assert gridded == pytest.approx(exact, abs=1e-12)

    @staticmethod
    def _counting_cdf(calls, law=lambda x: stats.norm.cdf(x, scale=math.sqrt(0.5))):
        def cdf(x):
            calls.append(np.array(x, copy=True))
            return law(x)

        return cdf

    def test_grid_is_nested(self):
        # the CDF is called on nested Chebyshev grids of the padded sample
        # range: each call on nodes of the 201-point grid that no earlier
        # call took, at most one call per size 26, 51, 101, 201
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        calls = []
        ks_statistic(run, self._counting_cdf(calls), grid_points=201)
        grid = padded_chebyshev_grid(run, 201)
        assert 1 <= len(calls) <= 4
        assert calls[0].shape == (26,)
        taken = np.concatenate(calls)
        assert np.all(np.isin(taken, grid))
        assert len(np.unique(taken)) == len(taken)
        assert grid[0] < run.samples[0] and run.samples[-1] < grid[-1]

    @pytest.mark.parametrize("cap, sizes", [(2, [2]), (3, [3]), (17, [17]), (33, [17, 16]), (64, [64])])
    def test_small_caps(self, cap, sizes):
        # N - 1 halves while it stays even and N stays at least 17; where no
        # size's series is cut, the cap's full series is the interpolant
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        calls = []
        law = lambda x: stats.norm.cdf(x, scale=math.sqrt(0.5))
        gridded = ks_statistic(run, self._counting_cdf(calls, law), grid_points=cap)
        assert [len(c) for c in calls] == sizes
        assert np.all(np.isin(np.concatenate(calls), padded_chebyshev_grid(run, cap)))
        assert gridded == pytest.approx(ks_statistic_barycentric(run, law, cap), abs=1e-12)

    def test_goe_stops_by_101_points(self):
        # the analytic GOE n = 24 CDF reaches rounding by degree about 40:
        # the plateau test stops at 101 points or fewer
        run = sample_lambda_max(1, 24, 2_000, seed=7)
        calls = []
        ks_statistic(run, self._counting_cdf(calls, mc_cdf("goe", 24)), grid_points=201)
        assert len(np.unique(np.concatenate(calls))) <= 101

    def test_unresolved_cdf_takes_every_node(self):
        # a clipped linear ramp has a kink inside the range, so its
        # coefficients decay like k^-2 and never reach a plateau: the cap's
        # full series, the 201-point interpolant, is used
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        calls = []
        ramp = lambda x: np.clip(0.5 + np.asarray(x), 0.0, 1.0)
        gridded = ks_statistic(run, self._counting_cdf(calls, ramp), grid_points=201)
        taken = np.concatenate(calls)
        assert len(np.unique(taken)) == len(taken) == 201
        assert gridded == pytest.approx(ks_statistic_barycentric(run, ramp), abs=1e-12)

    @pytest.mark.parametrize(
        "ensemble, beta, n",
        [("gue", 2, 96), ("goe", 1, 24), ("gse", 4, 16), ("gauss", 2, 1)],
    )
    def test_matches_201_point_interpolant(self, ensemble, beta, n):
        # the chopped series against the barycentric interpolant on all 201
        # nodes (measured gap at most 5.3e-15 over seeds 31-40 of these cases)
        run = sample_lambda_max(beta, n, 2_000, seed=31)
        if ensemble == "gauss":
            cdf = lambda t: stats.norm.cdf(t, scale=math.sqrt(0.5))
        else:
            cdf = mc_cdf(ensemble, n)
        gridded = ks_statistic(run, cdf, grid_points=201)
        assert gridded == pytest.approx(ks_statistic_barycentric(run, cdf), abs=1e-12)

    def test_sample_on_a_node(self):
        # a sample exactly on a grid node gives a finite value: a Chebyshev
        # series has no 0/0 there, as the barycentric formula has
        run = sample_lambda_max(2, 1, 2_000, seed=7)
        calls = []
        ks_statistic(run, self._counting_cdf(calls), grid_points=201)
        node = np.concatenate(calls)[10]
        samples = run.samples.copy()
        samples[1000] = node  # the ends, and with them the grid, stay the same
        moved = replace(run, samples=np.sort(samples))
        calls.clear()
        cdf = self._counting_cdf(calls)
        gridded = ks_statistic(moved, cdf, grid_points=201)
        assert node in np.concatenate(calls)
        assert math.isfinite(gridded)
        assert gridded == pytest.approx(ks_statistic(moved, cdf), abs=1e-12)

    @pytest.mark.parametrize("grid_points", (0, 201))
    def test_non_finite_cdf_raises(self, grid_points):
        # one NaN used to spoil every interpolated value and return KS = nan
        run = sample_lambda_max(2, 1, 500, seed=7)
        bad = float(run.samples[250])

        def cdf(x):
            values = stats.norm.cdf(x, scale=math.sqrt(0.5))
            return np.where(np.asarray(x) >= bad, np.nan, values)

        with pytest.raises(NumericalError, match="not finite"):
            ks_statistic(run, cdf, grid_points=grid_points)

    @pytest.mark.parametrize("grid_points", (0, 201))
    @pytest.mark.parametrize("value", (2.0, -1e-3, 1.0 + 2**-52))
    def test_cdf_outside_unit_interval_raises(self, grid_points, value):
        # a CDF that read 2.0 everywhere gave a KS statistic of 1.0
        run = sample_lambda_max(2, 1, 500, seed=7)
        bad = float(run.samples[250])

        def cdf(x):
            values = stats.norm.cdf(x, scale=math.sqrt(0.5))
            return np.where(np.asarray(x) >= bad, value, values)

        message = re.escape(f"reads {value!r}, outside [0, 1], at x = ")
        with pytest.raises(NumericalError, match=message):
            ks_statistic(run, cdf, grid_points=grid_points)

    @pytest.mark.parametrize(
        "call, message",
        [
            # AttributeError: 'NoneType' object has no attribute 'count'
            (lambda run: ks_statistic(None, lambda t: 0.5), "need an McRun as run, got NoneType"),
            (lambda run: ks_statistic(run.samples, lambda t: 0.5), "need an McRun as run, got ndarray"),
            (lambda run: empirical_cdf(run.samples, 0.0), "need an McRun as run, got ndarray"),
            # TypeError: 'float' object is not callable
            (lambda run: ks_statistic(run, 0.5), "need a callable cdf, got float"),
            (lambda run: ks_statistic(run, None, grid_points=201), "need a callable cdf, got NoneType"),
        ],
        ids=["ks none", "ks array", "empirical array", "cdf float", "cdf none"],
    )
    def test_arguments_are_named(self, call, message):
        run = sample_lambda_max(2, 1, 100, seed=7)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call(run)

    @pytest.mark.parametrize("grid_points", (-1, 1))
    def test_grid_needs_two_points(self, grid_points):
        run = sample_lambda_max(2, 1, 100, seed=7)
        with pytest.raises(ParameterError):
            ks_statistic(run, lambda t: 0.5, grid_points=grid_points)

    def test_critical_value(self):
        # [TRIVIAL] 1.63/sqrt(N)
        assert ks_critical_1pct(10_000) == pytest.approx(0.0163, rel=1e-12)
        # harmonic sample size for the two-sample variant
        assert ks_critical_1pct_two_sample(100, 300) == pytest.approx(
            1.63 / math.sqrt(75.0), rel=1e-12
        )

    @pytest.mark.parametrize("count", (0, -5))
    def test_critical_value_needs_a_sample(self, count):
        # count 0 raised ZeroDivisionError, a negative count ValueError
        with pytest.raises(ParameterError):
            ks_critical_1pct(count)


class TestChop:
    """mc._chop against the printed standardChop (tests/helpers.py), one series per step of it."""

    @pytest.mark.parametrize(
        "coeffs, cut, step",
        [
            (np.zeros(30), 1, "zero"),
            # exact zeros after 12 coefficients: the scan stops at the first
            # zero, and the tol^(7/6) floor keeps the nonzero head
            (np.where(np.arange(40) < 12, 0.5 ** np.arange(40), 0.0), 12, "floor"),
            (10.0 ** -np.arange(30), 18, "floor"),
            (np.maximum(0.3 ** np.arange(80), 1e-14 * (1.5 + np.sin(np.arange(80)))), 26, "tilt"),
            (0.9 ** np.arange(40), 40, "no plateau"),
        ],
        ids=["zero envelope", "zero tail", "floor", "tilt", "no plateau"],
    )
    def test_each_step(self, coeffs, cut, step):
        assert standard_chop(coeffs) == (cut, step)
        assert _chop(coeffs.copy()) == cut

    def test_random_series(self):
        # decaying series, some ending in exact zeros and some on a noise
        # plateau: the cuts agree, and the printed zero-plateau step never
        # runs, since the scan stops at the envelope's first zero
        rng = np.random.default_rng(2)
        steps = set()
        for _ in range(2000):
            n = int(rng.integers(17, 120))
            coeffs = rng.standard_normal(n) * 10.0 ** (-rng.uniform(0, 25) * np.arange(n) / n)
            kind = rng.random()
            if kind < 0.4:
                coeffs[int(rng.integers(0, n + 1)):] = 0.0
            elif kind < 0.8:
                coeffs += 10.0 ** -rng.uniform(12, 18) * rng.standard_normal(n)
            cut, step = standard_chop(coeffs)
            assert _chop(coeffs.copy()) == cut
            steps.add(step)
        assert steps == {"zero", "floor", "tilt", "no plateau"}


class TestTopEigenvalue:
    """The sampler's kernel against eigvalsh of the explicit dense tridiagonal,
    and bit for bit against Sturm bisection alone."""

    def check(self, diag, sub2, rel=1e-13):
        with np.errstate(invalid="raise"):  # no Sturm pivot may become 0/0 = NaN
            top = _top_eigenvalue(diag, sub2)
        # Newton only narrows the bracket: bisection still picks every bit
        assert np.array_equal(top, bisection_top_eigenvalue(diag, sub2))
        eigs = dense_eigenvalues(diag, sub2)
        norm = np.abs(eigs).max(axis=1)
        assert not np.any(np.isnan(top))
        assert np.all(np.abs(top - eigs[:, -1]) <= rel * norm)
        lo, hi = gershgorin_bracket(diag, sub2)
        assert np.all((lo <= top) & (top <= hi))
        return top

    @staticmethod
    def random_rows(n):
        rng = np.random.default_rng(n)
        m = 64 if n == 400 else 256
        diag = rng.normal(0.0, math.sqrt(2.0), size=(m, n))
        sub2 = rng.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(m, n - 1))
        return diag, sub2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 96, 400])
    def test_random_rows(self, n):
        self.check(*self.random_rows(n))

    @pytest.mark.parametrize("n", [2, 3, 16, 400])
    def test_unconfirmed_bracket_is_bisected(self, n, monkeypatch):
        # a 0-ulp window leaves one side of every column's bracket where the
        # halvings put it, and bisection still picks every bit from there
        monkeypatch.setattr(mc, "_CONFIRM_ULPS", 0)
        self.check(*self.random_rows(n))

    def test_one_by_one(self):
        diag = np.array([[-1.5], [0.0], [2.25]])
        assert np.array_equal(_top_eigenvalue(diag, np.zeros((3, 0))), diag[:, 0])

    def test_zero_pivot_at_midpoint(self):
        # the first midpoint of the bracket [0, 2] is x = 1, where the leading
        # block [[0, 1], [1, 0]] makes the second pivot exactly +0; in the
        # second row the next coupling is 0 as well, so 0/0 would follow
        diag = np.zeros((2, 4))
        sub2 = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 4.0]])
        top = self.check(diag, sub2)
        assert top[1] == pytest.approx(2.0, rel=1e-15)
        # integer diagonals led by two entries at the maximum 2, unit couplings:
        # the first midpoint x = 3 is the top eigenvalue of the leading 2 x 2
        # block, so the second pivot is exactly +0 in every row
        diag = np.random.default_rng(4).integers(-2, 3, size=(24, 9)).astype(float)
        diag[:, :2] = 2.0
        self.check(diag, np.ones((24, 8)))

    @pytest.mark.parametrize("coupling", [0.0, 1e-300, 1e-150])
    def test_decoupled_blocks(self, coupling):
        rng = np.random.default_rng(5)
        diag = np.round(rng.normal(size=(200, 12)), 1)
        sub2 = rng.chisquare(3.0, size=(200, 11))
        sub2[:, 2::3] = coupling**2
        self.check(diag, sub2)
        self.check(diag, np.full_like(sub2, coupling**2))

    def test_large_scale(self):
        rng = np.random.default_rng(6)
        diag = 1e150 * rng.normal(size=(100, 20))
        sub2 = 1e300 * rng.chisquare(2.0, size=(100, 19))
        self.check(diag, sub2)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_sampler_matches_dense(self, beta):
        # rebuild the sampler's draws from its Philox stream
        n, count, seed = 24, 500, 77
        rng = np.random.default_rng(np.random.Philox(key=seed))
        diag = rng.normal(0.0, math.sqrt(2.0), size=(count, n))
        sub2 = rng.chisquare(beta * np.arange(n - 1, 0, -1, dtype=float), size=(count, n - 1))
        dense = np.sort(dense_eigenvalues(diag, sub2)[:, -1]) / math.sqrt(2.0 * beta)
        run = sample_lambda_max(beta, n, count, seed)
        assert count <= _BATCH
        assert np.all(np.abs(run.samples - dense) <= 1e-13 * np.abs(dense))

    @pytest.mark.parametrize("beta, n", [(4, 16), (1, 24), (2, 96), (2, 400)])
    def test_pass_counts(self, beta, n, monkeypatch):
        # one full batch: bisection alone took 53-54 Sturm passes; measured
        # 17 Sturm and 4-6 Newton passes, a Newton pass costing about 1.8
        calls = {"sturm": [], "newton": 0}
        below, newton_step = mc._below, mc._newton_step

        def counting_below(*args):
            calls["sturm"].append(np.geterr()["invalid"])
            return below(*args)

        def counting_newton_step(*args):
            calls["newton"] += 1
            return newton_step(*args)

        monkeypatch.setattr(mc, "_below", counting_below)
        monkeypatch.setattr(mc, "_newton_step", counting_newton_step)
        with np.errstate(invalid="raise"):
            sample_lambda_max(beta, n, _BATCH, seed=n)
        assert len(calls["sturm"]) <= 18
        assert 1 <= calls["newton"] <= 6
        # only the Newton pass may ignore an invalid operation
        assert set(calls["sturm"]) == {"raise"}

    def test_memory_bound(self):
        # the dense (2048, 400, 400) batch took 2.6 GB
        tracemalloc.start()
        try:
            sample_lambda_max(2, 400, 2048, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
