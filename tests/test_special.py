"""Oracle tests for wave functions, Airy functions, and quadrature grids."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemax.errors import ParameterError
from gemax.special import airy, build_grid, hermite_integrals, hermite_parts, hermite_phi_two
from helpers import hermite_phi, phi_psi_values, phi_two_reference


def mpmath_phi(k: int, x: float) -> float:
    """High-precision oracle from the raw Hermite-polynomial definition."""
    with mpmath.workdps(60):
        norm = mpmath.sqrt(mpmath.power(2, k) * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        val = mpmath.hermite(k, mpmath.mpf(x)) * mpmath.exp(-mpmath.mpf(x) ** 2 / 2) / norm
        return float(val)


class TestHermitePhi:
    def test_ground_state_at_origin(self):
        # [TRIVIAL] phi_0(0) = pi^{-1/4}
        assert hermite_phi(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_odd_state_at_origin(self):
        # [TRIVIAL] phi_1 is odd
        assert hermite_phi(1, 0.0) == 0.0

    def test_against_polynomial_oracle(self):
        # [DERIVED] exact-arithmetic Hermite polynomial evaluation, k=6, x=1.3
        assert hermite_phi(6, 1.3) == pytest.approx(mpmath_phi(6, 1.3), rel=1e-12)

    @pytest.mark.parametrize("k,x", [(3, -2.1), (12, 0.4), (25, 6.0), (40, -9.0)])
    def test_oracle_sweep(self, k, x):
        # [DERIVED] high-precision recurrence oracle
        assert hermite_phi(k, x) == pytest.approx(mpmath_phi(k, x), rel=1e-11, abs=1e-300)

    def test_negative_order_is_refused(self):
        with pytest.raises(ParameterError, match="order must be nonnegative, got -1"):
            hermite_phi_two(-1, 0.5)

    def test_cap(self):
        with pytest.raises(ParameterError):
            hermite_phi(10_001, 0.0)

    def test_orthonormality(self):
        # [DERIVED] Gram matrix on a grid covering the classically allowed region
        k_max = 30
        half = math.sqrt(2 * k_max) + 8
        grid = build_grid(-half, half, 200)
        vals = np.array([[hermite_phi(k, float(x)) for x in grid.nodes] for k in (0, 3, 17, 30)])
        gram = (vals * grid.weights) @ vals.T
        assert np.allclose(gram, np.eye(4), atol=1e-9)


ORDERS = (0, 1, 2, 5, 40, 41, 399, 400)
#: a stack of 64 rows of 49 points: at k >= 39 its table is walked in chunks
#: of TABLE_VALUES // 3136 - 2 = 39 orders, 11 of them at k = 400
STACK = np.linspace(-31.0, 31.0, 64 * 49).reshape(64, 49)
POINTS = {"scalar": 0.7, "1-D": np.linspace(-31.0, 31.0, 49), "stack": STACK}


class TestPhiTable:
    # one table loop replaced the two-line loop that carried the pair
    # (phi_k, phi_{k-1}) along; every wave function must stay bit for bit

    @pytest.mark.parametrize("k", ORDERS)
    @pytest.mark.parametrize("points", POINTS, ids=str)
    def test_phi_two_is_the_reference_loop(self, k, points):
        x = POINTS[points]
        for got, want in zip(hermite_phi_two(k, x), phi_two_reference(k, x)):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", ORDERS[1:])
    @pytest.mark.parametrize("points", POINTS, ids=str)
    def test_integral_parts_are_the_reference_loop(self, n, points):
        # the scalar case is t alone, with no x
        x = {"scalar": np.empty(0), "1-D": POINTS["1-D"][:-1], "stack": STACK[:, :-1]}[points]
        t = {"scalar": 0.7, "1-D": 2.5, "stack": STACK[:, -1]}[points]
        parts = hermite_integrals(n, x, t)[0]
        want = phi_two_reference(n, np.concatenate([x, np.asarray(t)[..., None]], axis=-1))
        for got, ref in zip(parts, want):
            assert np.array_equal(got, ref)


def lowering_deriv(k: int, x: float) -> float:
    """phi_k'(x) from the pair: phi_k' = -x phi_k + sqrt(2k) phi_{k-1}."""
    cur, prev = hermite_phi_two(k, x)
    return float(-x * cur + math.sqrt(2.0 * k) * prev)


def raising_deriv(k: int, x: float) -> float:
    """phi_{k-1}'(x) from the pair: phi_{k-1}' = x phi_{k-1} - sqrt(2k) phi_k."""
    cur, prev = hermite_phi_two(k, x)
    return float(x * prev - math.sqrt(2.0 * k) * cur)


class TestHermitePhiDeriv:
    # the Hermite kernel takes phi_n' and phi_{n-1}' from the pair that
    # hermite_phi_two returns, through the two ladder identities above

    def test_even_state_flat_at_origin(self):
        # [TRIVIAL]
        assert lowering_deriv(0, 0.0) == 0.0
        assert raising_deriv(1, 0.0) == 0.0

    def test_k1_at_origin(self):
        # [TRIVIAL] phi_1'(0) = sqrt(2) pi^{-1/4}
        assert lowering_deriv(1, 0.0) == pytest.approx(math.sqrt(2) * math.pi ** -0.25, rel=1e-14)
        assert raising_deriv(2, 0.0) == pytest.approx(math.sqrt(2) * math.pi ** -0.25, rel=1e-14)

    def test_finite_difference_oracle(self):
        # [DERIVED] central difference, h = 1e-6
        h = 1e-6
        fd = (hermite_phi(5, 0.7 + h) - hermite_phi(5, 0.7 - h)) / (2 * h)
        assert lowering_deriv(5, 0.7) == pytest.approx(fd, abs=1e-8)
        assert raising_deriv(6, 0.7) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("k", [2, 9, 30])
    @pytest.mark.parametrize("x", [-10.0, -1.3, 0.2, 4.8])
    def test_recurrence_consistency(self, k, x):
        h = 1e-6
        fd = (hermite_phi(k, x + h) - hermite_phi(k, x - h)) / (2 * h)
        assert abs(lowering_deriv(k, x) - fd) < 1e-7
        assert abs(raising_deriv(k + 1, x) - fd) < 1e-7


class TestPhiPsi:
    def test_n1_at_origin(self):
        # [TRIVIAL] phi_1 odd, psi = (1/2)^{1/4} phi_0(0)
        phi, psi = phi_psi_values(1, 0.0)
        assert phi == 0.0
        assert psi == pytest.approx(0.5 ** 0.25 * math.pi ** -0.25, rel=1e-14)

    def test_n4_parity(self):
        # [TRIVIAL] phi_3 is odd
        assert phi_psi_values(4, 0.0)[1] == 0.0

    def test_high_precision_oracle(self):
        # [DERIVED] (n/2)^{1/4} phi_n against the mpmath oracle at n=10, x=5
        phi, psi = phi_psi_values(10, 5.0)
        scale = 5.0 ** 0.25
        assert phi == pytest.approx(scale * mpmath_phi(10, 5.0), rel=1e-11)
        assert psi == pytest.approx(scale * mpmath_phi(9, 5.0), rel=1e-11)

    def test_array_version_matches_scalar(self):
        xs = np.array([-2.0, 0.3, 4.0])
        phi, psi = phi_psi_values(7, xs)
        for i, x in enumerate(xs):
            phi_x, psi_x = phi_psi_values(7, float(x))
            assert phi[i] == pytest.approx(phi_x, rel=1e-14)
            assert psi[i] == pytest.approx(psi_x, rel=1e-14)


def mpmath_phis(n: int):
    """s -> [phi_0(s), ..., phi_n(s)] at mpmath points, memoized, by the
    recurrence at the working precision in force when this is called."""
    two = mpmath.mpf(2)
    steps = [(mpmath.sqrt(two / k), mpmath.sqrt((k - 1) / mpmath.mpf(k))) for k in range(1, n + 1)]
    seed, cache = mpmath.pi ** mpmath.mpf(-0.25), {}

    def phis(s):
        if s not in cache:
            out, prev = [seed * mpmath.exp(-s * s / 2)], mpmath.mpf(0)
            for up, down in steps:
                out.append(s * up * out[-1] - down * prev)
                prev = out[-2]
            cache[s] = out
        return cache[s]

    return phis


def mpmath_integrals(n: int, phi, z, sign: int):
    """[I_0, ..., I_n] at z for sign 1, or [J_0, ..., J_n] at t = -z for sign -1.

    phi is [phi_0, ..., phi_n] at the point; the chain
    X_{k+1} = sqrt(k/(k+1)) X_{k-1} + sign sqrt(2/(k+1)) phi_k runs from
    X_0 = pi^{-1/4} sqrt(pi/2) erfc(z/sqrt 2) and X_1 = sign sqrt(2) phi_0,
    at the working precision in force when this is called.
    """
    two = mpmath.mpf(2)
    seed = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.sqrt(mpmath.pi / 2)
    out = [seed * mpmath.erfc(z / mpmath.sqrt(2)), sign * mpmath.sqrt(two) * phi[0]]
    for k in range(1, n):
        down, up = mpmath.sqrt(k / mpmath.mpf(k + 1)), mpmath.sqrt(two / (k + 1))
        out.append(down * out[k - 1] + sign * up * phi[k])
    return out


class TestHermiteIntegrals:
    @pytest.mark.parametrize("n", (1, 2, 5, 12, 40))
    def test_mpmath_quadrature(self, n):
        # [DERIVED] I_n(z) = int_z^inf phi_n, J_{n-1}(t) = int_{-inf}^t phi_{n-1}
        # and L(z) = sum_{k<n} phi_k(z) J_k(t), every integral by 40-digit
        # quadrature, at points and t left of, inside and right of the bulk;
        # beyond sqrt(2n) + 14 the wave functions are below 1e-40
        edge = math.sqrt(2.0 * n)
        x = np.array([-edge - 2.0, 0.4, edge + 1.5])
        with mpmath.workdps(40):
            phis = mpmath_phis(n)

            def quad(k, lower, upper):
                return mpmath.quad(lambda s: phis(s)[k], [mpmath.mpf(lower), mpmath.mpf(upper)])

            tails = [float(quad(n, z, edge + 14.0)) for z in x]
            for t in (-edge - 1.0, 0.3, edge + 1.0):
                parts, tail, left, kernel = hermite_integrals(n, x, t)
                # the parts come from the same pass, bit for bit
                for got, want in zip(parts, hermite_parts(n, np.append(x, t))):
                    assert np.array_equal(got, want)
                lefts = [quad(k, -edge - 14.0, t) for k in range(n)]
                want_tail = tails + [float(quad(n, t, edge + 14.0))]
                want_kernel = [
                    float(mpmath.fdot(phis(mpmath.mpf(z))[:n], lefts))
                    for z in np.append(x, t)
                ]
                np.testing.assert_allclose(tail, want_tail, rtol=0, atol=1e-14)
                assert left == pytest.approx(float(lefts[-1]), rel=0, abs=1e-14)
                np.testing.assert_allclose(kernel, want_kernel, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", (100, 101, 399, 400))
    def test_mpmath_recurrences(self, n):
        # [DERIVED] I_n(z), J_{n-1}(t) and L(z) against their recurrences
        # (see hermite_integrals) summed at 40 digits from 40-digit erfc
        # seeds, with t left of, near and right of the edge and z both sides
        # of the bulk; measured at most 3.3e-14
        edge = math.sqrt(2.0 * n)
        with mpmath.workdps(40):
            phis = mpmath_phis(n)
            for t in (edge - 4.0, edge - 1.0, edge + 1.0):
                x = np.array([-edge - 2.0, 0.3, edge - 5.0, t + 0.3, edge, t + 2.0, edge + 4.0])
                _, tail, left, kernel = hermite_integrals(n, x, t)
                lefts = mpmath_integrals(n, phis(mpmath.mpf(t)), -mpmath.mpf(t), -1)
                z = [mpmath.mpf(v) for v in np.append(x, t)]
                want_tail = [float(mpmath_integrals(n, phis(v), v, 1)[n]) for v in z]
                want_kernel = [float(mpmath.fdot(phis(v)[:n], lefts[:n])) for v in z]
                np.testing.assert_allclose(tail, want_tail, rtol=0, atol=1e-13)
                assert left == pytest.approx(float(lefts[n - 1]), rel=0, abs=1e-13)
                np.testing.assert_allclose(kernel, want_kernel, rtol=0, atol=1e-13)

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            hermite_integrals(0, [0.0], 0.0)


class TestAiry:
    def test_values_at_origin(self):
        # [TRIVIAL] Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
        ai, aip = airy(0.0)
        assert ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14)
        assert aip == pytest.approx(-(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-14)

    @pytest.mark.parametrize("x", [5.0, -2.0, -8.5, 12.0])
    def test_ode_residual(self, x):
        # [DERIVED] Ai'' = x Ai via five-point second difference
        h = 1e-3
        vals = [airy(x + k * h)[0] for k in (-2, -1, 0, 1, 2)]
        second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        assert abs(second - x * vals[2]) < 1e-9 * max(1.0, abs(vals[2]))

    def test_derivative_consistency(self):
        h = 1e-6
        fd = (airy(1.0 + h)[0] - airy(1.0 - h)[0]) / (2 * h)
        assert airy(1.0)[1] == pytest.approx(fd, abs=1e-9)

    def test_series_against_mpmath(self):
        # [DERIVED] right of x = 10 Ai and Ai' come from their asymptotic series;
        # against 40-digit mpmath their relative error stays within the floor
        # 1e-15 + 3e-16 zeta that the rounding of zeta = (2/3) x^{3/2} in
        # e^{-zeta} sets (measured: at most 0.75 of it, as for scipy)
        xs = np.concatenate([np.linspace(10.0, 12.0, 21)[1:], np.linspace(12.5, 70.0, 24)])
        ai, aip = airy(xs)
        with mpmath.workdps(40):
            ref_ai = np.array([float(mpmath.airyai(x)) for x in xs])
            ref_aip = np.array([float(mpmath.airyai(x, derivative=1)) for x in xs])
        bound = 1e-15 + 3e-16 * (2.0 / 3.0) * xs**1.5
        assert np.all(np.abs(ai / ref_ai - 1.0) < bound)
        assert np.all(np.abs(aip / ref_aip - 1.0) < bound)

    def test_continuous_across_the_series_start(self):
        # scipy left of x = 10 and the series right of it meet: across 10 +- h
        # the values move by their first-order Taylor step, up to a jump of
        # 4e-15 relative (both sides' error floor at x = 10 is 7e-15)
        h = 1e-9
        (ai_lo, ai_hi), (aip_lo, aip_hi) = airy(np.array([10.0 - h, 10.0 + h]))
        ai, aip = airy(10.0)
        assert abs(ai_hi - ai_lo - 2.0 * h * aip) < 1e-14 * abs(ai)
        assert abs(aip_hi - aip_lo - 2.0 * h * 10.0 * ai) < 1e-14 * abs(aip)

    def test_shapes(self):
        # a scalar gives scalars; arrays keep their shape, empty ones included,
        # with points on both sides of x = 10 in one call
        ai, aip = airy(12.0)
        assert np.ndim(ai) == np.ndim(aip) == 0 and isinstance(ai, float)
        grid = np.array([[-3.0, 9.0, 11.0], [30.0, 0.5, 10.0]])
        ai, aip = airy(grid)
        assert ai.shape == aip.shape == (2, 3)
        for index, x in np.ndenumerate(grid):
            assert (ai[index], aip[index]) == airy(x)
        for empty in (np.empty(0), np.empty((0, 3))):
            assert [v.shape for v in airy(empty)] == [empty.shape] * 2


RULE_SIZES = (4, 5, 64, 96, 200, 201, 2400)


class TestGaussLegendreRule:
    # the unmapped rule: build_grid on (-1, 1) returns it unchanged

    @pytest.mark.parametrize("m", RULE_SIZES)
    def test_nodes_and_symmetry(self, m):
        grid = build_grid(-1.0, 1.0, m)
        x, w = grid.nodes, grid.weights
        assert -1.0 < x[0] and x[-1] < 1.0
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("m", RULE_SIZES)
    def test_exact_for_legendre_polynomials(self, m):
        # [DERIVED] int_{-1}^{1} P_j = 2 delta_{j0}, exact for every j <= 2m - 1
        grid = build_grid(-1.0, 1.0, m)
        x, w = grid.nodes, grid.weights
        prev, cur = np.zeros_like(x), np.ones_like(x)
        assert abs(np.sum(w * cur) - 2.0) < 1e-13
        for j in range(2 * m - 1):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
            assert abs(np.sum(w * cur)) < 1e-13, j + 1

    @pytest.mark.parametrize("m", [m for m in RULE_SIZES if m <= 200])
    def test_nodes_match_numpy(self, m):
        # [DERIVED] numpy's companion-matrix rule as oracle; x = cos(theta)
        # carries an absolute rounding error, so the unit is the ulp of 1
        ref, _ = np.polynomial.legendre.leggauss(m)
        got = build_grid(-1.0, 1.0, m).nodes
        assert np.max(np.abs(got - ref)) <= 2 * np.spacing(1.0)


class TestBuildGrid:
    def test_weight_sum(self):
        # [TRIVIAL] quadrature exactness for constants
        grid = build_grid(0.0, 1.0, 8)
        assert math.fsum(grid.weights) == pytest.approx(1.0, abs=1e-14)

    def test_cubic_exactness(self):
        # [TRIVIAL] Gauss rules integrate x^3 exactly
        grid = build_grid(0.0, 1.0, 16)
        assert float(np.sum(grid.weights * grid.nodes**3)) == pytest.approx(0.25, abs=1e-15)

    def test_erf_oracle(self):
        # [DERIVED] int_{-2}^{7} e^{-x^2} dx
        grid = build_grid(-2.0, 7.0, 40)
        target = math.sqrt(math.pi) / 2 * (math.erf(7.0) + math.erf(2.0))
        got = float(np.sum(grid.weights * np.exp(-grid.nodes**2)))
        assert got == pytest.approx(target, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ParameterError):
            build_grid(1.0, 1.0, 8)
        with pytest.raises(ParameterError):
            build_grid(0.0, 1.0, 3)
        with pytest.raises(ParameterError):  # a stack needs one pair of ends per grid
            build_grid(np.zeros(2), np.ones(3), 8)
        with pytest.raises(ParameterError):  # every grid of a stack is checked
            build_grid(np.zeros(2), np.array([1.0, 0.0]), 8)

    @settings(max_examples=25, deadline=None)
    @given(
        lower=st.floats(-50, 50),
        width=st.floats(1e-3, 100),
        count=st.integers(4, 200),
    )
    def test_grid_invariants(self, lower, width, count):
        grid = build_grid(lower, lower + width, count)
        assert grid.count == count
        assert lower < grid.nodes[0] and grid.nodes[-1] < lower + width
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.weights > 0)
        assert math.fsum(grid.weights) == pytest.approx(width, rel=1e-12)
