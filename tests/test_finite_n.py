"""Oracle tests for the finite-n largest-eigenvalue distributions."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from gemax import fredholm, special
from gemax.errors import NumericalError, ParameterError
from gemax.finite_n import (
    DEFAULT_NODES,
    EpsilonQuantities,
    _endpoint_state,
    _lower_cutoff,
    _tail_phi_integrals,
    ab,
    c_constants,
    cosh_sqrt,
    coshm1_sqrt,
    epsilon_closed,
    epsilon_numeric,
    evaluate,
    f1_sq_ratio,
    f_n1,
    f_n2,
    f_n4,
    gse_largest_cdf,
    log_f_n2,
    q_p_n,
    sinhc_sqrt,
)
from gemax.fredholm import (
    hermite_kernel,
    inner_product,
    nystrom_extend,
    resolvent_solve_many,
)
from gemax.special import build_grid, phi_psi_values


def gaussian_cdf(t: float) -> float:
    # [TRIVIAL] one eigenvalue with weight e^{-t^2}
    return 0.5 * (1.0 + math.erf(t))


class TestFn2:
    def test_n1_is_erf(self):
        # [DERIVED] single-eigenvalue closed form
        for t in (-2.0, -0.5, 0.0, 1.3, 3.0):
            assert f_n2(1, t) == pytest.approx(gaussian_cdf(t), abs=1e-10)

    def test_n2_brute_force(self):
        # [DERIVED] direct 2d integral of the beta=2 eigenvalue density
        # c int int_{x<y<t} (x - y)^2 e^{-x^2-y^2}
        t = 0.5

        def density(y, x):
            return (x - y) ** 2 * math.exp(-x * x - y * y)

        raw, _ = integrate.dblquad(density, -12.0, t, lambda x: x, lambda x: t)
        full, _ = integrate.dblquad(density, -12.0, 12.0, lambda x: x, lambda x: 12.0)
        assert f_n2(2, t) == pytest.approx(raw / full, abs=1e-8)

    def test_methods_agree(self):
        for t in (-1.0, 0.7, 2.5):
            det = f_n2(5, t, method="determinant")
            expo = f_n2(5, t, method="exponential")
            assert expo == pytest.approx(det, abs=1e-8)

    def test_monotone_in_t(self):
        vals = [f_n2(3, t) for t in np.linspace(-2.0, 4.0, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bad_method(self):
        with pytest.raises(ParameterError):
            f_n2(2, 0.0, method="cayley")

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            f_n2(0, 0.0)

    def test_n_above_supported_range(self):
        # past n = 400 the recurrence seed underflows and F_{n,2} read 1.0
        # deep below the edge; the range is enforced instead
        assert f_n2(400, math.sqrt(800) - 1.0) < 0.01
        for n, t in ((401, 27.0), (800, math.sqrt(1600) - 1.0), (1200, math.sqrt(2400) - 3.0)):
            with pytest.raises(ParameterError):
                f_n2(n, t)
        with pytest.raises(ParameterError):
            gse_largest_cdf(200, 10.0)  # kernel index 401

    def test_exponential_left_tail(self):
        # far left of the edge the moment quadrature of the exponential path
        # breaks down (log F read +9612 at n = 40, t = -2); the policy turns
        # that into 0.0, as it does the determinant path's sign loss
        det = f_n2(40, -2.0, method="determinant")
        assert f_n2(40, -2.0, method="exponential") == pytest.approx(det, abs=1e-12)


class TestEndpointQuantities:
    @staticmethod
    def _rank_one_qp(t: float) -> tuple[float, float]:
        # [DERIVED] Sherman-Morrison for the n = 1 projector kernel
        # K = phi_0 (x) phi_0 on (t, inf): with phi = (1/2)^{1/4} phi_1 and
        # psi = (1/2)^{1/4} phi_0,
        #   q_1(t) = phi(t) + phi_0(t) I01(t) / (1 - I00(t)),
        #   p_1(t) = psi(t) / (1 - I00(t)),
        # where I00 = int_t^inf phi_0^2 = (1 - erf t)/2 and
        # I01 = int_t^inf phi_0 phi_1 = e^{-t^2} / sqrt(2 pi).
        s = 0.5 ** 0.25
        phi0 = math.pi ** -0.25 * math.exp(-t * t / 2)
        phi1 = math.sqrt(2.0) * t * phi0
        i00 = 0.5 * (1.0 - math.erf(t))
        i01 = math.exp(-t * t) / math.sqrt(2.0 * math.pi)
        q = s * (phi1 + phi0 * i01 / (1.0 - i00))
        p = s * phi0 / (1.0 - i00)
        return q, p

    def test_n1_closed_forms(self):
        t = 0.8
        q, p = q_p_n(1, t)
        q_ref, p_ref = self._rank_one_qp(t)
        assert q == pytest.approx(q_ref, rel=1e-9)
        assert p == pytest.approx(p_ref, rel=1e-9)

    def test_tail_integrals_decay(self):
        a_near, b_near = ab(4, 1.0)
        a_far, b_far = ab(4, 5.0)
        assert abs(a_far) < abs(a_near)
        assert abs(b_far) < abs(b_near)

    def test_tail_integral_rank_one_oracle(self):
        # [DERIVED] n = 1: a(t) = int_t^inf q_1(x) dx and b likewise, with
        # the closed Sherman-Morrison endpoint values integrated by adaptive
        # quadrature
        t = 0.2
        a_ref, _ = integrate.quad(lambda x: TestEndpointQuantities._rank_one_qp(x)[0], t, 30.0)
        b_ref, _ = integrate.quad(lambda x: TestEndpointQuantities._rank_one_qp(x)[1], t, 30.0)
        a, b = ab(1, t)
        assert a == pytest.approx(a_ref, rel=1e-7)
        assert b == pytest.approx(b_ref, rel=1e-7)


class TestCConstants:
    def test_odd_small_values(self):
        # [PAPER] c_psi(3) = (2 pi)^{1/4} 2^{-7/4} sqrt(2) = 0.66575...
        c_phi, c_psi = c_constants(3)
        assert c_phi == 0.0
        target = (2.0 * math.pi) ** 0.25 * 2.0 ** (-7.0 / 4.0) * math.sqrt(2.0)
        assert c_psi == pytest.approx(target, rel=1e-12)

    def test_n1_special_case(self):
        # [PAPER] c_psi(1) = 2^{-3/4} pi^{1/4}
        _, c_psi = c_constants(1)
        assert c_psi == pytest.approx(2.0 ** -0.75 * math.pi ** 0.25, rel=1e-12)

    def test_even_quadrature_oracle(self):
        # [DERIVED] c_phi(n even) = (1/2) int phi, cross-checked by adaptive
        # quadrature of the wave function
        c_phi, c_psi = c_constants(4)
        assert c_psi == 0.0
        target, _ = integrate.quad(lambda x: phi_psi_values(4, x)[0], -14.0, 14.0)
        assert c_phi == pytest.approx(0.5 * target, rel=1e-10)


class TestHyperbolicHelpers:
    def test_positive_branch(self):
        # [TRIVIAL]
        z = 1.7
        assert cosh_sqrt(z) == pytest.approx(math.cosh(math.sqrt(z)), rel=1e-14)
        assert coshm1_sqrt(z) == pytest.approx((math.cosh(math.sqrt(z)) - 1.0) / z, rel=1e-12)
        assert sinhc_sqrt(z) == pytest.approx(math.sinh(math.sqrt(z)) / math.sqrt(z), rel=1e-13)

    def test_negative_branch_is_trigonometric(self):
        # [DERIVED] entire continuation: cosh(sqrt(-z)) = cos(sqrt(z))
        z = 2.3
        assert cosh_sqrt(-z) == pytest.approx(math.cos(math.sqrt(z)), rel=1e-13)

    def test_origin(self):
        assert cosh_sqrt(0.0) == 1.0
        assert coshm1_sqrt(0.0) == 0.5
        assert sinhc_sqrt(0.0) == 1.0


class TestEpsilonQuantities:
    def test_numeric_brute_force_vtilde(self):
        # [DERIVED] Sherman-Morrison for the n = 1 projector kernel
        # K = phi_0 (x) phi_0 on (t, inf).  With phi = (1/2)^{1/4} phi_1,
        # psi = (1/2)^{1/4} phi_0, c_phi = 0 and I00 = int_t^inf phi_0^2 =
        # (1 - erf t)/2:  eps phi = -int_x^inf phi = -2^{1/4} phi_0 and
        # (I - K)^{-1} phi_0 = phi_0 / (1 - I00), so
        # v_tilde_eps = <(I - K)^{-1} eps phi, psi> = -I00 / (1 - I00) and
        # q_eps = -2^{1/4} phi_0(t) / (1 - I00).
        for t in (-1.0, 0.0, 0.4, 1.5):
            eps = epsilon_numeric(1, t)
            i00 = 0.5 * (1.0 - math.erf(t))
            phi0 = math.pi ** -0.25 * math.exp(-t * t / 2)
            assert eps.v_tilde_eps == pytest.approx(-i00 / (1.0 - i00), rel=1e-10)
            assert eps.q_eps == pytest.approx(-(2.0 ** 0.25) * phi0 / (1.0 - i00), rel=1e-10)

    def test_closed_approaches_numeric_at_large_n(self):
        # the closed forms are soft-edge asymptotics: agreement improves
        # with n at the scaled edge but is not exact at finite n
        def gap(n):
            t = math.sqrt(2.0 * n)
            num = epsilon_numeric(n, t)
            clo = epsilon_closed(n, t)
            return abs(clo.v_tilde_eps - num.v_tilde_eps)

        assert gap(40) < gap(10)


def _phi_tail_oracle(n: int, x: np.ndarray) -> np.ndarray:
    """int_x^inf phi = (n/2)^{1/4} I_n(x), I_k = int_x^inf phi_k, exactly.

    [DERIVED] Integrating phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1}
    over (x, inf) gives I_{k+1} = sqrt(k/(k+1)) I_{k-1} + sqrt(2/(k+1)) phi_k(x),
    seeded with I_0 = pi^{-1/4} sqrt(pi/2) erfc(x/sqrt 2) and I_1 = sqrt(2) phi_0(x).
    The wave functions come from the test's own recurrence; no quadrature.
    """
    x = np.asarray(x, dtype=float)
    phi_lo, phi_k = np.zeros_like(x), math.pi ** -0.25 * np.exp(-0.5 * x * x)
    i_lo = math.pi ** -0.25 * math.sqrt(math.pi / 2.0) * erfc(x / math.sqrt(2.0))
    i_hi = math.sqrt(2.0) * phi_k
    for k in range(1, n):
        phi_lo, phi_k = phi_k, x * math.sqrt(2.0 / k) * phi_k - math.sqrt((k - 1) / k) * phi_lo
        i_lo, i_hi = i_hi, math.sqrt(k / (k + 1)) * i_lo + math.sqrt(2.0 / (k + 1)) * phi_k
    return (n / 2.0) ** 0.25 * i_hi


def _per_node_epsilon(n: int, t: float) -> EpsilonQuantities:
    """The epsilon quantities the way they were first computed, kept as a reference.

    eps phi gets a fresh Gauss-Legendre rule and recurrence at every node,
    the extensions to the left of t are separate kernel evaluations, and
    int_t^inf R_n(x, t) dx re-evaluates the full kernel block on the nodes.
    """
    nodes, outer_nodes = DEFAULT_NODES, max(200, 6 * n)
    op, _, p_sol, _, _ = _endpoint_state(n, t, nodes)
    grid = op.grid
    c_phi, c_psi = c_constants(n)

    def tail_phi(x):
        g = build_grid(x, max(grid.upper, x + 1.0), nodes)
        return float(np.sum(g.weights * phi_psi_values(n, g.nodes)[0]))

    def eps_phi(pts):
        return np.array([c_phi - tail_phi(float(p)) for p in np.atleast_1d(pts)])

    def psi_fn(pts):
        return phi_psi_values(n, pts)[1]

    k_col = op.kernel_row(t)
    sols = resolvent_solve_many(op, np.column_stack([eps_phi(grid.nodes), k_col]))
    q_eps_sol, r_sol = sols[:, 0], sols[:, 1]
    v_tilde = inner_product(grid, q_eps_sol, psi_fn(grid.nodes))
    q_eps = nystrom_extend(op, q_eps_sol, eps_phi, t)
    left = build_grid(min(_lower_cutoff(n), t - 1.0), t, outer_nodes)
    p_left = nystrom_extend(op, p_sol, psi_fn, left.nodes)
    k_left = hermite_kernel(n, left.nodes[:, None], grid.nodes[None, :])
    r_left = hermite_kernel(n, left.nodes, t) + k_left @ (grid.weights * r_sol)
    p1 = float(np.sum(left.weights * p_left))
    r1 = float(np.sum(left.weights * r_left))
    k_nodes = op.kernel_row(grid.nodes[:, None])
    r_right_vals = k_col + k_nodes @ (grid.weights * r_sol)
    p4 = 0.5 * (float(np.sum(grid.weights * p_sol)) - p1)
    r4 = 0.5 * (float(np.sum(grid.weights * r_right_vals)) - r1)
    return EpsilonQuantities(v_tilde, q_eps, p1, r1, p4, r4, c_phi, c_psi)


EPS_INDICES = (2, 5, 40, 41, 399, 400)
EPS_FIELDS = ("v_tilde_eps", "q_eps", "p1", "r1", "p4", "r4")


class TestEpsilonBatched:
    @pytest.mark.parametrize("n", EPS_INDICES)
    def test_tail_integrals_oracle(self, n):
        # the batched tail rules behind eps phi, on each operator's nodes and t
        for t in (math.sqrt(2.0 * n) - 4.0, math.sqrt(2.0 * n) + 0.5):
            grid = _endpoint_state(n, t, DEFAULT_NODES)[0].grid
            x = np.append(grid.nodes, t)
            got = _tail_phi_integrals(n, x, grid.upper, DEFAULT_NODES)
            np.testing.assert_allclose(got, _phi_tail_oracle(n, x), rtol=0, atol=1e-12)

    def test_tail_oracle_n1(self):
        # [TRIVIAL] the oracle itself: phi = 2^{-1/4} phi_1 and phi_1 = sqrt(2) x phi_0,
        # so int_x^inf phi = 2^{1/4} phi_0(x)
        x = np.linspace(-3.0, 4.0, 15)
        want = 2.0 ** 0.25 * math.pi ** -0.25 * np.exp(-0.5 * x * x)
        np.testing.assert_allclose(_phi_tail_oracle(1, x), want, rtol=1e-14)

    @pytest.mark.parametrize("n", EPS_INDICES)
    def test_matches_per_node_algorithm(self, n):
        # near the edge and in the left tail
        for t in (math.sqrt(2.0 * n) - 4.0, math.sqrt(2.0 * n) + 0.5):
            got, ref = epsilon_numeric(n, t), _per_node_epsilon(n, t)
            for name in EPS_FIELDS:
                a, b = getattr(got, name), getattr(ref, name)
                assert abs(a - b) <= 1e-13 * abs(b), (name, t, a, b)

    def test_one_recurrence_pass_per_point_set(self, monkeypatch):
        # tail rules, nodes, t and the outer rule: a handful of passes, not one per node
        n, t = 40, 8.5
        _endpoint_state(n, t, DEFAULT_NODES)
        c_constants(n)
        calls = []
        recurrence = special.hermite_phi_two

        def counted(k, x):
            calls.append(k)
            return recurrence(k, x)

        monkeypatch.setattr(special, "hermite_phi_two", counted)
        monkeypatch.setattr(fredholm, "hermite_phi_two", counted)
        epsilon_numeric(n, t, outer_nodes=257)  # a fresh key of the value cache
        assert 0 < len(calls) <= 12


GOE_SWEEP = (2, 4, 10, 40)
GSE_SWEEP = (3, 5, 11, 41)


class TestCdfContract:
    @pytest.mark.parametrize("method", ("assembly", "closed"))
    @pytest.mark.parametrize("n", GOE_SWEEP + GSE_SWEEP)
    def test_unit_interval_or_typed_error(self, n, method):
        # every value is in [0, 1] or a ParameterError/NumericalError, on
        # edge - 8 .. edge + 4 of the GUE-side variable t (u = t / sqrt 2)
        for t in math.sqrt(2.0 * n) + np.linspace(-8.0, 4.0, 49):
            try:
                if n % 2 == 0:
                    v = f_n1(n, float(t), method=method)
                else:
                    v = f_n4(n, float(t) / math.sqrt(2.0), method=method)
            except (ParameterError, NumericalError):
                continue
            assert 0.0 <= v <= 1.0, (t, v)

    def test_closed_bracket_overflow(self):
        # cosh(sqrt(2ab)) overflows where the determinant is still positive;
        # math.cosh raised OverflowError there
        with pytest.raises(NumericalError):
            f_n1(2, -4.5, method="closed")
        with pytest.raises(NumericalError):
            f_n4(3, (math.sqrt(6.0) - 7.75) / math.sqrt(2.0), method="closed")

    def test_closed_bracket_infinite(self):
        # cosh(sqrt(ab/2)) is finite but its square is not; the value read 1.0
        # where the assembly gives 3.8e-8
        with pytest.raises(NumericalError):
            f_n4(3, (math.sqrt(6.0) - 6.5) / math.sqrt(2.0), method="closed")

    def test_overflow_helpers(self):
        with pytest.raises(NumericalError):
            cosh_sqrt(1e6)
        with pytest.raises(NumericalError):
            sinhc_sqrt(1e6)


class TestFn1:
    def test_n2_brute_force(self):
        # [DERIVED] beta=1 two-eigenvalue density |x - y| e^{-(x^2+y^2)/2}
        t = 0.3

        def density(y, x):
            return abs(x - y) * math.exp(-(x * x + y * y) / 2)

        raw, _ = integrate.dblquad(density, -12.0, t, lambda x: x, lambda x: t)
        full, _ = integrate.dblquad(density, -12.0, 12.0, lambda x: x, lambda x: 12.0)
        assert f_n1(2, t) == pytest.approx(raw / full, abs=1e-6)

    def test_parity_check(self):
        with pytest.raises(ParameterError):
            f_n1(3, 0.0)

    def test_methods_track_each_other_at_large_n(self):
        # closed method is asymptotic; at n = 40 near the edge it should be
        # within a percent of the assembly value
        n = 40
        t = math.sqrt(2.0 * n)
        assert f_n1(n, t, method="closed") == pytest.approx(
            f_n1(n, t, method="assembly"), abs=1e-2
        )

    def test_bounds(self):
        for t in (-3.0, 0.0, 4.0):
            v = f_n1(4, t)
            assert 0.0 <= v <= 1.0


class TestFn4:
    def test_n1_is_unity(self):
        # kernel index 1 corresponds to zero quaternion eigenvalues
        for u in (-2.0, 0.0, 3.0):
            assert f_n4(1, u) == pytest.approx(1.0, abs=1e-10)

    def test_parity_check(self):
        with pytest.raises(ParameterError):
            f_n4(4, 0.0)

    def test_single_eigenvalue_gaussian(self):
        # [DERIVED] one beta=4 eigenvalue has density prop to e^{-2 u^2},
        # i.e. a centered Gaussian with sd = 1/2
        for u in (-1.0, 0.0, 0.8, 2.0):
            target = 0.5 * (1.0 + math.erf(u * math.sqrt(2.0)))
            assert gse_largest_cdf(1, u) == pytest.approx(target, abs=1e-7)

    def test_bridge_indexing(self):
        # gse_largest_cdf(m, u) is f_n4 at kernel index 2m + 1
        assert gse_largest_cdf(2, 0.7) == pytest.approx(f_n4(5, 0.7), rel=1e-13)

    def test_deep_tail_returns_zero_not_error(self):
        # determinant positivity loss far in the left tail degrades to 0.0
        assert f_n4(3, -4.5) >= 0.0


class TestEvaluate:
    def test_bundle_consistency(self):
        res = evaluate(5, 0.9)
        assert res.f_n2 == pytest.approx(f_n2(5, 0.9), rel=1e-12)
        assert res.f_n1 is None  # parity: n = 5 has no GOE value
        # the bundle reports the symplectic value on the t-axis, u = t/sqrt(2)
        assert res.f_n4 == pytest.approx(f_n4(5, 0.9 / math.sqrt(2.0)), rel=1e-12)

    def test_even_bundle(self):
        res = evaluate(4, 0.2)
        assert res.f_n1 == pytest.approx(f_n1(4, 0.2), rel=1e-12)
        assert res.f_n4 is None


class TestLogFn2:
    def test_tail_goes_negative(self):
        assert log_f_n2(3, -2.0) < -1.0

    def test_exp_matches(self):
        t = 1.1
        assert math.exp(log_f_n2(4, t)) == pytest.approx(f_n2(4, t), rel=1e-12)
