"""Oracle tests for the finite-n largest-eigenvalue distributions."""

import math

import numpy as np
import pytest
from scipy import integrate

from gemax.errors import ParameterError
from gemax.finite_n import (
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
        from gemax.special import phi_psi_values

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
