"""Exact finite-n largest-eigenvalue distributions F_{n,1}, F_{n,2}, F_{n,4}.

Everything is driven by the endpoint resolvent values

    q_n(t) = ((I - K_{n,2})^{-1} phi)(t),   p_n(t) = ((I - K_{n,2})^{-1} psi)(t)

on (t, infinity) and their tail integrals a(t) = int_t^inf q_n,
b(t) = int_t^inf p_n.  The GOE/GSE closed forms are hyperbolic functions
of g = sqrt(2 a b); an independent first-principles path recomputes the
same epsilon quantities directly from the resolvent for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ParameterError
from .fredholm import (
    assemble,
    fredholm_log_det,
    hermite_kernel,
    inner_product,
    resolvent_solve_many,
)
from .special import build_grid, phi_psi_values

DEFAULT_NODES = 64

#: largest kernel index of the supported and tested range; by n ~ 700 the
#: recurrence seed exp(-x^2/2) underflows on the grid and F_{n,2} reads 1.0
N_MAX = 400


def _check_n(n: int, parity: int | None = None) -> None:
    """The finite-n domain: 1 <= n <= N_MAX, and n % 2 == parity where one is given."""
    if not 1 <= n <= N_MAX:
        raise ParameterError(f"need 1 <= n <= {N_MAX}, got {n}")
    if parity is not None and n % 2 != parity:
        raise ParameterError(f"need {('even', 'odd')[parity]} n, got {n}")


def _upper_cutoff(n: int, t: float) -> float:
    # beyond sqrt(2n)+10 the wave functions are < 1e-16 of their peak
    return max(t + 1.0, math.sqrt(2.0 * n) + 10.0)


def _lower_cutoff(n: int) -> float:
    return -(math.sqrt(2.0 * n) + 10.0)


@dataclass(frozen=True)
class FiniteNEvaluation:
    """Per-(n, t) bundle of endpoint quantities and distribution values."""

    n: int
    t: float
    q_n: float
    p_n: float
    a: float
    b: float
    f_n2: float
    f_n1: float | None
    f_n4: float | None


@dataclass(frozen=True)
class EpsilonQuantities:
    """The epsilon-operator quantities entering the GOE/GSE representations."""

    v_tilde_eps: float
    q_eps: float
    p1: float
    r1: float
    p4: float
    r4: float
    c_phi: float
    c_psi: float


@lru_cache(maxsize=200_000)
def _endpoint_state(n: int, t: float, nodes: int):
    """Operator on (t, T), LU-backed q_n(t), p_n(t) and node solutions."""
    grid = build_grid(t, _upper_cutoff(n, t), nodes)
    op = assemble(f"hermite({n})", grid)
    phi, psi = phi_psi_values(n, grid.nodes)
    sols = resolvent_solve_many(op, np.column_stack([phi, psi]))
    q_sol = sols[:, 0]
    p_sol = sols[:, 1]
    wq = op.grid.weights * q_sol
    wp = op.grid.weights * p_sol
    krow = op.kernel_row(t)
    phi_t, psi_t = phi_psi_values(n, t)
    q_t = float(phi_t + krow @ wq)
    p_t = float(psi_t + krow @ wp)
    return op, q_sol, p_sol, q_t, p_t


def q_p_n(n: int, t: float, nodes: int = DEFAULT_NODES) -> tuple[float, float]:
    """Endpoint resolvent values (q_n(t), p_n(t))."""
    _check_n(n)
    _, _, _, q_t, p_t = _endpoint_state(n, t, nodes)
    return q_t, p_t


@lru_cache(maxsize=50_000)
def _tail_integrals(n: int, t: float, nodes: int):
    """a(t), b(t) and int_t^inf (x - t) q_n(x) p_n(x) dx on a shared outer grid."""
    outer = build_grid(t, _upper_cutoff(n, t), nodes)
    q_vals = np.empty(nodes)
    p_vals = np.empty(nodes)
    for j, x in enumerate(outer.nodes):
        q_vals[j], p_vals[j] = q_p_n(n, float(x), nodes)
    a = float(np.sum(outer.weights * q_vals))
    b = float(np.sum(outer.weights * p_vals))
    moment = float(np.sum(outer.weights * (outer.nodes - t) * q_vals * p_vals))
    return a, b, moment


def ab(n: int, t: float, nodes: int = DEFAULT_NODES) -> tuple[float, float]:
    """Tail integrals a(t) = int_t^inf q_n, b(t) = int_t^inf p_n."""
    _check_n(n)
    a, b, _ = _tail_integrals(n, t, nodes)
    return a, b


@lru_cache(maxsize=1024)
def c_constants(n: int, nodes: int = 400) -> tuple[float, float]:
    """The constants c_phi = (1/2) int phi and c_psi = (1/2) int psi.

    Parity kills one of the two: c_phi = 0 for n odd, c_psi = 0 for n even.
    For n odd c_psi has the closed form
    (pi (n-1))^{1/4} 2^{-3/4-(n-1)/2} ((n-1)!)^{1/2} / ((n-1)/2)!;
    for n even c_phi is computed by quadrature of the even integrand.
    """
    _check_n(n)
    if n % 2 == 1:
        m = n - 1
        if m == 0:
            # psi = (1/2)^{1/4} phi_0 and int phi_0 = sqrt(2) pi^{1/4}
            c_psi = 2.0 ** -0.75 * math.pi ** 0.25
        else:
            log_cpsi = 0.25 * math.log(math.pi * m) + (-0.75 - 0.5 * m) * math.log(2.0)
            log_cpsi += 0.5 * math.lgamma(m + 1) - math.lgamma(m // 2 + 1)
            c_psi = math.exp(log_cpsi)
        return 0.0, c_psi
    # n even: c_phi by quadrature of the even function phi on (0, T), doubled
    upper = _upper_cutoff(n, 0.0)
    grid = build_grid(0.0, upper, nodes)
    phi, _ = phi_psi_values(n, grid.nodes)
    c_phi = float(np.sum(grid.weights * phi))  # = (1/2) * 2 * int_0^inf phi
    return c_phi, 0.0


# log F <= 0 for a probability; rounding puts a computed value at most about
# nodes * eps (~1e-14) above zero.  Anything above this bound is a failed
# evaluation, not a probability: far in the left tail the exponential path's
# moment quadrature breaks down (log F = +734 at n = 40, t = -2)
LOG_F_ROUNDING = 1e-10


def log_f_n2(n: int, t: float, method: str = "determinant", nodes: int = DEFAULT_NODES) -> float:
    """log F_{n,2}(t); safe where the probability underflows.

    Raises NumericalError where the determinant loses positivity or the
    value exceeds LOG_F_ROUNDING.
    """
    _check_n(n)
    if method == "determinant":
        op, _, _, _, _ = _endpoint_state(n, t, nodes)
        log_f = fredholm_log_det(op)
    elif method == "exponential":
        _, _, moment = _tail_integrals(n, t, nodes)
        log_f = -2.0 * moment
    else:
        raise ParameterError(f"unknown method {method!r}")
    if log_f > LOG_F_ROUNDING:
        raise NumericalError(f"log F_n2 = {log_f:.6g} > 0 at n={n}, t={t} ({method})")
    return log_f


# when log det(I - K) is this small the resolvent conditioning no longer
# supports a trustworthy sign for the assembled bracket; a negative bracket
# there is rounding noise on a vanishing probability, not a real failure
LOG_FLOOR = -30.0


def _cdf(
    n: int, t: float, parity: int | None, nodes: int, method: str = "determinant", bracket=None
) -> float:
    """A finite-n CDF value under the one failure policy every public CDF shares.

    Without ``bracket`` the value is F_{n,2}(t) = exp(log_f_n2).  With it,
    ``bracket()`` returns F^2 / F_{n,2} and the value is sqrt(F_{n,2} bracket),
    the GOE/GSE form.  A bracket that overflows, or is not finite, raises
    NumericalError.  The result is clamped to [0, 1].
    """
    _check_n(n, parity)
    try:
        log_f = log_f_n2(n, t, method, nodes)
    except NumericalError:
        # sign loss, or a log F above rounding, happens only where F_{n,2}
        # is far beyond double-precision resolution
        return 0.0
    if bracket is not None:
        ratio = bracket()
        if not math.isfinite(ratio):
            raise NumericalError(f"non-finite squared ratio {ratio} at n={n}, t={t}")
        if ratio < -1e-10:
            if log_f < LOG_FLOOR:
                return 0.0
            raise NumericalError(f"negative squared ratio {ratio} at n={n}, t={t}")
        if ratio <= 0.0:
            return 0.0
        log_f = 0.5 * (log_f + math.log(ratio))
    return min(math.exp(log_f), 1.0)


def f_n2(n: int, t: float, method: str = "determinant", nodes: int = DEFAULT_NODES) -> float:
    """GUE distribution F_{n,2}(t) = det(I - K_{n,2}) = exp(-2 int (x-t) q_n p_n)."""
    return _cdf(n, t, None, nodes, method)


def cosh_sqrt(z: float) -> float:
    """cosh(sqrt(z)) as an entire function of z (cos(sqrt(-z)) for z < 0).

    Raises NumericalError where cosh overflows (z above about 5e5).
    """
    if abs(z) < 1e-8:
        return 1.0 + z / 2.0 + z * z / 24.0
    if z >= 0.0:
        try:
            return math.cosh(math.sqrt(z))
        except OverflowError:
            raise NumericalError(f"cosh(sqrt({z:.6g})) overflows") from None
    return math.cos(math.sqrt(-z))


def coshm1_sqrt(z: float) -> float:
    """(cosh(sqrt(z)) - 1)/z as an entire function of z."""
    if abs(z) < 1e-8:
        return 0.5 + z / 24.0 + z * z / 720.0
    return (cosh_sqrt(z) - 1.0) / z


def sinhc_sqrt(z: float) -> float:
    """sinh(sqrt(z))/sqrt(z) as an entire function of z.

    Raises NumericalError where sinh overflows, as :func:`cosh_sqrt` does.
    """
    if abs(z) < 1e-8:
        return 1.0 + z / 6.0 + z * z / 120.0
    if z >= 0.0:
        g = math.sqrt(z)
        try:
            return math.sinh(g) / g
        except OverflowError:
            raise NumericalError(f"sinh(sqrt({z:.6g})) overflows") from None
    g = math.sqrt(-z)
    return math.sin(g) / g


def _hyperbolic_block(a: float, b: float):
    """cosh g, sqrt(a/2b) sinh g, sqrt(b/2a) sinh g with g = sqrt(2ab).

    Everything is expressed through the entire functions cosh(sqrt(z)) and
    sinh(sqrt(z))/sqrt(z) of z = 2ab, so negative or vanishing products
    (g imaginary or zero) are handled without branching into complex
    arithmetic:  sqrt(a/2b) sinh sqrt(2ab) = a * sinh(sqrt(z))/sqrt(z).
    """
    z = 2.0 * a * b
    cosh_g = cosh_sqrt(z)
    shc = sinhc_sqrt(z)
    rho_s = a * shc  # sqrt(a/(2b)) sinh g
    r_s = b * shc  # sqrt(b/(2a)) sinh g
    return cosh_g, rho_s, r_s


def epsilon_closed(n: int, t: float, nodes: int = DEFAULT_NODES) -> EpsilonQuantities:
    """Closed-form epsilon quantities as hyperbolic functions of sqrt(2ab).

    The GSE set (c_psi terms) is the published one up to the sign of the
    sinh term in P_{n,4}; the GOE set up to the sign of the c_phi term in
    R_{n,1}.  Both corrections are forced by the first-principles path
    (:func:`epsilon_numeric`) and by the requirement that the assembled
    determinant reproduce the direct F_{n,1}/F_{n,4} formulas.
    """
    _check_n(n)
    a, b = ab(n, t, nodes)
    c_phi, c_psi = c_constants(n)
    cosh_g, rho_s, r_s = _hyperbolic_block(a, b)
    half = 0.5 * (1.0 + cosh_g)
    if n % 2 == 1:  # GSE parity: c_phi = 0
        v_tilde = 1.0 - half
        q_eps = -rho_s
        p4 = -c_psi * half + r_s
        r4 = -c_psi * rho_s + cosh_g - 1.0
        p1 = -r_s  # c_phi = 0 collapses the GOE forms
        r1 = 1.0 - cosh_g
    else:  # GOE parity: c_psi = 0
        v_tilde = 1.0 - half + c_phi * r_s
        q_eps = -rho_s + c_phi * cosh_g
        p1 = 2.0 * c_phi * b * b * coshm1_sqrt(2.0 * a * b) - r_s
        r1 = 1.0 + 2.0 * c_phi * r_s - cosh_g
        p4 = r_s
        r4 = cosh_g - 1.0
    return EpsilonQuantities(
        v_tilde_eps=v_tilde,
        q_eps=q_eps,
        p1=p1,
        r1=r1,
        p4=p4,
        r4=r4,
        c_phi=c_phi,
        c_psi=c_psi,
    )


def epsilon_numeric(
    n: int, t: float, nodes: int = DEFAULT_NODES, outer_nodes: int | None = None
) -> EpsilonQuantities:
    """First-principles epsilon quantities from the resolvent, no closed forms.

    eps phi(x) = c_phi - int_x^inf phi is built by quadrature, fed through
    (I - K)^{-1}, and the script quantities are quadratures of the Nystrom
    extensions of P_n and of the resolvent kernel over (-inf, t) and
    against the kernel of eps.
    """
    _check_n(n)
    if outer_nodes is None:
        # phi_n oscillates ~n/2 times across the bulk; GL resolves ~m/pi periods
        outer_nodes = max(200, 6 * n)
    return _epsilon_numeric(n, t, nodes, outer_nodes)


def _tail_phi_integrals(n: int, lowers: np.ndarray, upper: float, nodes: int) -> np.ndarray:
    """int_x^{max(upper, x + 1)} phi for every x in ``lowers``.

    Each integral is the ``nodes``-point Gauss-Legendre rule mapped onto its
    own interval, exactly as :func:`build_grid` maps it; the rules are
    stacked as the rows of one array, so a single recurrence pass evaluates
    phi on all of them.
    """
    ref = build_grid(-1.0, 1.0, nodes)  # the unmapped rule, reproduced exactly
    lower = np.asarray(lowers, dtype=float)[:, None]
    top = np.maximum(upper, lower + 1.0)
    half = 0.5 * (top - lower)
    mid = 0.5 * (top + lower)
    phi, _ = phi_psi_values(n, mid + half * ref.nodes)
    return np.sum(half * ref.weights * phi, axis=1)


@lru_cache(maxsize=50_000)
def _epsilon_numeric(n: int, t: float, nodes: int, outer_nodes: int) -> EpsilonQuantities:
    """The epsilon quantities with one recurrence pass per point set.

    The point sets are the stacked tail rules behind eps phi = c_phi -
    int_x^inf phi (one rule per node and one for t, see
    :func:`_tail_phi_integrals`), the operator's nodes, t, and the outer
    rule on (-inf, t).  eps phi and the kernel column K(x_j, t) share one
    resolvent solve, whose second column is the resolvent kernel
    R_n(x_j, t); one kernel block K(x, [x_j, t]) on the outer rule extends
    both that and P_n (the psi solution that comes with the operator) to
    the left of t.  The Nystrom solution reproduces itself at the nodes, so
    int_t^inf R_n(x, t) dx is the quadrature sum of the solution itself.
    """
    op, _, p_sol, _, _ = _endpoint_state(n, t, nodes)
    grid = op.grid
    c_phi, c_psi = c_constants(n)
    w = grid.weights
    nodes_t = np.append(grid.nodes, t)

    eps_phi = c_phi - _tail_phi_integrals(n, nodes_t, grid.upper, nodes)
    _, psi_nodes = phi_psi_values(n, grid.nodes)
    k_col = op.kernel_row(t)  # K(t, x_j) = K(x_j, t)
    sols = resolvent_solve_many(op, np.column_stack([eps_phi[:-1], k_col]))
    q_eps_sol, r_sol = sols[:, 0], sols[:, 1]
    v_tilde = inner_product(grid, q_eps_sol, psi_nodes)
    q_eps = eps_phi[-1] + k_col @ (w * q_eps_sol)

    # quadratures over (-inf, t): integrands decay like the wave functions
    left = build_grid(min(_lower_cutoff(n), t - 1.0), t, outer_nodes)
    k_left = hermite_kernel(n, left.nodes[:, None], nodes_t[None, :])
    _, psi_left = phi_psi_values(n, left.nodes)
    p_left = psi_left + k_left[:, :-1] @ (w * p_sol)
    r_left = k_left[:, -1] + k_left[:, :-1] @ (w * r_sol)  # R_n(x, t)
    p1 = float(np.sum(left.weights * p_left))
    r1 = float(np.sum(left.weights * r_left))

    # right-side pieces int_t^inf P_n and int_t^inf R_n(x, t)
    p4 = 0.5 * (float(np.sum(w * p_sol)) - p1)
    r4 = 0.5 * (float(np.sum(w * r_sol)) - r1)
    return EpsilonQuantities(
        v_tilde_eps=float(v_tilde),
        q_eps=float(q_eps),
        p1=p1,
        r1=r1,
        p4=p4,
        r4=r4,
        c_phi=c_phi,
        c_psi=c_psi,
    )


def f1_sq_ratio(eps: EpsilonQuantities) -> float:
    """F_{n,1}^2 / F_{n,2} assembled from epsilon quantities (n even)."""
    return (1.0 - eps.v_tilde_eps) * (1.0 - 0.5 * eps.r1) - 0.5 * (
        eps.q_eps - eps.c_phi
    ) * eps.p1


def f4_sq_ratio(eps: EpsilonQuantities) -> float:
    """F_{n,4}^2 / F_{n,2} assembled from epsilon quantities (n odd).

    The c_psi contributions of q_eps * p4 and of r4 cancel algebraically,
    so the value is invariant under c_psi -> 0; in floating point the
    invariance holds to rounding relative to the size of those terms.
    """
    return (1.0 - eps.v_tilde_eps) * (1.0 + 0.5 * eps.r4) + 0.5 * eps.q_eps * eps.p4


def f_n1(
    n: int,
    t: float,
    nodes: int = DEFAULT_NODES,
    method: str = "assembly",
    outer_nodes: int | None = None,
) -> float:
    """GOE distribution F_{n,1}(t) for n even.

    The default "assembly" method squares to F_{n,2} times the determinant
    representation evaluated with first-principles epsilon quantities; it is
    exact up to quadrature error.  The "closed" method evaluates the
    hyperbolic bracket in a(t), b(t) instead, which is an edge asymptotic
    (it degrades to percent-level accuracy at small n away from t -> inf).
    """
    if method == "assembly":
        bracket = lambda: f1_sq_ratio(epsilon_numeric(n, t, nodes, outer_nodes))
    elif method == "closed":
        bracket = lambda: _f1_closed_bracket(n, t, nodes)
    else:
        raise ParameterError(f"unknown method {method!r}")
    return _cdf(n, t, 0, nodes, bracket=bracket)


def _f1_closed_bracket(n: int, t: float, nodes: int) -> float:
    a, b = ab(n, t, nodes)
    c_phi, _ = c_constants(n)
    cosh_g, _, r_s = _hyperbolic_block(a, b)
    # regrouped so the (b/a)(cosh g - 1) piece is entire in the product ab
    return (
        0.5 * (1.0 + cosh_g)
        + 2.0 * c_phi * c_phi * b * b * coshm1_sqrt(2.0 * a * b)
        - 2.0 * c_phi * r_s
    )


def f_n4(
    n: int,
    u: float,
    nodes: int = DEFAULT_NODES,
    method: str = "assembly",
    outer_nodes: int | None = None,
) -> float:
    """GSE-side distribution F_{n,4}(u) for odd kernel index n.

    u is the GSE-scale argument; the representations live on the GUE-side
    variable t = u sqrt(2).  The index n labels the Hermite kernel K_{n,2},
    not a matrix size: F_{n,4} is the largest-eigenvalue distribution of the
    symplectic ensemble with (n-1)/2 eigenvalues (so F_{1,4} is identically
    one).  See :func:`gse_largest_cdf` for the matrix-size parametrization.

    The default "assembly" method is exact up to quadrature error; "closed"
    is the edge-asymptotic cosh(sqrt(ab/2)) exp(-int (x-t) q_n p_n) form.
    """
    t = u * math.sqrt(2.0)
    if method == "assembly":
        bracket = lambda: f4_sq_ratio(epsilon_numeric(n, t, nodes, outer_nodes))
    elif method == "closed":
        bracket = lambda: _f4_closed_bracket(n, t, nodes)
    else:
        raise ParameterError(f"unknown method {method!r}")
    return _cdf(n, t, 1, nodes, bracket=bracket)


def _f4_closed_bracket(n: int, t: float, nodes: int) -> float:
    # F_{n,2} = exp(-2 int (x-t) q_n p_n), so the closed form's square is
    # cosh^2(sqrt(ab/2)) F_{n,2}; signed, so that cos(sqrt(-ab/2)) < 0 is a
    # negative bracket
    a, b = ab(n, t, nodes)
    c = cosh_sqrt(0.5 * a * b)
    return c * abs(c)


def gse_largest_cdf(
    n_eigs: int, u: float, nodes: int = DEFAULT_NODES, method: str = "assembly"
) -> float:
    """P(largest eigenvalue <= u) for the symplectic ensemble with n_eigs eigenvalues.

    The kernel index of the representation is 2 n_eigs + 1: the symplectic
    ensemble with N eigenvalues is governed by the odd Hermite kernel of
    order 2N + 1.
    """
    if n_eigs < 1:
        raise ParameterError(f"need n_eigs >= 1, got {n_eigs}")
    return f_n4(2 * n_eigs + 1, u, nodes, method)


def evaluate(n: int, t: float, nodes: int = DEFAULT_NODES) -> FiniteNEvaluation:
    """Bundle q_n, p_n, a, b and all parity-valid distribution values at t."""
    q_t, p_t = q_p_n(n, t, nodes)
    a, b = ab(n, t, nodes)
    return FiniteNEvaluation(
        n=n, t=t, q_n=q_t, p_n=p_t, a=a, b=b,
        f_n2=f_n2(n, t, "exponential", nodes),
        f_n1=f_n1(n, t, nodes) if n % 2 == 0 else None,
        f_n4=f_n4(n, t / math.sqrt(2.0), nodes) if n % 2 == 1 else None,
    )
