"""Exact finite-n largest-eigenvalue distributions F_{n,1}, F_{n,2}, F_{n,4}.

Everything is driven by the endpoint resolvent values

    q_n(t) = ((I - K_{n,2})^{-1} phi)(t),   p_n(t) = ((I - K_{n,2})^{-1} psi)(t)

on (t, infinity), read at t by fredholm's one left-end rule from the
operator's own parts, and their tail integrals a(t) = int_t^inf q_n and
b(t) = int_t^inf p_n.  The GOE/GSE laws have one method, first principles:
their epsilon quantities come from the resolvent.  The paper's closed forms,
hyperbolic functions of g = sqrt(2 a b), are soft-edge asymptotics kept as a
cross-check beside criterion 4 (:func:`gemax.acceptance.epsilon_closed`),
not as a CDF method.  Every Hermite-function integral the first-principles
path needs (eps phi, the integrals left of t, c_phi and c_psi) is exact, from
the integral recurrence of :func:`gemax.special.hermite_integrals`; quadrature
enters only through the Nystrom operator on (t, T).  K_{n,2} is described once,
by :func:`_hermite`, and for a GOE/GSE value by :func:`_hermite_integrals`,
whose one recurrence pass also gives its integrals: fredholm.on_operators
builds every operator from them, one pass per stack.  The exponential f_n2
and ab, at a point or a table, are fredholm.tails on (q_n, p_n).

A table is one stack in fredholm.at_points' point order; :func:`_log_cdf`
picks the method, and each block gives a log-determinant per operator from
the Cholesky factor that its resolvent solve shares.  One failure policy,
:func:`_policy`, judges every output by its log F_{n,2}: a CDF value reads
0.0 where it fails, and :func:`log_f_n2`, :func:`q_p_n`, :func:`ab` and
:func:`epsilon_numeric` raise there (:func:`_resolved`).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from .errors import NumericalError, ParameterError, check_integers, real_points
from .fredholm import DiscretizedKernel, Kernel, at_points, log_det, on_operators, resolvent_at_lower
from .fredholm import resolvent_solve_many, tails
from .special import hermite_integrals, hermite_parts, phi_psi_scale

#: the exponential path's outer rule, on the operators' own reach: 48 nodes
#: there lose about two digits at n <= 8 left of the edge
OUTER_NODES = 64

#: largest kernel index of the supported and tested range; by n ~ 700 the
#: recurrence seed exp(-x^2/2) underflows on the grid and F_{n,2} reads 1.0
N_MAX = 400

#: the kernel-index parity each ensemble's finite-n law requires
PARITY = {"gue": None, "goe": 0, "gse": 1}

#: the largest point t, where every CDF is 1.0; from 2^44 doubles no longer resolve (t, t + 16 sigma_400)
T_MAX = 1e12


def check_n(n: int, parity: int | None = None) -> None:
    """The finite-n domain: an integer 1 <= n <= N_MAX, and n % 2 == parity where one is given."""
    check_integers(n=n)
    if not 1 <= n <= N_MAX:
        raise ParameterError(f"need 1 <= n <= {N_MAX}, got {n}")
    if parity is not None and n % 2 != parity:
        raise ParameterError(f"need {('even', 'odd')[parity]} n, got {n}")


def gse_kernel_index(n_eigs: int) -> int:
    """The kernel index 2 n_eigs + 1 of the symplectic ensemble with n_eigs eigenvalues.

    ParameterError, naming n_eigs, unless it is an integer and that index is in the finite-n domain.
    """
    check_integers(n=n_eigs)
    top = (N_MAX - 1) // 2
    if not 1 <= n_eigs <= top:
        raise ParameterError(
            f"need 1 <= n <= {top} (kernel index 2n + 1 <= {N_MAX}), got {n_eigs}"
        )
    return 2 * n_eigs + 1


def _sigma(n: int) -> float:
    """The soft-edge unit sigma_n = 1/(sqrt(2) n^{1/6}) on which the wave functions decay past sqrt(2n)."""
    return 1.0 / (math.sqrt(2.0) * n ** (1.0 / 6.0))


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


def _hermite(n: int) -> Kernel:
    """K_{n,2}: its parts from one hermite_parts pass, at the edge sqrt(2n) on the unit sigma_n, scale sqrt(n/2)."""
    parts = lambda grid: (hermite_parts(n, grid.nodes_and_lower),)
    return Kernel(parts, math.sqrt(2.0 * n), _sigma(n), math.sqrt(n / 2.0))


def _hermite_integrals(n: int) -> Kernel:
    """K_{n,2} whose one parts pass, hermite_integrals, also gives the integrals of :func:`_epsilon_numeric`."""
    return _hermite(n)._replace(parts=lambda grid: hermite_integrals(n, grid.nodes, grid.lower))


def _at_lower(n: int, op: DiscretizedKernel) -> np.ndarray:
    """(q_n, p_n) at each operator's left end, shape (2,) + block: one solve of (n/2)^{1/4} (phi_n, phi_{n-1})."""
    return resolvent_at_lower(op, phi_psi_scale(n) * np.stack(op.parts[:2], axis=-1))[1].T


def _q_p(n: int, points: np.ndarray) -> np.ndarray:
    """(q_n, p_n) at each of the points, shape (2, len(points)), from the operators on (x, T(x))."""
    return on_operators(_hermite(n), points, partial(_at_lower, n))


def _point(name: str, x):
    """x, or ParameterError naming it where it is not one point: an array of one or more dimensions."""
    if np.ndim(x):
        raise ParameterError(f"need one point {name}, got {x!r}")
    return x


def _checked(n: int, x, parity: int | None = None) -> np.ndarray:
    """x as floats after check_n.

    ParameterError naming x unless it holds integers or floats (a bool or a
    string does not), then naming its first point past T_MAX in t, T_MAX / sqrt 2 in u.
    """
    check_n(n, parity)
    name, top = ("u", T_MAX / math.sqrt(2.0)) if parity == 1 else ("t", T_MAX)
    x = real_points(name, x)
    bad = np.flatnonzero(~((-math.inf < x) & (x <= top)))
    if bad.size:
        raise ParameterError(f"need finite {name} up to {top:g}, got {x.flat[bad[0]]} at index {bad[0]}")
    return x


def _resolved(n: int, t: float, read) -> tuple[float, ...]:
    """The values of read(t) = (log F_{n,2}, *values) at one point t as floats: the one raising rule.

    NumericalError left of the far-left cutoff (:func:`_cutoff`), before any
    grid is built, and where :func:`_policy` gives F_{n,2} = 0.0.
    """
    t = _checked(n, _point("t", t))
    if t >= _cutoff(n, None):
        log_f, *values = read(t)
        if _policy(n, None, float(t), float(log_f), 1.0) > -math.inf:
            return tuple(map(float, values))
    raise NumericalError(f"K_{{n,2}} lost positivity or its shift bound at n={n}, t={float(t)}")


def q_p_n(n: int, t: float) -> tuple[float, float]:
    """Endpoint resolvent values (q_n(t), p_n(t)) from one two-column solve on one operator."""
    read = lambda op: (log_det(op), *_at_lower(n, op))
    return _resolved(n, t, lambda t: on_operators(_hermite(n), t, read))


def _exponential(n: int, t) -> tuple:
    """The exponential log F_{n,2} = -2 int_t^inf (x - t) q_n p_n, a(t) and b(t) at a float t or ascending points."""
    a, b, _, moment = tails(_hermite(n), t, partial(_q_p, n), ((0,), (1,), (0, 1)), OUTER_NODES)
    return -2.0 * moment, a, b


def ab(n: int, t: float) -> tuple[float, float]:
    """Tail integrals a(t) = int_t^inf q_n, b(t) = int_t^inf p_n, judged by the exponential log F_{n,2}."""
    return _resolved(n, t, partial(_exponential, n))


def c_constants(n: int) -> tuple[float, float]:
    """The constants c_phi = (1/2) int phi and c_psi = (1/2) int psi.

    Parity kills one of the two: c_phi = 0 for n odd, c_psi = 0 for n even.
    The other is (1/2)(n/2)^{1/4} int phi_m, m the even one of n and n - 1,
    with int phi_m = sqrt(2) pi^{1/4} sqrt(m!) / (2^{m/2} (m/2)!); for n odd
    that is c_psi = (pi n)^{1/4} 2^{-3/4-(n-1)/2} ((n-1)!)^{1/2} / ((n-1)/2)!.
    The factorial ratio is the product of sqrt(j/(j+1)) over odd j < m, the
    integral recurrence of :func:`hermite_integrals` on the whole line.
    """
    check_n(n)
    m = n - n % 2
    ratio = math.sqrt(math.prod(j / (j + 1.0) for j in range(1, m, 2)))
    c = 0.5 * phi_psi_scale(n) * math.sqrt(2.0) * math.pi ** 0.25 * ratio
    return (0.0, c) if n % 2 else (c, 0.0)


# log F <= 0 for a probability; rounding puts a computed value at most about
# nodes * eps (~1e-14) above zero.  Anything above this bound is a failed
# evaluation, not a probability: far in the left tail the exponential path's
# moment quadrature breaks down (log F = +734 at n = 40, t = -2)
LOG_F_ROUNDING = 1e-10

# when log det(I - K) is this small the resolvent conditioning no longer
# supports a trustworthy bracket; a negative bracket there is rounding
# noise on a vanishing probability, not a real failure
LOG_FLOOR = -30.0


def _bracket_block(parity: int, n: int, op: DiscretizedKernel, *integrals) -> np.ndarray:
    """(log F_{n,2}, F^2 / F_{n,2}) of a block of operators, shape (2,) + block.

    The bracket's solve reuses the determinant's factor; a refused operator gives (-inf, NaN).
    """
    ratio = (f1_sq_ratio, f4_sq_ratio)[parity](_epsilon_numeric(n, op, *integrals))
    return np.array([log_det(op), ratio])


def _log_cdf(n: int, t: np.ndarray, parity: int | None, method: str) -> np.ndarray:
    """log F by the one method dispatch at a float t or ascending points, each judged by :func:`_policy`.

    With parity None it is log F_{n,2} by ``method``: one operator per point,
    or the exponential form (:func:`_exponential`).  With parity 0 (GOE)
    or 1 (GSE), half of log F_{n,2} plus the log of the bracket F^2 / F_{n,2}
    from the epsilon quantities of the same operator; one raise raises for all.
    """
    if parity is not None:
        log_f, ratio = on_operators(_hermite_integrals(n), t, partial(_bracket_block, parity, n))
    else:
        log_f = on_operators(_hermite(n), t, log_det) if method == "determinant" else _exponential(n, t)[0]
        ratio = np.ones_like(log_f)
    points = zip(*(v.ravel().tolist() for v in (t, log_f, ratio)))
    return np.array([_policy(n, parity, *point) for point in points]).reshape(t.shape)


def _cutoff(n: int, parity: int | None) -> float:
    """The far-left cutoff: left of it the shift bound exp(-r t^2) < 2^-1075, half the least subnormal."""
    return -math.sqrt(1075.0 * math.log(2.0) / _shift_rate(n, parity))


def _shift_rate(n: int, parity: int | None) -> float:
    """The rate r of the shift bound log F(t) <= -r t^2 for t <= 0.

    x_i = y_i + t in the joint density of m eigenvalues at weight exp(-(beta/2) x^2)
    gives r = (beta/2) m = n, n/2 or (n - 1)/2 (GUE, GOE, GSE in t = u sqrt 2).
    """
    return {None: n, 0: 0.5 * n, 1: 0.5 * (n - 1)}[parity]


def _policy(n: int, parity: int | None, t: float, log_f: float, ratio: float) -> float:
    """log F at one point from log F_{n,2} and the bracket; -inf for F = 0.0.

    Lost positivity (a log F_{n,2} of -inf, or NaN on the exponential path)
    or a log F_{n,2} above LOG_F_ROUNDING gives 0.0.  For the GOE/GSE a
    bracket that is not finite raises NumericalError; a negative one gives
    0.0 where log F_{n,2} is below LOG_FLOOR and raises elsewhere; a combined
    log F above LOG_F_ROUNDING raises, and only rounding puts one that passes above 0.
    A log F above the shift bound (:func:`_cutoff`), where the rule misses the kernel, gives 0.0.
    """
    if not math.isfinite(log_f) or log_f > LOG_F_ROUNDING:
        return -math.inf
    if parity is not None:
        if not math.isfinite(ratio):
            raise NumericalError(f"non-finite squared ratio {ratio} at n={n}, t={t}")
        if ratio < -1e-10:
            if log_f < LOG_FLOOR:
                return -math.inf
            raise NumericalError(f"negative squared ratio {ratio} at n={n}, t={t}")
        if ratio <= 0.0:
            return -math.inf
        log_f = 0.5 * (log_f + math.log(ratio))
        if log_f > LOG_F_ROUNDING:
            raise NumericalError(f"log F = {log_f:.6g} > 0 at n={n}, t={t} (assembly)")
    return -math.inf if log_f > LOG_F_ROUNDING - _shift_rate(n, parity) * min(t, 0.0) ** 2 else log_f


def log_f_n2(n: int, t: float) -> float:
    """log F_{n,2}(t) by the determinant; safe where the probability underflows.

    Raises NumericalError where the one failure policy gives F_{n,2} = 0.0 (:func:`_resolved`).
    """
    return _resolved(n, t, lambda t: 2 * (on_operators(_hermite(n), t, log_det),))[0]


def cdf_values(ensemble: str, n: int, x, method: str = "determinant"):
    """F_{n,2}, F_{n,1} or F_{n,4} at every point of x, from one stack of operators.

    ``ensemble`` is "gue", "goe" or "gse" and n the kernel index, as in
    :func:`f_n2`, :func:`f_n1` and :func:`f_n4`; x is t, or u for the GSE.
    ``method`` applies to the GUE only.  The points take the one point order
    (:func:`gemax.fredholm.at_points`), so a float x gives a float.
    """
    if not isinstance(ensemble, str) or ensemble not in PARITY:
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    parity = PARITY[ensemble]
    x = _checked(n, x, parity)
    if method not in ("determinant", "exponential"):
        raise ParameterError(f"unknown method {method!r}")
    if parity is not None and method != "determinant":
        raise ParameterError(f"method {method!r} applies to the GUE only")
    t = x * math.sqrt(2.0) if parity == 1 else x
    return at_points(partial(_values, n, parity, method), t)


def _values(n: int, parity: int | None, method: str, t: np.ndarray) -> list:
    """F at a 0-d t or at ascending points, each min(exp(log F), 1): the clamp absorbs rounding only.

    The points left of the far-left cutoff, a prefix, read 0.0 before any grid is built; the rest
    are one stack for :func:`_log_cdf`: one recurrence pass, then blocks of operators, each factored once.
    """
    if parity == 1 and n == 1:  # F_{1,4}: no symplectic eigenvalues
        return [1.0] * t.size
    first = t.ravel().searchsorted(_cutoff(n, parity))
    log_f = [-math.inf] * first
    if first < t.size:
        log_f += _log_cdf(n, t[first:] if t.ndim else t, parity, method).ravel().tolist()
    return [min(math.exp(v), 1.0) for v in log_f]


def f_n2(n: int, t: float, method: str = "determinant") -> float:
    """GUE distribution F_{n,2}(t) = det(I - K_{n,2}) = exp(-2 int (x-t) q_n p_n)."""
    return cdf_values("gue", n, _point("t", t), method)


def epsilon_numeric(n: int, t: float) -> EpsilonQuantities:
    """First-principles epsilon quantities from the resolvent, no closed forms.

    eps phi(x) = c_phi - int_x^inf phi, exact from the integral recurrence,
    is fed through (I - K)^{-1}, and the script quantities are the integrals
    of the Nystrom extensions of P_n and of the resolvent kernel over
    (-inf, t), taken term by term with the same recurrence.
    """
    read = lambda op, *integrals: (log_det(op), *astuple(_epsilon_numeric(n, op, *integrals)))
    return EpsilonQuantities(*_resolved(n, t, lambda t: on_operators(_hermite_integrals(n), t, read)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b along the last axis, one BLAS dot per operator of a stack."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _epsilon_numeric(n: int, op: DiscretizedKernel, *integrals) -> EpsilonQuantities:
    """The epsilon quantities from the operator on (t, T) and one resolvent solve.

    ``integrals`` are the integrals :func:`hermite_integrals` gives with the
    operator's parts in one recurrence pass: eps phi = c_phi - int_x^inf phi
    at the nodes and at t, and the integrals left of t of psi and of the
    kernel K(s, x) at the nodes and at t.  psi (from the operator's node
    parts), eps phi and the kernel column
    K(x_j, t) = K(t, x_j) share one three-column resolvent solve, whose
    columns are P_n, (I - K)^{-1} eps phi and the resolvent kernel R_n(x_j, t).
    The Nystrom extensions P_n(x) = psi(x) + sum_j w_j K(x, x_j) P_n(x_j) and
    R_n(x, t) = K(x, t) + sum_j w_j K(x, x_j) R_n(x_j, t) are then integrated
    over (-inf, t) term by term, and over (t, inf) as the quadrature sums of
    the node solutions, which the Nystrom solution reproduces.  On a stack
    of operators every field is an array over the stack.
    """
    grid = op.grid
    c_phi, c_psi = c_constants(n)
    w = grid.weights
    scale = phi_psi_scale(n)
    psi = scale * op.node_parts[1]
    tail, psi_left, kernel_left = integrals

    eps_phi = c_phi - scale * tail
    sols = resolvent_solve_many(op, np.stack([psi, eps_phi[..., :-1], op.end_row], axis=-1))
    p_sol, q_eps_sol, r_sol = sols[..., 0], sols[..., 1], sols[..., 2]
    v_tilde = (w * q_eps_sol * psi).sum(axis=-1)
    # not resolvent_at_lower: its three-column product moves q_eps in the last bits
    q_eps = eps_phi[..., -1] + _dot(op.end_row, w * q_eps_sol)

    # int_{-inf}^t P_n and int_{-inf}^t R_n(x, t) dx
    p1 = scale * psi_left + _dot(kernel_left[..., :-1], w * p_sol)
    r1 = kernel_left[..., -1] + _dot(kernel_left[..., :-1], w * r_sol)

    # right-side pieces int_t^inf P_n and int_t^inf R_n(x, t)
    p4 = 0.5 * ((w * p_sol).sum(axis=-1) - p1)
    r4 = 0.5 * ((w * r_sol).sum(axis=-1) - r1)
    return EpsilonQuantities(v_tilde, q_eps, p1, r1, p4, r4, c_phi, c_psi)


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


def f_n1(n: int, t: float) -> float:
    """GOE distribution F_{n,1}(t) for n even.

    Its square is F_{n,2} times the determinant representation evaluated
    with first-principles epsilon quantities, exact up to quadrature error.
    """
    return cdf_values("goe", n, _point("t", t))


def f_n4(n: int, u: float) -> float:
    """GSE-side distribution F_{n,4}(u) for odd kernel index n.

    u is the GSE-scale argument; the representations live on the GUE-side
    variable t = u sqrt(2).  The index n labels the Hermite kernel K_{n,2},
    not a matrix size: F_{n,4} is the largest-eigenvalue distribution of the
    symplectic ensemble with (n-1)/2 eigenvalues, so F_{1,4} is exactly one
    and builds no operator.  See :func:`gse_largest_cdf` for the matrix-size
    parametrization.  Like :func:`f_n1` it is exact up to quadrature error.
    """
    return cdf_values("gse", n, _point("u", u))


def gse_largest_cdf(n_eigs: int, u: float) -> float:
    """P(largest eigenvalue <= u) for the symplectic ensemble with n_eigs eigenvalues.

    The kernel index of the representation is 2 n_eigs + 1
    (:func:`gse_kernel_index`): the symplectic ensemble with N eigenvalues is
    governed by the odd Hermite kernel of order 2N + 1.
    """
    return f_n4(gse_kernel_index(n_eigs), u)
