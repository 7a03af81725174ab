"""Tracy-Widom limit laws on the Airy kernel and Edgeworth expansions.

The three limit laws are Fredholm determinants on Gauss-Legendre Nystrom
grids:  F_2(s) = det(I - K_Ai), and, after Ferrari-Spohn and Bornemann,
F_1(s) = det(I - A_s) and F_4(s) = (det(I - A_s) + det(I + A_s))/2 with
A_s(x, y) = Ai((x + y)/2)/2.  Every operator takes special's 48-node rule,
on a reach that ends where its kernel's row at s falls to Ai(16), about
4e-20: K_Ai (the fredholm.Kernel ``_AIRY``) on (s, max(s, 0) + 16), the
finite-n kernels' special.edge_rule at the edge 0 on the unit 1, and A_s,
which couples s with every y up to there, on (s, 32 - s).  Each determinant
is read from the Cholesky factor of its operator (fredholm); the sum
kernel's +-A_s are operators without kernel parts, their matrices from Ai
alone (special.airy_ai).  With the Hastings-McLeod q and mu(s) = int_s^inf q,
these are F_1 = sqrt(F_2) e^{-mu/2} and F_4 = sqrt(F_2) cosh(mu/2), the
unscaled F_4 convention.  A table is one stack in fredholm.at_points' point
order: :func:`limit_values` takes an array of points, and the laws are its float case.

The Edgeworth terms need the Airy bundle: the resolvent (I - K_Ai)^{-1} on
(s, infinity) and its values at s (fredholm's one left-end rule) against
x^i Ai and x^i Ai' give q_i(s), p_i(s); inner products give u_i, v_i, v~_i,
w_i.  In particular q_0 is the Hastings-McLeod q, recovered here from the
resolvent rather than by ODE shooting (which is exponentially unstable), and
q' = p_0 - q_0 u_0 (the Tracy-Widom system).  The integrals mu, nu, alpha,
eta and the exponential log F_2 = -int (x - s) q^2 (``log_f2``) are
fredholm.tails of the point values, at s as a table of one point: on the
K_Ai rule at s, since the outer integrands are O(Ai(x)), and the operator at
s joins that table's one stack of 48 outer operators.  The bundle serves
only the Edgeworth terms and the acceptance cross-checks of the limit laws;
``f2_limit`` itself is the determinant.  On [S_MIN, S_MAX] mu falls monotonically
to 1.6e-8 at S_MAX, so the Edgeworth terms divide by it unguarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from numbers import Real

import numpy as np

from .errors import NumericalError, ParameterError, check_integers, check_reals, real_points
from .fredholm import DiscretizedKernel, Kernel, at_points, fredholm_log_det, on_operators
from .fredholm import resolvent_at_lower, tails
from . import fredholm, special
from .special import airy as airy_fn
from .special import airy_ai, build_grid

S_MIN = -10.0
S_MAX = 8.0
SQRT2 = math.sqrt(2.0)


def check_window(s: float) -> None:
    """ParameterError, naming s, unless s is a real number with S_MIN <= s <= S_MAX."""
    check_reals(s=s)
    if not S_MIN <= s <= S_MAX:
        raise ParameterError(f"s = {s} outside supported window [{S_MIN}, {S_MAX}]")


def _check_n_c(n: int, c: float) -> None:
    """The domain of tau and of the expansions at tau: integer n >= 1, c with a finite 2(n + c) > 0."""
    if not isinstance(n, Real):
        check_integers(n=n)
    check_reals(c=c)
    if not (1 <= n < math.inf and 0 < 2.0 * (n + c) < math.inf):
        raise ParameterError(f"need finite n >= 1 and c with n + c > 0, 2(n + c) finite, got n={n}, c={c}")
    check_integers(n=n)


def tau(n: int, c: float, s: float) -> float:
    """Soft-edge scaling tau(s) = sqrt(2(n+c)) + 2^{-1/2} n^{-1/6} s; s a finite real number."""
    _check_n_c(n, c)
    check_reals(finite=True, s=s)
    return math.sqrt(2.0 * (n + c)) + s / (SQRT2 * n ** (1.0 / 6.0))


@dataclass(frozen=True)
class AiryBundle:
    """Endpoint scalars and integrals of the Airy resolvent at s.

    q, p, u, v, v_tilde, w are triples indexed by the weight power i = 0,1,2
    (rhs x^i Ai and x^i Ai').  eta is split into its c-independent integral
    piece plus (q', p); eta(c) assembles the full definition.  log_f2 is
    the exponential log F_2(s) = -int_s^inf (x - s) q(x)^2 dx.
    """

    s: float
    q: tuple[float, float, float]
    p: tuple[float, float, float]
    u: tuple[float, float, float]
    v: tuple[float, float, float]
    v_tilde: tuple[float, float, float]
    w: tuple[float, float, float]
    mu: float
    nu: float
    alpha: float
    eta_integral: float
    q_prime: float
    log_f2: float

    def eta(self, c: float) -> float:
        check_reals(finite=True, c=c)
        return _finite("eta", _eta(self, c), c, self.s)


@dataclass(frozen=True)
class EdgeworthResult:
    """Terms of an expansion F ~ leading + n^{-1/3} first + n^{-2/3} second."""

    leading: float
    order_one_third: float
    order_two_thirds: float
    combined: float


def _finite(name: str, value: float, c: float, s: float) -> float:
    """value, or NumericalError naming c and s where it is not finite."""
    if not math.isfinite(value):
        raise NumericalError(f"{name} = {value} not finite at c={c}, s={s}")
    return value


def _expansion(n: int, c: float, s: float, leading: float, first: float, second: float) -> EdgeworthResult:
    """The terms at (n, c, s) and their sum; NumericalError, naming n, c and s, unless all are finite."""
    terms = (leading, first, second, leading + first * n ** (-1.0 / 3.0) + second * n ** (-2.0 / 3.0))
    if not all(map(math.isfinite, terms)):
        raise NumericalError(f"Edgeworth terms {terms} not finite at n={n}, c={c}, s={s}")
    return EdgeworthResult(*terms)


def _parts(grid) -> tuple:
    """Ai, Ai' and K_Ai(z, z) = Ai'^2 - z Ai^2 at z = grid.nodes_and_lower, from one Airy call."""
    z = grid.nodes_and_lower
    ai, aip = airy_fn(z)
    return ai, aip, aip * aip - z * ai * ai


def _endpoint_scalars(op) -> np.ndarray:
    """(q_i, p_i, u_i, v_i, v~_i, w_i) of an operator or a block of them, shape (6, 3) or (6, 3, block)."""
    z, w = op.grid.nodes_and_lower, op.grid.weights
    ai, aip, _ = op.parts
    powers = np.stack([np.ones_like(z), z, z * z], axis=-1)
    rhs = np.concatenate([powers * ai[..., None], powers * aip[..., None]], axis=-1)
    sols, endpoint = resolvent_at_lower(op, rhs)  # columns: Q0 Q1 Q2 P0 P1 P2
    on_ai = ((w * ai[..., :-1])[..., None, :] @ sols)[..., 0, :]
    on_aip = ((w * aip[..., :-1])[..., None, :] @ sols)[..., 0, :]
    # the 18 columns run q, p, u, v, v~, w, each for i = 0, 1, 2
    return np.concatenate([endpoint, on_ai, on_aip], axis=-1).T.reshape(6, 3, *endpoint.shape[:-1])


_AIRY = Kernel(lambda grid: (_parts(grid),), 0.0, 1.0, 1.0)


def _point_values(points) -> np.ndarray:
    """The endpoint scalars at each point, shape (6, 3, len(points)), or (6, 3) at a float point."""
    return on_operators(_AIRY, points, _endpoint_scalars)


def _outer_rows(values: np.ndarray) -> np.ndarray:
    """q_0, p_0, u_0 and eta's integrand from endpoint scalars (6, 3, k): the rows the bundle's integrals take."""
    q, p, u, v = values[:4]
    eta = (6.0 * q[0] * v[0] + 3.0 * p[0] * u[0] + 2.0 * p[2] + 2.0 * p[1] * v[0] + 2.0 * p[0] * v[1]
           - 2.0 * q[2] * u[0] - 2.0 * q[1] * u[1] - 2.0 * q[0] * u[2])
    return np.array([q[0], p[0], u[0], eta])


def _integrals(s, rows) -> tuple:
    """mu, nu, alpha, eta's integral and log F_2 = -int (x - s) q^2 at a float s or ascending points, from rows(x)."""
    mu, nu, alpha, eta, _, moment = tails(_AIRY, s, rows, ((0,), (1,), (0, 2), (3,), (0, 0)), special.RULE_NODES)
    return mu, nu, alpha, eta / (20.0 * SQRT2), -moment


def hastings_mcleod_q(s: float) -> float:
    """Hastings-McLeod Painleve II solution q(s), from the Airy resolvent."""
    check_window(s)
    return float(_point_values(s)[0, 0])


# The one cache keyed on a float argument.  One bundle costs 49 operators, and
# callers read the same s again: the three Edgeworth expansions at one s, and
# `convergence`, `edgeworth` and criterion 6, which repeat an s for many n
@lru_cache(maxsize=10_000)
def _bundle_cached(s: float) -> AiryBundle:
    """The bundle at s: its integrals as a table of one point, and its scalars at s from that table's one stack."""
    at_s = []

    def rows(x):  # a point's outer operators are one call: the operator at s joins their stack
        values = _point_values(np.append(s, x))
        at_s.append(values[..., 0])
        return _outer_rows(values[..., 1:])

    mu, nu, alpha, eta_integral, log_f2 = map(float, _integrals(s, rows))
    q, p, u, v, v_tilde, w = (tuple(map(float, field)) for field in at_s[0])
    return AiryBundle(s, q, p, u, v, v_tilde, w, mu, nu, alpha, eta_integral, p[0] - q[0] * u[0], log_f2)


def airy_bundle(s: float) -> AiryBundle:
    """All Airy-resolvent scalars and integrals at s (cached on float(s), so one s is one bundle)."""
    check_window(s)
    return _bundle_cached(float(s))


def log_f2_limit(s: float) -> float:
    """log F_2(s) = log det(I - K_Ai), the Airy Fredholm determinant."""
    check_window(s)
    return on_operators(_AIRY, s, fredholm_log_det)


def _sum_kernel_block(s, coefficients: tuple[float, ...]) -> np.ndarray:
    """log det(I - c A_s) for each of the coefficients c (rows), at a float s or a block of points (columns).

    A_s(x, y) = Ai((x + y)/2)/2 on (s, 2 RULE_SPAN - s), its RULE_NODES-node
    Nystrom matrices from one Airy call, of Ai alone, once per distinct pairwise
    sum of each grid's nodes (the upper triangle), so each matrix is exactly
    symmetric.  Each c A_s is an operator without kernel parts, its determinant
    read from its Cholesky factor as every other one is; the first one the
    factorization refuses, I - A_s before I + A_s, raises NumericalError.
    """
    grid = build_grid(s, 2.0 * special.RULE_SPAN - s, special.RULE_NODES)
    sw, x = grid.sqrt_weights, grid.nodes
    i, j = np.triu_indices(grid.count)
    a = np.empty(x.shape + x.shape[-1:])
    a[..., i, j] = a[..., j, i] = 0.5 * sw[..., i] * airy_ai(0.5 * (x[..., i] + x[..., j])) * sw[..., j]
    return np.array([fredholm_log_det(DiscretizedKernel(grid, c * a, 1.0, ())) for c in coefficients])


def _law_logs(ensemble: str, points) -> np.ndarray:
    """The log-determinants of one law at a float or ascending points, shape (rows,) or (rows, k).

    One row, log F_2, for "gue", from K_Ai operators; for "goe" the row
    log det(I - A_s) and for "gse" also log det(I + A_s).  Each law walks
    its points fredholm.BLOCK at a time, so only one block's grids, parts
    and matrices are held.
    """
    if ensemble == "gue":
        logs = lambda block: np.array([on_operators(_AIRY, block, fredholm_log_det)])
    else:
        logs = partial(_sum_kernel_block, coefficients=(1.0,) if ensemble == "goe" else (1.0, -1.0))
    if np.ndim(points) == 0:
        return logs(points)
    blocks = (points[k : k + fredholm.BLOCK] for k in range(0, points.size, fredholm.BLOCK))
    return np.concatenate([logs(block) for block in blocks], axis=-1)


def limit_values(ensemble: str, s):
    """F_2, F_1 or F_4 for ensemble "gue", "goe" or "gse" at every point of s, walked fredholm.BLOCK points at a time.

    Every point is checked before any work, a real number
    (errors.real_points) in [S_MIN, S_MAX]; then the one point order
    (:func:`gemax.fredholm.at_points`), so a float s gives a float.  A
    refused operator raises NumericalError naming its rule's ends (the first
    of its block; for F_4, I - A_s before I + A_s).  Each value is
    min(exp(log F), 1), F_4's the mean of its two determinants, by math.exp,
    so a table holds its points' values bit for bit.
    """
    if not isinstance(ensemble, str) or ensemble not in ("gue", "goe", "gse"):
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    x = real_points("s", s)
    inside = (S_MIN <= x) & (x <= S_MAX)
    if not inside.all():
        bad = np.flatnonzero(~inside)[0]
        at = f" at index {bad}" if x.ndim else ""
        raise ParameterError(f"s = {x.flat[bad]} outside supported window [{S_MIN}, {S_MAX}]{at}")
    return at_points(partial(_law_values, ensemble), x)


def _law_values(ensemble: str, points) -> list:
    """The law at a 0-d or at ascending points, each min(exp(log F), 1), F_4's the mean of its two determinants."""
    logs = _law_logs(ensemble, points).reshape(-1, points.size).tolist()
    if ensemble == "gse":
        return [min(0.5 * (math.exp(minus) + math.exp(plus)), 1.0) for minus, plus in zip(*logs)]
    return [min(math.exp(v), 1.0) for v in logs[0]]


def f2_limit(s: float) -> float:
    """Tracy-Widom distribution F_2(s) = det(I - K_Ai) = exp(-int (x-s) q(x)^2 dx); a point of limit_values."""
    check_window(s)
    return limit_values("gue", s)


def f1_limit(s: float) -> float:
    """Limiting orthogonal-ensemble law F_1(s) = det(I - A_s) = sqrt(F_2(s)) e^{-mu/2}; a point of limit_values."""
    check_window(s)
    return limit_values("goe", s)


def f4_limit(s: float) -> float:
    """Limiting symplectic-ensemble law F_4(s) = (det(I - A_s) + det(I + A_s))/2.

    Equal to sqrt(F_2(s)) cosh(mu/2); one point of :func:`limit_values`.
    """
    check_window(s)
    return limit_values("gse", s)


def _eta(b: AiryBundle, c: float) -> float:
    """eta(c) at the bundle's s, unchecked."""
    return b.eta_integral - (20.0 * c * c * b.q_prime + 3.0 * b.p[0]) / (20.0 * SQRT2)


def e_c2(s: float, c: float) -> float:
    """Second-order unitary correction polynomial E_{c,2}(s); NumericalError where it overflows."""
    check_reals(finite=True, c=c)
    return _finite("E_{c,2}", _e_c2(airy_bundle(s), c), c, s)


def _e_c2(b: AiryBundle, c: float) -> float:
    """E_{c,2} at the bundle's s, unchecked."""
    return (
        2.0 * b.w[1]
        - 3.0 * b.u[2]
        + (-20.0 * c * c + 3.0) * b.v[0]
        + b.u[1] * b.v[0]
        - b.u[0] * b.v[1]
        + b.u[0] * b.v[0] ** 2
        - b.u[0] ** 2 * b.w[0]
    )


def e_c1(s: float, c: float) -> float:
    """Second-order orthogonal correction E_{c,1}(s); NumericalError where it overflows."""
    check_reals(finite=True, c=c)
    return _finite("E_{c,1}", _e_c1(airy_bundle(s), c), c, s)


def _e_c1(b: AiryBundle, c: float) -> float:
    """E_{c,1} at the bundle's s, unchecked, assembled term by term."""
    mu = b.mu
    q, p, u, nu, alpha = b.q[0], b.p[0], b.u[0], b.nu, b.alpha
    eta = _eta(b, c)
    emu = math.exp(-mu)
    total = -_e_c2(b, c) * emu / 20.0
    total += -c * alpha / (2.0 * mu * mu) + c * p / (2.0 * mu)
    total += (2.0 * c - 1.0) * nu * nu / (4.0 * mu * mu)
    total += c * u * (c * q * emu - nu * (1.0 - emu) / (2.0 * mu))
    total += emu * emu * (nu * (nu + 8.0 * c * q) / (32.0 * mu) - eta / (4.0 * SQRT2))
    inner = (2.0 * SQRT2 * c * c * q * q - 3.0 * eta) / (4.0 * SQRT2)
    inner += (
        nu * nu - 8.0 * (2.0 * c * p + c * c * q * q) - 4.0 * c * c * alpha * alpha
    ) / (32.0 * mu)
    inner += -c * c * q * q / (8.0 * mu * mu)
    inner += (
        (2.0 - mu)
        / (2.0 * mu * mu)
        * (c * q * alpha + 0.25 * nu * nu + (c * c - c) * q * q)
    )
    total += emu * inner
    total -= (
        (4.0 * c * c * alpha * alpha + 3.0 * c * c * q * q - nu * nu)
        * math.cosh(mu)
        / (8.0 * mu * mu)
    )
    return total


def edgeworth_f2(n: int, c: float, s: float) -> EdgeworthResult:
    """Unitary expansion F_{n,2}(tau(s)) ~ F_2 {1 + c u_0 n^{-1/3} - E_{c,2}/20 n^{-2/3}}."""
    _check_n_c(n, c)
    b = airy_bundle(s)
    f2 = math.exp(b.log_f2)
    first = f2 * c * b.u[0]
    second = -f2 * _e_c2(b, c) / 20.0
    return _expansion(n, c, s, f2, first, second)


def edgeworth_f1_sq(n: int, c: float, s: float) -> EdgeworthResult:
    """Orthogonal expansion of F_{n,1}(tau(s))^2 through order n^{-2/3}."""
    _check_n_c(n, c)
    b = airy_bundle(s)
    f2 = math.exp(b.log_f2)
    mu = b.mu
    emu = math.exp(-mu)
    leading = f2 * emu
    first = f2 * (c * (b.q[0] + b.u[0]) * emu - b.nu * (1.0 - emu) / (2.0 * mu))
    second = f2 * _e_c1(b, c)
    return _expansion(n, c, s, leading, first, second)


def edgeworth_f4_sq(n: int, c: float, s: float) -> EdgeworthResult:
    """Symplectic expansion of F_{n,4}(tau(s)/sqrt2)^2 through order n^{-2/3}."""
    _check_n_c(n, c)
    b = airy_bundle(s)
    f2 = math.exp(b.log_f2)
    mu = b.mu
    ch, sh = math.cosh(mu), math.sinh(mu)
    q, u0, nu = b.q[0], b.u[0], b.nu
    leading = f2 * 0.5 * (1.0 + ch)  # cosh^2(mu/2)
    first = f2 * 0.5 * c * (u0 * (1.0 + ch) - q * sh)
    second = f2 * 0.25 * (
        nu * sh / (2.0 * SQRT2 * mu)
        + c * c * q * q * ch
        + (ch - 1.0) / 10.0 * _e_c2(b, c)
        + SQRT2 * (_eta(b, c) - SQRT2 * c * c * q * u0) * sh
    )
    return _expansion(n, c, s, leading, first, second)
