"""Harmonic-oscillator wave functions, Airy functions, and quadrature grids.

The wave functions are evaluated with the normalized three-term recurrence

    phi_{k+1}(x) = x sqrt(2/(k+1)) phi_k(x) - sqrt(k/(k+1)) phi_{k-1}(x),

seeded with phi_0(x) = pi^{-1/4} exp(-x^2/2).  The Gaussian factor is kept
inside the recurrence, so intermediate values stay bounded and the functions
are usable far past k = 30 where raw Hermite polynomials overflow.  One loop
runs it, :func:`_phi_chunks`: it fills a table of phi_0 .. phi_k, one row
per order, in place at three ufunc calls a step, a chunk of orders at a
time so that the table never holds more than about TABLE_VALUES values.
:func:`hermite_phi_two` keeps the last two rows, the pair
(phi_k, phi_{k-1}); the ladder identities
phi_k' = -x phi_k + sqrt(2k) phi_{k-1} and
phi_{k-1}' = x phi_{k-1} - sqrt(2k) phi_k give both derivatives from that
pair, so no separate derivative routine is needed, and
:func:`hermite_parts` turns it into the parts (f, g, K(z, z)) of the
Christoffel-Darboux kernel that :func:`gemax.fredholm.assemble` takes.  The
integrals of the wave functions obey a recurrence of the same shape, whose
chains scale into plain sums over the table's rows, so
:func:`hermite_integrals` reads them by contractions of the same table
that gives it the parts.

The Gauss-Legendre rules behind every quadrature grid are built by Newton's
method in theta on P_m(cos theta) (Hale & Townsend, SIAM J. Sci. Comput. 35,
2013): O(m^2) work for an m-point rule, nodes within an ulp of 1 of the exact
ones and weights free of the 1 - x^2 cancellation at the endpoints.  A grid
may also be a stack of grids, one per pair of ends, with the stack axis
leading.

Ai and Ai' come from scipy for x <= AIRY_SERIES_START only.  Right of it
scipy routes every point through the complex AMOS routines (about 2.6 us a
point, against 0.06-0.4 us left of it), so there they are summed from
their asymptotic series (DLMF 9.7.5, 9.7.6) in powers of -1/zeta,
zeta = (2/3) x^{3/2} >= 21.  :func:`airy_ai` gives Ai alone, for the
kernels that need no Ai', and sums only its series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import ParameterError

#: hard cap on the recurrence depth; guards against absurd requests
K_CAP = 10_000


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on a finite interval (lower, upper).

    For a stack of grids the ends are arrays of shape (k,) and the nodes and
    weights have shape (k, count).
    """

    lower: float | np.ndarray
    upper: float | np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.nodes.shape[-1]

    @property
    def nodes_and_lower(self) -> np.ndarray:
        """The points [nodes..., lower] at which a kernel's parts are taken."""
        return np.concatenate([self.nodes, np.asarray(self.lower)[..., None]], axis=-1)

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)


@lru_cache(maxsize=64)
def _leggauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method in theta on f(theta) = P_m(cos theta), m = count, for the
    ceil(m/2) nodes x = cos theta in [0, 1), from Tricomi's initial guess; the
    other half is their reflection, and the middle node of an odd rule is
    exactly 0.  One vectorised pass of the Legendre recurrence gives P_m and
    P_{m-1}, hence f'(theta) = m (x P_m - P_{m-1}) / sin theta, and the weight
    2 / f'(theta)^2 has no 1 - x^2 cancellation at the endpoints.  O(m^2)
    work; three steps reach the 1e-12 tolerance for every m up to 2400.
    """
    m = count
    k = np.arange(1, (m + 1) // 2 + 1)
    theta = np.arccos((1.0 - (m - 1) / (8.0 * m**3)) * np.cos(np.pi * (4 * k - 1) / (4 * m + 2)))
    step = np.inf
    while True:
        x = np.cos(theta)
        prev, cur = np.ones_like(x), x
        for j in range(2, m + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        slope = m * (x * cur - prev) / np.sin(theta)
        # one pass more after the last step puts the weights at the converged
        # theta: f' one step earlier is off by cot(theta) times that step
        if np.max(np.abs(step)) < 1e-12:
            break
        step = cur / slope
        theta = theta - step
    weights = 2.0 / slope**2
    odd = m % 2
    nodes = np.concatenate([-x, x[::-1][odd:]])
    if odd:
        nodes[m // 2] = 0.0
    return nodes, np.concatenate([weights, weights[::-1][odd:]])


def build_grid(lower, upper, count: int) -> QuadratureGrid:
    """Gauss-Legendre rule affinely mapped from [-1, 1] to (lower, upper).

    Float ends give one grid; arrays of ends of shape (k,) give a stack of k
    grids, each bit for bit the grid of its own pair of ends.
    Deterministic: the same arguments always produce the same grid.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ParameterError(f"need ends of one shape, got {lower.shape} and {upper.shape}")
    half = 0.5 * (upper - lower)
    # a finite, positive half-width: finite ends with lower < upper
    if not ((half > 0.0).all() and np.isfinite(half).all()):
        raise ParameterError(f"need lower < upper, got ({lower}, {upper})")
    if count < 4:
        raise ParameterError(f"need count >= 4, got {count}")
    x, w = _leggauss(count)
    mid = 0.5 * (upper + lower)
    if lower.ndim == 0:
        lower, upper = float(lower), float(upper)
    return QuadratureGrid(lower, upper, mid[..., None] + half[..., None] * x, half[..., None] * w)


#: the one Nystrom rule: RULE_NODES Gauss-Legendre nodes that end RULE_SPAN units past
#: the larger of the left end and the edge; :func:`edge_rule` reads both at each call
RULE_NODES = 48
RULE_SPAN = 16.0


def edge_rule(lower, edge: float, unit: float, count: int | None = None) -> QuadratureGrid:
    """The rule of count nodes, RULE_NODES by default, on (lower, max(lower, edge) + RULE_SPAN unit).

    Past its edge a kernel decays on its unit, K_{n,2} past sqrt(2n) on
    sigma_n = 2^{-1/2} n^{-1/6} and K_Ai past 0 on 1: RULE_SPAN units past the
    larger end phi_n is below 3.9e-20 of its peak (n <= 400) and Ai below Ai(16) ~ 4e-20.
    """
    return build_grid(lower, np.maximum(lower, edge) + RULE_SPAN * unit, RULE_NODES if count is None else count)


def _check_k(k: int) -> None:
    if k < 0:
        raise ParameterError(f"order must be nonnegative, got {k}")
    if k > K_CAP:
        raise ParameterError(f"order {k} exceeds cap {K_CAP}")


#: the most values a table of wave functions holds (1 MB); a pass over more
#: points than fit with every order walks the orders in chunks
TABLE_VALUES = 2**17


def _steps(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence's coefficients sqrt(2/(j+1)) and sqrt(j/(j+1)) for j < k."""
    j = np.arange(k, dtype=float)
    return np.sqrt(2.0 / (j + 1.0)), np.sqrt(j / (j + 1.0))


def _phi_chunks(x: np.ndarray, up: np.ndarray, down: np.ndarray):
    """phi_0(x), ..., phi_k(x) at 1-D x, k = len(up), a table of consecutive orders at a time.

    ``up`` and ``down`` are :func:`_steps` (k).  Yields (first, rows) with
    rows[i] = phi_{first + i - 2}(x): two rows carrying the orders before the
    chunk (zeros before phi_0), then the chunk's orders.  Every chunk lives
    in one buffer of at most about TABLE_VALUES values, overwritten by the
    next, and no work follows the last yield.  A step is
    phi_{j+1} = (x sqrt(2/(j+1))) phi_j - sqrt(j/(j+1)) phi_{j-1}, three
    ufunc calls in place, its first factor a row of one outer product per
    chunk: bit for bit the loop that takes the pair (phi_j, phi_{j-1}) along.
    """
    k = len(up)
    down = down.tolist()
    size = min(k + 1, max(1, TABLE_VALUES // max(x.size, 1) - 2))
    table = np.empty((size + 2, x.size))
    table[:2] = 0.0
    table[2] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    tmp = np.empty(x.size)
    mul, sub = np.multiply, np.subtract
    first = 0
    while first <= k:
        if first:
            table[:2] = rows[-2:]
        last = min(k + 1, first + size)
        rows = table[: last - first + 2]
        start = max(first, 1)  # the chunk's first order made by a step
        np.multiply.outer(up[start - 1 : last - 1], x, out=rows[start - first + 2 :])
        views = list(rows[start - first :])
        for two, one, cur, scale in zip(views, views[1:], views[2:], down[start - 1 : last - 1]):
            mul(cur, one, cur)
            mul(two, scale, tmp)
            sub(cur, tmp, cur)
        yield first, rows
        first = last


def hermite_phi_two(k: int, x):
    """Return (phi_k(x), phi_{k-1}(x)); phi_{-1} is taken to be 0.

    Accepts scalars or arrays.  The last two rows of one table pass serve
    both orders, which is what the kernel evaluations need.
    """
    _check_k(k)
    x = np.asarray(x, dtype=float)
    *_, (_, rows) = _phi_chunks(x.ravel(), *_steps(k))
    prev, cur = rows[-2:].reshape(2, *x.shape).copy()
    return cur[()], prev[()]


def _christoffel_darboux_parts(n: int, z, f, g):
    """(f, g, K_n(z, z)) from f = phi_n(z), g = phi_{n-1}(z) and the ladder identities."""
    root = np.sqrt(2.0 * n)
    fp = -z * f + root * g
    gp = z * g - root * f
    return f, g, np.sqrt(n / 2.0) * (fp * g - f * gp)


def hermite_parts(n: int, z):
    """The parts (phi_n(z), phi_{n-1}(z), K_n(z, z)) of the Christoffel-Darboux kernel.

    K_n(x, y) = sqrt(n/2) (phi_n(x) phi_{n-1}(y) - phi_n(y) phi_{n-1}(x))/(x - y),
    the integrable form with scale sqrt(n/2); one recurrence pass.
    """
    z = np.asarray(z, dtype=float)
    return _christoffel_darboux_parts(n, z, *hermite_phi_two(n, z))


def hermite_integrals(n: int, x, t):
    """The kernel's parts and integrals at the points z = [x, t] from one table of wave functions.

    Returns (parts, I_n(z), J_{n-1}(t), L(z)): parts is :func:`hermite_parts`
    at z, bit for bit; I_k(z) = int_z^inf phi_k,
    J_k(t) = int_{-inf}^t phi_k and L(z) = sum_{k<n} phi_k(z) J_k(t), which
    is int_{-inf}^t K_n(s, z) ds for the Christoffel-Darboux kernel K_n.
    For a stack, x has shape (k, m) and t shape (k,): z is [x, t] row by row,
    and every result carries the leading stack axis.  No quadrature.

    Integrating phi_k' = sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1} gives
    I_{k+1} = sqrt(k/(k+1)) I_{k-1} + sqrt(2/(k+1)) phi_k from
    I_0 = pi^{-1/4} sqrt(pi/2) erfc(z/sqrt 2) and I_1 = sqrt(2) phi_0(z); J
    obeys the same with the sign of every phi term flipped.  With
    D_0 = D_1 = 1 and D_{k+1} = sqrt(k/(k+1)) D_{k-1} each chain is a sum
    over the table phi_0..phi_n: I_n / D_n is [n even] I_0 plus
    sum_{k = n, n-2, ... >= 1} c_{k-1} phi_{k-1}, c_{k-1} = sqrt(2/k) / D_k,
    one contraction over every other row; J_k / D_k runs down the t column
    as J_k / D_k = J_{k-2} / D_{k-2} - c_{k-1} phi_{k-1}(t) from
    J_0 and J_{-1} = 0, one running difference per parity; L is one more
    contraction.  The chunks of :func:`_phi_chunks` carry the running sums.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    _check_k(n)
    t = np.asarray(t, dtype=float)
    z = np.concatenate([np.asarray(x, dtype=float), t[..., None]], axis=-1)
    stack, m = z.size // z.shape[-1], z.shape[-1]
    up, down = _steps(n)
    scales = np.ones(n + 1)  # D_k
    scales[2::2], scales[3::2] = np.cumprod(down[1::2]), np.cumprod(down[2::2])
    weights = np.append(0.0, up / scales[1:])  # c_{k-1} at k, c_{-1} = 0
    seed = np.pi ** (-0.25) * math.sqrt(0.5 * np.pi)
    tail = seed * _sp.erfc(z.ravel() / math.sqrt(2.0)) if n % 2 == 0 else np.zeros(z.size)
    sums = np.zeros((2, stack))  # J_{k-2} / D_{k-2} and J_{k-1} / D_{k-1} at a chunk's first k
    sums[0] = seed * _sp.erfc(-t.ravel() / math.sqrt(2.0))
    kernel = np.zeros((stack, m))
    for first, rows in _phi_chunks(z.ravel(), up, down):
        last = first + len(rows) - 2
        w, prev = weights[first:last], rows[1:-1]  # c_{k-1} and phi_{k-1}, first <= k < last
        same = (n - first) % 2
        tail += w[same::2] @ prev[same::2]
        sums = np.concatenate([sums, w[:, None] * prev[:, m - 1 :: m]])
        for parity in (0, 1):
            np.subtract.accumulate(sums[parity::2], axis=0, out=sums[parity::2])
        count = min(last, n) - first  # the orders k < n
        left = scales[first : first + count, None] * sums[2 : 2 + count]  # J_k(t)
        # per stack row, the row vector of J_k(t) times the matrix of phi_k(z)
        phi = rows[2 : 2 + count].reshape(count, stack, m).transpose(1, 0, 2)
        kernel += np.matmul(left.T[:, None], phi)[:, 0]
        sums = sums[-2:]
    f, g = rows[-1].reshape(z.shape).copy(), rows[-2].reshape(z.shape).copy()
    del rows, prev, phi  # the table goes before the parts' temporaries come
    left = scales[n - 1] * sums[0].reshape(t.shape)
    parts = _christoffel_darboux_parts(n, z, f, g)
    return parts, scales[n] * tail.reshape(z.shape), left[()], kernel.reshape(z.shape)


def phi_psi_scale(n: int) -> float:
    """The factor (n/2)^{1/4} that takes (phi_n, phi_{n-1}) to (phi, psi)."""
    return (n / 2.0) ** 0.25


#: right of this point Ai and Ai' are summed from their asymptotic series
AIRY_SERIES_START = 10.0


def _airy_series_coefficients(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """u_k and v_k of DLMF 9.7.2 for k < terms.

    u_k = u_{k-1} (6k - 5)(6k - 3)(6k - 1) / (216 k (2k - 1)), u_0 = 1, and
    v_k = -u_k (6k + 1)/(6k - 1).
    """
    u = [1.0]
    for k in range(1, terms):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
    v = [1.0] + [-u[k] * (6 * k + 1) / (6 * k - 1) for k in range(1, terms)]
    return np.array(u), np.array(v)


# at zeta >= 21 the first omitted term, u_26 / zeta^26, is below 1.4e-18
_AIRY_U, _AIRY_V = _airy_series_coefficients(26)


def _series(coefficients: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] r^k by Horner's rule in place."""
    total = np.full_like(r, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= r
        total += c
    return total


def _airy_series(x: np.ndarray, derivative: bool) -> tuple[np.ndarray, ...]:
    """Ai, and Ai' with ``derivative``, for x >= AIRY_SERIES_START from DLMF 9.7.5 and 9.7.6.

    Ai(x) = e^{-zeta} / (2 sqrt(pi) x^{1/4}) sum_k u_k (-1/zeta)^k and
    Ai'(x) = -x^{1/4} e^{-zeta} / (2 sqrt(pi)) sum_k v_k (-1/zeta)^k, each
    sum by Horner's rule, so Ai alone is Ai of the pair bit for bit.  The
    rounding of zeta in e^{-zeta} sets the error floor, about 3e-16 zeta
    relative, as it does in scipy.
    """
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    r = -1.0 / zeta
    scale = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    root4 = np.sqrt(np.sqrt(x))
    ai = scale / root4 * _series(_AIRY_U, r)
    return (ai, -scale * root4 * _series(_AIRY_V, r)) if derivative else (ai,)


def _airy(x, derivative: bool) -> tuple:
    """Ai, and Ai' with ``derivative``, of the shape of x: scipy up to AIRY_SERIES_START, the series past it."""
    x = np.asarray(x, dtype=float)
    far = x > AIRY_SERIES_START
    near = ~far
    values = tuple(np.empty_like(x) for _ in range(1 + derivative))
    for value, part, series in zip(values, _sp.airy(x[near]), _airy_series(x[far], derivative)):
        value[near], value[far] = part, series
    return tuple(v[()] for v in values)


def airy(x):
    """Airy function values (Ai(x), Ai'(x)), of the shape of x.

    scipy serves x <= AIRY_SERIES_START, where it meets the 1e-12 relative
    target; the asymptotic series serves the points right of it.  The tests
    hold the series to 40-digit mpmath and both sides to the ODE residual
    Ai'' = x Ai; the closed forms at the origin check scipy.
    """
    return _airy(x, True)


def airy_ai(x):
    """Ai(x) alone, of the shape of x: :func:`airy`'s first value bit for bit, without the Ai' series."""
    return _airy(x, False)[0]
