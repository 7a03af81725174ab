"""Reference values computed apart from gemax.

None of these functions imports gemax.  They use other representations of
the same distributions, so a shared mistake in the program's Nyström
discretisation cannot hide in both:

* GUE: the Andreief/Gram determinant det(δ_jk − ∫_t^∞ φ_j φ_k)_{j,k<n}.
* GOE (even n): de Bruijn's Pfaffian of ∫∫_{x<y<t} (φ_j(x)φ_k(y) − φ_k(x)φ_j(y)),
  squared as a determinant, with ∫_{−∞}^x φ_k from its three-term recurrence.
* GSE (odd kernel index n = 2N + 1): de Bruijn's β = 4 Pfaffian of
  ∫_{−∞}^{√2 u} (φ_j φ_k' − φ_k φ_j'), j, k < 2N, against its closed-form
  value on the whole line.
* Tracy–Widom: F₂ = det(I − B_s) det(I + B_s), F₁ = det(I − B_s) and
  F₄ = ½[det(I − B_s) + det(I + B_s)] with B_s(x, y) = Ai(x + y + s) on
  L²(0, ∞), the Ferrari–Spohn form of A_s(x, y) = ½ Ai((x + y)/2) on (s, ∞).

φ_k are the orthonormal Hermite functions (weight e^{−x²} for two of them).
The recurrence carries a per-point exponent, so it neither underflows nor
overflows at the kernel indices the benchmark uses.  Quadrature is
Gauss–Legendre from scipy's ``roots_legendre``; every node count has a
``scale`` factor so the self-check can double it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import airy, erf, erfc, roots_legendre

#: published high-precision value of the GUE Tracy–Widom law at s = 0
F2_AT_ZERO = 0.9693728283552641


@lru_cache(maxsize=None)
def _legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    return roots_legendre(count)


def _rule(lower: float, upper: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(count)
    half = 0.5 * (upper - lower)
    return lower + half * (x + 1.0), half * w


def hermite_functions(kmax: int, x) -> np.ndarray:
    """φ_0 … φ_kmax at the points x, shape (len(x), kmax + 1).

    The Gaussian factor is kept apart as a log-scale per point and the
    polynomial part is renormalised whenever it grows past 1e150.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1, x.size))
    log_scale = -0.5 * x * x
    prev = np.zeros_like(x)
    cur = np.full_like(x, np.pi ** -0.25)
    out[0] = cur * np.exp(log_scale)
    for k in range(kmax):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1.0)) * prev
        big = np.abs(cur) > 1e150
        if big.any():
            size = np.abs(cur[big])
            cur[big] /= size
            prev[big] /= size
            log_scale[big] += np.log(size)
        out[k + 1] = cur * np.exp(log_scale)
    return out.T


def _edge(n: int) -> float:
    return math.sqrt(2.0 * n)


def _nodes(length: float, n: int, scale: int) -> int:
    # φ_k, k ≤ n, turns at most sqrt(2n + 1) radians per unit length; a product
    # of two turns twice as fast and Gauss–Legendre wants about 2 nodes per π
    return scale * (64 + math.ceil(1.25 * length * math.sqrt(2.0 * n + 1.0)))


def gue_cdf(n: int, t: float, scale: int = 1) -> float:
    """F_{n,2}(t) = det(I − G), G_jk = ∫_t^∞ φ_j φ_k, j, k < n."""
    upper = max(t, _edge(n)) + 12.0
    x, w = _rule(t, upper, _nodes(upper - t, n, scale))
    phi = hermite_functions(n - 1, x)
    gram = (phi * w[:, None]).T @ phi
    sign, logdet = np.linalg.slogdet(np.eye(n) - gram)
    return float(sign * math.exp(logdet))


def _left_rule(n: int, t: float, scale: int):
    lower = -(_edge(n) + 12.0)
    if t <= lower:
        raise ValueError(f"t = {t} is below the oracle's lower cutoff {lower}")
    return _rule(lower, t, _nodes(t - lower, n, scale))


def _integrals(kmax: int, x, phi: np.ndarray) -> np.ndarray:
    """I_k(x) = ∫_{−∞}^x φ_k from I_{k+1} = √(k/(k+1)) I_{k−1} − √(2/(k+1)) φ_k."""
    phi = phi.T
    out = np.empty((kmax + 1, x.size))
    out[0] = np.pi ** -0.25 * math.sqrt(0.5 * np.pi) * erfc(-x / math.sqrt(2.0))
    if kmax >= 1:
        out[1] = -math.sqrt(2.0) * phi[0]
    for k in range(1, kmax):
        out[k + 1] = math.sqrt(k / (k + 1.0)) * out[k - 1] - math.sqrt(2.0 / (k + 1)) * phi[k]
    return out.T


def _goe_logdet(n: int, x, w) -> float:
    phi = hermite_functions(n - 1, x)
    cum = _integrals(n - 1, x, phi)
    half = (cum * w[:, None]).T @ phi
    sign, logdet = np.linalg.slogdet(half - half.T)
    return logdet if sign > 0 else -math.inf


@lru_cache(maxsize=None)
def _goe_logdet_total(n: int, scale: int) -> float:
    upper = _edge(n) + 12.0
    x, w = _rule(-upper, upper, _nodes(2.0 * upper, n, scale))
    return _goe_logdet(n, x, w)


def goe_cdf(n: int, t: float, scale: int = 1) -> float:
    """F_{n,1}(t) for even n from de Bruijn's Pfaffian."""
    if n % 2:
        raise ValueError(f"the GOE oracle needs even n, got {n}")
    if t >= _edge(n) + 12.0:
        return 1.0
    x, w = _left_rule(n, t, scale)
    log_ratio = _goe_logdet(n, x, w) - _goe_logdet_total(n, scale)
    return math.exp(0.5 * log_ratio)


def gse_cdf(n: int, u: float, scale: int = 1) -> float:
    """F_{n,4}(u) for odd kernel index n, i.e. the largest of (n − 1)/2 GSE eigenvalues."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"the GSE oracle needs odd n >= 3, got {n}")
    dim = n - 1
    tau = math.sqrt(2.0) * u
    if tau >= _edge(n) + 12.0:
        return 1.0
    x, w = _left_rule(n, tau, scale)
    phi = hermite_functions(dim, x)
    k = np.arange(dim)
    deriv = np.sqrt(k / 2.0) * np.hstack([np.zeros((x.size, 1)), phi[:, : dim - 1]])
    deriv -= np.sqrt((k + 1) / 2.0) * phi[:, 1 : dim + 1]
    half = (phi[:, :dim] * w[:, None]).T @ deriv
    sign, logdet = np.linalg.slogdet(half - half.T)
    if sign <= 0:
        return 0.0
    # on the whole line the matrix is tridiagonal with (k−1, k) entry √(2k)
    log_total = sum(math.log(2.0 * (2 * m + 1)) for m in range(dim // 2))
    return math.exp(0.5 * (logdet - log_total))


def gse_largest_cdf(n_eigs: int, u: float, scale: int = 1) -> float:
    """CDF of the largest of n_eigs GSE eigenvalues (kernel index 2 n_eigs + 1)."""
    return gse_cdf(2 * n_eigs + 1, u, scale)


def airy_dets(s: float, scale: int = 1) -> tuple[float, float]:
    """(det(I − B_s), det(I + B_s)) with B_s(x, y) = Ai(x + y + s) on L²(0, ∞)."""
    upper = max(0.0, -s) + 16.0
    # 40 nodes already reach rounding level at s = -8; the margin grows into the left tail
    x, w = _rule(0.0, upper, scale * (48 + 8 * math.ceil(max(0.0, -s))))
    sw = np.sqrt(w)
    b = sw[:, None] * airy(s + x[:, None] + x[None, :])[0] * sw[None, :]
    eye = np.eye(x.size)
    return float(np.linalg.det(eye - b)), float(np.linalg.det(eye + b))


@lru_cache(maxsize=None)
def tw_cdfs(s: float, scale: int = 1) -> tuple[float, float, float]:
    """(F₁, F₂, F₄)(s) in the program's unscaled F₄ convention."""
    minus, plus = airy_dets(s, scale)
    return minus, minus * plus, 0.5 * (minus + plus)


def normal_cdf(t: float) -> float:
    """F_{1,2}(t) = (1 + erf t)/2, the one-eigenvalue law."""
    return 0.5 * (1.0 + erf(t))


def ks_statistic(samples: np.ndarray, cdf, lo: float, hi: float, points: int = 129) -> float:
    """Two-sided KS statistic of sorted samples against cdf on [lo, hi].

    The cdf is sampled at Chebyshev points and evaluated at every sample by
    barycentric interpolation, which converges geometrically for these
    analytic CDFs.
    """
    from scipy.interpolate import BarycentricInterpolator

    theta = np.pi * (np.arange(points) + 0.5) / points
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
    ys = np.array([cdf(float(v)) for v in xs])
    values = np.clip(BarycentricInterpolator(xs, ys)(samples), 0.0, 1.0)
    count = samples.size
    i = np.arange(1, count + 1)
    return float(np.max(np.maximum(i / count - values, values - (i - 1) / count)))


def self_check() -> str:
    """Check the oracles against closed forms and against doubled node counts.

    Returns an empty string when every check holds, else what failed.
    """
    problems = []

    def expect(what: str, value: float, reference: float, tol: float) -> None:
        if not abs(value - reference) <= tol:
            problems.append(f"{what}: {value!r} vs {reference!r} (tol {tol:g})")

    for t in (-1.7, 0.3, 2.1):
        expect(f"GUE n=1 erf law at {t}", gue_cdf(1, t), normal_cdf(t), 1e-13)
        expect(f"GSE N=1 erf law at {t}", gse_largest_cdf(1, t / math.sqrt(2.0)), normal_cdf(t), 1e-13)
    expect("published F2(0)", tw_cdfs(0.0)[1], F2_AT_ZERO, 1e-12)
    edge = _edge(40)
    for what, fn, x in (("GUE", gue_cdf, edge - 1.0), ("GOE", goe_cdf, edge - 1.0),
                        ("GSE", gse_cdf, None)):
        n, x = (41, math.sqrt(41) - 0.5) if x is None else (40, x)
        expect(f"{what} n={n} node doubling", fn(n, x), fn(n, x, scale=2), 1e-11)
    for s in (-5.0, -1.0):
        expect(f"Tracy-Widom node doubling at {s}", max(tw_cdfs(s)), max(tw_cdfs(s, scale=2)), 1e-11)
    return "; ".join(problems)
