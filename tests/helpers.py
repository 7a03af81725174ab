"""Reference routines that only the tests use: the two-line recurrence loop
for the wave functions, the wave functions one order at a time, the masked
integrable form, the pointwise Hermite and Airy kernels and their operators,
the Nystrom extension, the limit laws one point at a time, the dense
GOE/GUE sampler, the two-sample KS
statistic with its critical value, the KS statistic on a full
barycentric interpolant, and the printed standardChop."""

import math
from functools import partial

import numpy as np

from gemax.airy import check_window
from gemax.errors import ParameterError
from gemax.fredholm import DIAG_GUARD, DiscretizedKernel, assemble, fredholm_log_det, map_blocks
from gemax.mc import _BATCH, McRun
from gemax.special import RULE_NODES, RULE_SPAN, airy, build_grid, edge_rule, hermite_parts
from gemax.special import hermite_phi_two, phi_psi_scale


def phi_two_reference(k: int, x):
    """(phi_k(x), phi_{k-1}(x)) by the two-line loop that carries the pair along.

    The reference that :func:`gemax.special.hermite_phi_two` and the parts
    of :func:`gemax.special.hermite_integrals` must equal bit for bit.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    for j in range(k):
        prev, cur = cur, x * math.sqrt(2.0 / (j + 1)) * cur - math.sqrt(j / (j + 1.0)) * prev
    return cur, prev


def hermite_phi(k: int, x):
    """Normalized harmonic-oscillator wave function phi_k(x)."""
    return hermite_phi_two(k, x)[0]


def phi_psi_values(n: int, x):
    """The pair (phi(x), psi(x)) = (n/2)^{1/4} (phi_n(x), phi_{n-1}(x)); scalars or arrays."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    scale = phi_psi_scale(n)
    cur, prev = hermite_phi_two(n, x)
    return scale * cur, scale * prev


def airy_parts(z):
    """The parts (Ai(z), Ai'(z), K_Ai(z, z)) of the Airy kernel, K_Ai(z, z) = Ai'^2 - z Ai^2."""
    ai, aip = airy(z)
    return ai, aip, aip * aip - z * ai * ai


def integrable_form(x, px, y, py, scale: float):
    """scale (f(x)g(y) - f(y)g(x))/(x - y) from px = parts(x) and py = parts(y), at any x, y.

    parts(z) = (f(z), g(z), K(z, z)).  Within DIAG_GUARD of the diagonal the
    midpoint of the two diagonal values is used:
    K(x, x+h) = K(x, x) + (h/2) d/dx K(x, x) + O(h^2).  Elsewhere it is the
    quotient the library builds, bit for bit.
    """
    fx, gx, diag_x = px
    fy, gy, diag_y = py
    near = np.abs(x - y) <= DIAG_GUARD
    off = scale * (fx * gy - fy * gx) / np.where(near, 1.0, x - y)
    return np.where(near, 0.5 * (diag_x + diag_y), off)


def _integrable_kernel(parts, scale: float, x, y):
    """The integrable form at (x, y), evaluating parts on each side."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = integrable_form(x, parts(x), y, parts(y), scale)
    if out.ndim == 0:
        return float(out)
    return out


def hermite_kernel(n: int, x, y):
    """Christoffel-Darboux kernel sqrt(n/2) (phi_n(x)phi_{n-1}(y) - phi_n(y)phi_{n-1}(x))/(x-y).

    The diagonal is sqrt(n/2)(phi_n' phi_{n-1} - phi_n phi_{n-1}'), with the
    derivatives from the lowering and raising identities
    phi_n' = -x phi_n + sqrt(2n) phi_{n-1} and
    phi_{n-1}' = x phi_{n-1} - sqrt(2n) phi_n, so one recurrence pass per
    side serves both the quotient and the diagonal.
    """
    return _integrable_kernel(partial(hermite_parts, n), math.sqrt(n / 2.0), x, y)


def airy_kernel(x, y):
    """(Ai(x)Ai'(y) - Ai(y)Ai'(x))/(x - y) with diagonal limit Ai'(x)^2 - x Ai(x)^2."""
    return _integrable_kernel(airy_parts, 1.0, x, y)


def hermite_operator(n: int, grid) -> DiscretizedKernel:
    """The Nystrom operator of the Hermite kernel K_n on the grid."""
    return assemble(grid, hermite_parts(n, np.append(grid.nodes, grid.lower)), math.sqrt(n / 2.0))


def airy_operator(grid) -> DiscretizedKernel:
    """The Nystrom operator of the Airy kernel on the grid."""
    return assemble(grid, airy_parts(np.append(grid.nodes, grid.lower)), 1.0)


def nystrom_extend(op: DiscretizedKernel, parts, node_values: np.ndarray, rhs_fn, x):
    """Natural Nystrom extension rhs(x) + sum_j w_j K(x, x_j) f_j.

    ``parts`` maps points z to the kernel's parts (f(z), g(z), K(z, z)), and
    ``node_values`` are the node values f_j of one resolvent solution.
    Valid at any finite x, including points below the grid interval;
    at a node it reproduces the node value.
    """
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    pts = np.atleast_1d(xarr)[:, None]
    kernel_block = integrable_form(pts, parts(pts), op.grid.nodes, op.node_parts, op.scale)
    vals = np.asarray(rhs_fn(pts[:, 0]), dtype=float)
    vals = vals + kernel_block @ (op.grid.weights * node_values)
    return float(vals[0]) if scalar else vals


def sum_kernel_log_dets(s: float, coefficients: tuple[float, ...]) -> list[float]:
    """log det(I - c A_s) for each of the coefficients c at one point s, A_s(x, y) = Ai((x + y)/2)/2.

    One Nystrom matrix on RULE_NODES nodes on (s, 2 RULE_SPAN - s), Ai taken
    from the pair special.airy gives, once per distinct pairwise sum of nodes;
    each c A_s an operator without kernel parts.
    """
    check_window(s)
    grid = build_grid(s, 2.0 * RULE_SPAN - s, RULE_NODES)
    sw = grid.sqrt_weights
    i, j = np.triu_indices(grid.count)
    a = np.empty((grid.count, grid.count))
    a[i, j] = a[j, i] = 0.5 * sw[i] * airy(0.5 * (grid.nodes[i] + grid.nodes[j]))[0] * sw[j]
    return [fredholm_log_det(DiscretizedKernel(grid, c * a, 1.0, ())) for c in coefficients]


def limit_law_reference(ensemble: str, s: float) -> float:
    """F_2, F_1 or F_4 ("gue", "goe", "gse") at one point s, one operator at a time.

    F_2 from the one K_Ai operator on the edge rule at s, F_1 and F_4 from
    :func:`sum_kernel_log_dets`; each min(exp(log F), 1), F_4's the mean of
    its two determinants.  :func:`gemax.airy.limit_values` must equal it bit for bit.
    """
    if ensemble == "gue":
        check_window(s)
        grid = edge_rule(s, 0.0, 1.0)
        return min(math.exp(map_blocks(fredholm_log_det, grid, airy_parts(grid.nodes_and_lower), 1.0)), 1.0)
    if ensemble == "goe":
        (minus,) = sum_kernel_log_dets(s, (1.0,))
        return min(math.exp(minus), 1.0)
    minus, plus = sum_kernel_log_dets(s, (1.0, -1.0))
    return min(0.5 * (math.exp(minus) + math.exp(plus)), 1.0)


def sample_lambda_max_dense(beta: int, n: int, count: int, seed: int) -> McRun:
    """Cross-check sampler from dense GOE/GUE matrices (beta = 1, 2 only)."""
    if beta not in (1, 2):
        raise ParameterError(f"dense sampler supports beta 1 or 2, got {beta}")
    if n < 1 or count < 1:
        raise ParameterError(f"need n >= 1 and count >= 1, got n={n}, count={count}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    out = np.empty(count)
    done = 0
    while done < count:
        m = min(_BATCH, count - done)
        if beta == 1:
            # diagonal N(0,1), off-diagonal N(0, 1/2): density e^{-(1/2) sum x^2}
            g = rng.normal(size=(m, n, n))
            mats = (g + np.swapaxes(g, 1, 2)) / 2.0
            idx = np.arange(n)
            mats[:, idx, idx] = g[:, idx, idx]
        else:
            # Hermitian with density e^{-Tr H^2}: diagonal N(0, 1/2),
            # off-diagonal real and imaginary parts N(0, 1/4) each
            re = rng.normal(size=(m, n, n), scale=0.5)
            im = rng.normal(size=(m, n, n), scale=0.5)
            g = re + 1j * im
            mats = (g + np.conj(np.swapaxes(g, 1, 2))) / math.sqrt(2.0)
            idx = np.arange(n)
            mats[:, idx, idx] = rng.normal(size=(m, n), scale=math.sqrt(0.5))
        out[done : done + m] = np.linalg.eigvalsh(mats)[:, -1]
        done += m
    out.sort()
    return McRun(beta=beta, n=n, seed=seed, samples=out, count=count)


def ks_two_sample(run_a: McRun, run_b: McRun) -> float:
    """Two-sample KS statistic between two runs."""
    data = np.concatenate([run_a.samples, run_b.samples])
    cdf_a = np.searchsorted(run_a.samples, data, side="right") / run_a.count
    cdf_b = np.searchsorted(run_b.samples, data, side="right") / run_b.count
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_1pct_two_sample(count_a: int, count_b: int) -> float:
    """1% critical value of the two-sample KS statistic: 1.63/sqrt of the harmonic N."""
    return 1.63 / math.sqrt(count_a * count_b / (count_a + count_b))


def barycentric(nodes: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, values) at x; nodes are Chebyshev points of the second kind.

    The second (true) barycentric formula with the weights (-1)^j, halved at
    the two ends (Berrut & Trefethen, SIAM Review 46, 2004), which no affine
    map of the nodes changes.  x is taken _BATCH points at a time, so the
    largest temporary is _BATCH x len(nodes).  A point on a node makes the
    formula inf/inf, and such a point, or any other whose value is not
    finite, takes the value of its nearest node.
    """
    weights = np.ones_like(nodes)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    out = np.empty_like(x)
    for start in range(0, len(x), _BATCH):
        points = x[start : start + _BATCH]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = points[:, None] - nodes
            np.divide(weights, terms, out=terms)
            chunk = terms @ values / terms.sum(axis=1)
        bad = ~np.isfinite(chunk)
        chunk[bad] = values[np.abs(points[bad, None] - nodes).argmin(axis=1)]
        out[start : start + _BATCH] = chunk
    return out


def padded_chebyshev_grid(run: McRun, points: int) -> np.ndarray:
    """The `points` Chebyshev points of the second kind on the run's padded sample range.

    Computed as :func:`gemax.mc.ks_statistic` computes its largest grid, bit for bit.
    """
    lo, hi = float(run.samples[0]), float(run.samples[-1])
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo) + pad
    return mid - half * np.cos(np.pi * np.arange(points) / (points - 1))


def ks_statistic_barycentric(run: McRun, cdf, points: int = 201) -> float:
    """Reference for `mc.ks_statistic(run, cdf, grid_points=points)`: the CDF at all
    `points` nodes of the padded grid, the samples by the barycentric formula."""
    nodes = padded_chebyshev_grid(run, points)
    values = np.clip(barycentric(nodes, np.asarray(cdf(nodes), dtype=float), run.samples), 0.0, 1.0)
    i = np.arange(1, run.count + 1)
    return float(np.max(np.maximum(i / run.count - values, values - (i - 1) / run.count)))


def standard_chop(coeffs, tol: float = 2.0**-52) -> tuple[int, str]:
    """Reference for `mc._chop`: Aurentz & Trefethen's standardChop (ACM TOMS 43, 2017) as printed.

    A line-by-line transcription of the published MATLAB, 1-based indices
    and MATLAB's round (half away from zero) included.  Returns the cutoff
    and the step that set it: "short" (n < 17), "zero" (all coefficients
    0), "no plateau", "zero plateau" (the envelope is 0 at the plateau
    point), "floor" (the envelope drops below tol^(7/6) before j2) or
    "tilt".
    """
    b = np.abs(np.asarray(coeffs, dtype=float))
    n = len(b)
    if n < 17:
        return n, "short"
    m = np.full(n, b[-1])
    for j in range(n - 2, -1, -1):
        m[j] = max(b[j], m[j + 1])
    if m[0] == 0.0:
        return 1, "zero"
    envelope = m / m[0]
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5 + 0.5)
        if j2 > n:
            return n, "no plateau"
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau_point = j - 1
            break
    if envelope[plateau_point - 1] == 0.0:
        return plateau_point, "zero plateau"
    step = "tilt"
    j3 = int(np.sum(envelope >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7.0 / 6.0)
        step = "floor"
    cc = np.log10(envelope[:j2]) + np.linspace(0.0, (-1.0 / 3.0) * math.log10(tol), j2)
    d = int(np.argmin(cc)) + 1
    return max(d - 1, 1), step


def bisection_top_eigenvalue(diag: np.ndarray, sub2: np.ndarray) -> np.ndarray:
    """Reference for `mc._top_eigenvalue`: Sturm bisection alone, down to adjacent floats.

    The same Gershgorin bracket, pivmin floor and pivot test as the sampler,
    halved until every row's midpoint rounds to an end.  The test is
    monotone in x under IEEE rounding, so the final pair of floats, and with
    it the returned midpoint, does not depend on how the bracket was narrowed.
    """
    a = np.ascontiguousarray(diag.T)
    b2 = np.ascontiguousarray(sub2.T)
    edge = np.zeros((len(a) + 1, a.shape[1]))
    np.sqrt(b2, out=edge[1:-1])
    lo, hi = a.max(axis=0), (a + edge[:-1] + edge[1:]).max(axis=0)
    b2 = np.maximum(b2, np.finfo(float).tiny * max(1.0, b2.max(initial=0.0)))
    pivots = np.empty_like(a)
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            x = 0.5 * (lo + hi)
            if not np.any((lo < x) & (x < hi)):
                return x
            np.subtract(a, x, out=pivots)
            for i in range(1, len(a)):
                pivots[i] -= b2[i - 1] / pivots[i - 1]
            below = pivots.max(axis=0) < 0.0
            hi = np.where(below, x, hi)
            lo = np.where(below, lo, x)
