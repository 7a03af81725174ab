"""The validation suite: ten numbered criteria shared by the CLI and the tests.

A criterion measures a few quantities, each a Clause with the bound it must
stay under, and returns them in a CriterionResult, which passes when every
clause does and whose detail line lists each clause's value and bound;
`run_criteria` executes a selection in order, each index once.  The
closed-form epsilon quantities live beside criterion 4, and the Edgeworth
study (:func:`edgeworth_study`, :func:`sup_errors`: one finite-n table per
ensemble and n), which the CLI reads too, beside criteria 7 and 8.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import airy, finite_n, mc
from .errors import NumericalError, ParameterError
from .special import airy as airy_fn

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Clause:
    """One checked quantity of a criterion and the bound it must stay under."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value < self.bound


@dataclass(frozen=True)
class CriterionResult:
    """A numbered criterion's clauses: it passes when every clause does."""

    index: int
    name: str
    clauses: tuple[Clause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def detail(self) -> str:
        return ", ".join(f"{c.name} {c.value:.3g} (bound {c.bound:.3g})" for c in self.clauses)

    def clause(self, name: str) -> Clause:
        return next(c for c in self.clauses if c.name == name)


def criterion_1() -> CriterionResult:
    """n=1 exactness: F_{1,2}(t) and the one-eigenvalue GSE law at u = t/sqrt2 are erf laws."""
    ts = np.linspace(-3.0, 3.0, 51)
    normal = 0.5 * (1.0 + np.array([math.erf(t) for t in ts.tolist()]))
    tables = (finite_n.cdf_values("gue", 1, ts),
              finite_n.cdf_values("gse", finite_n.gse_kernel_index(1), ts / SQRT2))
    err = max(float(np.max(np.abs(v - normal))) for v in tables)
    return CriterionResult(1, "n=1 exactness", (Clause("max err", err, 1e-8),))


def criterion_2() -> CriterionResult:
    """Determinant and exponential F_{n,2} paths agree, one table per path and n."""
    worst = 0.0
    for n in (2, 4, 9):
        edge = math.sqrt(2.0 * n)
        ts = np.linspace(edge - 4.0, edge + 2.0, 21)
        gap = finite_n.cdf_values("gue", n, ts) - finite_n.cdf_values("gue", n, ts, "exponential")
        worst = max(worst, float(np.max(np.abs(gap))))
    return CriterionResult(2, "dual-path F_n2", (Clause("max gap", worst, 1e-6),))


def _brute_2d(beta: int, t: float) -> float:
    """P(both eigenvalues <= t) at n = 2 by numpy's 80-node Gauss-Legendre rule, sharing no code with gemax.

    The weight |y - x|^beta exp(-beta (x^2 + y^2)/2) is smooth off its kink y = x: it is taken on the triangle
    y < x of [a, t]^2, a = -8, mapped to a square by y = a + (x - a) u, and doubled; 120 nodes agree within 2e-14.
    """
    nodes, weights = np.polynomial.legendre.leggauss(80)
    u, wu = 0.5 * (nodes + 1.0), 0.5 * weights

    def mass(a: float, b: float) -> float:  # the weight's integral over [a, b]^2
        x, wx = a + (b - a) * u[:, None], (b - a) * wu[:, None]
        y = a + (x - a) * u
        weight = np.abs(y - x) ** beta * np.exp(-beta * (x * x + y * y) / 2.0)
        return 2.0 * float(np.sum(wx * (x - a) * wu * weight))

    return mass(-8.0, t) / mass(-8.0, 8.0)


def criterion_3() -> CriterionResult:
    """F_{2,2} and F_{2,1} against brute-force 2-D quadrature."""
    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        worst = max(worst, abs(finite_n.f_n2(2, t) - _brute_2d(2, t)))
        worst = max(worst, abs(finite_n.f_n1(2, t) - _brute_2d(1, t)))
    return CriterionResult(3, "brute-force n=2", (Clause("max err", worst, 1e-6),))


def _on_sqrt(f, z: float, name: str) -> float:
    """f(g).real for g = sqrt(z), imaginary for z < 0; NumericalError, naming name, on overflow."""
    try:
        return f(cmath.sqrt(z)).real
    except OverflowError:
        raise NumericalError(f"{name}(sqrt({z:.6g})) overflows") from None


def cosh_sqrt(z: float) -> float:
    """cosh(sqrt(z)), entire in z (cos(sqrt(-z)) for z < 0); NumericalError from z ~ 5e5 on."""
    return _on_sqrt(cmath.cosh, z, "cosh")


def coshm1_sqrt(z: float) -> float:
    """(cosh(sqrt(z)) - 1)/z, entire in z, as sinhc_sqrt(z/4)^2 / 2, which cancels nothing.

    Raises NumericalError where the value overflows (z above about 5e5).
    """
    h = sinhc_sqrt(0.25 * z)
    value = 0.5 * h * h
    if value == math.inf:
        raise NumericalError(f"(cosh(sqrt({z:.6g})) - 1)/z overflows")
    return value


def sinhc_sqrt(z: float) -> float:
    """sinh(sqrt(z))/sqrt(z), entire in z (sin(sqrt(-z))/sqrt(-z) for z < 0); raises as cosh_sqrt."""
    return 1.0 if z == 0.0 else _on_sqrt(lambda g: cmath.sinh(g) / g, z, "sinh")


def _hyperbolic_block(a: float, b: float):
    """cosh g, sqrt(a/2b) sinh g, sqrt(b/2a) sinh g with g = sqrt(2ab).

    Through the entire functions cosh(sqrt(z)) and sinh(sqrt(z))/sqrt(z) of
    z = 2ab, a negative or vanishing product (g imaginary or zero) needs no
    branch: sqrt(a/2b) sinh sqrt(2ab) = a * sinh(sqrt(z))/sqrt(z), b alike.
    """
    z = 2.0 * a * b
    shc = sinhc_sqrt(z)
    return cosh_sqrt(z), a * shc, b * shc


def epsilon_closed(n: int, t: float) -> finite_n.EpsilonQuantities:
    """Closed-form epsilon quantities as hyperbolic functions of sqrt(2ab).

    These are soft-edge asymptotics, not finite-n identities; no CDF is
    computed from them.  The GSE set (c_psi terms) is the published one up
    to the sign of the sinh term in P_{n,4}; the GOE set up to the sign of
    the c_phi term in R_{n,1}.  Both corrections are forced by the
    first-principles path (:func:`finite_n.epsilon_numeric`) and by the
    requirement that the assembled brackets reproduce the paper's direct
    F_{n,1}/F_{n,4} formulas, which ``tests/test_finite_n.py::TestPaperBrackets`` holds.
    """
    a, b = finite_n.ab(n, t)
    return _epsilon_closed(n, a, b, *_hyperbolic_block(a, b))


def _epsilon_closed(n: int, a: float, b: float, cosh_g: float, rho_s: float,
                    r_s: float) -> finite_n.EpsilonQuantities:
    """The closed-form epsilon quantities from a(t), b(t) and their :func:`_hyperbolic_block`."""
    c_phi, c_psi = finite_n.c_constants(n)
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
    return finite_n.EpsilonQuantities(v_tilde, q_eps, p1, r1, p4, r4, c_phi, c_psi)


def criterion_4() -> CriterionResult:
    """Closed-form vs first-principles epsilon quantities (and c_psi cancellation).

    The componentwise agreement clause fails by design of the closed forms:
    they are soft-edge asymptotics, not finite-n identities (see the ledger
    and the xfail test).  The cancellation clause checks an algebraic
    identity, which holds in floating point only to rounding: its residual
    is measured relative to the size of the cancelled terms and bounded by
    a few hundred machine epsilons.
    """
    worst = 0.0
    for n, fields in ((4, ("v_tilde_eps", "q_eps", "p1", "r1")), (5, ("v_tilde_eps", "q_eps", "p4", "r4"))):
        edge = math.sqrt(2.0 * n)
        for t in np.linspace(edge - 1.0, edge + 1.0, 5):
            closed = epsilon_closed(n, float(t))
            numeric = finite_n.epsilon_numeric(n, float(t))
            for f in fields:
                c, m = getattr(closed, f), getattr(numeric, f)
                denom = max(abs(m), 1e-12)
                worst = max(worst, abs(c - m) / denom)
    cancel = max(cpsi_residual(5, t) for t in (-1.0, 0.0, 1.0))
    return CriterionResult(4, "epsilon cross-check", (
        Clause("epsilon agreement", worst, 1e-5),
        Clause("c_psi cancellation", cancel, CPSI_BOUND),
    ))


#: bound on the relative c_psi residual: about 450 machine epsilons, against
#: a worst case of about 7 epsilons over t in [-1, 1] at n = 5
CPSI_BOUND = 1e-13


def cpsi_residual(n: int, t: float) -> float:
    """Relative change of the closed GSE ratio when c_psi is dropped.

    The c_psi terms of q_eps * p4 and of r4 cancel in `f4_sq_ratio`, so the
    ratio of `epsilon_closed` must equal the ratio assembled from the
    c_psi-free closed terms p4 = sqrt(b/2a) sinh g, r4 = cosh g - 1 (same
    v_tilde_eps and q_eps) up to rounding.  The change is returned divided
    by |c_psi rho_s (1 + cosh g)/2|, the size of the cancelled terms; a
    wrong c_psi coefficient in p4 or r4 gives a relative change of order
    one.  Raises ParameterError where that size vanishes (sin g = 0 on the
    trigonometric branch, or rho_s underflowing) and the change does not.
    """
    a, b = finite_n.ab(n, t)
    block = cosh_g, rho_s, r_s = _hyperbolic_block(a, b)
    eps = _epsilon_closed(n, a, b, *block)
    zeroed = replace(eps, p4=r_s, r4=cosh_g - 1.0, c_psi=0.0)
    residual = abs(finite_n.f4_sq_ratio(eps) - finite_n.f4_sq_ratio(zeroed))
    size = abs(eps.c_psi * rho_s * 0.5 * (1.0 + cosh_g))
    if size == 0.0:
        if residual == 0.0:
            return 0.0
        raise ParameterError(f"c_psi terms vanish at n={n}, t={t}; no relative residual")
    return residual / size


#: criterion 5's sampler runs, (ensemble, n, seed), of MC_COUNT samples each
MC_CASES = (("gue", 2, 9001), ("goe", 2, 9002), ("goe", 4, 9003), ("gse", 1, 9004), ("gse", 3, 9005))
MC_COUNT = 100_000
BETA = {"goe": 1, "gue": 2, "gse": 4}  # each ensemble's sampler beta


def mc_cdf(ensemble: str, n: int):
    """The analytic CDF that n-eigenvalue samples of the ensemble are tested against.

    Checks n against that CDF's domain at once, so a caller can reject n
    before it samples: 1 <= n <= N_MAX for the GUE, the same with n even for
    the GOE, and a kernel index 2n + 1 <= N_MAX for the GSE
    (:func:`finite_n.gse_kernel_index`).  The CDF takes a float or an array
    of points (:func:`finite_n.cdf_values`).
    """
    if not isinstance(ensemble, str) or ensemble not in BETA:
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    if ensemble == "gse":
        return partial(finite_n.cdf_values, "gse", finite_n.gse_kernel_index(n))
    finite_n.check_n(n, finite_n.PARITY[ensemble])
    return partial(finite_n.cdf_values, ensemble, n)


def mc_ks(ensemble: str, n: int, count: int, seed: int) -> float:
    """KS distance of `count` seeded samples at the ensemble's BETA from its :func:`mc_cdf`.

    n is checked before any sample is drawn, and the law read on at most 201
    points (:func:`mc.ks_statistic`): the one check of `gemax mc` and criterion 5.
    """
    cdf = mc_cdf(ensemble, n)
    run = mc.sample_lambda_max(BETA[ensemble], n, count, seed)
    return mc.ks_statistic(run, cdf, grid_points=201)


def criterion_5() -> CriterionResult:
    """KS distance of seeded sampler runs against the analytic CDFs."""
    crit = mc.ks_critical_1pct(MC_COUNT)
    return CriterionResult(5, "Monte Carlo KS", tuple(
        Clause(f"{ensemble} n={n} KS", mc_ks(ensemble, n, MC_COUNT, seed), crit)
        for ensemble, n, seed in MC_CASES
    ))


def criterion_6() -> CriterionResult:
    """Airy-side identities: nu = alpha - q, Painleve II, boundary, dual paths."""
    bundles = (airy.airy_bundle(s) for s in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0))
    nu_gap = max(abs(b.nu - (b.alpha - b.q[0])) for b in bundles)
    h = 1e-3
    pii = 0.0
    for s in np.linspace(-4.0, 2.0, 13):
        qm, q0, qp = (airy.hastings_mcleod_q(float(s) + k * h) for k in (-1, 0, 1))
        pii = max(pii, abs((qm - 2 * q0 + qp) / h**2 - (s * q0 + 2 * q0**3)))
    bdry = abs(airy.hastings_mcleod_q(5.0) / airy_fn(5.0)[0] - 1.0)
    dual = abs(math.exp(airy.airy_bundle(-1.0).log_f2) - airy.f2_limit(-1.0))
    # F_1 and F_4 from their determinants against sqrt(F_2) e^{-mu/2} and
    # sqrt(F_2) cosh(mu/2), with the bundle's exponential F_2 and mu
    f1_gap = f4_gap = 0.0
    for s in (-4.0, -1.0, 2.0):
        b = airy.airy_bundle(s)
        root = math.sqrt(math.exp(b.log_f2))
        f1_gap = max(f1_gap, abs(airy.f1_limit(s) - root * math.exp(-0.5 * b.mu)))
        f4_gap = max(f4_gap, abs(airy.f4_limit(s) - root * math.cosh(0.5 * b.mu)))
    return CriterionResult(6, "Airy identities", (
        Clause("nu identity", nu_gap, 1e-8),
        Clause("Painleve II", pii, 1e-4),
        Clause("boundary", bdry, 1e-4),
        Clause("F2 dual path", dual, 1e-7),
        Clause("F1 dual path", f1_gap, 1e-12),
        Clause("F4 dual path", f4_gap, 1e-12),
    ))


def _fit_exponent(ns, errs) -> float:
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_e = np.log(np.asarray(errs, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_e, 1)
    return float(slope)


#: each ensemble's expansion of F_{n,2}(tau), F_{n,1}(tau)^2 or F_{n,4}(tau/sqrt2)^2:
#: (its name in airy, looked up per call so that a wrapped or patched expansion
#: is the one called, the divisor of tau, the power of the finite-n law)
EXPANSIONS = {"gue": ("edgeworth_f2", 1.0, 1), "goe": ("edgeworth_f1_sq", 1.0, 2),
              "gse": ("edgeworth_f4_sq", SQRT2, 2)}


def edgeworth_study(ensemble: str, n: int, c: float, s):
    """The finite-n truths at tau(n, c, s) and the ensemble's EdgeworthResults there.

    s is read as a grid, a float as a grid of one: an array of truths, one
    :func:`finite_n.cdf_values` table (one recurrence pass; one operator for
    a grid of one), and a list of results.  Checks the ensemble and n
    first, then every s against the Airy window, then c: ParameterError,
    naming c, where tau passes finite_n.T_MAX.
    """
    if not isinstance(ensemble, str) or ensemble not in EXPANSIONS:
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    finite_n.check_n(n, finite_n.PARITY[ensemble])
    name, divisor, power = EXPANSIONS[ensemble]
    expansion = getattr(airy, name)
    grid = np.atleast_1d(np.asarray(s, dtype=object)).tolist()
    for v in grid:
        airy.check_window(v)
    grid = [float(v) for v in grid]
    tau = np.array([airy.tau(n, c, v) for v in grid])
    if np.max(tau, initial=-math.inf) > finite_n.T_MAX:
        raise ParameterError(f"need c with tau(n, c, s) <= {finite_n.T_MAX:g}, got n={n}, c={c}")
    results = [expansion(n, c, v) for v in grid]
    return finite_n.cdf_values(ensemble, n, tau / divisor) ** power, results


def edgeworth_comparison(ensemble: str, n: int, c: float, s: float):
    """(finite-n truth, leading, combined) for one expansion point: :func:`edgeworth_study` on a grid of one."""
    (truth,), (r,) = edgeworth_study(ensemble, n, c, [s])
    return float(truth), r.leading, r.combined


def sup_errors(ensemble: str, ns, c: float, s_grid) -> np.ndarray:
    """Per n of ns, the sup over s_grid of |truth - leading| and of |truth - combined|.

    Shape (len(ns), 2), one :func:`edgeworth_study` per n: column 0 is the
    error of the limit law (the leading term), column 1 that of the expansion.
    """
    rows = []
    for n in ns:
        truth, results = edgeworth_study(ensemble, n, c, s_grid)
        refs = np.array([(r.leading, r.combined) for r in results]).reshape(-1, 2)
        rows.append(np.max(np.abs(truth[:, None] - refs), axis=0, initial=0.0))
    return np.array(rows).reshape(-1, 2)


def criterion_7() -> CriterionResult:
    """GUE convergence-rate exponents toward the Tracy-Widom limit: -2/3 at c = 0, -1/3 at c = 1."""
    ns = (20, 40, 80, 160)
    s_grid = np.linspace(-3.0, 1.0, 9)
    rate0, rate1 = (_fit_exponent(ns, sup_errors("gue", ns, c, s_grid)[:, 0]) for c in (0.0, 1.0))
    return CriterionResult(7, "GUE convergence rates", (
        Clause("|c=0 rate + 0.67|", abs(rate0 + 0.67), 0.2),
        Clause("|c=1 rate + 0.33|", abs(rate1 + 0.33), 0.15),
    ))


def criterion_8() -> CriterionResult:
    """Edgeworth improvement over the leading term, plus the GUE error rate.

    One clause per ensemble (worst |combined - truth| / |leading - truth| over
    s, bound 1) and one for the rate (distance from -1, bound 0.4).
    The GSE clause fails: the printed symplectic expansion misses a genuine
    O(n^{-1/3}) contribution at c = 0 (see the ledger), so its combined form
    cannot beat the leading term.
    """
    s_grid = (-2.0, -1.0, 0.0)
    clauses = []
    for ensemble, n in (("gue", 100), ("goe", 100), ("gse", 101)):
        truth, results = edgeworth_study(ensemble, n, 0.0, s_grid)
        ratios = [abs(r.combined - t) / abs(r.leading - t) if r.leading != t else math.inf
                  for t, r in zip(truth.tolist(), results)]
        clauses.append(Clause(f"{ensemble} improvement", float(np.max(ratios)), 1.0))
    rate = _fit_exponent((40, 160), sup_errors("gue", (40, 160), 0.0, s_grid)[:, 1])
    clauses.append(Clause("GUE rate", abs(rate + 1.0), 0.4))
    return CriterionResult(8, "Edgeworth improvement", tuple(clauses))


#: a CDF table starts below LEFT_TOL, ends above 1 - RIGHT_TOL and steps down
#: by less than MONO_TOL, the slack for rounding and deep-tail noise: the
#: largest drop over criterion 9's 15 tables is 7.8e-16, since far left of the
#: edge a refused operator reads 0.0, and tests/test_finite_n.py::TestCdfContract
#: holds every finite-n law to MONO_TOL over its whole domain
LEFT_TOL, RIGHT_TOL, MONO_TOL = 1e-3, 1e-6, 1e-6


def _cdf_axioms(values) -> tuple[float, float, float]:
    """(largest drop between neighbours, first value, 1 - last value) of a CDF table."""
    v = np.asarray(values, dtype=float)
    return float(np.max(-np.diff(v))), float(v[0]), float(1.0 - v[-1])


def criterion_9() -> CriterionResult:
    """CDF axioms for every exposed distribution, each clause the worst over 15 tables."""
    tables = []
    # one array call per finite-n grid; the GSE grid is in u at kernel index 2n + 1
    for ensemble, ns, steps in (("gue", range(1, 7), 201), ("goe", (2, 4, 6), 101),
                                ("gse", (1, 3, 5), 101)):
        for n in ns:
            kernel = finite_n.gse_kernel_index(n) if ensemble == "gse" else n
            grid = np.linspace(-2.0 * math.sqrt(kernel) - 2.0, math.sqrt(2.0 * kernel) + 4.0, steps)
            x = grid / SQRT2 if ensemble == "gse" else grid
            tables.append(_cdf_axioms(finite_n.cdf_values(ensemble, kernel, x)))
    s_grid = np.linspace(-8.0, 7.9, 101)
    for ensemble in ("gue", "goe", "gse"):
        tables.append(_cdf_axioms(airy.limit_values(ensemble, s_grid)))
    drop, first, last = np.max(tables, axis=0)  # a NaN anywhere fails its clause
    return CriterionResult(9, "CDF axioms", (
        Clause("largest drop", drop, MONO_TOL),
        Clause("first value", first, LEFT_TOL),
        Clause("1 - last value", last, RIGHT_TOL),
    ))


def criterion_10() -> CriterionResult:
    """Byte-identical CLI output for repeated mc and tabulate runs."""
    from . import cli

    def run(argv) -> bytes:
        buf = io.StringIO()
        cli.main(argv, stdout=buf)
        return buf.getvalue().encode()

    mc_args = ["mc", "--ensemble", "gue", "--n", "2", "--samples", "2000", "--seed", "7"]
    tab_args = [
        "tabulate", "--ensemble", "gue", "--n", "2",
        "--t-min", "-2", "--t-max", "2", "--steps", "9",
    ]
    differing = sum(run(argv) != run(argv) for argv in (mc_args, tab_args))
    return CriterionResult(10, "determinism", (Clause("differing outputs", differing, 1),))


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_criteria(indices=None):
    """Run the selected criteria (all for None) and return their results; an empty selection is refused."""
    chosen = sorted(CRITERIA if indices is None else indices)
    if not chosen:
        raise ParameterError(f"need at least one criterion, choose from 1-{len(CRITERIA)}")
    unknown = set(chosen) - set(CRITERIA)
    if unknown:
        raise ParameterError(f"unknown criteria {sorted(unknown)}, choose from 1-{len(CRITERIA)}")
    repeated = sorted({i for i in chosen if chosen.count(i) > 1})
    if repeated:
        raise ParameterError(f"criteria {repeated} repeated, each runs once")
    return [CRITERIA[i]() for i in chosen]
