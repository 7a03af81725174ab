"""The validation suite: ten numbered criteria shared by the CLI and the tests.

Each criterion returns a CriterionResult with a pass flag and a short
detail string, and optionally per-clause numbers (measured value, bound,
pass); `run_criteria` executes a selection in order.  Tolerances scale
with `tolerance_scale` so the CLI can force failure paths.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import airy, finite_n, mc
from .errors import ParameterError
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
    index: int
    name: str
    passed: bool
    detail: str
    clauses: tuple[Clause, ...] = ()

    def clause(self, name: str) -> Clause:
        return next(c for c in self.clauses if c.name == name)


def _normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t))


def criterion_1(scale: float = 1.0) -> CriterionResult:
    """n=1 exactness: both one-eigenvalue laws reduce to the error function."""
    tol = 1e-8 * scale
    ts = np.linspace(-3.0, 3.0, 51)
    err2 = max(abs(finite_n.f_n2(1, float(t)) - _normal_cdf(float(t))) for t in ts)
    err4 = max(
        abs(finite_n.gse_largest_cdf(1, float(t) / SQRT2) - _normal_cdf(float(t)))
        for t in ts
    )
    worst = max(err2, err4)
    return CriterionResult(1, "n=1 exactness", worst < tol, f"max err {worst:.2e} (tol {tol:.1e})")


def criterion_2(scale: float = 1.0) -> CriterionResult:
    """Determinant and exponential F_{n,2} paths agree."""
    tol = 1e-6 * scale
    worst = 0.0
    for n in (2, 4, 9):
        edge = math.sqrt(2.0 * n)
        for t in np.linspace(edge - 4.0, edge + 2.0, 21):
            d = finite_n.f_n2(n, float(t), "determinant")
            e = finite_n.f_n2(n, float(t), "exponential")
            worst = max(worst, abs(d - e))
    return CriterionResult(2, "dual-path F_n2", worst < tol, f"max gap {worst:.2e} (tol {tol:.1e})")


def _brute_2d(beta: int, t: float) -> float:
    from scipy import integrate

    def weight(y, x):
        return abs(y - x) ** beta * math.exp(-beta * (x * x + y * y) / 2.0)

    num, _ = integrate.dblquad(weight, -8.0, t, -8.0, t, epsabs=1e-12)
    den, _ = integrate.dblquad(weight, -8.0, 8.0, -8.0, 8.0, epsabs=1e-12)
    return num / den


def criterion_3(scale: float = 1.0) -> CriterionResult:
    """F_{2,2} and F_{2,1} against brute-force 2-D quadrature."""
    tol = 1e-6 * scale
    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        worst = max(worst, abs(finite_n.f_n2(2, t) - _brute_2d(2, t)))
        worst = max(worst, abs(finite_n.f_n1(2, t) - _brute_2d(1, t)))
    return CriterionResult(3, "brute-force n=2", worst < tol, f"max err {worst:.2e} (tol {tol:.1e})")


def criterion_4(scale: float = 1.0) -> CriterionResult:
    """Closed-form vs first-principles epsilon quantities (and c_psi cancellation).

    The componentwise agreement clause fails by design of the closed forms:
    they are soft-edge asymptotics, not finite-n identities (see the ledger
    and the xfail test).  The cancellation clause checks an algebraic
    identity, which holds in floating point only to rounding: its residual
    is measured relative to the size of the cancelled terms and bounded by
    a few hundred machine epsilons.
    """
    tol = 1e-5 * scale
    worst = 0.0
    for n, fields in ((4, ("v_tilde_eps", "q_eps", "p1", "r1")), (5, ("v_tilde_eps", "q_eps", "p4", "r4"))):
        edge = math.sqrt(2.0 * n)
        for t in np.linspace(edge - 1.0, edge + 1.0, 5):
            closed = finite_n.epsilon_closed(n, float(t))
            numeric = finite_n.epsilon_numeric(n, float(t))
            for f in fields:
                c, m = getattr(closed, f), getattr(numeric, f)
                denom = max(abs(m), 1e-12)
                worst = max(worst, abs(c - m) / denom)
    cancel = max(cpsi_residual(5, t) for t in (-1.0, 0.0, 1.0))
    bound = CPSI_BOUND * scale
    clauses = (
        Clause("epsilon agreement", worst, tol),
        Clause("c_psi cancellation", cancel, bound),
    )
    return CriterionResult(
        4,
        "epsilon cross-check",
        all(c.passed for c in clauses),
        f"max rel gap {worst:.2e} (tol {tol:.1e}), c_psi rel residual {cancel:.2e} (tol {bound:.1e})",
        clauses,
    )


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
    eps = finite_n._epsilon_closed(n, a, b)
    cosh_g, rho_s, r_s = finite_n._hyperbolic_block(a, b)
    zeroed = replace(eps, p4=r_s, r4=cosh_g - 1.0, c_psi=0.0)
    residual = abs(finite_n.f4_sq_ratio(eps) - finite_n.f4_sq_ratio(zeroed))
    size = abs(eps.c_psi * rho_s * 0.5 * (1.0 + cosh_g))
    if size == 0.0:
        if residual == 0.0:
            return 0.0
        raise ParameterError(f"c_psi terms vanish at n={n}, t={t}; no relative residual")
    return residual / size


MC_CASES = (
    ("gue", 2, 2, 9001),
    ("goe", 1, 2, 9002),
    ("goe", 1, 4, 9003),
    ("gse", 4, 1, 9004),
    ("gse", 4, 3, 9005),
)
MC_COUNT = 100_000  # samples per MC_CASES run


def mc_cdf(ensemble: str, n: int):
    """The analytic CDF that n-eigenvalue samples of the ensemble are tested against.

    Checks n against that CDF's domain at once, so a caller can reject n
    before it samples: 1 <= n <= N_MAX for the GUE, the same with n even for
    the GOE, and a kernel index 2n + 1 <= N_MAX for the GSE.  The CDF takes
    a float or an array of points (:func:`finite_n.cdf_values`).
    """
    if ensemble == "gse":
        top = (finite_n.N_MAX - 1) // 2
        if not 1 <= n <= top:
            raise ParameterError(
                f"need 1 <= n <= {top} (kernel index 2n + 1 <= {finite_n.N_MAX}), got {n}"
            )
        return partial(finite_n.cdf_values, "gse", 2 * n + 1)
    if ensemble not in ("gue", "goe"):
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    finite_n._check_n(n, finite_n.PARITY[ensemble])
    return partial(finite_n.cdf_values, ensemble, n)


def criterion_5(scale: float = 1.0) -> CriterionResult:
    """KS distance of seeded sampler runs against the analytic CDFs."""
    details = []
    ok = True
    crit = mc.ks_critical_1pct(MC_COUNT) * scale
    for ensemble, beta, n, seed in MC_CASES:
        run = mc.sample_lambda_max(beta, n, MC_COUNT, seed)
        ks = mc.ks_statistic(run, mc_cdf(ensemble, n), grid_points=201)
        ok = ok and ks < crit
        details.append(f"{ensemble} n={n}: {ks:.4f}")
    return CriterionResult(5, "Monte Carlo KS", ok, f"crit {crit:.4f}; " + ", ".join(details))


def criterion_6(scale: float = 1.0) -> CriterionResult:
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
    clauses = (
        Clause("nu identity", nu_gap, 1e-8 * scale),
        Clause("Painleve II", pii, 1e-4 * scale),
        Clause("boundary", bdry, 1e-4 * scale),
        Clause("F2 dual path", dual, 1e-7 * scale),
        Clause("F1 dual path", f1_gap, 1e-12 * scale),
        Clause("F4 dual path", f4_gap, 1e-12 * scale),
    )
    return CriterionResult(
        6,
        "Airy identities",
        all(c.passed for c in clauses),
        "nu {:.1e}, PII {:.1e}, boundary {:.1e}, dual {:.1e}, F1 dual {:.1e}, F4 dual {:.1e}".format(
            *(c.value for c in clauses)
        ),
        clauses,
    )


def _gue_sup_error(n: int, c: float, s_grid) -> float:
    worst = 0.0
    for s in s_grid:
        t = airy.tau(n, c, float(s))
        truth = finite_n.f_n2(n, t)
        worst = max(worst, abs(truth - airy.f2_limit(float(s))))
    return worst


def _fit_exponent(ns, errs) -> float:
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_e = np.log(np.asarray(errs, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_e, 1)
    return float(slope)


def criterion_7(scale: float = 1.0) -> CriterionResult:
    """GUE convergence-rate exponents toward the Tracy-Widom limit."""
    ns = (20, 40, 80, 160)
    s_grid = np.linspace(-3.0, 1.0, 9)
    rate0 = _fit_exponent(ns, [_gue_sup_error(n, 0.0, s_grid) for n in ns])
    rate1 = _fit_exponent(ns, [_gue_sup_error(n, 1.0, s_grid) for n in ns])
    lo0, hi0 = -0.67 - 0.2 * scale, -0.67 + 0.2 * scale
    lo1, hi1 = -0.33 - 0.15 * scale, -0.33 + 0.15 * scale
    ok = lo0 <= rate0 <= hi0 and lo1 <= rate1 <= hi1
    return CriterionResult(
        7, "GUE convergence rates", ok, f"c=0 rate {rate0:.3f}, c=1 rate {rate1:.3f}"
    )


def edgeworth_comparison(ensemble: str, n: int, c: float, s: float):
    """(finite-n truth, leading, combined) for one expansion point."""
    truth, r = _edgeworth_point(ensemble, n, c, s)
    return truth, r.leading, r.combined


def _edgeworth_point(ensemble: str, n: int, c: float, s: float):
    """(finite-n truth, the ensemble's EdgeworthResult) for one expansion point."""
    if ensemble == "gue":
        truth = finite_n.f_n2(n, airy.tau(n, c, s))
        r = airy.edgeworth_f2(n, c, s)
    elif ensemble == "goe":
        truth = finite_n.f_n1(n, airy.tau(n, c, s)) ** 2
        r = airy.edgeworth_f1_sq(n, c, s)
    elif ensemble == "gse":
        truth = finite_n.f_n4(n, airy.tau(n, c, s) / SQRT2) ** 2
        r = airy.edgeworth_f4_sq(n, c, s)
    else:
        raise ParameterError(f"unknown ensemble {ensemble!r}")
    return truth, r


def criterion_8(scale: float = 1.0) -> CriterionResult:
    """Edgeworth improvement over the leading term, plus the GUE error rate.

    One clause per ensemble (worst |combined - truth| / |leading - truth| over
    s, bound ``scale``) and one for the rate (distance from -1, bound 0.4).
    The GSE clause fails: the printed symplectic expansion misses a genuine
    O(n^{-1/3}) contribution at c = 0 (see the ledger), so its combined form
    cannot beat the leading term.
    """
    details = []
    clauses = []
    for ensemble, n in (("gue", 100), ("goe", 100), ("gse", 101)):
        ratios = []
        for s in (-2.0, -1.0, 0.0):
            truth, leading, combined = edgeworth_comparison(ensemble, n, 0.0, s)
            gap = abs(leading - truth)
            ratios.append(abs(combined - truth) / gap if gap > 0.0 else math.inf)
            if not ratios[-1] < scale:
                details.append(f"{ensemble} s={s:g} not improved")
        clauses.append(Clause(f"{ensemble} improvement", float(np.max(ratios)), scale))
    errs = []
    for n in (40, 160):
        worst = 0.0
        for s in (-2.0, -1.0, 0.0):
            truth, _, combined = edgeworth_comparison("gue", n, 0.0, s)
            worst = max(worst, abs(combined - truth))
        errs.append(worst)
    rate = _fit_exponent((40, 160), errs)
    clauses.append(Clause("GUE rate", abs(rate + 1.0), 0.4))
    details.append(f"GUE 2nd-order rate {rate:.3f}")
    ok = all(c.passed for c in clauses)
    return CriterionResult(8, "Edgeworth improvement", ok, "; ".join(details), tuple(clauses))


#: a CDF table starts below LEFT_TOL, ends above 1 - RIGHT_TOL and steps down
#: by less than MONO_TOL, the slack for deep-tail noise: on criterion 9's grids
#: (kernel index <= 7) a step drops by up to 8.4e-8, but far left of the edge
#: at large n a value reads up to 0.88 where the truth is below 1e-80
#: (tests/test_finite_n.py::TestFn2::test_far_left_tail_is_small)
LEFT_TOL, RIGHT_TOL, MONO_TOL = 1e-3, 1e-6, 1e-6


def _cdf_axioms(values) -> bool:
    v = np.asarray(values)
    return bool(np.all(np.diff(v) > -MONO_TOL)) and v[0] < LEFT_TOL and v[-1] > 1.0 - RIGHT_TOL


def criterion_9(scale: float = 1.0) -> CriterionResult:
    """CDF axioms for every exposed distribution."""
    failures = []
    # one array call per finite-n grid; the GSE grid is in u at kernel index 2n + 1
    for ensemble, ns, steps in (("gue", range(1, 7), 201), ("goe", (2, 4, 6), 101),
                                ("gse", (1, 3, 5), 101)):
        for n in ns:
            kernel = 2 * n + 1 if ensemble == "gse" else n
            grid = np.linspace(-2.0 * math.sqrt(kernel) - 2.0, math.sqrt(2.0 * kernel) + 4.0, steps)
            x = grid / SQRT2 if ensemble == "gse" else grid
            if not _cdf_axioms(finite_n.cdf_values(ensemble, kernel, x)):
                failures.append(f"{ensemble} n={n}")
    s_grid = np.linspace(-8.0, 7.9, 101)
    for name, fn in (
        ("F2", airy.f2_limit),
        ("F1", airy.f1_limit),
        ("F4", airy.f4_limit),
    ):
        if not _cdf_axioms([fn(float(s)) for s in s_grid]):
            failures.append(f"limit {name}")
    ok = not failures
    return CriterionResult(9, "CDF axioms", ok, "all pass" if ok else ", ".join(failures))


def criterion_10(scale: float = 1.0) -> CriterionResult:
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
    ok = run(mc_args) == run(mc_args) and run(tab_args) == run(tab_args)
    return CriterionResult(10, "determinism", ok, "byte-identical" if ok else "outputs differ")


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


def run_criteria(indices=None, tolerance_scale: float = 1.0):
    """Run the selected criteria (all by default) and return their results."""
    chosen = sorted(indices) if indices else sorted(CRITERIA)
    unknown = set(chosen) - set(CRITERIA)
    if unknown:
        raise ParameterError(f"unknown criteria {sorted(unknown)}, choose from 1-{len(CRITERIA)}")
    return [CRITERIA[i](tolerance_scale) for i in chosen]
