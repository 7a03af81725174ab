"""The four workloads: seeded inputs, the timed operations and their checks.

Each workload makes a list of operations from a numpy Generator.  An
operation's ``call`` is what the timed loop runs; its ``check`` runs after
the loop and compares the output with the oracles in :mod:`oracles` and with
properties every CDF has.  A check raises :class:`Mismatch`; the operation
then counts as failed.

The program is driven only through ``gemax.cli.main`` with an in-memory
stream and through the public functions of ``airy``, ``mc`` and
``acceptance`` (which reach ``finite_n``), always looked up on the module so
a traced run sees them.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gemax import acceptance, airy, cli, mc

from . import oracles

SQRT2 = math.sqrt(2.0)

#: absolute tolerances against the oracles; the README gives the reasons
TOL_GUE = 1e-11
TOL_PFAFFIAN = 2e-9
TOL_TW = 1e-11
#: second-order Edgeworth error of the GUE: seen up to 0.15/n for c <= 1
EDGEWORTH_GUE_C = 0.5
#: monotonicity slack of the program's criterion 9 for deep-tail noise
MONOTONE_SLACK = 1e-6
#: the KS statistic of a correct sampler exceeds 3.27/sqrt(N) with probability
#: about 1e-9; the 1% value 1.63/sqrt(N) would fail one operation in a hundred
KS_STRICT = 3.27
#: the program's 201-point interpolated KS against the oracle's own KS
TOL_KS = 1e-5


class Mismatch(Exception):
    """An output is outside its tolerance or breaks a CDF property."""


class Checker:
    """Runs comparisons and keeps the largest absolute error seen."""

    def __init__(self):
        self.worst = 0.0

    def near(self, value: float, reference: float, tol: float, what: str) -> None:
        """value approximates reference; its error counts toward the accuracy figure."""
        self.worst = max(self.worst, abs(value - reference))
        self.within(value, reference, tol, what)

    @staticmethod
    def within(value: float, reference: float, bound: float, what: str) -> None:
        """value is within bound of reference, e.g. a truncation error; not an accuracy."""
        if not abs(value - reference) <= bound:
            raise Mismatch(f"{what}: {value!r} vs reference {reference!r} (bound {bound:g})")

    @staticmethod
    def cdf_table(values, what: str) -> None:
        v = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise Mismatch(f"{what}: value outside [0, 1]")
        if v.size > 1 and np.diff(v).min() < -MONOTONE_SLACK:
            raise Mismatch(f"{what}: not monotone within {MONOTONE_SLACK:g}")

    @staticmethod
    def finite(value: float, what: str) -> None:
        if not math.isfinite(value):
            raise Mismatch(f"{what}: {value!r} is not finite")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, Checker], None]


def gemax_json(*argv: str) -> list[dict]:
    """Run one gemax command in-process and return its JSON rows."""
    out = io.StringIO()
    code = cli.main([*argv, "--format", "json"], stdout=out)
    if code != 0:
        raise RuntimeError(f"gemax {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())["rows"]


def _subset(rng: np.random.Generator, size: int, keep: int) -> list[int]:
    """A seeded choice of `keep` row indices out of `size`, ascending."""
    return sorted(rng.choice(size, size=min(keep, size), replace=False).tolist())


def finite_n_oracle(ensemble: str, n: int, x: float) -> tuple[float, float]:
    """(reference value, tolerance) of the finite-n CDF at x (u for the GSE)."""
    if ensemble == "gue":
        return oracles.gue_cdf(n, x), TOL_GUE
    if ensemble == "goe":
        return oracles.goe_cdf(n, x), TOL_PFAFFIAN
    return oracles.gse_cdf(n, x), TOL_PFAFFIAN


class Workload:
    name = ""
    #: seconds of --seconds charged per round: a run of S seconds makes
    #: round(S / round_seconds) rounds, so the count never depends on timing
    round_seconds = 1.0
    #: set-ups per run whose median is setup_s: the run's own and fresh interpreters'
    setup_samples = 5

    def warm_up(self) -> None:
        raise NotImplementedError

    def plan(self, rng: np.random.Generator, rounds: int) -> list[Op]:
        raise NotImplementedError


class FiniteTables(Workload):
    """`gemax tabulate` tables at fixed kernel indices, windows from the seed."""

    name = "finite_tables"
    # a round takes about 6 s on a 2-core x86 machine; charging 5 s makes 3 rounds at
    # S = 15, because with 2 rounds the wall time of ten runs spread by up to 25%
    round_seconds = 5.0
    setup_samples = 3  # each set-up takes about 5 s, mostly deterministic work
    INDICES = {"gue": (4, 40, 400), "goe": (4, 40, 400), "gse": (5, 41, 399)}
    EXPONENTIAL = (4, 40)
    STEPS = {"gue": 41, "goe": 11, "gse": 11, "exponential": 9}
    #: tables at n >= LARGE_N check this many seeded points against the oracle, others every point
    LARGE_N, LARGE_N_CHECKED = 200, 3

    @staticmethod
    def _edge(ensemble: str, n: int) -> float:
        # the GSE table is in u = t / sqrt(2)
        return math.sqrt(n) if ensemble == "gse" else math.sqrt(2.0 * n)

    def warm_up(self) -> None:
        for ensemble, ns in self.INDICES.items():
            for n in ns:
                t = self._edge(ensemble, n) + 0.318309886
                gemax_json("tabulate", "--ensemble", ensemble, "--n", str(n),
                           "--t-min", repr(t), "--t-max", repr(t + 1.0), "--steps", "1")
        for n in self.EXPONENTIAL:
            t = self._edge("gue", n) - 0.318309886
            gemax_json("tabulate", "--n", str(n), "--t-min", repr(t), "--t-max", repr(t + 1.0),
                       "--steps", "1", "--method", "exponential")

    def _table(self, rng, ensemble: str, n: int, method: str) -> Op:
        edge = self._edge(ensemble, n)
        if ensemble == "gse":
            lo, hi = edge - rng.uniform(2.5, 3.2), edge + rng.uniform(1.0, 1.8)
        elif method == "exponential":
            # far left of the edge the exponential path overflows (n=40, t=-2 raises)
            lo, hi = edge - rng.uniform(3.0, 4.0), edge + rng.uniform(1.0, 2.5)
        else:
            lo, hi = edge - rng.uniform(3.5, 4.7), edge + rng.uniform(1.5, 2.7)
        steps = self.STEPS["exponential" if method == "exponential" else ensemble]
        argv = ("tabulate", "--ensemble", ensemble, "--n", str(n), "--t-min", repr(lo),
                "--t-max", repr(hi), "--steps", str(steps), "--method", method)
        checked = (_subset(rng, steps, self.LARGE_N_CHECKED) if n >= self.LARGE_N
                   else list(range(steps)))
        label = f"tabulate {ensemble} n={n} {method} [{lo:.3f}, {hi:.3f}]"

        def check(rows, chk: Checker) -> None:
            xs = np.linspace(lo, hi, steps)
            if len(rows) != steps or any(r["t"] != float(x) for r, x in zip(rows, xs)):
                raise Mismatch(f"{label}: wrong abscissae")
            chk.cdf_table([r["F"] for r in rows], label)
            for i in checked:
                ref, tol = finite_n_oracle(ensemble, n, float(xs[i]))
                chk.near(rows[i]["F"], ref, tol, f"{label} at {xs[i]!r}")

        return Op(label, lambda: gemax_json(*argv), check)

    def plan(self, rng, rounds):
        ops = []
        for r in range(rounds):
            ops += [self._table(rng, "gue", n, "determinant") for n in self.INDICES["gue"]]
            ops.append(self._table(rng, "gue", self.EXPONENTIAL[r % 2], "exponential"))
            ops += [self._table(rng, "goe", n, "determinant") for n in self.INDICES["goe"]]
            ops += [self._table(rng, "gse", n, "determinant") for n in self.INDICES["gse"]]
        return ops


def _edgeworth_leading_reference(ensemble: str, s: float) -> float:
    f1, f2, f4 = oracles.tw_cdfs(s)
    return {"gue": f2, "goe": f1 * f1, "gse": f4 * f4}[ensemble]


class NSweep(Workload):
    """`acceptance.edgeworth_comparison` over many fresh kernel indices on a shared s-grid."""

    name = "n_sweep"
    round_seconds = 3.5
    LOW, HIGH = 34, 400  # below 34 every index shares the 200-node outer rule
    PER_ROUND = 4
    S_POINTS = 4

    def warm_up(self) -> None:
        for ensemble, n in (("gue", 2), ("goe", 2), ("gse", 3)):
            acceptance.edgeworth_comparison(ensemble, n, 0.0, -1.2345678)

    def indices(self, rng, count: int) -> list[int]:
        """One index per equal stratum of [LOW, HIGH], none of finite_tables' indices."""
        taken = {n for ns in FiniteTables.INDICES.values() for n in ns}
        edges = np.linspace(self.LOW, self.HIGH + 1, count + 1)
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            pool = [n for n in range(math.ceil(a), math.ceil(b)) if n not in taken]
            out.append(int(rng.choice(pool)))
        return out

    def plan(self, rng, rounds):
        # a shared s-grid, one point per quarter of [-3, 1], as `convergence` shares one
        quarters = np.linspace(-3.0, 1.0, self.S_POINTS + 1)
        s_grid = [float(rng.uniform(a, b)) for a, b in zip(quarters[:-1], quarters[1:])]
        ops = []
        for n in self.indices(rng, rounds * self.PER_ROUND):
            c = float(rng.choice((0.0, 0.5, 1.0)))
            parity = "goe" if n % 2 == 0 else "gse"
            checked = int(rng.integers(self.S_POINTS))
            for ensemble in ("gue", parity):
                for i, s in enumerate(s_grid):
                    ops.append(self._point(ensemble, n, c, s, ensemble == "gue" or i == checked))
        return ops

    @staticmethod
    def _point(ensemble: str, n: int, c: float, s: float, against_oracle: bool) -> Op:
        label = f"edgeworth_comparison {ensemble} n={n} c={c} s={s:.4f}"

        def check(out, chk: Checker) -> None:
            truth, leading, combined = out
            chk.cdf_table([truth], label + " truth")
            chk.cdf_table([leading], label + " leading")
            chk.finite(combined, label + " combined")
            chk.near(leading, _edgeworth_leading_reference(ensemble, s), TOL_TW, label + " leading")
            if not against_oracle:
                return
            t = airy.tau(n, c, s)
            if ensemble == "gue":
                gram = oracles.gue_cdf(n, t)
                chk.near(truth, gram, TOL_GUE, label + " truth")
                chk.within(combined, gram, EDGEWORTH_GUE_C / n, label + " combined")
            else:
                ref, tol = finite_n_oracle(ensemble, n, t if ensemble == "goe" else t / SQRT2)
                chk.near(truth, ref * ref, 2.0 * tol, label + " truth")

        return Op(label, lambda: acceptance.edgeworth_comparison(ensemble, n, c, s), check)


class AiryLaws(Workload):
    """`gemax limit` tables of F1, F2, F4 and the three Edgeworth expansions."""

    name = "airy_laws"
    round_seconds = 1.7
    LIMIT_STEPS = 8
    EDGEWORTH_POINTS = 4

    def warm_up(self) -> None:
        for ensemble in ("goe", "gue", "gse"):
            gemax_json("limit", "--ensemble", ensemble, "--s-min", "0.6180339887",
                       "--s-max", "1.6180339887", "--steps", "1")
        for expansion in (airy.edgeworth_f2, airy.edgeworth_f1_sq, airy.edgeworth_f4_sq):
            expansion(50, 0.0, 0.6180339887)

    @classmethod
    def _limit(cls, ensemble: str, lo: float, hi: float) -> Op:
        argv = ("limit", "--ensemble", ensemble, "--s-min", repr(lo), "--s-max", repr(hi),
                "--steps", str(cls.LIMIT_STEPS))
        label = f"limit {ensemble} [{lo:.3f}, {hi:.3f}]"
        column = {"goe": 0, "gue": 1, "gse": 2}[ensemble]

        def check(rows, chk: Checker) -> None:
            ss = np.linspace(lo, hi, cls.LIMIT_STEPS)
            if len(rows) != cls.LIMIT_STEPS or any(r["s"] != float(x) for r, x in zip(rows, ss)):
                raise Mismatch(f"{label}: wrong abscissae")
            chk.cdf_table([r["F"] for r in rows], label)
            for r in rows:
                chk.near(r["F"], oracles.tw_cdfs(r["s"])[column], TOL_TW, f"{label} at {r['s']!r}")

        return Op(label, lambda: gemax_json(*argv), check)

    @staticmethod
    def _expansion(ensemble: str, n: int, c: float, s: float) -> Op:
        fn = {"gue": "edgeworth_f2", "goe": "edgeworth_f1_sq", "gse": "edgeworth_f4_sq"}[ensemble]
        label = f"{fn} n={n} c={c} s={s:.4f}"

        def check(r, chk: Checker) -> None:
            for term in (r.leading, r.order_one_third, r.order_two_thirds, r.combined):
                chk.finite(term, label)
            chk.near(r.leading, _edgeworth_leading_reference(ensemble, s), TOL_TW, label + " leading")
            if ensemble == "gue":
                chk.within(r.combined, oracles.gue_cdf(n, airy.tau(n, c, s)), EDGEWORTH_GUE_C / n,
                         label + " combined")

        return Op(label, lambda: getattr(airy, fn)(n, c, s), check)

    def plan(self, rng, rounds):
        ops = []
        for _ in range(rounds):
            lo, hi = -8.0 + rng.uniform(0.0, 0.5), 6.0 - rng.uniform(0.0, 0.5)
            ops += [self._limit(ensemble, lo, hi) for ensemble in ("goe", "gue", "gse")]
            for _ in range(self.EDGEWORTH_POINTS):
                s = float(rng.uniform(-3.0, 1.5))
                n, c = int(rng.integers(20, 401)), float(rng.choice((0.0, 0.5, 1.0)))
                ops += [self._expansion(e, n, c, s) for e in ("gue", "goe", "gse")]
        return ops


class McKs(Workload):
    """The `gemax mc` pipeline for beta = 1, 2, 4: sampler, then the 201-point KS."""

    name = "mc_ks"
    round_seconds = 7.5
    #: (ensemble, eigenvalues, samples).  Every sampler call stays near 1 s (the
    #: GUE case is one batch of 2048), because the speed gauge probes only between
    #: calls and after CDF values: with 7 s calls (16 000 GUE, 40 000 GOE and GSE
    #: samples) the scaled wall time of ten runs spread by 12-17% of the median.
    #: The 201-point KS of the GOE and GSE costs 2.5-3 s at any small n.
    CASES = (("gue", 96, 2_048), ("goe", 24, 20_000), ("gse", 16, 20_000))
    BETA = {"goe": 1, "gue": 2, "gse": 4}

    def warm_up(self) -> None:
        for ensemble, n, _ in self.CASES:
            mc.sample_lambda_max(self.BETA[ensemble], n, 64, 0)
            acceptance.mc_cdf(ensemble, n)(0.5772156649)

    @classmethod
    def _case(cls, ensemble: str, n: int, count: int, seed: int) -> Op:
        label = f"mc {ensemble} n={n} samples={count} seed={seed}"
        reference = {"gue": oracles.gue_cdf, "goe": oracles.goe_cdf,
                     "gse": oracles.gse_largest_cdf}[ensemble]

        def call():
            # the calls `gemax mc` makes, keeping the samples for the check
            run = mc.sample_lambda_max(cls.BETA[ensemble], n, count, seed)
            ks = mc.ks_statistic(run, acceptance.mc_cdf(ensemble, n), grid_points=201)
            return run, ks, mc.ks_critical_1pct(count)

        def check(out, chk: Checker) -> None:
            run, ks, crit = out
            samples = run.samples
            chk.near(crit, 1.63 / math.sqrt(count), 1e-15, label + " critical value")
            if samples.size != count or not np.all(np.diff(samples) >= 0.0):
                raise Mismatch(f"{label}: samples are not {count} sorted values")
            ks_ref = oracles.ks_statistic(samples, lambda x: reference(n, x),
                                          float(samples[0]), float(samples[-1]))
            if not ks_ref < KS_STRICT / math.sqrt(count):
                raise Mismatch(f"{label}: KS {ks_ref:.5f} against the oracle law")
            chk.near(ks, ks_ref, TOL_KS, label + " KS")

        return Op(label, call, check)

    def plan(self, rng, rounds):
        return [self._case(ensemble, n, count, int(rng.integers(2**31)))
                for _ in range(rounds) for ensemble, n, count in self.CASES]


WORKLOADS = {w.name: w for w in (FiniteTables(), NSweep(), AiryLaws(), McKs())}
