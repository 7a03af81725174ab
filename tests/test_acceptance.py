"""The ten acceptance criteria, one test each.

Two clauses are faithful implementations of stated checks that the closed
formulas cannot satisfy; those are marked xfail(strict=True) with the
attainable portion asserted separately:

* criterion 4's componentwise closed-form/numeric epsilon agreement — the
  closed expressions are soft-edge asymptotics, not finite-n identities,
  so no tolerance of 1e-5 can hold at fixed n (the c_psi cancellation
  clause, an algebraic identity that holds to rounding, is asserted on its
  own against a bound relative to the size of the cancelled terms);
* criterion 8's symplectic clause — the printed squared-GSE expansion is
  missing a genuine O(n^{-1/3}) contribution at c = 0 (the empirical gap is
  0.037 n^{-1/3}, flat in n), so the corrected value cannot beat the
  leading term; the orthogonal and unitary clauses are asserted separately.
"""

import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gemax import acceptance, airy, cli, finite_n
from gemax.acceptance import Clause
from gemax.errors import ParameterError


def check(result):
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"


class TestAcceptance:
    def test_criterion_1_n1_exactness(self):
        check(acceptance.criterion_1())

    def test_criterion_2_dual_path(self):
        check(acceptance.criterion_2())

    def test_criterion_3_brute_force(self):
        check(acceptance.criterion_3())

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="closed-form epsilon quantities are soft-edge asymptotics; "
        "componentwise 1e-5 agreement at n in {4, 5} is unattainable",
    )
    def test_criterion_4_epsilon_cross_check(self):
        clause = acceptance.criterion_4().clause("epsilon agreement")
        assert clause.passed, f"max rel gap {clause.value:.2e} (tol {clause.bound:.1e})"

    def test_criterion_4_cpsi_cancellation(self, monkeypatch):
        # the algebraic part of criterion 4: the assembled symplectic ratio of
        # the closed epsilon quantities equals the one built from their
        # c_psi-free terms, to rounding relative to the size of the c_psi terms
        clause = acceptance.criterion_4().clause("c_psi cancellation")
        assert clause.value < clause.bound
        # negative control: closed forms that lose the c_psi term of p4 or of
        # r4 must leave an O(1) relative residual
        closed = acceptance._epsilon_closed

        def dropping(field):
            def broken(n, a, b, cosh_g, rho_s, r_s):
                eps = closed(n, a, b, cosh_g, rho_s, r_s)
                term = {"p4": -eps.c_psi * 0.5 * (1.0 + cosh_g), "r4": -eps.c_psi * rho_s}[field]
                return replace(eps, **{field: getattr(eps, field) - term})

            return broken

        for field in ("p4", "r4"):
            monkeypatch.setattr(acceptance, "_epsilon_closed", dropping(field))
            broken = max(acceptance.cpsi_residual(5, t) for t in (-1.0, 0.0, 1.0))
            assert broken > 1e6 * clause.bound

    def test_cpsi_residual_margin(self):
        # [DERIVED] double precision leaves a relative residual of a few
        # epsilons; the bound must clear it by a decade across t in [-1, 1]
        ts = np.append(np.linspace(-1.0, 1.0, 201), -1.0 + 1e-9)
        worst = max(acceptance.cpsi_residual(5, float(t)) for t in ts)
        assert worst * 10.0 <= acceptance.CPSI_BOUND

    @pytest.mark.parametrize("ab", [(0.0, 1.0), (1.0, -math.pi**2 / 2.0)], ids=["rho_s 0", "cosh g -1"])
    def test_cpsi_residual_where_the_size_vanishes(self, ab, monkeypatch):
        # a = 0 makes rho_s 0; 2ab = -pi^2 puts cosh g at -1, so 1 + cosh g
        # and 1 - v_tilde are 0: the c_psi terms vanish with their size and
        # the residual is 0.0, not 0/0
        monkeypatch.setattr(finite_n, "ab", lambda n, t: ab)
        assert acceptance.cpsi_residual(5, 0.0) == 0.0

    def test_cpsi_residual_refuses_a_residual_of_no_size(self, monkeypatch):
        # closed forms whose r4 carries a c_psi term without its factor
        # rho_s leave a residual where the size vanishes: there is no
        # relative residual to return
        monkeypatch.setattr(finite_n, "ab", lambda n, t: (0.0, 1.0))
        closed = acceptance._epsilon_closed

        def wrong(*args):
            eps = closed(*args)
            return replace(eps, r4=eps.r4 - eps.c_psi)

        monkeypatch.setattr(acceptance, "_epsilon_closed", wrong)
        with pytest.raises(ParameterError, match="c_psi terms vanish"):
            acceptance.cpsi_residual(5, 0.0)

    def test_criterion_5_monte_carlo(self):
        check(acceptance.criterion_5())

    def test_criterion_6_airy_identities(self):
        check(acceptance.criterion_6())

    def test_criterion_6_limit_dual_paths(self, monkeypatch):
        # F_1 and F_4 from the determinants of A_s against sqrt(F_2) e^{-mu/2}
        # and sqrt(F_2) cosh(mu/2) with the bundle's mu
        names = ("F1 dual path", "F4 dual path")
        result = acceptance.criterion_6()
        for name in names:
            clause = result.clause(name)
            assert clause.value < clause.bound, name
        # negative control: mu off by 1e-10 must break both clauses
        bundle = airy.airy_bundle

        def shifted(s, *args):
            b = bundle(s, *args)
            return replace(b, mu=b.mu + 1e-10)

        monkeypatch.setattr(airy, "airy_bundle", shifted)
        broken = acceptance.criterion_6()
        assert not broken.passed
        for name in names:
            assert not broken.clause(name).passed, name

    def test_criterion_7_convergence_rates(self):
        check(acceptance.criterion_7())

    @pytest.mark.xfail(
        strict=True,
        reason="the squared-GSE Edgeworth expansion lacks an O(n^{-1/3}) "
        "term at c = 0; its combined value cannot beat the leading term",
    )
    def test_criterion_8_edgeworth_full(self):
        check(acceptance.criterion_8())

    def test_criterion_8_edgeworth_gue_goe(self):
        # the attainable clauses of criterion 8: the GUE and GOE improvements and the GUE rate
        result = acceptance.criterion_8()
        for name in ("gue improvement", "goe improvement", "GUE rate"):
            clause = result.clause(name)
            assert clause.passed, f"{name}: {clause.value:.3g} (bound {clause.bound:.3g})"

    def test_criterion_9_cdf_axioms(self):
        check(acceptance.criterion_9())

    def test_criterion_10_determinism(self):
        check(acceptance.criterion_10())


@pytest.mark.parametrize(
    "call",
    [
        lambda: acceptance.mc_cdf("goa", 4),
        lambda: acceptance.edgeworth_comparison("goa", 4, 0.0, -1.0),
        lambda: acceptance.edgeworth_study("goa", 4, 0.0, [-1.0, 0.0]),
        lambda: acceptance.sup_errors("goa", (4, 8), 0.0, [-1.0, 0.0]),
    ],
    ids=["mc_cdf", "edgeworth_comparison", "edgeworth_study", "sup_errors"],
)
def test_unknown_ensemble(call, monkeypatch):
    # rejected before any value is computed
    def refuse(*args):
        raise AssertionError("computed a value before the ensemble check")

    for module, name in ((finite_n, "cdf_values"), (airy, "tau"), (airy, "edgeworth_f2"),
                         (airy, "edgeworth_f1_sq"), (airy, "edgeworth_f4_sq")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ParameterError, match="unknown ensemble 'goa'"):
        call()


STUDY_GRID = np.linspace(-3.0, 1.0, 9)


class TestEdgeworthStudy:
    @pytest.mark.parametrize("ensemble, n, tol", [("gue", 40, 0.0), ("goe", 40, 1e-15),
                                                  ("gse", 41, 1e-15)])
    def test_grid_is_its_float_calls(self, ensemble, n, tol):
        # a float s is a grid of one; the table's truths are its points' to
        # rounding (the GUE's bit for bit; the GOE/GSE integrals contract over
        # a wider table), and the expansions are the same calls
        truth, results = acceptance.edgeworth_study(ensemble, n, 0.5, STUDY_GRID)
        assert truth.shape == STUDY_GRID.shape
        points = [acceptance.edgeworth_study(ensemble, n, 0.5, float(s)) for s in STUDY_GRID]
        assert all(t.shape == (1,) and len(r) == 1 for t, r in points)
        np.testing.assert_allclose(truth, [t[0] for t, _ in points], rtol=0.0, atol=tol)
        assert results == [r[0] for _, r in points]

    def test_empty_grid(self):
        truth, results = acceptance.edgeworth_study("goe", 40, 0.0, [])
        assert truth.shape == (0,)
        assert results == []
        assert acceptance.sup_errors("gue", (20, 40), 0.0, []).tolist() == [[0.0, 0.0]] * 2

    @pytest.mark.parametrize("s", [[1e13], [math.inf], [0.0, math.inf], 1e13], ids=repr)
    def test_s_outside_window_is_named(self, s):
        # an s far right passed tau's T_MAX cap first, and the message blamed c
        with pytest.raises(ParameterError, match=r"s = (10000000000000\.0|inf) outside supported window"):
            acceptance.edgeworth_study("gue", 40, 0.0, s)

    def test_n_checked_before_computing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed a value before the n check")

        monkeypatch.setattr(airy, "tau", refuse)
        with pytest.raises(ParameterError, match="need even n, got 41"):
            acceptance.edgeworth_study("goe", 41, 0.0, STUDY_GRID)

    def test_sup_errors_are_the_points_worst(self):
        # column 0 against the leading term, column 1 against the combined
        # expansion, each the largest error over the grid; the GUE bit for bit
        ns = (20, 40)
        errs = acceptance.sup_errors("gue", ns, 0.0, STUDY_GRID)
        for n, row in zip(ns, errs.tolist()):
            points = [acceptance.edgeworth_comparison("gue", n, 0.0, float(s)) for s in STUDY_GRID]
            assert row == [max(abs(t - ref[k]) for t, *ref in points) for k in (0, 1)]


def _count_passes(monkeypatch) -> list:
    """A list that grows by one entry per finite-n recurrence pass."""
    passes = []
    for name in ("hermite_parts", "hermite_integrals"):
        original = getattr(finite_n, name)
        monkeypatch.setattr(
            finite_n, name, lambda *a, _f=original: passes.append(a[0]) or _f(*a)
        )
    return passes


class TestRecurrencePasses:
    """One finite-n recurrence pass per (ensemble, n), whatever the s-grid."""

    @pytest.mark.parametrize("argv, passes", [
        (["edgeworth", "--ensemble", "gue", "--n", "40", "--steps", "9"], [40]),
        (["edgeworth", "--ensemble", "gse", "--n", "41", "--steps", "9"], [41]),
        (["convergence", "--ensemble", "gue", "--n-list", "20,40,80"], [20, 40, 80]),
        (["convergence", "--ensemble", "goe", "--n-list", "20,40,80", "--reference",
          "edgeworth"], [20, 40, 80]),
    ], ids=["edgeworth gue", "edgeworth gse", "convergence gue", "convergence goe"])
    def test_cli(self, argv, passes, monkeypatch):
        counted = _count_passes(monkeypatch)
        assert cli.main(argv, stdout=io.StringIO()) == 0
        assert counted == passes

    def test_criterion_7(self, monkeypatch):
        counted = _count_passes(monkeypatch)
        acceptance.criterion_7()
        assert counted == [20, 40, 80, 160] * 2

    def test_criterion_8(self, monkeypatch):
        counted = _count_passes(monkeypatch)
        acceptance.criterion_8()
        assert counted == [100, 100, 101, 40, 160]


@pytest.fixture(scope="module")
def results():
    """All ten criteria, run once."""
    return {r.index: r for r in acceptance.run_criteria()}


class TestOutcome:
    def test_pass_is_every_clause(self, results):
        assert sorted(results) == list(range(1, 11))
        for r in results.values():
            assert r.clauses, r.index
            assert r.passed == all(c.passed for c in r.clauses), r.index
            assert r.detail.count("(bound ") == len(r.clauses), r.index

    def test_only_criteria_4_and_8_fail(self, results):
        assert [i for i, r in results.items() if not r.passed] == [4, 8]

    def test_nan_clause_fails(self):
        clause = Clause("x", math.nan, 1.0)
        assert not clause.passed
        assert not acceptance.CriterionResult(0, "nan", (Clause("y", 0.0, 1.0), clause)).passed

    def test_criterion_9_values(self, results):
        r = results[9]
        bounds = {"largest drop": acceptance.MONO_TOL, "first value": acceptance.LEFT_TOL,
                  "1 - last value": acceptance.RIGHT_TOL}
        assert {c.name: c.bound for c in r.clauses} == bounds
        for c in r.clauses:
            assert c.value < c.bound, c.name

    def test_criterion_9_nan_table_fails(self):
        drop, first, last = acceptance._cdf_axioms([0.0, 0.5, math.nan, 1.0])
        assert math.isnan(drop)
        assert (first, last) == (0.0, 0.0)

    def test_criterion_10_no_differing_output(self, results):
        assert results[10].clause("differing outputs").value == 0


def test_repeated_criterion_is_refused(monkeypatch):
    # a repeated index ran its criterion twice and printed it twice
    def refuse():
        raise AssertionError("ran a criterion before the index check")

    monkeypatch.setitem(acceptance.CRITERIA, 10, refuse)
    with pytest.raises(ParameterError, match=r"criteria \[10\] repeated"):
        acceptance.run_criteria([10, 1, 10])


def test_empty_selection_is_refused(monkeypatch):
    # an empty selection read as "all" and ran every criterion; only None does
    for i in acceptance.CRITERIA:
        monkeypatch.setitem(acceptance.CRITERIA, i, lambda i=i: i)
    assert acceptance.run_criteria() == list(range(1, 11))
    with pytest.raises(ParameterError, match="need at least one criterion, choose from 1-10$"):
        acceptance.run_criteria([])


@pytest.mark.parametrize("n_eigs", [200, 0])
def test_gse_count_rule_is_one(n_eigs):
    # gse_largest_cdf(200, u) named kernel index 401, which the caller never
    # passed, and gse_largest_cdf(0, u) had a wording of its own
    message = re.escape(f"need 1 <= n <= 199 (kernel index 2n + 1 <= 400), got {n_eigs}") + "$"
    with pytest.raises(ParameterError, match=message):
        finite_n.gse_largest_cdf(n_eigs, 0.5)
    with pytest.raises(ParameterError, match=message):
        acceptance.mc_cdf("gse", n_eigs)
