"""Oracle tests for the Tracy-Widom limits and Edgeworth corrections."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemax import airy as airy_module
from gemax import fredholm, special
from gemax.airy import (
    S_MAX,
    S_MIN,
    airy_bundle,
    e_c1,
    e_c2,
    edgeworth_f1_sq,
    edgeworth_f2,
    edgeworth_f4_sq,
    f1_limit,
    f2_limit,
    f4_limit,
    hastings_mcleod_q,
    limit_values,
    log_f2_limit,
    tau,
)
from gemax.errors import NumericalError, ParameterError
from gemax.special import airy, build_grid, edge_rule
from helpers import limit_law_reference


class TestTau:
    def test_center(self):
        # [TRIVIAL] s = 0 lands on the scaled edge sqrt(2(n + c))
        assert tau(8, 0.0, 0.0) == pytest.approx(math.sqrt(16.0), rel=1e-15)

    def test_offset_arithmetic(self):
        # [TRIVIAL] tau = sqrt(2(n+c)) + s / (sqrt(2) n^{1/6})
        n, c, s = 64, 0.5, -1.5
        target = math.sqrt(2 * (n + c)) + s / (math.sqrt(2.0) * 64 ** (1.0 / 6.0))
        assert tau(n, c, s) == pytest.approx(target, rel=1e-15)

    @pytest.mark.parametrize("fn", [tau, edgeworth_f2, edgeworth_f1_sq, edgeworth_f4_sq])
    @pytest.mark.parametrize(
        "n, c",
        [(40, math.nan), (40, math.inf), (40, -math.inf),
         (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0, 0.0), (1, -1.0)],
    )
    def test_domain(self, fn, n, c):
        # a non-finite n or c gave NaN or +-inf, silently; n < 1 is refused as
        # before, and n + c <= 0, where tau is undefined, by the expansions too
        with pytest.raises(ParameterError, match="need finite n >= 1 and c with n [+] c > 0"):
            fn(n, c, 0.0)

    @pytest.mark.parametrize("fn", [tau, edgeworth_f2, edgeworth_f1_sq, edgeworth_f4_sq])
    @pytest.mark.parametrize("c", [None, "0", 1j], ids=repr)
    def test_non_real_c_is_refused(self, fn, c):
        # a c that is not a real number raised TypeError
        with pytest.raises(ParameterError, match=f"need a real number c, got {re.escape(repr(c))}$"):
            fn(4, c, 0.0)


class TestHastingsMcLeod:
    def test_right_asymptote(self):
        # [DERIVED] q(s) ~ Ai(s) as s -> +inf
        s = 5.0
        assert hastings_mcleod_q(s) == pytest.approx(airy(s)[0], rel=1e-4)

    def test_painleve_residual(self):
        # [DERIVED] q'' = s q + 2 q^3 via five-point stencil
        s, h = -1.0, 1e-3
        vals = [hastings_mcleod_q(s + k * h) for k in (-2, -1, 0, 1, 2)]
        second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        assert second == pytest.approx(s * vals[2] + 2 * vals[2] ** 3, abs=1e-6)

    def test_left_growth(self):
        # [DERIVED] q(s) ~ sqrt(-s/2) as s -> -inf
        s = -8.0
        assert hastings_mcleod_q(s) == pytest.approx(math.sqrt(-s / 2.0), rel=5e-3)


class TestLimitLaws:
    def test_f2_published_value(self):
        # [DERIVED] F_2(0) = 0.9693728283552... from high-precision published
        # Tracy-Widom evaluations
        assert f2_limit(0.0) == pytest.approx(0.9693728283552, abs=1e-9)

    @staticmethod
    def _mean(fn) -> float:
        from scipy import integrate

        left, _ = integrate.quad(fn, -10.0, 0.0, limit=200)
        right, _ = integrate.quad(lambda s: 1.0 - fn(s), 0.0, 8.0, limit=200)
        return -left + right

    def test_f2_mean(self):
        # [DERIVED] GUE Tracy-Widom mean -1.771087 from published moment
        # tables; computed here as int s dF_2 by parts
        assert self._mean(f2_limit) == pytest.approx(-1.771087, abs=2e-5)

    def test_f2_methods_agree(self):
        for s in (-4.0, -1.0, 2.0):
            assert f2_limit(s) == pytest.approx(math.exp(airy_bundle(s).log_f2), abs=1e-9)

    def test_exponential_f2_matches_determinant(self):
        # the bundle's outer quadrature of (x - s) q^2 against the determinant:
        # measured worst 2.3e-15 at s = -3.75 (6.6e-15 at s = -4 on 64 nodes to +30)
        for s in np.linspace(-6.0, 6.0, 49):
            s = float(s)
            assert abs(math.exp(airy_bundle(s).log_f2) - f2_limit(s)) < 4e-15, s

    def test_f1_mean(self):
        # [DERIVED] GOE Tracy-Widom mean -1.206534 from published moment
        # tables
        assert self._mean(f1_limit) == pytest.approx(-1.206534, abs=2e-5)

    def test_f4_mean(self):
        # [DERIVED] GSE Tracy-Widom mean -2.306885 from published moment
        # tables; this implementation uses the sqrt(2)-scaled symplectic
        # argument, so the mean picks up a factor sqrt(2)
        assert self._mean(f4_limit) == pytest.approx(-2.306885 * math.sqrt(2.0), abs=2e-5)

    def test_ordering(self):
        # [DERIVED] F_1 < F_2 < F_4 pointwise in the bulk (tighter ensembles
        # push the largest eigenvalue left)
        s = -1.0
        assert f1_limit(s) < f2_limit(s) < f4_limit(s)

    def test_log_matches(self):
        s = -2.5
        assert math.exp(log_f2_limit(s)) == pytest.approx(f2_limit(s), rel=1e-12)

    def test_f1_f4_match_bundle_formulas(self):
        # [DERIVED] F_1 = sqrt(F_2) e^{-mu/2} and F_4 = sqrt(F_2) cosh(mu/2), with
        # F_2 from the exponential path and mu from the bundle: an independent
        # route to the Fredholm determinants of A_s
        for s in np.linspace(-8.0, 6.0, 15):
            s = float(s)
            b = airy_bundle(s)
            root = math.sqrt(math.exp(b.log_f2))
            assert f1_limit(s) == pytest.approx(root * math.exp(-0.5 * b.mu), abs=1e-12)
            assert f4_limit(s) == pytest.approx(root * math.cosh(0.5 * b.mu), abs=1e-12)

    @pytest.mark.parametrize("law,operators", [(f1_limit, 1), (f4_limit, 2)], ids=["F1", "F4"])
    def test_one_matrix_per_value(self, law, operators, monkeypatch):
        # one grid and one evaluation of Ai alone over the upper triangle of
        # pairwise sums; the bundle, its point values and the (Ai, Ai') pair are
        # never reached.  Each determinant is one potrf on RULE_NODES nodes on
        # (s, 2 RULE_SPAN - s), the Cholesky factor every other determinant
        # reads, and numpy's slogdet is never reached
        def unused(*args):
            raise AssertionError("the limit law reached the Airy bundle, Ai' or slogdet")

        grids, points, factored = [], [], []
        build_grid, airy_ai = airy_module.build_grid, airy_module.airy_ai
        dpotrf = fredholm.dpotrf
        monkeypatch.setattr(airy_module, "airy_bundle", unused)
        monkeypatch.setattr(airy_module, "_point_values", unused)
        monkeypatch.setattr(airy_module, "airy_fn", unused)
        monkeypatch.setattr(np.linalg, "slogdet", unused)
        monkeypatch.setattr(airy_module, "build_grid", lambda *a: grids.append(a) or build_grid(*a))
        monkeypatch.setattr(airy_module, "airy_ai", lambda x: points.append(np.size(x)) or airy_ai(x))
        monkeypatch.setattr(fredholm, "dpotrf", lambda a, **kw: factored.append(a.shape) or dpotrf(a, **kw))
        value = law(-1.37)
        nodes = special.RULE_NODES
        assert grids == [(-1.37, 2.0 * special.RULE_SPAN + 1.37, nodes)]
        assert points == [nodes * (nodes + 1) // 2]
        assert factored == [(nodes, nodes)] * operators
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("ensemble,operators", [("goe", 1), ("gse", 2)])
    def test_table_blocks(self, ensemble, operators, monkeypatch):
        # a table of 2 fredholm.BLOCK + 1 points: one grid and one Ai call per
        # block of fredholm.BLOCK points, the same one matrix per point and
        # operator as a point call
        grids, points, factored = [], [], []
        build_grid, airy_ai = airy_module.build_grid, airy_module.airy_ai
        dpotrf = fredholm.dpotrf
        monkeypatch.setattr(airy_module, "build_grid", lambda *a: grids.append(np.shape(a[0])) or build_grid(*a))
        monkeypatch.setattr(airy_module, "airy_ai", lambda x: points.append(np.size(x)) or airy_ai(x))
        monkeypatch.setattr(fredholm, "dpotrf", lambda a, **kw: factored.append(a.shape) or dpotrf(a, **kw))
        block = fredholm.BLOCK
        limit_values(ensemble, np.linspace(-3.0, 1.0, 2 * block + 1))
        nodes = special.RULE_NODES
        assert grids == [(block,), (block,), (1,)]
        assert points == [block * nodes * (nodes + 1) // 2] * 2 + [nodes * (nodes + 1) // 2]
        assert factored == [(nodes, nodes)] * ((2 * block + 1) * operators)

    @pytest.mark.parametrize("ensemble,rows", [("gue", 1), ("goe", 1), ("gse", 2)])
    def test_block_size_is_read_at_call_time(self, ensemble, rows, monkeypatch):
        # fredholm.BLOCK is the one block size: set to 3, it splits the K_Ai
        # stack of F_2 and the A_s blocks of F_1/F_4 alike, and no value moves
        s = np.linspace(-3.0, 1.0, 7)
        want = limit_values(ensemble, s)
        blocks = []
        log_det = fredholm.log_det
        monkeypatch.setattr(fredholm, "log_det", lambda op: blocks.append(np.shape(op.grid.lower)) or log_det(op))
        monkeypatch.setattr(fredholm, "BLOCK", 3)
        got = limit_values(ensemble, s)
        assert blocks == [(3,)] * (2 * rows) + [(1,)] * rows
        assert np.array_equal(got, want)

    def test_point_values_one_airy_call(self, monkeypatch):
        # Ai, Ai' on the nodes and at s in one call; the nodes' values serve the
        # matrix and the rhs, s's the row K(s, x_j) and the endpoint values
        points = []
        airy_fn = airy_module.airy_fn
        counted = lambda x: points.append(np.shape(x)) or airy_fn(x)
        monkeypatch.setattr(airy_module, "airy_fn", counted)
        values = airy_module._point_values(np.array([-1.37]))
        assert points == [(1, special.RULE_NODES + 1)]
        assert values[0, 0, 0] == hastings_mcleod_q(-1.37)

    def test_fresh_bundle_airy_calls(self, monkeypatch):
        # one Airy call for the whole stack of operators: the one at s and one
        # at each of its nodes, each on its own nodes and its left end
        points = []
        airy_fn = airy_module.airy_fn
        counted = lambda x: points.append(np.shape(x)) or airy_fn(x)
        monkeypatch.setattr(airy_module, "airy_fn", counted)
        airy_module._bundle_cached.__wrapped__(-1.37)
        assert points == [(special.RULE_NODES + 1, special.RULE_NODES + 1)]

    def test_fresh_bundle_memory(self):
        # the bundle's 49 operators walk in blocks, each block's operator gone
        # before the next is built: under the 2 MB bound of the 200-point GOE
        # table (TestTables::test_goe_table_memory) at the peak under tracemalloc
        airy_module._bundle_cached.__wrapped__(-1.37)
        tracemalloc.start()
        try:
            airy_module._bundle_cached.__wrapped__(-1.37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    def test_bundle_is_cached_on_float_s(self):
        # lru_cache keyed an int apart from a float: airy_bundle(1) and
        # airy_bundle(1.0) built two bundles, and s kept the caller's type
        airy_module._bundle_cached.cache_clear()
        bundles = [airy_bundle(s) for s in (1, 1.0, np.float64(1.0))]
        assert all(b is bundles[0] for b in bundles)
        assert type(bundles[0].s) is float
        assert airy_module._bundle_cached.cache_info().misses == 1

    def test_tail_core_serves_a_table(self, monkeypatch):
        # the bundle's integrals on 9 points of [-3, 1] from one composite
        # outer rule (cells of 16 nodes, then the 48-node rule at 1): 176
        # operators, where 9 bundles build 441, within 1e-13 relative of each
        # point's bundle (measured 5.8e-15)
        points = np.linspace(-3.0, 1.0, 9)
        want = [airy_module._bundle_cached.__wrapped__(float(s)) for s in points]
        operators = []
        airy_fn = airy_module.airy_fn
        monkeypatch.setattr(airy_module, "airy_fn", lambda x: operators.append(len(x)) or airy_fn(x))
        got = airy_module._integrals(points, lambda x: airy_module._outer_rows(airy_module._point_values(x)))
        assert sum(operators) == 176
        for k, name in enumerate(("mu", "nu", "alpha", "eta_integral", "log_f2")):
            ref = np.array([getattr(b, name) for b in want])
            assert np.max(np.abs(got[k] - ref) / np.abs(ref)) < 1e-13, name

    @pytest.mark.parametrize("s", [-4.0, -1.5, 1.0, 3.5, 6.0])
    def test_stack_matches_single_operators(self, s):
        # the bundle's stack of 49 operators gives each operator's scalars as
        # that operator built alone does
        outer = edge_rule(s, 0.0, 1.0)
        points = np.append(s, outer.nodes)
        stacked = airy_module._point_values(points)
        single = [airy_module._point_values(np.array([x])) for x in points]
        single = np.concatenate(single, axis=-1)
        assert np.max(np.abs(stacked - single) / np.abs(single)) < 1e-14

    @pytest.mark.parametrize("law", [f1_limit, f4_limit], ids=["F1", "F4"])
    def test_sign_loss_raises(self, law, monkeypatch):
        # with Ai doubled, A_s at s = -3 has one eigenvalue 1.9 > 1 (the others
        # in (-0.9, 0.2)), so det(I - A_s) < 0: a typed error, not a value
        airy_ai = airy_module.airy_ai
        monkeypatch.setattr(airy_module, "airy_ai", lambda x: 2.0 * airy_ai(x))
        with pytest.raises(NumericalError):
            law(-3.0)

    @pytest.mark.parametrize("ensemble", ["goe", "gse"])
    def test_table_sign_loss_names_the_first_point(self, ensemble, monkeypatch):
        # the same doubled Ai in a table: the first refused point raises, by its rule's ends
        airy_ai = airy_module.airy_ai
        monkeypatch.setattr(airy_module, "airy_ai", lambda x: 2.0 * airy_ai(x))
        with pytest.raises(NumericalError, match=r"on \(-3.0, 35.0\)$"):
            limit_values(ensemble, [6.0, 2.0, -3.0, -3.0, 5.0])

    def test_every_operator_is_accepted(self):
        # at every s of the window's 0.5 grid (tools/snapshot.py's points) the
        # Cholesky factorization accepts each K_Ai operator on the rule, at s
        # and at the 48 nodes of the rule at s (the bundle's stack), and both
        # I - A_s and I + A_s
        points = np.arange(S_MIN, S_MAX + 0.25, 0.5)
        lefts = np.concatenate([np.append(s, edge_rule(s, 0.0, 1.0).nodes) for s in points])
        grid = edge_rule(lefts, 0.0, 1.0)
        refused = fredholm.map_blocks(
            lambda op: np.atleast_1d(op.refused), grid, airy_module._parts(grid), 1.0
        )
        assert refused.shape == lefts.shape and not refused.any()
        logs = airy_module._law_logs("gse", points)
        assert logs.shape == (2, points.size) and np.isfinite(logs).all()

    @pytest.mark.parametrize("law", [f1_limit, f2_limit, f4_limit], ids=["F1", "F2", "F4"])
    def test_unit_interval_or_typed_error(self, law):
        for s in np.linspace(S_MIN, S_MAX, 41):
            try:
                value = law(float(s))
            except (ParameterError, NumericalError):
                continue
            assert 0.0 <= value <= 1.0, (s, value)
        for s in (S_MIN - 0.01, S_MAX + 0.01):
            with pytest.raises(ParameterError):
                law(s)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=st.sampled_from((f1_limit, f2_limit, f4_limit)), s=st.floats(-11.0, 9.0))
    def test_unit_interval_or_typed_error_everywhere(self, law, s):
        # the window [S_MIN, S_MAX] and a margin past it on either side
        try:
            value = law(s)
        except (ParameterError, NumericalError):
            return
        assert 0.0 <= value <= 1.0, (s, value)


#: window points, and s-grids of them as a table takes them: unsorted, with
#: repeats, descending
_WINDOW = st.floats(S_MIN, S_MAX)
_GRIDS = st.one_of(
    st.lists(_WINDOW, min_size=1, max_size=10),
    st.lists(_WINDOW, min_size=1, max_size=5).map(lambda v: v + v[::2]),
    st.lists(_WINDOW, min_size=2, max_size=10).map(lambda v: sorted(v, reverse=True)),
)


class TestLimitValues:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ensemble=st.sampled_from(("gue", "goe", "gse")), grid=_GRIDS,
           form=st.sampled_from(("list", "array", "2-d", "0-d", "float")))
    def test_table_is_its_points(self, ensemble, grid, form):
        # every value of a table is the one-operator read of its point, bit for
        # bit, in the table's order and shape; one point, in any shape, is one
        # operator, and a float or 0-d array gives a float
        s = {"list": grid, "array": np.array(grid), "2-d": np.array(grid)[:, None],
             "0-d": np.array(grid[0]), "float": grid[0]}[form]
        values = limit_values(ensemble, s)
        expected = [limit_law_reference(ensemble, float(x)) for x in np.ravel(s)]
        if form in ("0-d", "float"):
            assert type(values) is float and values == expected[0]
        else:
            assert values.shape == np.shape(s) and values.ravel().tolist() == expected

    @pytest.mark.parametrize("ensemble", ["gue", "goe", "gse"])
    def test_point_readers_are_the_table(self, ensemble):
        # f2_limit, f1_limit and f4_limit read one point of the table, and an
        # empty table is empty
        law = {"gue": f2_limit, "goe": f1_limit, "gse": f4_limit}[ensemble]
        grid = np.linspace(S_MIN, S_MAX, 37)
        assert limit_values(ensemble, grid).tolist() == [law(float(x)) for x in grid]
        assert limit_values(ensemble, np.empty((0, 3))).shape == (0, 3)

    def test_table_holds_one_block(self):
        # A_s on 48 nodes is 18 KB.  A table holds one block's grids, parts and
        # matrices and, beyond them, arrays of O(steps) floats: a 2,000-step
        # table of each law peaks about 0.1 MB above a 200-step one.  Keeping
        # each point's A_s would add 18 KB a step, and the F2 table, which
        # built the K_Ai grids and parts of all its points first, added 7.5 MB
        def peak(ensemble: str, steps: int) -> int:
            grid = np.linspace(-8.0, 6.0, steps)
            tracemalloc.start()
            try:
                limit_values(ensemble, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for ensemble in ("gue", "goe", "gse"):
            assert peak(ensemble, 2000) - peak(ensemble, 200) < 1024 * 1024, ensemble

    @pytest.mark.parametrize("s, message", [
        ([True, 2.0], "need real s, got True at index 0"),
        ([[1.0], [np.bool_(False)]], "need real s, got np.False_ at index 1"),
        (["1"], "need real s, got ['1']"),
        ([1.0, 8.5], "s = 8.5 outside supported window [-10.0, 8.0] at index 1"),
        ([math.nan], "s = nan outside supported window [-10.0, 8.0] at index 0"),
        (-10.5, "s = -10.5 outside supported window [-10.0, 8.0]"),
    ], ids=["bool", "numpy bool", "str", "right", "nan", "float"])
    def test_points_are_checked_before_any_work(self, s, message, monkeypatch):
        # a bool among numbers was read as 0 or 1; every point is checked before
        # any grid is built
        def unused(*args):
            raise AssertionError("built a grid before checking every point")

        monkeypatch.setattr(airy_module, "build_grid", unused)
        monkeypatch.setattr(special, "build_grid", unused)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            limit_values("gue", s)

    @pytest.mark.parametrize("ensemble", [["gue"], None, "GUE", b"gue"], ids=repr)
    def test_ensemble_is_a_known_name(self, ensemble):
        # a list raised TypeError (unhashable) in cdf_values
        with pytest.raises(ParameterError, match=f"^unknown ensemble {re.escape(repr(ensemble))}$"):
            limit_values(ensemble, 0.0)


class TestBundleIdentities:
    @pytest.mark.parametrize("s", [-3.0, -1.0, 0.5, 2.0])
    def test_nu_identity(self, s):
        # nu = alpha - q must hold exactly in the assembly
        b = airy_bundle(s)
        assert b.nu == pytest.approx(b.alpha - b.q[0], abs=1e-10)

    def test_u0_is_resolvent_integral(self):
        # [DERIVED] u_0(s) = int_s^inf Ai(x) Q_0(x) dx; for large s the
        # resolvent correction is negligible and u_0 ~ int_s^inf Ai^2
        s = 6.0
        b = airy_bundle(s)
        from scipy import integrate

        tail, _ = integrate.quad(lambda x: airy(x)[0] ** 2, s, 40.0)
        assert b.u[0] == pytest.approx(tail, rel=1e-3)


class TestEdgeworth:
    def test_f2_combined_improves(self):
        # [DERIVED] truth = exact finite-n GUE CDF; the corrected value must
        # beat the plain limit
        from gemax.finite_n import f_n2

        n, c, s = 60, 0.0, -1.0
        t = tau(n, c, s)
        truth = f_n2(n, t)
        res = edgeworth_f2(n, c, s)
        assert abs(res.combined - truth) < abs(res.leading - truth)

    def test_f2_leading_is_limit(self):
        res = edgeworth_f2(50, 0.3, -0.5)
        assert res.leading == pytest.approx(f2_limit(-0.5), rel=1e-10)

    def test_e_c2_c_dependence(self):
        # [DERIVED] E_{c,2} depends on c only through the -20 c^2 v_0 term
        s = -1.0
        v0 = airy_bundle(s).v[0]
        gap = e_c2(s, 2.0) - e_c2(s, 0.0)
        assert gap == pytest.approx(-20.0 * 4.0 * v0, rel=1e-10)

    def test_f1_sq_structure(self):
        # [DERIVED] at c = 0 the first-order GOE term reduces to
        # -nu (1 - e^{-mu}) / (2 mu) * F_2
        s = -0.8
        b = airy_bundle(s)
        res = edgeworth_f1_sq(10**6, 0.0, s)
        f2 = f2_limit(s)
        # order_one_third stores the coefficient of n^{-1/3}
        target = -f2 * b.nu * (1.0 - math.exp(-b.mu)) / (2.0 * b.mu)
        assert res.order_one_third == pytest.approx(target, rel=1e-8)

    def test_f4_sq_leading(self):
        # leading term of the squared symplectic expansion is
        # F_2 cosh^2(mu/2) = F_4^2
        s = -1.2
        res = edgeworth_f4_sq(100, 0.0, s)
        assert res.leading == pytest.approx(f4_limit(s) ** 2, rel=1e-10)

    def test_window_guard(self):
        with pytest.raises(ParameterError):
            edgeworth_f2(50, 0.0, -30.0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the printed E_{c,1} grows like nu^2/(8 mu^2) right of the edge at c = 0 and 1 "
        "(0.821 at s = 6, 1.063 at s = 8), so the expansion of F_{n,1}^2 exceeds 1 there",
    )
    def test_e_c1_vanishes_far_right(self):
        # [DERIVED] F_{n,1}(tau)^2 and F_1^2 both tend to 1, so the second-order
        # term must vanish far right, as E_{c,2}'s and F_4^2's do (1.4e-15 and
        # -4.1e-9 at s = 8)
        worst = max(abs(e_c1(s, c)) for s in (6.0, 8.0) for c in (0.0, 1.0))
        assert worst < 1e-3, f"max |E_c1| {worst:.3g}"

    def test_e_c1_vanishes_far_right_at_half(self):
        # the control of the xfail above: at c = 1/2, the shift a fit of exact
        # GOE values finds at s <= 0, E_{c,1} reads 6.4e-6 and 8.8e-8 at s = 6, 8
        assert max(abs(e_c1(s, 0.5)) for s in (6.0, 8.0)) < 1e-3


class TestWindowEdges:
    """The documented window [S_MIN, S_MAX] is usable up to both of its edges.

    Every bundle field, q' = p_0 - q_0 u_0 included, comes from operators on
    (x, max(x, 0) + 16) with x in [s, max(s, 0) + 16]; nothing reaches past
    the window.
    """

    @pytest.mark.parametrize("s", [S_MIN, S_MAX])
    def test_bundle(self, s):
        b = airy_bundle(s)
        scalars = (*b.q, *b.p, *b.u, *b.v, *b.v_tilde, *b.w)
        scalars += (b.mu, b.nu, b.alpha, b.eta_integral, b.q_prime)
        assert all(math.isfinite(v) for v in scalars)

    def test_mu_is_positive_at_the_right_edge(self):
        # the orthogonal and symplectic terms divide by mu unguarded; mu falls
        # monotonically to 1.6e-8 at S_MAX, so a window that grows towards
        # where mu rounds to 0 fails here first
        assert airy_bundle(S_MAX).mu > 1e-9

    def test_bundle_right_edge_q_prime(self):
        # [DERIVED] q ~ Ai for large s, so q'(8) ~ Ai'(8)
        assert airy_bundle(S_MAX).q_prime == pytest.approx(airy(S_MAX)[1], rel=1e-6)

    def test_q_prime_negative(self):
        # [DERIVED] the Hastings-McLeod q decreases on the whole real line; near
        # S_MIN q itself carries errors of order 1e-3, which a finite
        # difference of q would turn into noise of either sign
        for s in np.linspace(S_MIN, S_MAX, 73):
            assert airy_bundle(float(s)).q_prime < 0.0, s

    @pytest.mark.parametrize("s", [-3.0, -1.0, 0.0, 1.0, 3.0, 6.0])
    def test_q_prime_matches_central_difference(self, s):
        # [DERIVED] q' = p_0 - q_0 u_0 against a five-point central difference
        # of q itself; q is analytic, so the stencil's error is O(h^4)
        h = 1e-3
        q = [hastings_mcleod_q(s + k * h) for k in (-2, -1, 1, 2)]
        stencil = (q[0] - 8.0 * q[1] + 8.0 * q[2] - q[3]) / (12.0 * h)
        assert airy_bundle(s).q_prime == pytest.approx(stencil, rel=1e-9)

    @pytest.mark.parametrize("s", [S_MIN, S_MAX])
    def test_expansions(self, s):
        f2 = math.exp(airy_bundle(s).log_f2)
        for expansion, leading in (
            (edgeworth_f2, f2),
            (edgeworth_f1_sq, f1_limit(s) ** 2),
            (edgeworth_f4_sq, f4_limit(s) ** 2),
        ):
            r = expansion(40, 0.5, s)
            terms = (r.leading, r.order_one_third, r.order_two_thirds, r.combined)
            assert all(math.isfinite(v) for v in terms)
            assert r.leading == pytest.approx(leading, abs=1e-12)


RULE_LAW_POINTS = tuple(float(s) for s in np.linspace(-8.0, 6.0, 29))
RULE_BUNDLE_POINTS = (-4.0, -2.0, 0.0, 2.0, 4.0, 6.0)


def _rule_laws() -> np.ndarray:
    return np.array([[f1_limit(s), f2_limit(s), f4_limit(s)] for s in RULE_LAW_POINTS])


def _rule_bundles() -> np.ndarray:
    """mu, nu, alpha, eta_integral, the exponential log F_2 and q' of fresh bundles."""
    rows = []
    for s in RULE_BUNDLE_POINTS:
        b = airy_module._bundle_cached.__wrapped__(s)
        rows.append((b.mu, b.nu, b.alpha, b.eta_integral, b.log_f2, b.q_prime))
    return np.array(rows)


def _eigen_log_det(matrix: np.ndarray, sign: float) -> float:
    """log det(I - sign A) as the sum of log1p(-sign lambda_i) over the eigenvalues of the symmetric A."""
    return float(np.sum(np.log1p(-sign * np.linalg.eigvalsh(matrix))))


def _reference_laws() -> np.ndarray:
    """F_1, F_2, F_4 on the rule, each determinant a sum over its matrix's eigenvalues.

    K_Ai is fredholm.assemble's matrix on the K_Ai rule; A_s is built here on
    RULE_NODES nodes on (s, 2 RULE_SPAN - s).  On the 160-node rule these
    sums lie within 6.3e-16 of 30-digit determinants of the same matrices at
    nine points of [-4, 5], and within 9e-17 for s >= 0, where the Cholesky
    factors of I -+ A are up to 2.5e-15 off.
    """
    rows = []
    for s in RULE_LAW_POINTS:
        grid = edge_rule(s, 0.0, 1.0)
        f2 = math.exp(_eigen_log_det(fredholm.assemble(grid, airy_module._parts(grid), 1.0).matrix, 1.0))
        grid = build_grid(s, 2.0 * special.RULE_SPAN - s, special.RULE_NODES)
        sw = grid.sqrt_weights
        a = 0.5 * sw[:, None] * airy(0.5 * np.add.outer(grid.nodes, grid.nodes))[0] * sw
        minus, plus = (math.exp(_eigen_log_det(a, sign)) for sign in (1.0, -1.0))
        rows.append((minus, f2, 0.5 * (minus + plus)))
    return np.array(rows)


@pytest.fixture(scope="class")
def rule_reference():
    """The laws and bundles on the 160-node rule with RULE_SPAN = 30."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special, "RULE_NODES", 160)
        patch.setattr(special, "RULE_SPAN", 30.0)
        return _reference_laws(), _rule_bundles()


class TestRuleSize:
    """special's one rule, RULE_NODES nodes RULE_SPAN units past the edge, serves the Airy side.

    Every K_Ai operator, and the bundle's outer rule, whose integrands are
    O(Ai), take 48 nodes on (s, max(s, 0) + 16): the edge rule at the edge 0
    on the unit 1, which the finite-n kernels take on the soft-edge scale.
    The sum kernel A_s of F_1 and F_4 takes 48 nodes on (s, 32 - s): its row
    x = s falls to Ai(16)/2 only there, so A_s needs its own reach but no
    more nodes.  Against the 160-node rule with RULE_SPAN = 30 both keep the
    reference's digits, and the K_Ai rule is the smallest that does: one step
    down in either of its dimensions misses the bundle bound, and fewer nodes
    miss the Painleve II left edge.
    """

    def test_default_size(self):
        assert (special.RULE_NODES, special.RULE_SPAN) == (48, 16.0)

    def test_laws_match_reference(self, rule_reference):
        # measured worst gaps: F1 1.8e-15 (s = -4), F2 1.3e-15 (s = 5), F4 1.1e-15
        # (s = -2.5); against 160-node Cholesky determinants, which round to
        # 2.5e-15 near F = 1, F4 read 2.4e-15 and the former 64-node A_s 3.0e-15
        laws, _ = rule_reference
        assert np.abs(_rule_laws() - laws).max() < 3e-15

    def test_kai_reach_misses_the_law_bound(self, rule_reference, monkeypatch):
        # A_s on the K_Ai rule's reach (s, max(s, 0) + 16) cuts the row x = s
        # at Ai((s + 16 + max(s, 0))/2)/2, not at Ai(16)/2: F_4 misses the
        # reference by 4.4e-11 at s = -6.5, F_1 by 8.6e-13 at s = -5
        laws, _ = rule_reference
        build_grid = airy_module.build_grid
        monkeypatch.setattr(airy_module, "build_grid", lambda lower, upper, nodes: build_grid(
            lower, np.maximum(lower, 0.0) + special.RULE_SPAN, nodes))
        assert np.abs(_rule_laws() - laws)[:, 2].max() > 1e-12

    def test_bundle_matches_reference(self, rule_reference):
        # measured worst: alpha 7.4e-14, the exponential log F_2 6.1e-14, q' 5.2e-12
        _, bundles = rule_reference
        gaps = np.abs(_rule_bundles() - bundles) / np.abs(bundles)
        assert gaps[:, :5].max() < 5e-13
        assert gaps[:, 5].max() < 2e-11

    @pytest.mark.parametrize("nodes, span", [(40, 16.0), (48, 12.0)], ids=["40-on-16", "48-on-12"])
    def test_smaller_rule_misses_the_bundle_bound(self, rule_reference, nodes, span, monkeypatch):
        # one step down in each dimension of the K_Ai rule: 40 nodes on +16
        # lose the exponential log F_2 to 3.0e-11, 48 nodes on +12 eta to 3.8e-11
        _, bundles = rule_reference
        monkeypatch.setattr(special, "RULE_NODES", nodes)
        monkeypatch.setattr(special, "RULE_SPAN", span)
        gaps = np.abs(_rule_bundles() - bundles) / np.abs(bundles)
        assert gaps[:, :5].max() > 1e-11

    def test_smaller_rule_misses_the_left_edge(self, monkeypatch):
        # 40 nodes on +16 are off from the Painleve II series at s = -10 by
        # 4.9e-3 in log F_2 and 2.2e-2 in q, past TestPainleveLeftEdge's bounds
        monkeypatch.setattr(special, "RULE_NODES", 40)
        assert abs(log_f2_limit(-10.0) - _painleve_log_f2(-10.0)) > 1e-4
        assert abs(hastings_mcleod_q(-10.0) - _painleve_q(-10.0)) > 5e-4


def _painleve_log_f2(s: float) -> float:
    """Left-tail series of log F_2 (Tracy & Widom 1994; constant by Deift, Its & Krasovsky 2008)."""
    import mpmath

    a = -s
    return (
        -(a**3) / 12.0
        - math.log(a) / 8.0
        + math.log(2.0) / 24.0
        + float(mpmath.zeta(-1, derivative=1))
        + 3.0 / (64.0 * a**3)
        + 63.0 / (256.0 * a**6)
        + 2407.0 / (512.0 * a**9)
    )


def _painleve_q(s: float) -> float:
    """Left-tail series of the Hastings-McLeod q (Tracy & Widom 1994)."""
    return math.sqrt(-s / 2.0) * (1.0 + s**-3 / 8.0 - 73.0 * s**-6 / 128.0 + 10657.0 * s**-9 / 1024.0)


class TestPainleveLeftEdge:
    """The Painleve II series as the reference at the left edge of the window.

    The series' truncation error is below 1e-9 for s <= -8, so the gaps
    below are the Nystrom values' own error (F_2(-10) is about 4e-37).  The
    bounds were set between the gaps of 64 and 96 nodes on +30; the K_Ai
    rule, 48 nodes on +16, is closer to the series than either.
    """

    @pytest.mark.parametrize(
        "s, bound",
        # measured gaps at 48 nodes on +16 4.2e-5, 8.0e-7, 5.4e-10 (an LU read
        # 3.9e-5, 7.5e-7, 1.9e-9); at 64 nodes on
        # +30 5.4e-5, 6.5e-7, 1.7e-8; at 96 nodes on +30 8.3e-5, 2.2e-6, 5.3e-8
        [(-10.0, 1e-4), (-9.0, 1.5e-6), (-8.0, 3e-8)],
    )
    def test_log_f2(self, s, bound):
        assert abs(log_f2_limit(s) - _painleve_log_f2(s)) < bound

    @pytest.mark.parametrize(
        "s, bound",
        # measured gaps at 48 nodes on +16 1.8e-4, 3.3e-6, 2.7e-10 (an LU read
        # 1.7e-4, 3.0e-6, 5.3e-9); at 64 nodes on
        # +30 2.4e-4, 2.7e-6, 6.4e-8; at 96 nodes on +30 3.6e-4, 9.1e-6, 2.1e-7
        [(-10.0, 5e-4), (-9.0, 5e-6), (-8.0, 1.2e-7)],
    )
    def test_hastings_mcleod_q(self, s, bound):
        assert abs(hastings_mcleod_q(s) - _painleve_q(s)) < bound


#: F_1 and F_4 at the left edge from 30-digit determinants of A_s on a 30-digit
#: Gauss-Legendre rule on (s, 56 - s); 96, 128 and 160 nodes, and 128 nodes on
#: (s, 40 - s), agree to the 15 digits kept here
LEFT_EDGE_LAWS = {
    (f1_limit, -8.0): 1.80682792118542e-12,
    (f4_limit, -8.0): 5.4956342237951e-8,
    (f1_limit, -9.0): 7.57642214187232e-17,
    (f4_limit, -9.0): 1.80953179410802e-11,
}


class TestSumKernelLeftEdge:
    """F_1 and F_4 at s = -9, -8 against 30-digit determinants, as TestPainleveLeftEdge holds F_2 and q.

    Here I - A_s is nearly singular (1 - lambda_1 is 1e-8 at s = -8, 2e-10 at
    s = -9), so the gaps are mostly the rounding of the rule and of the
    factor, amplified by 1/(1 - lambda_1).  A 30-digit determinant on a rule
    rounded to doubles carries the same amplification: on 128 and 160 such
    nodes F_1(-8) differs by 4.7e-8.  Measured relative gaps, 48 nodes on
    (s, 32 - s) / the former 64 nodes on (s, max(s, 0) + 30) / 40 nodes on
    (s, 32 - s): F_1(-8) 2.6e-8 / 1.8e-8 / 5.4e-8, F_4(-8) 6.5e-11 / 7.4e-11
    / 1.2e-9, F_1(-9) 4.4e-8 / 2.0e-6 / 2.7e-6, F_4(-9) 9.6e-9 / 7.1e-10 /
    2.8e-6.  F_1's rounding does not tell 40 nodes from 48; F_4's does.
    """

    BOUNDS = {(f1_limit, -8.0): 1e-7, (f4_limit, -8.0): 5e-10,
              (f1_limit, -9.0): 5e-6, (f4_limit, -9.0): 3e-8}

    @pytest.mark.parametrize("law, s", list(LEFT_EDGE_LAWS), ids=["F1(-8)", "F4(-8)", "F1(-9)", "F4(-9)"])
    def test_law(self, law, s):
        reference = LEFT_EDGE_LAWS[law, s]
        assert abs(law(s) - reference) / reference < self.BOUNDS[law, s]

    @pytest.mark.parametrize("s", [-8.0, -9.0])
    def test_smaller_rule_misses_f4(self, s, monkeypatch):
        monkeypatch.setattr(special, "RULE_NODES", 40)
        reference = LEFT_EDGE_LAWS[f4_limit, s]
        assert abs(f4_limit(s) - reference) / reference > self.BOUNDS[f4_limit, s]
