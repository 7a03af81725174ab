"""Oracle tests for the Nystrom kernel discretization and resolvent solves."""

import importlib
import math
import re
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from gemax import airy as airy_laws
from gemax import finite_n, fredholm
from gemax.errors import NumericalError, ParameterError
from gemax.fredholm import (
    BLOCK,
    TRACE_FLOOR,
    assemble,
    fredholm_log_det,
    log_det,
    map_blocks,
    resolvent_at_lower,
    resolvent_solve_many,
)
from gemax.special import airy, build_grid, hermite_parts
from helpers import (
    airy_kernel,
    airy_operator,
    airy_parts,
    hermite_kernel,
    hermite_operator,
    hermite_phi,
    integrable_form,
    nystrom_extend,
)


class TestHermiteKernel:
    def test_n1_closed_form(self):
        # [DERIVED] for n = 1 the kernel is the rank-one projector
        # K(x, y) = phi_0(x) phi_0(y) = pi^{-1/2} e^{-(x^2+y^2)/2}
        for x, y in [(0.3, -1.2), (2.0, 2.0), (-0.5, 0.5)]:
            target = math.exp(-(x * x + y * y) / 2) / math.sqrt(math.pi)
            assert hermite_kernel(1, x, y) == pytest.approx(target, rel=1e-12)

    def test_symmetry(self):
        assert hermite_kernel(6, 0.7, -1.9) == pytest.approx(
            hermite_kernel(6, -1.9, 0.7), rel=1e-13
        )

    def test_diagonal_limit(self):
        # [DERIVED] K(x, x+h) -> K(x, x) as h -> 0, checked from just
        # outside the guard band
        x = 1.1
        diag = hermite_kernel(4, x, x)
        approach = hermite_kernel(4, x, x + 2e-6)
        assert approach == pytest.approx(diag, abs=1e-5)

    def test_diagonal_is_density(self):
        # [DERIVED] int K_n(x, x) dx = n (trace equals eigenvalue count)
        n = 5
        half = math.sqrt(2 * n) + 7
        grid = build_grid(-half, half, 160)
        diag = np.array([hermite_kernel(n, float(x), float(x)) for x in grid.nodes])
        assert float(np.sum(grid.weights * diag)) == pytest.approx(n, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 9, 30, 400])
    def test_diagonal_oracle(self, n):
        # [DERIVED] K_n(x, x) = sum_{k<n} phi_k(x)^2, a sum of positive terms
        # with no cancellation, against the diagonal from the ladder identities
        edge = math.sqrt(2 * n)
        xs = np.linspace(-edge - 3.0, edge + 6.0, 37)
        reference = sum(hermite_phi(k, xs) ** 2 for k in range(n))
        got = hermite_kernel(n, xs, xs)
        assert np.allclose(got, reference, rtol=1e-11, atol=0.0)

    def test_reproducing_property(self):
        # [DERIVED] int K_n(x, y) phi_k(y) dy = phi_k(x) for k < n
        n, k, x = 6, 3, 0.9
        half = math.sqrt(2 * n) + 8
        grid = build_grid(-half, half, 200)
        row = hermite_kernel(n, x, grid.nodes)
        got = float(np.sum(grid.weights * row * hermite_phi(k, grid.nodes)))
        assert got == pytest.approx(float(hermite_phi(k, x)), abs=1e-10)


class TestAiryKernel:
    def test_diagonal_closed_form(self):
        # [TRIVIAL] K(x, x) = Ai'(x)^2 - x Ai(x)^2
        x = -1.3
        ai, aip = airy(x)
        assert airy_kernel(x, x) == pytest.approx(aip * aip - x * ai * ai, rel=1e-12)

    def test_off_diagonal(self):
        # [DERIVED] direct quotient at well-separated points
        x, y = 0.4, -2.0
        ax, apx = airy(x)
        ay, apy = airy(y)
        assert airy_kernel(x, y) == pytest.approx((ax * apy - ay * apx) / (x - y), rel=1e-12)


class TestAssemble:
    def test_matrix_symmetric(self):
        grid = build_grid(-1.0, 5.0, 24)
        op = hermite_operator(3, grid)
        assert np.array_equal(op.matrix, op.matrix.T)

    CASES = [
        ("hermite(1)", partial(hermite_operator, 1), partial(hermite_kernel, 1), -3.0, 10.0),
        ("hermite(40)", partial(hermite_operator, 40), partial(hermite_kernel, 40),
         math.sqrt(80) - 4.0, math.sqrt(80) + 10.0),
        ("hermite(400)", partial(hermite_operator, 400), partial(hermite_kernel, 400),
         math.sqrt(800) - 4.0, math.sqrt(800) + 10.0),
        ("airy", airy_operator, airy_kernel, -10.0, 30.0),
    ]

    @pytest.mark.parametrize("name,operator,kernel,lower,upper", CASES, ids=[c[0] for c in CASES])
    def test_one_pass_matches_two_pass(self, name, operator, kernel, lower, upper):
        # the kernel evaluated separately on the row and the column side, as
        # kernel(x_i, x_j), must give the very same matrix
        grid = build_grid(lower, upper, 96)
        x, sw = grid.nodes, grid.sqrt_weights
        two_pass = sw[:, None] * kernel(x[:, None], x[None, :]) * sw[None, :]
        two_pass = 0.5 * (two_pass + two_pass.T)
        assert np.array_equal(operator(grid).matrix, two_pass)

    @pytest.mark.parametrize("name,operator,kernel,lower,upper", CASES, ids=[c[0] for c in CASES])
    def test_end_row_is_kernel_at_lower(self, name, operator, kernel, lower, upper):
        # the row K(lower, x_j) comes from the parts the caller gave at the
        # left end, and is built only when first read
        grid = build_grid(lower, upper, 96)
        op = operator(grid)
        assert "end_row" not in op.__dict__
        np.testing.assert_allclose(op.end_row, kernel(lower, grid.nodes), rtol=1e-14, atol=0.0)


class TestFredholmDet:
    def test_rank_one_oracle(self):
        # [DERIVED] for n = 1, det(I - K) on (t, T) is exactly
        # 1 - int_t^T phi_0(x)^2 dx = (1 + erf(t))/2 for large T
        t = 0.4
        grid = build_grid(t, t + 12.0, 64)
        det = math.exp(fredholm_log_det(hermite_operator(1, grid)))
        assert det == pytest.approx((1 + math.erf(t)) / 2, abs=1e-12)

    def test_log_det_matches_det(self):
        grid = build_grid(-1.0, 9.0, 48)
        op = hermite_operator(4, grid)
        direct = np.linalg.det(np.eye(grid.count) - op.matrix)
        assert math.exp(fredholm_log_det(op)) == pytest.approx(direct, rel=1e-13)

    def test_airy_tracy_widom_value(self):
        # [DERIVED] F_2(0) from high-precision published evaluations of the
        # Tracy-Widom GUE distribution: F_2(0) = 0.9693728283552...
        grid = build_grid(0.0, 30.0, 96)
        det = math.exp(fredholm_log_det(airy_operator(grid)))
        assert det == pytest.approx(0.9693728283552, abs=1e-10)

    @pytest.mark.parametrize("factor", [1.5, 2.5])
    def test_sign_from_the_factors(self, factor):
        # the log det comes from the Cholesky factor that solves share; for
        # the rank-one kernel phi_0 x phi_0 on (-3, 9), det(I - c K) = 1 - c (1 - e)
        # with e = erfc(3)/2 ~ 1e-5: negative for c = 1.5 and c = 2.5, where
        # the factorization refuses I - c K
        op = hermite_operator(1, build_grid(-3.0, 9.0, 48))
        scaled = replace(op, matrix=factor * op.matrix)
        with pytest.raises(NumericalError):
            fredholm_log_det(scaled)
        assert math.exp(fredholm_log_det(op)) == pytest.approx(0.5 * math.erfc(3.0), rel=1e-10)
        assert "_lu" in op.__dict__


#: (parts, scale, left ends, width) of three operators of each kernel
PINNED = {
    "hermite": (partial(hermite_parts, 5), math.sqrt(2.5), np.array([-2.0, 0.5, 3.0]), 9.0),
    "airy": (airy_parts, 1.0, np.array([-6.0, -2.0, 1.0]), 12.0),
}


def _pinned(kind: str, size: int):
    """(grid, parts, scale) of a stack of ``size`` operators on the 64-node rule."""
    parts, scale, lower, width = PINNED[kind]
    grid = build_grid(lower[:size], lower[:size] + width, 64)
    return grid, parts(grid.nodes_and_lower), scale


class TestStack:
    """A stack of grids gives a stack of operators, each bit for bit its own operator."""

    LOWER = np.array([-2.0, 0.5, 3.0])

    def _stack(self):
        grid = build_grid(self.LOWER, self.LOWER + 9.0, 32)
        return assemble(grid, hermite_parts(5, grid.nodes_and_lower), math.sqrt(2.5))

    def test_operators(self):
        stack = self._stack()
        assert stack.matrix.shape == (3, 32, 32)
        for k, lower in enumerate(self.LOWER):
            op = hermite_operator(5, build_grid(lower, lower + 9.0, 32))
            assert np.array_equal(stack.matrix[k], op.matrix)
            assert np.array_equal(stack.end_row[k], op.end_row)

    def test_solves(self):
        stack = self._stack()
        rhs = np.stack([np.cos(stack.grid.nodes), stack.grid.nodes], axis=-1)
        sols = resolvent_solve_many(stack, rhs)
        for k, lower in enumerate(self.LOWER):
            op = hermite_operator(5, build_grid(lower, lower + 9.0, 32))
            assert np.array_equal(sols[k], resolvent_solve_many(op, rhs[k]))

    def _three_blocks(self):
        """A stack of 2 BLOCK + 1 Hermite operators, three blocks at any BLOCK, and its parts."""
        count = 2 * BLOCK + 1
        grid = build_grid(np.linspace(-2.0, 3.0, count), np.full(count, 12.0), 32)
        return grid, hermite_parts(5, grid.nodes_and_lower)

    def test_map_blocks(self):
        # blocks of BLOCK operators, joined in order on the last axis
        grid, parts = self._three_blocks()
        lowers = map_blocks(lambda op: op.grid.lower[None, :], grid, parts, math.sqrt(2.5))
        assert np.array_equal(lowers, grid.lower[None, :])
        size = lambda op: np.full(op.matrix.shape[0], op.matrix.shape[0])
        sizes = map_blocks(size, grid, parts, 1.0)
        count = grid.lower.size
        blocks = np.split(np.arange(count), range(BLOCK, count, BLOCK))
        assert len(blocks) == 3
        assert np.array_equal(sizes, np.concatenate([np.full(b.size, b.size) for b in blocks]))

    @pytest.mark.parametrize("read", [
        lambda op, rhs: log_det(op),
        lambda op, rhs: resolvent_at_lower(op, rhs)[1].T,
    ], ids=["log_det", "resolvent_at_lower"])
    def test_block_operator_is_dropped(self, read, monkeypatch):
        # a block's operator, with the factor and end row it built, is gone
        # when the next block is assembled, and none outlives the stack
        grid, parts = self._three_blocks()
        refs, alive = [], []
        real = fredholm.assemble

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in refs))
            op = real(*args)
            refs.append(weakref.ref(op))
            return op

        monkeypatch.setattr(fredholm, "assemble", tracked)
        values = map_blocks(read, grid, parts, math.sqrt(2.5), np.stack(parts[:2], axis=-1))
        assert values.shape[-1] == grid.lower.size
        assert alive == [0, 0, 0]
        assert [ref() for ref in refs] == [None] * 3

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("kind", ["hermite", "airy"])
    def test_matrix_is_the_masked_form(self, kind, size):
        # the quotient built in place with K(x_i, x_i) set on the diagonal is
        # the masked reference form, scaled and scrubbed
        grid, parts, scale = _pinned(kind, size)
        x = grid.nodes
        nodes = tuple(v[..., :-1] for v in parts)
        rows = tuple(v[..., :, None] for v in nodes)
        cols = tuple(v[..., None, :] for v in nodes)
        want = integrable_form(x[..., :, None], rows, x[..., None, :], cols, scale)
        sw = grid.sqrt_weights
        want = sw[..., :, None] * want * sw[..., None, :]
        want = 0.5 * (want + np.swapaxes(want, -1, -2))
        assert np.array_equal(assemble(grid, parts, scale).matrix, want)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("kind", ["hermite", "airy"])
    def test_end_row_is_the_masked_form(self, kind, size):
        # the row K(lower, x_j), the same quotient with no mask, is the masked
        # reference form at the left end bit for bit
        grid, parts, scale = _pinned(kind, size)
        lower = grid.lower[:, None]
        ends = tuple(v[..., -1:] for v in parts)
        nodes = tuple(v[..., :-1] for v in parts)
        want = integrable_form(lower, ends, grid.nodes, nodes, scale)
        assert np.array_equal(assemble(grid, parts, scale).end_row, want)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("kind", ["hermite", "airy"])
    def test_factors_log_det_and_solves(self, kind, size):
        # the factor, the log det and the solves are those of scipy's
        # cho_factor/cho_solve run operator by operator, bit for bit
        op = assemble(*_pinned(kind, size))
        factor = op._lu
        logdet = log_det(op)
        x = op.grid.nodes
        rhs = np.stack([np.cos(x), x, np.ones_like(x)], axis=-1)
        sols = resolvent_solve_many(op, rhs)
        sw = op.grid.sqrt_weights[..., None]
        want = []
        for k in range(size):
            ref = cho_factor(np.eye(64) - op.matrix[k])
            # potrf writes one triangle; the other keeps what it held
            assert np.array_equal(np.triu(factor[k]), np.triu(ref[0]))
            assert logdet[k] == 2.0 * np.log(ref[0].diagonal()).sum()
            want.append(cho_solve(ref, sw[k] * rhs[k]))
        # joined as scipy's batched wrapper joined them, in Fortran order
        # within each operator: the endpoint sums read the layout
        want = np.stack(want) / sw
        assert np.array_equal(sols, want)
        assert sols.strides == want.strides


def _spied(monkeypatch, module):
    """(fn, operator, extra, value) of every call of fn in the module's map_blocks, in order."""
    calls = []
    real = module.map_blocks

    def spy(fn, *args):
        def record(op, *extra):
            value = fn(op, *extra)
            calls.append((fn, op, extra, value))
            return value

        return real(record, *args)

    monkeypatch.setattr(module, "map_blocks", spy)
    return calls


def _soft_edge(n: int, units: float) -> float:
    """sqrt(2n) + units soft-edge units sigma_n = 2^{-1/2} n^{-1/6}."""
    return math.sqrt(2.0 * n) + units / (math.sqrt(2.0) * n ** (1.0 / 6.0))


def _exponential_table(n: int):
    # the exponential F_{n,2} at 9 points from edge - 3 to edge + 2.5: one
    # composite outer rule over the points, its operators built 64 at a time
    edge = math.sqrt(2.0 * n)
    return lambda: finite_n.cdf_values("gue", n, np.linspace(edge - 3.0, edge + 2.5, 9), "exponential")


#: (module, the stacks it builds, the left end below which no operator may be
#: an identity): the bundle's 49 operators at s, the exponential table's
#: outer operators.  The rule fires only far right: the first
#: identity starts at x = 9.23 on the Airy side and 7.98, 8.87 and 9.11
#: soft-edge units past the edge at n = 4, 40 and 400
RULE_STACKS = {
    **{f"bundle s={s}": (fredholm, partial(airy_laws._bundle_cached.__wrapped__, s), 9.0)
       for s in (-3.0, 1.5, 5.0)},
    **{f"exponential n={n}": (fredholm, _exponential_table(n), _soft_edge(n, 7.9))
       for n in (4, 40, 400)},
}


class TestTraceFloor:
    """An operator of trace below TRACE_FLOOR is the identity: no matrix, no factor, the same bits."""

    @pytest.mark.parametrize("case", RULE_STACKS)
    def test_identities_are_the_lu_path_bit_for_bit(self, case, monkeypatch):
        # each block of identities, assembled and factored after all (no
        # trace is below a floor of 0), gives the same endpoint values bit for bit
        module, build, _ = RULE_STACKS[case]
        calls = _spied(monkeypatch, module)
        build()
        identities = [call for call in calls if call[1].trace is not None]
        assert identities
        monkeypatch.setattr(fredholm, "TRACE_FLOOR", 0.0)
        for fn, op, extra, value in identities:
            assembled = assemble(op.grid, op.parts, op.scale)
            assert np.array_equal(fn(assembled, *extra), value)
            assert "_lu" in assembled.__dict__ and "_lu" not in op.__dict__

    @pytest.mark.parametrize("case", RULE_STACKS)
    def test_fires_only_far_right(self, case, monkeypatch):
        # every operator that starts left of the bound is assembled; past it
        # the stacks hold both kinds
        module, build, near = RULE_STACKS[case]
        calls = _spied(monkeypatch, module)
        build()
        kinds = set()
        for _, op, _, _ in calls:
            lower = np.atleast_1d(op.grid.lower)
            kinds.add(op.trace is None)
            if op.trace is not None:
                assert lower.min() >= near
                assert np.all(op.trace < TRACE_FLOOR)
        assert kinds == {True, False}

    @pytest.mark.parametrize(
        "module, values, points",
        [
            (fredholm, airy_laws._point_values, [12.0, -2.0, 9.5, 0.5, 15.0, 3.0, 10.5, -1.0, 20.0]),
            (fredholm, partial(finite_n._q_p, 40), [14.0, 6.0, 12.5, 9.0, 16.0, 8.0, 13.0]),
        ],
        ids=["airy", "finite_n"],
    )
    def test_unsorted_stack(self, module, values, points, monkeypatch):
        # the trailing run of below-floor operators is a block of identities;
        # one that shares its block with an assembled operator is assembled,
        # and its solves give the same bits, so an unsorted stack gives the
        # values of the same stack sorted, in its own order
        points = np.array(points)
        order = np.argsort(points)
        sorted_values = values(points[order])
        calls = _spied(monkeypatch, module)
        unsorted = values(points)
        assert {op.trace is None for _, op, _, _ in calls} == {True, False}
        assert np.array_equal(unsorted[..., order], sorted_values)

    @pytest.mark.parametrize("lower", [12.0, np.array([12.0, 12.0, 12.0])], ids=["one", "stack of 3"])
    def test_assemble_builds_the_identity(self, lower):
        # K_Ai on (12, 28) is below the floor: assemble builds no matrix (a zero
        # view of the operator's shape, every stride 0) and no factor, and the
        # log-determinant is -trace
        grid = build_grid(lower, np.full_like(lower, 28.0), 48)
        parts = airy_parts(grid.nodes_and_lower)
        op = assemble(grid, parts, 1.0)
        trace = np.sum(grid.weights * np.abs(parts[2][..., :-1]), axis=-1)
        assert op.trace is not None and np.array_equal(op.trace, trace)
        assert np.all(op.trace < TRACE_FLOOR)
        assert op.matrix.shape == grid.nodes.shape + (48,) and not op.matrix.any()
        assert set(op.matrix.strides) == {0}
        assert np.array_equal(log_det(op), -op.trace)
        rhs = np.stack([np.cos(grid.nodes), np.sin(grid.nodes)], axis=-1)
        # sqrt(w) rhs / sqrt(w): rhs to an ulp
        np.testing.assert_allclose(resolvent_solve_many(op, rhs), rhs, rtol=2.0**-52, atol=0.0)
        assert "_lu" not in op.__dict__

    def test_unsorted_block_below_the_floor(self, monkeypatch):
        # an unsorted K_Ai stack: BLOCK left ends past the floor, then s = -2.
        # The first block lies wholly below the floor, so it is a block of
        # identities whose log-determinants read -trace; assembled (a floor
        # of 0) its factor reads 0.0.  Every endpoint value is the assembled
        # one, bit for bit
        points = np.append(np.linspace(10.0, 17.5, BLOCK), -2.0)
        ops = []

        def read(op):
            ops.append(op)
            return np.vstack([log_det(op), airy_laws._endpoint_scalars(op).reshape(18, -1)])

        values = fredholm.on_operators(airy_laws._AIRY, points, read)
        monkeypatch.setattr(fredholm, "TRACE_FLOOR", 0.0)
        assembled = fredholm.on_operators(airy_laws._AIRY, points, read)
        assert [op.trace is None for op in ops] == [False, True, True, True]
        assert np.all(ops[0].trace < TRACE_FLOOR) and np.all(ops[0].trace > 0.0)
        assert np.array_equal(values[0, :BLOCK], -ops[0].trace)
        assert np.all(assembled[0, :BLOCK] == 0.0)
        assert values[0, BLOCK] == assembled[0, BLOCK]
        assert np.array_equal(values[1:], assembled[1:])


class TestFailures:
    """A non-finite I - K is a NumericalError and a singular one is refused, with no warning."""

    @staticmethod
    def _spoiled(size, index, value):
        # one operator (size 1, no stack axis), or a stack of 3 whose middle
        # operator is spoiled: its matrix takes value at index
        if size == 1:
            op = hermite_operator(5, build_grid(0.5, 9.5, 64))
        else:
            op = assemble(*_pinned("hermite", 3))
        matrix = op.matrix.copy()
        (matrix if size == 1 else matrix[1])[index] = value
        return replace(op, matrix=matrix), np.ones(op.grid.nodes.shape + (1,))

    @pytest.mark.parametrize("size", [1, 3])
    def test_non_finite_matrix(self, size):
        bad, rhs = self._spoiled(size, (5, 7), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                log_det(bad)
            with pytest.raises(NumericalError, match="not finite"):
                resolvent_solve_many(bad, rhs)
            if size == 1:
                with pytest.raises(NumericalError, match="not finite"):
                    fredholm_log_det(bad)

    @pytest.mark.parametrize("size", [1, 3])
    def test_zero_pivot(self, size):
        # matrix = I makes I - K = 0: potrf meets a zero pivot and refuses it.
        # Its log det is -inf, its columns are NaN, fredholm_log_det raises
        # lost positivity, and the other operators of a stack solve as they
        # would alone
        bad, rhs = self._spoiled(size, Ellipsis, np.eye(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logdet = log_det(bad)
            sols = resolvent_solve_many(bad, rhs)
            if size == 1:
                assert logdet == -np.inf and np.all(np.isnan(sols))
                with pytest.raises(NumericalError, match="lost positivity"):
                    fredholm_log_det(bad)
            else:
                assert logdet[1] == -np.inf and np.all(np.isnan(sols[1]))
                good = assemble(*_pinned("hermite", 3))
                assert np.array_equal(logdet[[0, 2]], log_det(good)[[0, 2]])
                assert np.array_equal(sols[[0, 2]], resolvent_solve_many(good, rhs)[[0, 2]])
                assert np.array_equal(bad.refused, [False, True, False])

    @pytest.mark.parametrize(
        "lower, upper", [(0.0, 1e-5), (np.zeros(2), np.array([9.0, 1e-5])), (1e13, 1e13 + 1.0)]
    )
    def test_nodes_too_close(self, lower, upper):
        # the diagonal limit is taken on the diagonal only, so distinct nodes
        # within DIAG_GUARD of each other are refused; so is a first node
        # within DIAG_GUARD of the left end (at 1e13 the two are equal), as
        # the row K(lower, x_j) is the quotient alone
        grid = build_grid(lower, upper, 64)
        with pytest.raises(ParameterError, match="nodes within"):
            assemble(grid, hermite_parts(5, grid.nodes_and_lower), math.sqrt(2.5))

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_refusal_names_both_ends(self, stacked):
        # numpy's array repr rounds 1e13 + 1 to 1.e+13; the message prints
        # every end at full precision, on a stack as on a single grid
        lower, upper = 1e13, 1e13 + 1.0
        if stacked:
            lower, upper = np.array([lower]), np.array([upper])
        grid = build_grid(lower, upper, 64)
        with pytest.raises(ParameterError) as raised:
            assemble(grid, hermite_parts(5, grid.nodes_and_lower), math.sqrt(2.5))
        ends = [float(v) for v in re.findall(r"\d+\.\d+", str(raised.value).split(" on ")[1])]
        assert ends == [1e13, 1e13 + 1.0]


class TestResolvent:
    def test_rank_one_sherman_morrison(self):
        # [DERIVED] for the rank-one kernel K = phi_0 x phi_0 on (t, T),
        # (I - K)^{-1} f = f + phi_0 <phi_0, f> / (1 - <phi_0, phi_0>)
        t, width = -0.2, 14.0
        grid = build_grid(t, t + width, 72)
        op = hermite_operator(1, grid)
        phi0 = hermite_phi(0, grid.nodes)
        rhs = np.cos(grid.nodes)
        sol = resolvent_solve_many(op, rhs[:, None])[:, 0]
        s = float(np.sum(grid.weights * phi0 * phi0))
        proj = float(np.sum(grid.weights * phi0 * rhs))
        expect = rhs + phi0 * proj / (1 - s)
        assert np.allclose(sol, expect, atol=1e-10)

    def test_solve_many_matches_single(self):
        # each column against a dense solve of the Nystrom system (I - A) y = sqrt(w) rhs
        grid = build_grid(-1.0, 8.0, 40)
        op = hermite_operator(3, grid)
        rhs = np.stack([np.exp(-grid.nodes**2), grid.nodes], axis=1)
        block = resolvent_solve_many(op, rhs)
        sw = grid.sqrt_weights
        system = np.eye(grid.count) - op.matrix
        for j in range(2):
            single = np.linalg.solve(system, sw * rhs[:, j]) / sw
            assert np.allclose(block[:, j], single, atol=1e-13)

    @pytest.mark.parametrize("size", [1, 3])
    def test_non_finite_solution_raises(self, size):
        # an accepted operator (no refusal) whose solution is not finite, here
        # from a NaN in its right-hand side, is a NumericalError; a stack raises for all
        op = hermite_operator(5, build_grid(0.5, 9.5, 64)) if size == 1 else assemble(*_pinned("hermite", 3))
        rhs = np.ones(op.grid.nodes.shape + (2,))
        rhs[..., 5, 1] = np.nan
        assert not np.any(op.refused)
        with pytest.raises(NumericalError, match="resolvent solve failed"):
            resolvent_solve_many(op, rhs)

    def test_rhs_shape_check(self):
        grid = build_grid(-1.0, 8.0, 40)
        op = hermite_operator(3, grid)
        for bad in (np.zeros((7, 1)), np.zeros(40)):
            with pytest.raises(ParameterError):
                resolvent_solve_many(op, bad)

    def test_nystrom_extend_reproduces_nodes(self):
        grid = build_grid(-0.5, 9.0, 48)
        op = hermite_operator(2, grid)
        rhs_fn = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
        sol = resolvent_solve_many(op, rhs_fn(grid.nodes)[:, None])[:, 0]
        mid = 5  # probe an interior node
        got = nystrom_extend(op, partial(hermite_parts, 2), sol, rhs_fn, float(grid.nodes[mid]))
        assert got == pytest.approx(float(sol[mid]), rel=1e-10)

    def test_nystrom_extend_below_interval(self):
        # extension at the left endpoint t, below the first node, must agree
        # with an independently refined grid
        t = 0.3
        op_a = hermite_operator(4, build_grid(t, t + 12.0, 48))
        op_b = hermite_operator(4, build_grid(t, t + 12.0, 96))
        rhs_fn = lambda x: np.asarray(hermite_kernel(4, t, x), dtype=float)

        def extend(op):
            sol = resolvent_solve_many(op, rhs_fn(op.grid.nodes)[:, None])[:, 0]
            return nystrom_extend(op, partial(hermite_parts, 4), sol, rhs_fn, t)

        assert extend(op_a) == pytest.approx(extend(op_b), rel=1e-10)



#: (parts, scale, left ends, width) of four operators of each kernel, on the
#: 48-node rule: the Hermite kernel at n = 40 from edge - 4 to edge + 2, K_Ai
#: from the left end of the s-window to s = 3
LEFT_ENDS = {
    "hermite": (partial(hermite_parts, 40), math.sqrt(20.0),
                math.sqrt(80.0) + np.array([-4.0, -2.0, 0.0, 2.0]), 14.0),
    "airy": (airy_parts, 1.0, np.array([-10.0, -8.0, -2.0, 3.0]), 16.0),
}
RHS_FNS = (np.cos, lambda z: 1.0 / (1.0 + z * z))


def _at_lower(kind: str, lower):
    """(operator, rhs on nodes_and_lower, node solutions, left-end values) on one grid or a stack."""
    parts, scale, _, width = LEFT_ENDS[kind]
    grid = build_grid(lower, lower + width, 48)
    z = grid.nodes_and_lower
    op = assemble(grid, parts(z), scale)
    rhs = np.stack([f(z) for f in RHS_FNS], axis=-1)
    return op, rhs, *resolvent_at_lower(op, rhs)


class TestResolventAtLower:
    """The one left-end rule: rhs(lower) + sum_j w_j K(lower, x_j) f_j of the node solutions."""

    @pytest.mark.parametrize("kind", LEFT_ENDS)
    def test_is_the_nystrom_extension(self, kind):
        # against tests/helpers.nystrom_extend at x = lower, relative to the
        # size |rhs(lower)| + sum_j |w_j K(lower, x_j) f_j| of the sum's terms:
        # measured at most 9.9e-17 (K_Ai at s = -10, where the terms reach 1e4)
        parts = LEFT_ENDS[kind][0]
        for lower in LEFT_ENDS[kind][2]:
            op, rhs, sols, ends = _at_lower(kind, lower)
            assert np.array_equal(sols, resolvent_solve_many(op, rhs[:-1]))
            for k, rhs_fn in enumerate(RHS_FNS):
                want = nystrom_extend(op, parts, sols[:, k], rhs_fn, lower)
                size = abs(rhs[-1, k]) + np.sum(np.abs(op.end_row * op.grid.weights * sols[:, k]))
                assert abs(ends[k] - want) <= 1e-15 * size

    @pytest.mark.parametrize("kind", LEFT_ENDS)
    def test_stack_is_each_operator_alone(self, kind):
        # one call on a stack of four operators gives each operator's own
        # node solutions and left-end values, bit for bit
        lower = LEFT_ENDS[kind][2]
        _, _, sols, ends = _at_lower(kind, lower)
        assert sols.shape == (4, 48, 2) and ends.shape == (4, 2)
        for k, one in enumerate(lower):
            _, _, want_sols, want_ends = _at_lower(kind, one)
            assert np.array_equal(sols[k], want_sols)
            assert np.array_equal(ends[k], want_ends)

    def test_identity_operator(self):
        # K_Ai on (12, 28) is below TRACE_FLOOR: map_blocks builds the
        # identity, whose left-end values are rhs(lower) + end_row . W . rhs
        grid = build_grid(12.0, 28.0, 48)
        z = grid.nodes_and_lower
        rhs = np.stack([f(z) for f in RHS_FNS], axis=-1)
        at_lower = lambda op: (op, resolvent_at_lower(op, rhs)[1])
        op, ends = map_blocks(at_lower, grid, airy_parts(z), 1.0)
        assert op.trace is not None and op.trace < TRACE_FLOOR
        assert np.array_equal(ends, rhs[-1] + op.end_row @ (grid.weights[:, None] * rhs[:-1]))


class TestTracerNames:
    """perfbench's tracer wraps fredholm functions by name; a refactor must keep those names."""

    def test_tracer_counts_the_core(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        trace = importlib.import_module("perfbench.trace")
        originals = (fredholm.resolvent_solve_many, fredholm.DiscretizedKernel.kernel_row)
        tracer = trace.Tracer()
        tracer.install()
        try:
            finite_n.q_p_n(40, 8.0)
            airy_laws.hastings_mcleod_q(-1.0)
        finally:
            tracer.uninstall()
        assert tracer.calls["fredholm.kernel_row"] > 0
        assert tracer.calls["fredholm.resolvent_solve_many"] > 0
        restored = (fredholm.resolvent_solve_many, fredholm.DiscretizedKernel.kernel_row)
        assert all(a is b for a, b in zip(restored, originals))
