"""Nystrom discretization of integrable kernels.

The Hermite and Airy kernels both have the integrable form
scale (f(x)g(y) - f(y)g(x))/(x - y): f, g = phi_n, phi_{n-1} with
scale = sqrt(n/2) for the Christoffel-Darboux Hermite kernel, and
f, g = Ai, Ai' with scale = 1 for the Airy kernel.  This module knows no
kernel by name: each caller describes its kernel once, as a :class:`Kernel`,
and one core serves both: :func:`on_operators` builds every operator,
:func:`tails` gives every tail integral int_t^T of resolvent point values,
and :func:`at_points` owns a table's point order.  One private quotient,
built in place, gives both the matrix (whose diagonal K(x_i, x_i) is written
by index) and the row K(lower, x_j).

A kernel K on (lower, upper) is discretized as the symmetric matrix
A_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j).  Every kernel the library factors
is positive: K_{n,2} on (t, inf) is a compressed projection (0 <= K <= I),
K_Ai has its spectrum in [0, 1) and the sum kernel A_s of F_1/F_4 in
(-1, 1).  So I - A (and I + A_s) is positive definite wherever the law is
positive, and a resolved, well-conditioned Nystrom matrix keeps that
(Bornemann, Math. Comp. 79, 2010).  Each operator is factored once by
Cholesky, I - A = R^T R, and log det(I - A) = 2 sum_i log R_ii.  A refusal
of the factorization is the one lost-positivity signal: the factor is NaN,
the log-determinant -inf and the solves NaN, without a raise, so the
accepted operators of a stack keep their values.  A solve gives the node
values f_j of (I - K)^{-1} f, and one rule, :func:`resolvent_at_lower`,
reads every endpoint value: f(lower) + sum_j w_j K(lower, x_j) f_j.

Operators come in stacks: on a stack of grids (special.build_grid with
arrays of ends) every array carries a leading stack axis, and one call
assembles, factors or solves them all.  A single operator is the stack
without that axis, by the same code.  :func:`map_blocks` walks a long stack
BLOCK operators at a time and drops each block's operator before it builds
the next, so a stack holds one block's matrix and factor, 0.3 MB each at
BLOCK = 16 and 48 nodes, and :func:`assemble` at most two such arrays.
The factorization and its solves are one LAPACK potrf or potrs call per
operator (:func:`_per_operator`), with no wrapper loop around them.

An operator below rounding is the identity.  A is positive semidefinite,
so ||A||_2 <= tr A = tau = sum_j w_j |K(x_j, x_j)|, read from the parts
:func:`map_blocks` already holds.  Then (I - A)^{-1} b differs from b by at
most tau/(1 - tau) ||b||, and log det(I - A) = -tau - O(tau^2); Bornemann's
bound |det(I - A) - det(I - B)| <= ||A - B||_1 exp(1 + ||A||_1 + ||B||_1)
with B = 0 says the same of the determinant.  Where tau < TRACE_FLOOR =
2^-64, 2^-11 of an ulp, for every operator of a block, :func:`assemble`
builds no matrix and factors nothing: the operators' solves return their
right-hand side, bit for bit what the factor gives, and their
log-determinant is -tau, where the factor's diagonal rounds to 1 and reads
0.0.  map_blocks keeps the trailing run of such operators in a stack as
one block.  A trace falls as the left end moves right, so in a stack of
ascending left ends, as every stack of the library is, that run holds them
all.  In an unsorted stack, one that shares a block with an assembled
operator is assembled, and its solves give the same bits.  The sum kernel
A_s of F_1/F_4 has no parts and is always factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import mul
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError, ParameterError
from .special import QuadratureGrid, build_grid, edge_rule

#: operators per block of a stack: enough to share the numpy calls of
#: assembly and of the endpoint sums, few enough to keep the block's
#: matrices and their temporaries small.  Against 4, in-process medians (one
#: BLAS thread, interleaved) took 0.82-0.93 of the time at 8, 0.75-0.90 at
#: 16 and 0.73-0.89 at 24 and 32 on a fresh Airy bundle, 41-point GUE tables
#: at n = 40 and 400, an 11-point GOE table at n = 400 and an 8-step F_4
#: table; 16 is the largest size at which these tables peak no higher than at 4
BLOCK = 16

#: below this separation the difference quotient loses too many digits;
#: assemble takes the limit K(x_i, x_i) on the diagonal only, so it refuses
#: a grid whose distinct nodes, or whose left end and first node, come this
#: close
DIAG_GUARD = 1e-6

#: an operator of trace tr A = sum_j w_j |K(x_j, x_j)| below this is the
#: identity to rounding (the module docstring): 2^-64, 2^-11 of an ulp
TRACE_FLOOR = 2.0**-64


def _ends(grid: QuadratureGrid) -> str:
    """The ends (lower, upper) of a grid for a message, a stack's as lists, each at full precision."""
    return f"({np.asarray(grid.lower).tolist()}, {np.asarray(grid.upper).tolist()})"


def _quotient(px, py, x, y, scale: float, square: bool = False) -> np.ndarray:
    """scale (f(x)g(y) - f(y)g(x))/(x - y), in place, from the parts px, py at x, y.

    The product f(y)g(x) is overwritten by the gap x - y, so at most two
    arrays of the quotient's size are live.  A ``square`` quotient (x the
    nodes as a column, y as a row) divides its diagonal by 1, where
    :func:`assemble` then writes K(x_i, x_i).
    """
    (fx, gx, *_), (fy, gy, *_) = px, py
    out = fx * gy
    gap = fy * gx
    out -= gap
    out *= scale
    np.subtract(x, y, out=gap)
    if square:
        _diagonal(gap)[...] = 1.0
    out /= gap
    return out


@dataclass(frozen=True)
class DiscretizedKernel:
    """Symmetrized Nystrom matrix of a kernel on a grid, or a stack of them."""

    grid: QuadratureGrid
    matrix: np.ndarray
    scale: float
    #: the kernel's parts (f, g, K(z, z)) at z = grid.nodes_and_lower, the left end last
    parts: tuple = field(repr=False)
    #: tr A of an identity operator (a block :func:`assemble` finds below TRACE_FLOOR), None otherwise
    trace: np.ndarray | None = None

    @property
    def node_parts(self) -> tuple:
        """The parts at the nodes: views of ``parts`` without the left end."""
        return tuple(v[..., :-1] for v in self.parts)

    def kernel_row(self, x, px) -> np.ndarray:
        """K(x, x_j) at the grid nodes (unsymmetrized), from the parts px at x.

        The quotient alone: x must lie more than DIAG_GUARD from every node,
        as the left end of any grid :func:`assemble` accepts does.
        """
        return _quotient(px, self.node_parts, x, self.grid.nodes, self.scale)

    @cached_property
    def end_row(self) -> np.ndarray:
        """K(lower, x_j) at the grid nodes, built on first use."""
        lower = np.asarray(self.grid.lower)[..., None]
        return self.kernel_row(lower, tuple(v[..., -1:] for v in self.parts))

    @cached_property
    def _lu(self):
        """The Cholesky factor R of I - A = R^T R, shared by the determinant and every solve.

        One potrf per operator, in place on the Fortran-ordered transposed view
        of I - A; potrf reads one triangle.  A refused operator's factor is NaN.
        """
        a = np.subtract(0.0, self.matrix, order="C")
        _diagonal(a)[...] += 1.0
        if not np.isfinite(a).all():
            raise NumericalError(f"I - K is not finite on {_ends(self.grid)}")
        info = _per_operator(lambda one: dpotrf(one.T, clean=0, overwrite_a=True)[1], a)
        a[info > 0, ...] = np.nan
        return np.swapaxes(a, -1, -2)

    @property
    def refused(self):
        """Where the factorization refused I - A (lost positivity); never for an identity."""
        return np.isnan(self._lu[..., 0, 0]) if self.trace is None else np.zeros_like(self.trace, bool)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of each matrix of a C-ordered stack."""
    m = a.shape[-1]
    return a.reshape(a.shape[:-2] + (m * m,))[..., :: m + 1]


def _check_nodes(grid: QuadratureGrid) -> None:
    """ParameterError where distinct nodes, or the left end and first node, lie within DIAG_GUARD."""
    if (np.diff(grid.nodes, axis=-1, prepend=np.asarray(grid.lower)[..., None]) <= DIAG_GUARD).any():
        raise ParameterError(f"nodes within {DIAG_GUARD} on {_ends(grid)}")


def _trace(grid: QuadratureGrid, parts: tuple):
    """tr A = sum_j w_j |K(x_j, x_j)| of each operator, from the kernel's parts on grid.nodes_and_lower."""
    return np.sum(grid.weights * np.abs(parts[2][..., :-1]), axis=-1)


def assemble(grid: QuadratureGrid, parts: tuple, scale: float) -> DiscretizedKernel:
    """Build the symmetrized Nystrom matrix of an integrable kernel.

    ``parts`` = (f, g, K(z, z)) at z = grid.nodes_and_lower.  The node values
    serve both the row and the column side of the matrix; all of ``parts``
    stays with the operator.  The difference quotient is built in place off
    the diagonal and K(x_i, x_i) is written on it, so the grid's distinct
    nodes, and its left end and first node, must lie more than DIAG_GUARD
    apart; a closer grid is a ParameterError.  A grid or stack whose every
    trace is below TRACE_FLOOR is the identity, I - A read as I: ``matrix``
    is a zero broadcast view (no memory, the operator's shape), no factor is
    made, its solves return their right-hand side and its log-determinant is
    -trace.
    """
    _check_nodes(grid)
    trace = _trace(grid, parts)
    if (trace < TRACE_FLOOR).all():
        zero = np.broadcast_to(0.0, grid.nodes.shape + grid.nodes.shape[-1:])
        return DiscretizedKernel(grid, zero, scale, parts, trace)
    x = grid.nodes
    rows = tuple(v[..., :-1, None] for v in parts)
    cols = tuple(v[..., None, :-1] for v in parts)
    matrix = _quotient(rows, cols, x[..., :, None], x[..., None, :], scale, square=True)
    _diagonal(matrix)[...] = parts[2][..., :-1]
    sw = grid.sqrt_weights
    matrix *= sw[..., :, None]
    matrix *= sw[..., None, :]
    matrix += np.swapaxes(matrix, -1, -2)  # scrub last-bit asymmetry; numpy buffers the overlap
    matrix *= 0.5
    return DiscretizedKernel(grid, matrix, scale, parts)


def map_blocks(fn, grid: QuadratureGrid, parts: tuple, scale: float, *extra) -> np.ndarray:
    """fn(operator, *extra) for the operators of a stack, BLOCK at a time, joined on the last axis.

    ``grid`` is a stack of grids and ``parts`` the kernel's parts on its
    ``nodes_and_lower``, both for the whole stack, and each of ``extra`` an
    array with the leading stack axis; ``fn`` maps the operator of a block
    and the block's rows of ``extra`` to an array whose last axis runs over
    that block.  The trailing run of operators whose trace is below
    TRACE_FLOOR forms one last block and the others blocks of BLOCK;
    :func:`assemble` builds each, a block wholly below the floor as
    identities, and a block's operator is dropped before the next one is
    built.  The values come back in stack order.  A single grid is the
    stack without its axis: one call of fn.
    """
    if grid.nodes.ndim == 1:
        return fn(assemble(grid, parts, scale), *extra)
    below = _trace(grid, parts) < TRACE_FLOOR
    count = np.max(np.flatnonzero(~below), initial=-1) + 1  # the operators left of the trailing run
    arrays = (grid.lower, grid.upper, grid.nodes, grid.weights, *parts, *extra)
    edges = sorted({*range(0, count, BLOCK), count, below.size})
    values = []
    for start, stop in zip(edges[:-1], edges[1:]):
        lower, upper, nodes, weights, *rest = (v[start:stop] for v in arrays)
        op = assemble(QuadratureGrid(lower, upper, nodes, weights), tuple(rest[:len(parts)]), scale)
        values.append(fn(op, *rest[len(parts):]))
        del op  # the block's matrices and factor go before the next block is built
    return np.concatenate(values, axis=-1)


class Kernel(NamedTuple):
    """An integrable kernel, described once: its parts on a grid, its edge, its unit and its scale."""

    #: grid -> (parts, *extra), as :func:`map_blocks` takes them; past edge the kernel decays on unit
    parts: Callable
    edge: float
    unit: float
    scale: float


def on_operators(kernel: Kernel, points, fn):
    """fn(operator, *extra) of the kernel on special.edge_rule at every point, by :func:`map_blocks`; a float is one."""
    grid = edge_rule(points, kernel.edge, kernel.unit)
    parts, *extra = kernel.parts(grid)
    return map_blocks(fn, grid, parts, kernel.scale, *extra)


def _cell_nodes(kernel: Kernel, width: float, outer: int) -> int:
    """The nodes of a composite rule's cell of this width: 8 per unit of the kernel, 16 to outer."""
    return min(outer, max(16, math.ceil(8.0 * width / kernel.unit)))


def tails(kernel: Kernel, t, values, integrands: tuple, outer: int) -> tuple:
    """int_{t_i}^T of each integrand, then the first moment of the last, at a float t or ascending points.

    values(x) gives rows of point values at left ends x, and an integrand is
    a tuple of rows, multiplied left to right after the weight.  The points
    share one composite rule: a cell of :func:`_cell_nodes` between
    neighbours, then the edge rule of outer nodes right of the last point,
    values taken outer left ends at a time.  Each sum runs from the right
    over one pairwise sum per cell (np.add.reduceat sums in order, which moved
    a single point's last bits); with c_i the integral of the last integrand
    g, the moment is int_cell (x - t_i) g + moment_{i+1} + (t_{i+1} - t_i) c_{i+1}.
    """
    points = np.atleast_1d(t)
    cells = [build_grid(lo, hi, _cell_nodes(kernel, hi - lo, outer)) for lo, hi in zip(points[:-1], points[1:])]
    cells.append(edge_rule(points[-1], kernel.edge, kernel.unit, outer))
    x = np.concatenate([cell.nodes for cell in cells])
    w = np.concatenate([cell.weights for cell in cells])
    counts = [cell.count for cell in cells]
    rows = np.concatenate([values(x[k:k + outer]) for k in range(0, x.size, outer)], axis=-1)
    product = lambda first, integrand: reduce(mul, (rows[i] for i in integrand), first)
    moment_weights = w * (x - np.repeat(points, counts))
    terms = np.array([product(w, g) for g in integrands] + [product(moment_weights, integrands[-1])])
    bounds = np.cumsum([0, *counts])
    per_cell = np.stack([terms[:, lo:hi].sum(axis=-1) for lo, hi in zip(bounds[:-1], bounds[1:])], axis=-1)
    from_right = lambda sums, extra: np.cumsum((sums + extra)[..., ::-1], axis=-1)[..., ::-1]
    integrals = from_right(per_cell[:-1], 0.0)
    moment = from_right(per_cell[-1], np.append(np.diff(points) * integrals[-1, 1:], 0.0))
    return tuple(v.reshape(np.shape(t)) for v in (*integrals, moment))


def at_points(fn, x: np.ndarray):
    """fn's values at every point of the array x, in x's order and shape; a float where x is 0-d.

    The one point order: fn takes x's distinct points in ascending order (np.unique), or one
    point in any shape as a 0-d array (one operator, not a stack of one), and gives a float per point.
    """
    points, where = (x.reshape(()), 0) if x.size == 1 else np.unique(x, return_inverse=True)
    values = np.array(fn(points) if points.size else [], dtype=float)
    return values.item() if x.ndim == 0 else values[where].reshape(x.shape)


def _per_operator(fn, *arrays) -> np.ndarray:
    """fn(*slices) for each operator of a stack, joined on the stack axis.

    ``arrays[0]`` is the (stack of) matrices; each of ``arrays`` carries the
    same leading stack axis, and fn makes one LAPACK call on one operator's
    slices.  A single operator is one call.  np.stack keeps LAPACK's Fortran
    order within each operator; the endpoint sums read it in their last bits.
    """
    if arrays[0].ndim == 2:
        return fn(*arrays)
    return np.stack([fn(*one) for one in zip(*arrays)])


def log_det(op: DiscretizedKernel) -> np.ndarray:
    """log det(I - K) = 2 sum_i log R_ii of each operator, from the Cholesky factor its solves share.

    Finite where the determinant underflows, -inf where the factorization
    refused I - A (lost positivity), -trace for an identity operator.
    """
    if op.trace is not None:
        return -op.trace
    return np.where(op.refused, -np.inf, 2.0 * np.log(op._lu.diagonal(0, -2, -1)).sum(axis=-1))


def fredholm_log_det(op: DiscretizedKernel):
    """log det(I - K) of one operator, a float, or of a stack; NumericalError naming the first refused one."""
    logdet = log_det(op)
    refused = np.flatnonzero(np.ravel(logdet) == -np.inf)
    if refused.size:
        lower, upper = (np.ravel(end)[refused[0]].tolist() for end in (op.grid.lower, op.grid.upper))
        raise NumericalError(f"determinant lost positivity for the kernel on ({lower}, {upper})")
    return logdet if np.ndim(logdet) else float(logdet)


def resolvent_solve_many(op: DiscretizedKernel, rhs_block: np.ndarray) -> np.ndarray:
    """Solve (I - K) f = rhs for each column of ``rhs_block``, shape (..., count, k).

    All columns share one factorization per operator.  With the symmetrized
    matrix A the solve is (I - A) y = sqrt(w) rhs, f_j = y_j / sqrt(w_j);
    returns the node values f, one column per right-hand side.  A refused
    operator's columns are NaN; a solution of an accepted operator that is
    not finite is a NumericalError.  An identity operator's y is sqrt(w) rhs,
    in the layout potrs gives, so its f is the factor's bit for bit.
    """
    rhs_block = np.asarray(rhs_block, dtype=float)
    if rhs_block.ndim != op.grid.nodes.ndim + 1 or rhs_block.shape[:-1] != op.grid.nodes.shape:
        raise ParameterError("rhs sample count does not match grid")
    sw = op.grid.sqrt_weights[..., None]
    y = sw * rhs_block
    if op.trace is None:
        y = _per_operator(lambda *one: dpotrs(*one)[0], op._lu, y)
    else:  # Fortran order within each operator, as potrs returns it
        y = np.swapaxes(np.swapaxes(y, -1, -2).copy(), -1, -2)
    if not np.all(np.isfinite(y).all(axis=(-2, -1)) | op.refused):
        raise NumericalError(f"resolvent solve failed on {_ends(op.grid)}")
    return y / sw


def resolvent_at_lower(op: DiscretizedKernel, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(node solutions f_j, left-end values) of (I - K) f = rhs, rhs on grid.nodes_and_lower.

    ``rhs`` has shape (..., count + 1, k), the left end last, as the parts;
    the left-end values are f(lower) = rhs(lower) + sum_j w_j K(lower, x_j) f_j.
    """
    sols = resolvent_solve_many(op, rhs[..., :-1, :])
    weighted = op.grid.weights[..., None] * sols
    return sols, rhs[..., -1, :] + (op.end_row[..., None, :] @ weighted)[..., 0, :]
