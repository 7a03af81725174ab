"""Nystrom discretization of integrable kernels.

The Hermite and Airy kernels both have the integrable form
scale (f(x)g(y) - f(y)g(x))/(x - y): f, g = phi_n, phi_{n-1} with
scale = sqrt(n/2) for the Christoffel-Darboux Hermite kernel, and
f, g = Ai, Ai' with scale = 1 for the Airy kernel.  This module knows no
kernel by name: each caller evaluates its kernel's parts (f, g, K(z, z))
once, on the nodes and the left end, and hands them to :func:`assemble`;
one private core evaluates the form and its diagonal limit from them.

A kernel K on (lower, upper) is discretized as the symmetric matrix
A_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j).  Fredholm determinants are
det(I - A), taken in log space from the LU factors that resolvent solves
share; resolvent solves return the node values of (I - K)^{-1} f.

Operators come in stacks: on a stack of grids (special.build_grid with
arrays of ends) every array carries a leading stack axis, and one call
assembles, factors or solves them all.  A single operator is the stack
without that axis, by the same code.  :func:`map_blocks` walks a long stack
BLOCK operators at a time, so the working set stays at a few hundred kB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NumericalError, ParameterError
from .special import QuadratureGrid

#: operators per block of a stack: enough to share the per-call overhead,
#: few enough to keep the block's matrices and their temporaries small
BLOCK = 4

#: below this separation the difference quotient loses too many digits
#: and the diagonal-limit form with a first-order Taylor step is used
DIAG_GUARD = 1e-6


def _integrable_form(x, px, y, py, scale: float):
    """scale (f(x)g(y) - f(y)g(x))/(x - y) from px = parts(x) and py = parts(y).

    parts(z) = (f(z), g(z), K(z, z)).  Within DIAG_GUARD of the diagonal the
    midpoint of the two diagonal values is used:
    K(x, x+h) = K(x, x) + (h/2) d/dx K(x, x) + O(h^2).
    """
    fx, gx, diag_x = px
    fy, gy, diag_y = py
    # no full-size temporary outlives its use: a stack of matrices stays small
    near = np.abs(x - y) <= DIAG_GUARD
    off = scale * (fx * gy - fy * gx) / np.where(near, 1.0, x - y)
    return np.where(near, 0.5 * (diag_x + diag_y), off)


@dataclass(frozen=True)
class DiscretizedKernel:
    """Symmetrized Nystrom matrix of a kernel on a grid, or a stack of them."""

    grid: QuadratureGrid
    matrix: np.ndarray
    scale: float
    #: the kernel's parts (f, g, K(x, x)) at the nodes and at the left end
    node_parts: tuple = field(repr=False)
    end_parts: tuple = field(repr=False)

    def kernel_row(self, x, px) -> np.ndarray:
        """K(x, x_j) at the grid nodes (unsymmetrized), from the parts px at x."""
        return _integrable_form(x, px, self.grid.nodes, self.node_parts, self.scale)

    @cached_property
    def end_row(self) -> np.ndarray:
        """K(lower, x_j) at the grid nodes, built on first use."""
        lower = np.asarray(self.grid.lower)[..., None]
        return self.kernel_row(lower, tuple(v[..., None] for v in self.end_parts))

    @cached_property
    def _lu(self):
        """The LU factors of I - A, shared by the determinant and every solve."""
        return _squeeze_one(lu_factor, np.eye(self.grid.count) - self.matrix)


def assemble(grid: QuadratureGrid, parts: tuple, scale: float) -> DiscretizedKernel:
    """Build the symmetrized Nystrom matrix of an integrable kernel.

    ``parts`` = (f, g, K(z, z)) at z = grid.nodes_and_lower.  The node values
    serve both the row and the column side of the matrix; they and the
    values at the left end stay with the operator.
    """
    node_parts = tuple(v[..., :-1] for v in parts)
    x = grid.nodes
    rows = tuple(v[..., :, None] for v in node_parts)
    cols = tuple(v[..., None, :] for v in node_parts)
    matrix = _integrable_form(x[..., :, None], rows, x[..., None, :], cols, scale)
    sw = grid.sqrt_weights
    matrix *= sw[..., :, None]
    matrix *= sw[..., None, :]
    matrix += np.swapaxes(matrix, -1, -2)  # scrub last-bit asymmetry; numpy buffers the overlap
    matrix *= 0.5
    end_parts = tuple(v[..., -1] for v in parts)
    return DiscretizedKernel(grid, matrix, scale, node_parts, end_parts)


def map_blocks(fn, grid: QuadratureGrid, parts: tuple, scale: float, *extra) -> np.ndarray:
    """fn(operator, *extra) for the operators of a stack, BLOCK at a time, joined on the last axis.

    ``grid`` is a stack of grids and ``parts`` the kernel's parts on its
    ``nodes_and_lower``, both for the whole stack, and each of ``extra`` an
    array with the leading stack axis; ``fn`` maps the operator of a block
    and the block's rows of ``extra`` to an array whose last axis runs over
    that block.  A block's operator is dropped before the next one is
    assembled.  A single grid is the stack without its axis: one call of fn.
    """
    if grid.nodes.ndim == 1:
        return fn(assemble(grid, parts, scale), *extra)
    values = []
    for start in range(0, grid.nodes.shape[0], BLOCK):
        block = slice(start, start + BLOCK)
        sub = QuadratureGrid(*(v[block] for v in (grid.lower, grid.upper, grid.nodes, grid.weights)))
        values.append(fn(assemble(sub, tuple(v[block] for v in parts), scale),
                         *(v[block] for v in extra)))
    return np.concatenate(values, axis=-1)


def _squeeze_one(fn, *arrays):
    """fn(*arrays), where a stack of one goes through as its single operator.

    scipy's ``lu_factor``/``lu_solve`` loop over a leading axis in Python,
    behind a wrapper that costs more than the LU of a 64-node operator; a
    stack of one skips it and gets its axis back on every output.
    """
    if arrays[0].ndim != 3 or len(arrays[0]) != 1:
        return fn(*arrays)
    out = fn(*(a[0] for a in arrays))
    return tuple(v[None] for v in out) if isinstance(out, tuple) else out[None]


def _positive(sign: float, logdet: float, what: str) -> float:
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalError(f"determinant lost positivity for {what}")
    return float(logdet)


def positive_log_det(matrix: np.ndarray, what: str) -> float:
    """log det(matrix); NumericalError where the determinant is not positive and finite."""
    return _positive(*np.linalg.slogdet(matrix), what)


def signed_log_det(op: DiscretizedKernel) -> np.ndarray:
    """(sign, log |det|) of I - K for each operator, shape (2,) + the stack's shape.

    Read from the operator's LU factors, which its solves reuse; stays
    finite where the determinant underflows.  The sign is that of the row
    permutation times the signs of U's diagonal; the caller decides what a
    negative sign or a log of -inf means.
    """
    lu, piv = op._lu
    diag = lu.diagonal(0, -2, -1)
    flips = (piv != np.arange(op.grid.count)).sum(axis=-1) + (diag < 0.0).sum(axis=-1)
    with np.errstate(divide="ignore"):
        logdet = np.log(np.abs(diag)).sum(axis=-1)
    return np.array([1.0 - 2.0 * (flips % 2), logdet])


def fredholm_log_det(op: DiscretizedKernel) -> float:
    """log det(I - K) of one operator; NumericalError where it is not positive and finite."""
    what = f"the kernel on ({op.grid.lower}, {op.grid.upper})"
    return _positive(*signed_log_det(op), what)


def resolvent_solve_many(op: DiscretizedKernel, rhs_block: np.ndarray) -> np.ndarray:
    """Solve (I - K) f = rhs for each column of ``rhs_block``, shape (..., count, k).

    All columns share one factorization per operator.  With the symmetrized
    matrix A the solve is (I - A) y = sqrt(w) rhs, f_j = y_j / sqrt(w_j);
    returns the node values f, one column per right-hand side.
    """
    rhs_block = np.asarray(rhs_block, dtype=float)
    if rhs_block.ndim != op.grid.nodes.ndim + 1 or rhs_block.shape[:-1] != op.grid.nodes.shape:
        raise ParameterError("rhs sample count does not match grid")
    sw = op.grid.sqrt_weights[..., None]
    y = _squeeze_one(lambda lu, piv, b: lu_solve((lu, piv), b), *op._lu, sw * rhs_block)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"resolvent solve failed on ({op.grid.lower}, {op.grid.upper})")
    return y / sw
