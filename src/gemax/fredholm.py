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
det(I - A), taken in log space; resolvent solves return the node values of
(I - K)^{-1} f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NumericalError, ParameterError
from .special import QuadratureGrid

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
    diff = x - y
    near = np.abs(diff) <= DIAG_GUARD
    safe = np.where(near, 1.0, diff)
    off = scale * (fx * gy - fy * gx) / safe
    return np.where(near, 0.5 * (diag_x + diag_y), off)


@dataclass(frozen=True)
class DiscretizedKernel:
    """Symmetrized Nystrom matrix of a kernel on a grid."""

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
        return self.kernel_row(self.grid.lower, self.end_parts)

    @cached_property
    def _lu(self):
        ident = np.eye(self.matrix.shape[0])
        return lu_factor(ident - self.matrix)


def assemble(grid: QuadratureGrid, parts: tuple, scale: float) -> DiscretizedKernel:
    """Build the symmetrized Nystrom matrix of an integrable kernel.

    ``parts`` = (f, g, K(z, z)) at z = [nodes..., lower].  The node values
    serve both the row and the column side of the matrix; they and the
    values at the left end stay with the operator.
    """
    node_parts = tuple(v[:-1] for v in parts)
    x = grid.nodes
    raw = _integrable_form(x[:, None], tuple(v[:, None] for v in node_parts), x, node_parts, scale)
    sw = grid.sqrt_weights
    matrix = sw[:, None] * raw * sw[None, :]
    matrix = 0.5 * (matrix + matrix.T)  # scrub last-bit asymmetry
    end_parts = tuple(v[-1] for v in parts)
    return DiscretizedKernel(grid, matrix, scale, node_parts, end_parts)


def positive_log_det(matrix: np.ndarray, what: str) -> float:
    """log det(matrix); NumericalError where the determinant is not positive and finite."""
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalError(f"determinant lost positivity for {what}")
    return float(logdet)


def fredholm_log_det(op: DiscretizedKernel) -> float:
    """log det(I - K); stays finite where the determinant underflows."""
    what = f"the kernel on ({op.grid.lower}, {op.grid.upper})"
    return positive_log_det(np.eye(op.matrix.shape[0]) - op.matrix, what)


def resolvent_solve_many(op: DiscretizedKernel, rhs_block: np.ndarray) -> np.ndarray:
    """Solve (I - K) f = rhs for each column of ``rhs_block``, shape (count, k).

    All columns share one factorization.  With the symmetrized matrix A the
    solve is (I - A) y = sqrt(w) rhs, f_j = y_j / sqrt(w_j); returns the
    node values f, one column per right-hand side.
    """
    rhs_block = np.asarray(rhs_block, dtype=float)
    if rhs_block.ndim != 2 or rhs_block.shape[0] != op.grid.count:
        raise ParameterError("rhs sample count does not match grid")
    sw = op.grid.sqrt_weights
    y = lu_solve(op._lu, sw[:, None] * rhs_block)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"resolvent solve failed on ({op.grid.lower}, {op.grid.upper})")
    return y / sw[:, None]
