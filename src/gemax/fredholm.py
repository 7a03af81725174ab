"""Nystrom discretization of the integrable Hermite and Airy kernels.

Both kernels have the integrable form c (f(x)g(y) - f(y)g(x))/(x - y):
f, g = phi_n, phi_{n-1} with c = sqrt(n/2) for the Christoffel-Darboux
Hermite kernel, and f, g = Ai, Ai' for the Airy kernel.  One private core
evaluates that form and its diagonal limit; each kernel supplies only its
pair and its diagonal, and an operator keeps them at its nodes.

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
from .special import QuadratureGrid, airy, hermite_phi_two

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


def _kernel_parts(kernel_id: str):
    """(parts, scale) of ``"airy"`` or ``"hermite(n)"``; parts(z) = (f(z), g(z), K(z, z))."""
    if kernel_id == "airy":
        return _airy_parts, 1.0
    if not (kernel_id.startswith("hermite(") and kernel_id.endswith(")")):
        raise ParameterError(f"unknown kernel_id {kernel_id!r}")
    n = int(kernel_id[len("hermite(") : -1])
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    c = np.sqrt(n / 2.0)
    root = np.sqrt(2.0 * n)

    def parts(z):
        f, g = hermite_phi_two(n, z)  # f = phi_n, g = phi_{n-1}
        fp = -z * f + root * g
        gp = z * g - root * f
        return f, g, c * (fp * g - f * gp)

    return parts, c


def _airy_parts(z):
    ai, aip = airy(z)
    return ai, aip, aip * aip - z * ai * ai


@dataclass(frozen=True)
class DiscretizedKernel:
    """Symmetrized Nystrom matrix of a kernel on a grid."""

    grid: QuadratureGrid
    matrix: np.ndarray
    kernel_id: str
    #: the kernel's parts (f, g, K(x, x)) at the nodes, as assembled
    node_parts: tuple = field(repr=False)

    def parts(self, x) -> tuple:
        """The kernel's parts (f(x), g(x), K(x, x)) at new points x."""
        return _kernel_parts(self.kernel_id)[0](np.asarray(x, dtype=float))

    def kernel_row(self, x, px=None) -> np.ndarray:
        """K(x, x_j) at the grid nodes (unsymmetrized), from px = parts(x) if given."""
        x = np.asarray(x, dtype=float)
        px = self.parts(x) if px is None else px
        scale = _kernel_parts(self.kernel_id)[1]
        return _integrable_form(x, px, self.grid.nodes, self.node_parts, scale)

    @cached_property
    def _lu(self):
        ident = np.eye(self.matrix.shape[0])
        return lu_factor(ident - self.matrix)


def assemble(kernel_id: str, grid: QuadratureGrid) -> DiscretizedKernel:
    """Build the symmetrized Nystrom matrix for ``"airy"`` or ``"hermite(n)"``.

    The kernel's parts are evaluated once on the nodes, serve both the row
    and the column side of the matrix, and stay with the operator.
    """
    parts, scale = _kernel_parts(kernel_id)
    x = grid.nodes
    values = parts(x)
    raw = _integrable_form(x[:, None], tuple(v[:, None] for v in values), x, values, scale)
    sw = grid.sqrt_weights
    matrix = sw[:, None] * raw * sw[None, :]
    matrix = 0.5 * (matrix + matrix.T)  # scrub last-bit asymmetry
    return DiscretizedKernel(grid=grid, matrix=matrix, kernel_id=kernel_id, node_parts=values)


def positive_log_det(matrix: np.ndarray, what: str) -> float:
    """log det(matrix); NumericalError where the determinant is not positive and finite."""
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalError(f"determinant lost positivity for {what}")
    return float(logdet)


def fredholm_log_det(op: DiscretizedKernel) -> float:
    """log det(I - K); stays finite where the determinant underflows."""
    return positive_log_det(np.eye(op.matrix.shape[0]) - op.matrix, op.kernel_id)


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
        raise NumericalError(f"resolvent solve failed for {op.kernel_id}")
    return y / sw[:, None]


def inner_product(grid: QuadratureGrid, f: np.ndarray, g: np.ndarray) -> float:
    """Quadrature inner product sum_j w_j f_j g_j on the grid interval."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != grid.nodes.shape or g.shape != grid.nodes.shape:
        raise ParameterError("sample count does not match grid")
    return float(np.sum(grid.weights * f * g))
