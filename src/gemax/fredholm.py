"""Nystrom discretization of integrable kernels.

The Hermite and Airy kernels both have the integrable form
scale (f(x)g(y) - f(y)g(x))/(x - y): f, g = phi_n, phi_{n-1} with
scale = sqrt(n/2) for the Christoffel-Darboux Hermite kernel, and
f, g = Ai, Ai' with scale = 1 for the Airy kernel.  This module knows no
kernel by name: each caller evaluates its kernel's parts (f, g, K(z, z))
once, on the nodes and the left end, and hands them to :func:`assemble`.
One private quotient, built in place, gives both the matrix (whose
diagonal K(x_i, x_i) is written by index) and the row K(lower, x_j).

A kernel K on (lower, upper) is discretized as the symmetric matrix
A_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j).  Fredholm determinants are
det(I - A), taken in log space from the LU factors that resolvent solves
share; resolvent solves return the node values of (I - K)^{-1} f.  Every
determinant of the library is read from that one LU, also that of the
Airy sum kernel behind F_1 and F_4, whose exactly symmetric matrix its
caller builds as an operator without parts.

Operators come in stacks: on a stack of grids (special.build_grid with
arrays of ends) every array carries a leading stack axis, and one call
assembles, factors or solves them all.  A single operator is the stack
without that axis, by the same code.  :func:`map_blocks` walks a long stack
BLOCK operators at a time, so the working set stays at a few hundred kB.
The LU and its solves are one LAPACK getrf or getrs call per operator
(:func:`_per_operator`), with no wrapper loop around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NumericalError, ParameterError
from .special import QuadratureGrid

#: operators per block of a stack: enough to share the numpy calls of
#: assembly and of the endpoint sums, few enough to keep the block's
#: matrices and their temporaries small (16 was measured no faster)
BLOCK = 4

#: below this separation the difference quotient loses too many digits;
#: assemble takes the limit K(x_i, x_i) on the diagonal only, so it refuses
#: a grid whose distinct nodes, or whose left end and first node, come this
#: close
DIAG_GUARD = 1e-6


def _ends(grid: QuadratureGrid) -> str:
    """The ends (lower, upper) of a grid for a message, a stack's as lists, each at full precision."""
    return f"({np.asarray(grid.lower).tolist()}, {np.asarray(grid.upper).tolist()})"


def _quotient(px, py, gap, scale: float) -> np.ndarray:
    """scale (f(x)g(y) - f(y)g(x))/(x - y), in place, from the parts px, py at x, y and gap = x - y."""
    (fx, gx, *_), (fy, gy, *_) = px, py
    out = fx * gy
    out -= fy * gx
    out *= scale
    out /= gap
    return out


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
        """K(x, x_j) at the grid nodes (unsymmetrized), from the parts px at x.

        The quotient alone: x must lie more than DIAG_GUARD from every node,
        as the left end of any grid :func:`assemble` accepts does.
        """
        return _quotient(px, self.node_parts, x - self.grid.nodes, self.scale)

    @cached_property
    def end_row(self) -> np.ndarray:
        """K(lower, x_j) at the grid nodes, built on first use."""
        lower = np.asarray(self.grid.lower)[..., None]
        return self.kernel_row(lower, tuple(v[..., None] for v in self.end_parts))

    @cached_property
    def _lu(self):
        """The LU factors and pivots of I - A, shared by the determinant and every solve.

        One getrf per operator, in place.  Any exactly symmetric I - A
        qualifies (assemble scrubs its matrix; the Airy sum kernel is built
        symmetric): the transpose of each C-ordered matrix is then the same
        matrix in Fortran order, and LAPACK factors it without a copy.  The
        factors are read back through the transposed view; only their
        diagonal and getrs read them, so their layout moves no bit.
        """
        a = np.eye(self.grid.count) - self.matrix
        if not np.isfinite(a).all():
            raise NumericalError(f"I - K is not finite on {_ends(self.grid)}")
        piv = _per_operator(lambda one: dgetrf(one.T, overwrite_a=True)[1], a)
        return np.swapaxes(a, -1, -2), piv


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of each matrix of a C-ordered stack."""
    m = a.shape[-1]
    return a.reshape(a.shape[:-2] + (m * m,))[..., :: m + 1]


def assemble(grid: QuadratureGrid, parts: tuple, scale: float) -> DiscretizedKernel:
    """Build the symmetrized Nystrom matrix of an integrable kernel.

    ``parts`` = (f, g, K(z, z)) at z = grid.nodes_and_lower.  The node values
    serve both the row and the column side of the matrix; they and the
    values at the left end stay with the operator.  The difference quotient
    is built in place off the diagonal and K(x_i, x_i) is written on it, so
    the grid's distinct nodes, and its left end and first node, must lie
    more than DIAG_GUARD apart; a closer grid is a ParameterError.
    """
    x = grid.nodes
    if (np.diff(x, axis=-1, prepend=np.asarray(grid.lower)[..., None]) <= DIAG_GUARD).any():
        raise ParameterError(f"nodes within {DIAG_GUARD} on {_ends(grid)}")
    node_parts = tuple(v[..., :-1] for v in parts)
    gap = x[..., :, None] - x[..., None, :]
    _diagonal(gap)[...] = 1.0
    rows = tuple(v[..., :, None] for v in node_parts)
    cols = tuple(v[..., None, :] for v in node_parts)
    matrix = _quotient(rows, cols, gap, scale)
    _diagonal(matrix)[...] = node_parts[2]
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


def _per_operator(fn, *arrays) -> np.ndarray:
    """fn(*slices) for each operator of a stack, joined on the stack axis.

    ``arrays[0]`` is the (stack of) matrices; each of ``arrays`` carries the
    same leading stack axis, and fn makes one LAPACK call on one operator's
    slices.  A single operator is one call.  np.stack keeps LAPACK's
    Fortran order within each operator, as scipy's batched wrappers did;
    the endpoint sums read that layout in their last bits.
    """
    if arrays[0].ndim == 2:
        return fn(*arrays)
    return np.stack([fn(*one) for one in zip(*arrays)])


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
    sign, logdet = signed_log_det(op)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalError(f"determinant lost positivity for the kernel on {_ends(op.grid)}")
    return float(logdet)


def resolvent_solve_many(op: DiscretizedKernel, rhs_block: np.ndarray) -> np.ndarray:
    """Solve (I - K) f = rhs for each column of ``rhs_block``, shape (..., count, k).

    All columns share one factorization per operator.  With the symmetrized
    matrix A the solve is (I - A) y = sqrt(w) rhs, f_j = y_j / sqrt(w_j);
    returns the node values f, one column per right-hand side.  A solution
    that is not finite is a NumericalError; a zero pivot of the LU (I - K
    singular) always leaves one.
    """
    rhs_block = np.asarray(rhs_block, dtype=float)
    if rhs_block.ndim != op.grid.nodes.ndim + 1 or rhs_block.shape[:-1] != op.grid.nodes.shape:
        raise ParameterError("rhs sample count does not match grid")
    sw = op.grid.sqrt_weights[..., None]
    y = _per_operator(lambda *one: dgetrs(*one)[0], *op._lu, sw * rhs_block)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"resolvent solve failed on {_ends(op.grid)}")
    return y / sw
