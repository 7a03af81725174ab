"""Exception types shared across the package, and the one integer check, real-number check and points check."""

import math
from numbers import Integral, Real

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A computation produced a non-finite or structurally invalid result."""


def check_integers(**values) -> None:
    """ParameterError naming the first value that is not an int or a numpy integer (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParameterError(f"need an integer {name}, got {value!r}")


def check_reals(finite: bool = False, **values) -> None:
    """ParameterError naming the first value that is not a real number (a bool is not), with ``finite`` a finite one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real) or finite and not math.isfinite(value):
            raise ParameterError(f"need a {'finite ' * finite}real number {name}, got {value!r}")


def real_points(name: str, x) -> np.ndarray:
    """x as an array of floats; ParameterError naming x unless it holds integers and floats only.

    A bool or a string is neither, also a bool among numbers, which numpy
    reads as 0 or 1 ([True, 2.0]): that one is named with its index.
    """
    values = np.asarray(x)
    if values.dtype.kind not in "iuf":
        raise ParameterError(f"need real {name}, got {x!r}")
    if values.ndim and not isinstance(x, np.ndarray):
        for index, value in enumerate(np.asarray(x, dtype=object).flat):
            if isinstance(value, (bool, np.bool_)) or isinstance(value, np.ndarray) and value.dtype.kind == "b":
                raise ParameterError(f"need real {name}, got {value!r} at index {index}")
    return values.astype(float, copy=False)
