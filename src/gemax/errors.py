"""Exception types shared across the package, and the one integer check and real-number check."""

import math
from numbers import Integral, Real


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
