"""Exception types shared across the package, and the one integer check."""

from numbers import Integral


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A computation produced a non-finite or structurally invalid result."""


def check_integers(**values) -> None:
    """ParameterError naming the first value that is not an int or a numpy integer (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParameterError(f"need an integer {name}, got {value!r}")
