"""One contract over the whole public API: every name of ``gemax.__all__``.

Each public callable, given valid arguments with one of them replaced by a
hostile value, returns its declared output or raises ParameterError or
NumericalError; a warning counts as a fault.  The declared outputs: a CDF
value or table in [0, 1], finite floats, an McRun, or a dataclass of finite
floats.  A public name with no row here fails the test, so the table cannot
fall behind ``__all__``.
"""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

import gemax
from gemax import McRun, NumericalError, ParameterError

RUN = gemax.sample_lambda_max(2, 4, 50, 1)
CDF = partial(gemax.cdf_values, "gue", 4)


def _floats(value) -> list:
    """The floats of a float, a float array or a tuple of them; a ValueError for anything else."""
    if isinstance(value, tuple):
        return [v for item in value for v in _floats(item)]
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return value.ravel().tolist()
    if isinstance(value, float):
        return [value]
    raise ValueError(f"{type(value).__name__} is not a float")


def unit(value) -> bool:
    """A CDF value, or a table of them, in [0, 1]."""
    return all(0.0 <= v <= 1.0 for v in _floats(value))


def finite(value) -> bool:
    """A finite float, or a tuple or array of them."""
    return all(map(math.isfinite, _floats(value)))


def record(value) -> bool:
    """A dataclass instance whose fields are finite floats."""
    return dataclasses.is_dataclass(value) and all(
        finite(getattr(value, f.name)) for f in dataclasses.fields(value))


def mc_run(value) -> bool:
    """An McRun, which checks its own fields when made."""
    return isinstance(value, McRun)


#: public name -> (the callable, valid arguments, the check of its declared output)
ROWS = {
    "McRun": (McRun, (2, 4, 1, np.array([0.5, 1.0]), 2), mc_run),
    "ab": (gemax.ab, (4, 2.0), finite),
    "airy_bundle": (gemax.airy_bundle, (0.0,), record),
    "AiryBundle.eta": (lambda c: gemax.airy_bundle(0.0).eta(c), (0.0,), finite),
    "c_constants": (gemax.c_constants, (4,), finite),
    "cdf_values": (gemax.cdf_values, ("gue", 4, [1.0, 2.0], "determinant"), unit),
    "e_c1": (gemax.e_c1, (0.0, 0.0), finite),
    "e_c2": (gemax.e_c2, (0.0, 0.0), finite),
    "edgeworth_f1_sq": (gemax.edgeworth_f1_sq, (40, 0.0, 0.0), record),
    "edgeworth_f2": (gemax.edgeworth_f2, (40, 0.0, 0.0), record),
    "edgeworth_f4_sq": (gemax.edgeworth_f4_sq, (40, 0.0, 0.0), record),
    "empirical_cdf": (gemax.empirical_cdf, (RUN, 0.5), unit),
    "epsilon_closed": (gemax.epsilon_closed, (4, 2.5), record),
    "epsilon_numeric": (gemax.epsilon_numeric, (4, 2.5), record),
    "f1_limit": (gemax.f1_limit, (0.0,), unit),
    "f2_limit": (gemax.f2_limit, (0.0,), unit),
    "f4_limit": (gemax.f4_limit, (0.0,), unit),
    "f_n1": (gemax.f_n1, (4, 1.0), unit),
    "f_n2": (gemax.f_n2, (4, 1.0, "determinant"), unit),
    "f_n4": (gemax.f_n4, (5, 1.0), unit),
    "gse_largest_cdf": (gemax.gse_largest_cdf, (2, 1.0), unit),
    "hastings_mcleod_q": (gemax.hastings_mcleod_q, (0.0,), finite),
    "ks_critical_1pct": (gemax.ks_critical_1pct, (100,), finite),
    "ks_statistic": (gemax.ks_statistic, (RUN, CDF, 201), unit),
    "limit_values": (gemax.limit_values, ("gue", [0.0, 1.0]), unit),
    "q_p_n": (gemax.q_p_n, (4, 2.0), finite),
    "sample_lambda_max": (gemax.sample_lambda_max, (2, 4, 100, 1), mc_run),
    "tau": (gemax.tau, (40, 0.0, 0.0), finite),
}

#: public names that are not called, and why
NOT_CALLED = {
    "AiryBundle": "a result record: airy_bundle's row checks what fills it",
    "EdgeworthResult": "a result record: the expansions' rows check what fills it",
    "EpsilonQuantities": "a result record: the epsilon readers' rows check what fills it",
    "NumericalError": "an error the contract raises",
    "ParameterError": "an error the contract raises",
    "__version__": "a string",
}

#: the hostile values of ROADMAP Direction 17, and 2**63 - 1, numpy's largest size
HOSTILE = (True, False, np.bool_(True), "1", None, 1j, math.nan, math.inf, -math.inf, 1e308, -1e308,
           0, -1, 2**63 - 1, 2**70, np.float64(0.5), np.int64(3), np.array(0.5), np.array([0.5, 1.0]),
           np.array([[0.5]]), [True, 2.0], [], np.array([]), np.array(["gue"]), object(), 0.5, -0.0,
           5e-324)


def _fault(fn, args, declared):
    """What breaks the contract on fn(*args): None, or a description of the call and its outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except (ParameterError, NumericalError):
            return None
        except Exception as exc:  # a warning raised as an error lands here too
            return f"{args!r}: {type(exc).__name__}: {exc}"
    try:
        if declared(value):
            return None
    except ValueError:
        pass
    return f"{args!r}: returned {value!r}, not {declared.__name__}"


def test_every_public_name_has_a_row():
    assert sorted(set(gemax.__all__) - set(ROWS) - set(NOT_CALLED)) == []
    assert sorted((set(ROWS) | set(NOT_CALLED)) - set(gemax.__all__) - {"AiryBundle.eta"}) == []


@pytest.mark.parametrize("name", ROWS)
def test_valid_arguments_give_the_declared_output(name):
    fn, args, declared = ROWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert declared(fn(*args))


@pytest.mark.parametrize("name", ROWS)
def test_hostile_argument_gives_the_declared_output_or_an_error(name):
    # numpy's ValueError came out of ks_statistic(run, cdf, 2**63 - 1) ("array
    # is too big"; grid_points is now capped at mc.COUNT_MAX) and out of
    # cdf_values and f_n2 with an array as method (an ambiguous truth value)
    fn, args, declared = ROWS[name]
    faults = [_fault(fn, (*args[:i], value, *args[i + 1:]), declared)
              for i in range(len(args)) for value in HOSTILE]
    assert [f for f in faults if f] == []
