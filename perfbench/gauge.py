"""A fixed probe of the machine's speed, run in between the timed work.

The machine this benchmark was built on is shared: for seconds to minutes at
a time the same code runs up to 1.7 times slower, in wall and in process CPU
time alike, so two runs of the same code differed by a fifth in wall time.
A `Gauge` runs one fixed block of the kinds of work gemax does (a Hermite
three-term recurrence on a point array, an elementwise kernel, an LU
log-determinant and a symmetric eigensolve) for a fixed share of the time of
the work it measures, interleaved with it: after every operation and,
through `install`, after every CDF value that `finite_n` or `airy` returns.
Its mean block time is how slow the machine was while the work ran, and
`scale` turns a time into the time at the reference speed, where one block
takes `REFERENCE_S`.  The gauge's own time is kept out of the measured time.
The block is benchmark code and calls nothing in gemax, so a change to the
program cannot move it.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from gemax import airy, finite_n

#: wall seconds of one block, a round figure near its mean on a shared 2-vCPU Xeon at 2.1 GHz
REFERENCE_S = 0.0015
#: the gauge runs for this share of the time of the work it measures
SHARE = 0.05
#: the functions after whose outermost calls the gauge catches up
VALUE_FUNCTIONS = (
    (finite_n, ("f_n2", "f_n1", "f_n4", "gse_largest_cdf")),
    (airy, ("f2_limit", "f1_limit", "f4_limit")),
)

_X = np.linspace(-4.0, 4.0, 256)
_M = np.eye(128) + 0.01 * np.cos(np.add.outer(np.arange(128.0), np.arange(128.0)))


def _block() -> None:
    p0, p1 = np.ones_like(_X), _X.copy()
    for k in range(1, 100):
        p0, p1 = p1, (_X * p1 - k * p0) / (k + 1.0)
    np.exp(-0.5 * np.add.outer(_X[:128], _X[:128]) ** 2)
    np.linalg.slogdet(_M)
    np.linalg.eigvalsh(_M)


class Gauge:
    """Probe blocks interleaved with the measured work; `spent_*` is the gauge's own time."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0
        self._start = time.perf_counter()
        self._depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def catch_up(self) -> None:
        """Probe until the gauge has run for SHARE of the time measured since it was made."""
        measured = time.perf_counter() - self._start - self.spent_wall
        while not self.walls or self.spent_wall < SHARE * measured:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            _block()
            self.walls.append(time.perf_counter() - wall0)
            self.cpus.append(time.process_time() - cpu0)
            self.spent_wall += self.walls[-1]
            self.spent_cpu += self.cpus[-1]

    def scale(self, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """(wall, cpu) at the reference speed: each divided by its mean block time over REFERENCE_S."""
        return (wall_s * REFERENCE_S * len(self.walls) / sum(self.walls),
                cpu_s * REFERENCE_S * len(self.cpus) / sum(self.cpus))

    # -- probing inside operations -------------------------------------------
    def _wrap(self, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.catch_up()

        return paced

    def install(self) -> None:
        """Catch up after every outermost call of VALUE_FUNCTIONS, looked up on their modules."""
        for module, names in VALUE_FUNCTIONS:
            for name in names:
                fn = getattr(module, name)
                self._undo.append((module, name, fn))
                setattr(module, name, self._wrap(fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()
