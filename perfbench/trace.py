"""Spans around the calls into each gemax layer, recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules by a
timing wrapper, also where another gemax module imported the name, and wraps
`DiscretizedKernel.kernel_row` on the class.  Spans are folded into
aggregates as they close, in memory; `metrics` turns them into the per-layer
figures and `Tracer.dump` writes the aggregates out at the end of a run.

A layer's self time is the time inside its spans minus the time inside the
spans they opened in other layers.  An ``_s`` figure is the inclusive time of
the outermost call of the named functions, so a nested call is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("special", "fredholm", "finite_n", "airy", "mc", "acceptance", "cli")

# functions whose results count as the "values" of their layer
FINITE_N_VALUES = frozenset(
    f"finite_n.{n}" for n in ("f_n2", "f_n1", "f_n4", "gse_largest_cdf")
)
AIRY_VALUES = frozenset(
    f"airy.{n}"
    for n in ("f2_limit", "f1_limit", "f4_limit", "edgeworth_f2", "edgeworth_f1_sq", "edgeworth_f4_sq")
)
SOLVES = frozenset(("fredholm.resolvent_solve", "fredholm.resolvent_solve_many"))

# (metric, unit, better); the order is the order of the output
PER_LAYER = (
    ("special.recurrence_calls", "count", "lower"),
    ("special.recurrence_steps", "count", "lower"),
    ("special.recurrence_s", "s", "lower"),
    ("special.grid_calls", "count", "lower"),
    ("special.grid_s", "s", "lower"),
    ("special.airy_points", "count", "lower"),
    ("special.airy_s", "s", "lower"),
    ("fredholm.operators", "count", "lower"),
    ("fredholm.assemble_s", "s", "lower"),
    ("fredholm.kernel_entries", "count", "lower"),
    ("fredholm.kernel_s", "s", "lower"),
    ("fredholm.solves", "count", "lower"),
    ("fredholm.solve_s", "s", "lower"),
    ("fredholm.logdet_calls", "count", "lower"),
    ("fredholm.logdet_s", "s", "lower"),
    ("fredholm.factor_flops", "flop", "lower"),
    ("fredholm.self_s", "s", "lower"),
    ("finite_n.values", "count", "higher"),
    ("finite_n.f_n2_s", "s", "lower"),
    ("finite_n.f_n1_s", "s", "lower"),
    ("finite_n.f_n4_s", "s", "lower"),
    ("finite_n.self_s", "s", "lower"),
    ("finite_n.epsilon_numeric_calls", "count", "lower"),
    ("finite_n.epsilon_numeric_s", "s", "lower"),
    ("finite_n.operators_per_value", "ratio", "lower"),
    ("finite_n.zero_values", "count", "lower"),
    ("airy.values", "count", "higher"),
    ("airy.bundle_calls", "count", "lower"),
    ("airy.bundle_s", "s", "lower"),
    ("airy.operators_per_value", "ratio", "lower"),
    ("airy.f1_limit_s", "s", "lower"),
    ("airy.f2_limit_s", "s", "lower"),
    ("airy.f4_limit_s", "s", "lower"),
    ("airy.edgeworth_s", "s", "lower"),
    ("airy.self_s", "s", "lower"),
    ("mc.samples", "count", "higher"),
    ("mc.sample_s", "s", "lower"),
    ("mc.self_s", "s", "lower"),
    ("mc.cdf_calls", "count", "lower"),
    ("mc.ks_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("acceptance.calls", "count", "lower"),
    ("acceptance.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("src.lines", "lines", "lower"),
)


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: float):
        self.start, self.child = start, 0.0


class Tracer:
    """Aggregated spans: calls and outermost inclusive time per function, self time per layer."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[_Frame] = []
        self._open = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _count(self, name: str, args, kwargs, result) -> None:
        """Work counts that need the arguments or the result of a call."""
        c = self.counts
        if name == "special.hermite_phi_two":
            c["special.recurrence_steps"] += int(args[0]) * int(np.size(args[1]))
        elif name == "special.airy":
            c["special.airy_points"] += int(np.size(args[0]))
        elif name in ("fredholm.hermite_kernel", "fredholm.airy_kernel"):
            c["fredholm.kernel_entries"] += int(np.size(result))
        elif name == "fredholm.fredholm_log_det":
            c["fredholm.factor_flops"] += 2.0 / 3.0 * args[0].matrix.shape[0] ** 3
        elif name == "mc.sample_lambda_max":
            c["mc.samples"] += int(args[2])
        elif name == "mc.ks_statistic":
            grid_points = args[2] if len(args) > 2 else kwargs.get("grid_points", 0)
            c["mc.cdf_calls"] += int(grid_points) or int(args[0].count)
        elif name == "fredholm.assemble":
            c["finite_n.operators"] += self._open_any(FINITE_N_VALUES)
            c["airy.operators"] += self._open_any(AIRY_VALUES)
        if name in FINITE_N_VALUES and not self._open_any(FINITE_N_VALUES):
            c["finite_n.values"] += 1
            c["finite_n.zero_values"] += result == 0.0
        if name in AIRY_VALUES and not self._open_any(AIRY_VALUES):
            c["airy.values"] += 1

    def _open_any(self, names) -> bool:
        return any(self._open[n] for n in names)

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        tracer = self

        def traced(*args, **kwargs):
            # the first solve on an operator pays for its LU factorisation
            if full in SOLVES and "_lu" not in args[0].__dict__:
                tracer.counts["fredholm.factor_flops"] += 2.0 / 3.0 * args[0].matrix.shape[0] ** 3
            frame = _Frame(time.perf_counter())
            tracer._stack.append(frame)
            tracer._open[full] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[full] -= 1
                duration = end - frame.start
                tracer.calls[full] += 1
                if not tracer._open[full]:
                    tracer.inclusive[full] += duration
                tracer.self_time[layer] += duration - frame.child
                if tracer._stack:
                    tracer._stack[-1].child += duration
            tracer._count(full, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever they are bound."""
        modules = {layer: importlib.import_module(f"gemax.{layer}") for layer in LAYERS}
        package = importlib.import_module("gemax")
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    replaced[obj] = self._wrap(layer, name, obj)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((module, name, obj))
                    setattr(module, name, replaced[obj])
        kernel_class = modules["fredholm"].DiscretizedKernel
        original = kernel_class.kernel_row
        self._undo.append((kernel_class, "kernel_row", original))
        kernel_class.kernel_row = self._wrap("fredholm", "kernel_row", original)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def metrics(self, overhead_s: float, src_lines: int) -> dict[str, float]:
        calls, incl, counts = self.calls, self.inclusive, self.counts

        def s(*names: str) -> float:
            return sum(incl[n] for n in names)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "special.recurrence_calls": calls["special.hermite_phi_two"],
            "special.recurrence_steps": counts["special.recurrence_steps"],
            "special.recurrence_s": s("special.hermite_phi_two"),
            "special.grid_calls": calls["special.build_grid"],
            "special.grid_s": s("special.build_grid"),
            "special.airy_points": counts["special.airy_points"],
            "special.airy_s": s("special.airy"),
            "fredholm.operators": calls["fredholm.assemble"],
            "fredholm.assemble_s": s("fredholm.assemble"),
            "fredholm.kernel_entries": counts["fredholm.kernel_entries"],
            "fredholm.kernel_s": s("fredholm.hermite_kernel", "fredholm.airy_kernel"),
            "fredholm.solves": calls["fredholm.resolvent_solve"] + calls["fredholm.resolvent_solve_many"],
            "fredholm.solve_s": s("fredholm.resolvent_solve", "fredholm.resolvent_solve_many"),
            "fredholm.logdet_calls": calls["fredholm.fredholm_log_det"],
            "fredholm.logdet_s": s("fredholm.fredholm_log_det"),
            "fredholm.factor_flops": counts["fredholm.factor_flops"],
            "fredholm.self_s": self.self_time["fredholm"],
            "finite_n.values": counts["finite_n.values"],
            "finite_n.f_n2_s": s("finite_n.f_n2"),
            "finite_n.f_n1_s": s("finite_n.f_n1"),
            "finite_n.f_n4_s": s("finite_n.f_n4"),
            "finite_n.self_s": self.self_time["finite_n"],
            "finite_n.epsilon_numeric_calls": calls["finite_n.epsilon_numeric"],
            "finite_n.epsilon_numeric_s": s("finite_n.epsilon_numeric"),
            "finite_n.operators_per_value": ratio(counts["finite_n.operators"], counts["finite_n.values"]),
            "finite_n.zero_values": counts["finite_n.zero_values"],
            "airy.values": counts["airy.values"],
            "airy.bundle_calls": calls["airy.airy_bundle"],
            "airy.bundle_s": s("airy.airy_bundle"),
            "airy.operators_per_value": ratio(counts["airy.operators"], counts["airy.values"]),
            "airy.f1_limit_s": s("airy.f1_limit"),
            "airy.f2_limit_s": s("airy.f2_limit"),
            "airy.f4_limit_s": s("airy.f4_limit"),
            "airy.edgeworth_s": s("airy.edgeworth_f2", "airy.edgeworth_f1_sq", "airy.edgeworth_f4_sq"),
            "airy.self_s": self.self_time["airy"],
            "mc.samples": counts["mc.samples"],
            "mc.sample_s": s("mc.sample_lambda_max"),
            "mc.self_s": self.self_time["mc"],
            "mc.cdf_calls": counts["mc.cdf_calls"],
            "mc.ks_s": s("mc.ks_statistic"),
            "cli.calls": calls["cli.main"],
            "cli.self_s": self.self_time["cli"],
            "acceptance.calls": sum(v for k, v in calls.items() if k.startswith("acceptance.")),
            "acceptance.self_s": self.self_time["acceptance"],
            "trace.overhead_s": overhead_s,
            "src.lines": src_lines,
        }

    def dump(self, path: Path, extra: dict) -> None:
        """Write the aggregates (per-function calls and times, per-layer self time)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "functions": {
                name: {"calls": self.calls[name], "inclusive_s": self.inclusive[name]}
                for name in sorted(self.calls)
            },
            "self_s": dict(sorted(self.self_time.items())),
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
