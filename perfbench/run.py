"""gemax benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gemax checkout; the program is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads, oracles and reference figures.
"""

import os
import sys
import time

START = time.perf_counter()

# one BLAS/OpenMP thread, set before numpy loads: the default of one thread
# per core made wall times of the same script spread by about 30%
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD_TIMEOUT = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child(args, *extra: str) -> str:
    """Run this script again with the same workload and seed; return its last stdout line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"child run {' '.join(extra)} exited with {done.returncode}", 1)
    return done.stdout.strip().splitlines()[-1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gemax" / "__init__.py").is_file():
        fail(f"no gemax sources under {SRC}; run from the root of a gemax checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    import numpy as np

    import gemax
    from perfbench import oracles, workloads
    from perfbench.gauge import Gauge
    from perfbench.trace import PER_LAYER, Tracer

    if Path(gemax.__file__).resolve().parent != (SRC / "gemax").resolve():
        fail(f"imported gemax from {gemax.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed nonnegative")

    workload.warm_up()
    # set-up is not scaled by the gauge: a burst of probe blocks after it tracked its
    # speed worse than no scaling (raw 3.8-4.4 s on finite_tables, scaled 3.3-5.0 s)
    setup = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup))
        return 0

    def setup_children(count: int) -> list[float]:
        return [float(child(args, "--setup-only")) for _ in range(count)]

    if args.trace:
        # the untraced reference for the tracing overhead runs first, in its own process
        untraced = json.loads(child(args, "--trace", "0"))["metrics"]["wall_s"]["value"]
    else:
        # set-up samples come from fresh interpreters before and after the timed
        # part, so one slow spell of the machine does not set the median
        setups = [setup] + setup_children(workload.setup_samples // 2)

    rounds = max(1, round(args.seconds / workload.round_seconds))
    ops = workload.plan(np.random.default_rng([args.seed, list(workloads.WORKLOADS).index(workload.name)]),
                        rounds)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    gauge = Gauge()
    if not tracer:
        # inside an operation the gauge's blocks would count in the open spans'
        # self time, so a traced run probes between operations only
        gauge.install()

    outputs, errors = [], {}
    raw_wall = raw_cpu = 0.0
    for i, op in enumerate(ops):
        gauge.catch_up()
        spent_wall, spent_cpu = gauge.spent_wall, gauge.spent_cpu
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs.append(op.call())
        except Exception as exc:  # a failed operation is counted, the run goes on
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        raw_wall += time.perf_counter() - wall0 - (gauge.spent_wall - spent_wall)
        raw_cpu += time.process_time() - cpu0 - (gauge.spent_cpu - spent_cpu)
    gauge.catch_up()
    wall, cpu = gauge.scale(raw_wall, raw_cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gauge.uninstall()
    if tracer:
        tracer.uninstall()

    checks0 = time.perf_counter()
    chk = workloads.Checker()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if i in errors:
            continue
        try:
            op.check(out, chk)
        except Exception as exc:  # malformed output fails its operation, not the run
            errors[i] = f"{type(exc).__name__}: {exc}"
    for i in sorted(errors):
        print(f"FAILED {ops[i].label}: {errors[i]}", file=sys.stderr)
    self_check = oracles.self_check()
    if self_check:
        print(f"oracle self-check failed: {self_check}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed {args.seed}: {rounds} rounds, {len(ops)} operations; "
          f"wall {raw_wall:.3f} s and cpu {raw_cpu:.3f} s as measured, {wall:.3f} s and {cpu:.3f} s "
          f"at the gauge's reference speed; checks {time.perf_counter() - checks0:.1f} s", file=sys.stderr)
    if not args.trace:
        setups += setup_children(workload.setup_samples - len(setups))

    if tracer:
        metrics = tracer.metrics(overhead_s=wall - untraced, src_lines=src_lines())
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.dump(OUT / f"trace-{workload.name}-{args.seed}.json",
                    {"workload": workload.name, "seed": args.seed, "rounds": rounds,
                     "operations": len(ops), "traced_wall_s": wall, "untraced_wall_s": untraced,
                     "traced_wall_s_as_measured": raw_wall})
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "accuracy_digits": -math.log10(max(chk.worst, 1e-17)),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "accuracy_digits": "digits"}
    result = {
        "correct": not errors and not self_check,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
