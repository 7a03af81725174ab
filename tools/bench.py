"""Untraced perfbench runs of one tree, or of two in alternating order, written as one BENCH file.

    python3 tools/bench.py --out BENCH.json [--seeds 701-710]
        [--workloads airy_laws,n_sweep] [--tree DIR] [--against DIR]

Each run is one untraced ``perfbench/run.py`` process of BENCHMARK.json's
``run_seconds``, started in the root of its tree, one run at a time; the runs
of a seed go workload by workload.
``--tree`` (default: the checkout holding this script) is the tree measured,
``--against`` an optional second tree, such as a ``git archive`` of the parent
commit; then both run every seed and workload, and which runs first
alternates from seed to seed, the second tree first on the first seed.

The file holds, per tree and workload:

- per end-to-end metric of BENCHMARK.json, the median and the first and third
  quartiles, computed as ``perfbench/summarize.py`` computes them;
- the same for wall and CPU seconds as measured and at the gauge's reference
  speed, read from the line perfbench writes to standard error;
- the operations attempted and failed, summed over the runs;
- every run's record;

then ``src.lines`` of each tree (``wc -l src/gemax/*.py``) and, with
``--against``, per workload and end-to-end metric, the pairs that each tree
won (a tie counts for neither).  There is no traced mode: the per-layer figures
of ``perfbench/trace.py`` have the defects listed under ``known_defects``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, str(ROOT))
from perfbench.summarize import seeds  # noqa: E402

#: perfbench's standard-error line: wall and CPU seconds as measured, then at the gauge's reference speed
TIMES = re.compile(r"wall (\S+) s and cpu (\S+) s as measured, (\S+) s and (\S+) s at the gauge's reference speed")
TIME_NAMES = ("wall_s_measured", "cpu_s_measured", "wall_s_gauged", "cpu_s_gauged")

#: why no per-layer figure of perfbench/trace.py is recorded here
KNOWN_DEFECTS = (
    "perfbench/trace.py counts by function names that have left the code path (hermite_kernel, "
    "airy_kernel, the point readers), so a traced finite_tables run reads 0 for finite_n.values, "
    "zero_values, operators_per_value, f_n2_s, f_n1_s, f_n4_s, epsilon_numeric_calls/_s, "
    "fredholm.kernel_entries/kernel_s and logdet_calls/logdet_s, and gemax limit's tables "
    "(limit_values) are not traced",
    "fredholm.operators counts fredholm.assemble calls: blocks of up to fredholm.BLOCK operators, "
    "blocks of identities included",
    "trace.overhead_s is traced minus untraced wall time from two processes and can go negative",
    "perfbench/oracles.py builds an unseeded BarycentricInterpolator, so mc_ks accuracy_digits "
    "wobbles by about 4e-4 digits",
    "Gauge.scale scales the workloads unevenly: compare a workload only with itself",
)


def summary(values: list[float]) -> dict:
    """Median and quartiles as perfbench/summarize.py takes them."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def src_lines(tree: Path) -> int:
    """``wc -l src/gemax/*.py``: the newlines of the package's modules."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "gemax").glob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: str) -> dict:
    """One untraced perfbench run of workload on tree: its JSON result and its stderr times."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    times = TIMES.search(done.stderr)
    if done.returncode != 0 or times is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, **result, "times": dict(zip(TIME_NAMES, map(float, times.groups())))}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Medians and quartiles of a tree's runs of one workload, its operation counts and the runs."""
    return {
        "metrics": {name: summary([r["metrics"][name]["value"] for r in runs]) for name in metrics},
        "times": {name: summary([r["times"][name] for r in runs]) for name in TIME_NAMES},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "runs": runs,
    }


def pairs_won(mine: list[dict], theirs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, the seeds on which each tree read better; ties count for neither."""
    won = {}
    for metric in end_to_end:
        sign = 1.0 if metric["better"] == "higher" else -1.0
        gaps = [sign * (a["metrics"][metric["name"]]["value"] - b["metrics"][metric["name"]]["value"])
                for a, b in zip(mine, theirs)]
        won[metric["name"]] = {"tree": sum(g > 0 for g in gaps), "against": sum(g < 0 for g in gaps),
                               "pairs": len(gaps)}
    return won


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("701-710"), help="e.g. 701-710 or 3,5,8")
    p.add_argument("--workloads", type=lambda text: text.split(","), help="default: BENCHMARK.json's")
    p.add_argument("--tree", type=Path, default=ROOT)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(benchmark["run_seconds"])
    end_to_end = benchmark["end_to_end"]
    metrics = [m["name"] for m in end_to_end]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    trees = {"tree": args.tree.resolve()}
    if args.against:
        trees["against"] = args.against.resolve()
    runs = {name: {w: [] for w in workloads} for name in trees}
    for k, seed in enumerate(args.seeds):
        order = list(trees)[::-1] if k % 2 == 0 else list(trees)
        for workload in workloads:
            for name in order:
                record = run(trees[name], workload, seed, seconds)
                runs[name][workload].append({**record, "first": name == order[0]})
                wall = record["metrics"]["wall_s"]["value"]
                print(f"seed {seed} {workload} {name}: wall_s {wall:.4f} failed {record['failed']}", flush=True)

    bench = {
        "seeds": args.seeds,
        "seconds": float(seconds),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "src.lines": {name: src_lines(path) for name, path in trees.items()},
        "workloads": {name: {w: summarize(r, metrics) for w, r in per.items()} for name, per in runs.items()},
        "known_defects": list(KNOWN_DEFECTS),
    }
    if args.against:
        bench["pairs_won"] = {w: pairs_won(runs["tree"][w], runs["against"][w], end_to_end)
                              for w in workloads}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
