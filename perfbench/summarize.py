"""Run the benchmark on several seeds and print each metric's median and quartiles.

    python3 perfbench/summarize.py --workload NAME --seeds 1-10 [--seconds 15]

Each run is a separate untraced process, one after another.  The JSON result
of every run is appended to .perfbench-out/runs.jsonl; the table printed at
the end gives, per metric, the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench-out" / "runs.jsonl"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", default="15")
    args = p.parse_args()

    RUNS.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        with RUNS.open("a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}  {first['unit']}")
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
