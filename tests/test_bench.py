"""tools/bench.py reads perfbench runs as perfbench/summarize.py does."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDERR = ("perfbench: airy_laws seed {seed}: 9 rounds, 135 operations; wall {wall:.3f} s and cpu 0.125 s "
          "as measured, 0.193 s and 0.192 s at the gauge's reference speed; checks 1.5 s\n")


def _canned(seed: int, factor: float) -> dict:
    """A run's JSON result: every end-to-end metric a value of the seed, times factor."""
    values = {"setup_s": 0.3 + 0.01 * seed**2, "wall_s": 0.2 - 0.003 * seed, "cpu_s": 0.19 + 0.007 * (seed % 3),
              "peak_rss_mb": 66.0 + 0.1 * seed, "accuracy_digits": 13.2 + 0.01 * seed}
    metrics = {name: {"value": value * factor, "unit": "s"} for name, value in values.items()}
    return {"correct": True, "attempted": 135, "failed": seed % 2, "metrics": metrics}


def test_medians_and_pairs(tmp_path, monkeypatch, capsys):
    # the same five canned runs through both tools: bench's median and
    # quartiles print as summarize's; a second tree reading 1.1 times every
    # metric loses each pair of a lower-is-better metric and wins each of accuracy_digits
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # bench.py sets it
    summarize = importlib.import_module("perfbench.summarize")
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    against = tmp_path / "against"
    real = subprocess.run

    def run(argv, cwd=None, **kwargs):
        if not any(str(a).endswith("run.py") for a in argv):  # platform's own queries of the machine
            return real(argv, cwd=cwd, **kwargs)
        seed = int(argv[argv.index("--seed") + 1])
        result = _canned(seed, 1.1 if Path(cwd) == against else 1.0)
        wall = result["metrics"]["wall_s"]["value"]
        return subprocess.CompletedProcess(argv, 0, json.dumps(result) + "\n", STDERR.format(seed=seed, wall=wall))

    monkeypatch.setattr(subprocess, "run", run)
    monkeypatch.setattr(summarize, "RUNS", tmp_path / "runs.jsonl")
    monkeypatch.setattr(sys, "argv", ["summarize.py", "--workload", "airy_laws", "--seeds", "1-5"])
    assert summarize.main() == 0
    table = capsys.readouterr().out
    out = tmp_path / "bench.json"
    bench.main(["--out", str(out), "--seeds", "1-5", "--workloads", "airy_laws", "--against", str(against)])
    record = json.loads(out.read_text())
    mine = record["workloads"]["tree"]["airy_laws"]
    for name, stats in mine["metrics"].items():
        assert f"{name:34} {stats['median']:12.5g} {stats['q1']:12.5g} {stats['q3']:12.5g} " in table
    assert (mine["attempted"], mine["failed"]) == (5 * 135, 3)
    assert [r["first"] for r in mine["runs"]] == [False, True, False, True, False]
    assert mine["times"]["wall_s_measured"]["median"] == round(_canned(3, 1.0)["metrics"]["wall_s"]["value"], 3)
    won = record["pairs_won"]["airy_laws"]
    assert won["wall_s"] == {"tree": 5, "against": 0, "pairs": 5}
    assert won["accuracy_digits"] == {"tree": 0, "against": 5, "pairs": 5}
    assert record["src.lines"]["against"] == 0 and record["src.lines"]["tree"] > 0
