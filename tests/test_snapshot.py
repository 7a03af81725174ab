"""tools/snapshot.py --compare names each moved family with its largest gaps."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_summary_lines(tmp_path, capsys):
    # one moved float, one key whose kind changed and one identical key
    spec = importlib.util.spec_from_file_location("snapshot", ROOT / "tools" / "snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    a = {"f_n1 n=4 t=1.0": "0.5", "q_p_n n=4 t=1.0": ["0.25", "0.125"], "ab n=4 t=1.0": ["1.0", "2.0"]}
    b = {**a, "f_n1 n=4 t=1.0": "0.5000000000000001", "q_p_n n=4 t=1.0": "raises NumericalError"}
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path, record in zip(paths, (a, b)):
        path.write_text(json.dumps(record))
    assert snapshot.compare(*paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "2 of 3 keys differ",
        "keys whose value moved, per family: f_n1 1 (abs 1.1e-16, rel 2.2e-16)",
        "keys whose kind changed, per family: q_p_n (value -> raises NumericalError) 1",
    ]
    assert snapshot.compare(paths[0], paths[0]) == 0
