"""Record every value of a fixed sweep, or compare two records.

    python tools/snapshot.py TREE OUT.json
    python tools/snapshot.py --compare A.json B.json

The first form imports gemax from TREE/src (run it in a fresh process, as
above, so no other copy is imported) and writes one JSON object: each key
names a value of the public API or a CLI argv, each float is stored as its
``repr``, a raised error as ``raises <class>``, each argv as its stdout
and exit code, and each Monte Carlo run as the sha256 of its samples'
bytes.  The second form prints every key whose entry differs, with both
entries and the largest relative and absolute gaps of its differing floats
(the numbers printed in a CLI stdout included), then two lines that count
the differing keys per family (a CLI argv's subcommand, or the words of a
key before its first name=value, such as ``f_n1`` or ``f_n2 exponential``):
the keys whose value moved within its kind, and the keys whose kind
changed (a value, ``raises <class>``, a CLI exit code, or missing), each
change of kind counted on its own.  It exits 1 if any key differs.
A change that must keep every result bit for bit compares the records of
its parent tree and of itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import sys
import tempfile
from collections import Counter
from itertools import takewhile
from pathlib import Path

import numpy as np

FINITE_N = (1, 2, 3, 4, 5, 10, 11, 40, 41, 100, 101, 399, 400)
#: offsets from the edge sqrt(2n) of the finite-n points, edge - 8 .. edge + 4
OFFSETS = tuple(range(-8, 5))
#: the window [-10, 8] on a 0.5 grid, read point by point and as one table per law
AIRY_POINTS = tuple(-10.0 + 0.5 * k for k in range(37))
BUNDLE_POINTS = (-10.0, -8.0, -6.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0)
#: Ai and Ai' on both sides of special.AIRY_SERIES_START = 10 and well past it
AIRY_X = (9.5, 10.0 - 1e-9, 10.0 + 1e-9, 12.0, 20.0, 35.0, 60.0)
#: Monte Carlo runs `sample_lambda_max(beta, n, SAMPLER_COUNT, SAMPLER_SEED)`,
#: one full batch and part of a second
SAMPLER_BETAS = (1, 2, 4)
SAMPLER_N = (1, 2, 3, 4, 16, 24, 96, 400)
SAMPLER_COUNT, SAMPLER_SEED = 3000, 2026
EPS_FIELDS = ("v_tilde_eps", "q_eps", "p1", "r1", "p4", "r4", "c_phi", "c_psi")
#: exponential tables as `finite_tables` runs them, 9 points on edge - 4 .. edge + 2.5
#: at n = 4 and 40, and a 2-point table whose one cell takes the most nodes a cell takes
EXPONENTIAL_TABLES = ((4, -4.0, 2.5, 9), (40, -4.0, 2.5, 9), (40, -1.5, 2.0, 2))
#: far-left points where the readers of solves handed out unresolved values
FAR_LEFT = ((1, -6.09), (4, -1e10))
#: a GOE table whose points repeat: edge - 2.9 .. edge + 2.5 at n = 400, then every other point again
REPEATED_GOE = 400
#: a c past every finite term: each expansion, E_{c,1}, E_{c,2} and eta there overflow and raise
OVERFLOW_C = 1e154
#: a decimal number in a CLI stdout, kept by `re.split` as its own part
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

ARGVS = (
    ("tabulate", "--ensemble", "gue", "--n", "4", "--t-min", "-3", "--t-max", "3", "--steps", "7"),
    ("tabulate", "--ensemble", "gue", "--n", "40", "--t-min", "6", "--t-max", "10", "--steps", "3",
     "--method", "exponential"),
    ("tabulate", "--ensemble", "gue", "--n", "400", "--t-min", "24", "--t-max", "30", "--steps", "7"),
    ("tabulate", "--ensemble", "goe", "--n", "40", "--t-min", "4", "--t-max", "11", "--steps", "8"),
    ("tabulate", "--ensemble", "goe", "--n", "400", "--t-min", "25", "--t-max", "30", "--steps", "6",
     "--format", "json"),
    ("tabulate", "--ensemble", "gse", "--n", "41", "--t-min", "2", "--t-max", "8", "--steps", "7"),
    ("tabulate", "--ensemble", "gse", "--n", "5", "--t-min", "-1", "--t-max", "4", "--steps", "6",
     "--gue-scale"),
    ("tabulate", "--ensemble", "gse", "--n", "1", "--t-min", "-1", "--t-max", "1", "--steps", "3"),
    ("limit", "--ensemble", "gue", "--s-min", "-10", "--s-max", "8", "--steps", "10"),
    ("limit", "--ensemble", "goe", "--steps", "8"),
    ("limit", "--ensemble", "gse", "--steps", "8", "--format", "json"),
    ("edgeworth", "--ensemble", "gue", "--n", "40", "--steps", "3"),
    ("edgeworth", "--ensemble", "goe", "--n", "40", "--c", "0.5", "--steps", "3"),
    ("edgeworth", "--ensemble", "gse", "--n", "41", "--steps", "3", "--format", "json"),
    # 9-point grids, where a table's truths and its points' can differ in the last bits
    ("edgeworth", "--ensemble", "goe", "--n", "40"),
    ("convergence", "--ensemble", "gse", "--n-list", "21,41,81", "--reference", "edgeworth"),
    ("mc", "--ensemble", "gue", "--n", "10", "--samples", "2000", "--seed", "1"),
    ("mc", "--ensemble", "goe", "--n", "8", "--samples", "2000", "--seed", "2"),
    ("mc", "--ensemble", "gse", "--n", "5", "--samples", "2000", "--seed", "3"),
    ("convergence", "--ensemble", "gue", "--n-list", "20,40,80", "--steps", "3"),
    # every criterion's detail line; criteria 4 and 8 fail, so it exits 1
    ("validate",),
    # a zero sup error: truth and expansion both round to 1.0
    ("convergence", "--reference", "edgeworth", "--s-min", "8", "--s-max", "8", "--steps", "1",
     "--n-list", "20,40,80"),
    ("limit", "--steps", "2", "--out", "{missing}/x.csv"),
    # the JSON config of every table command
    ("mc", "--ensemble", "goe", "--n", "4", "--samples", "500", "--seed", "3", "--format", "json"),
    ("convergence", "--n-list", "20,40,80", "--steps", "2", "--format", "json"),
    ("tabulate", "--ensemble", "gse", "--n", "5", "--t-min", "0", "--t-max", "1", "--steps", "2",
     "--gue-scale", "--format", "json"),
    # a descending grid
    ("tabulate", "--ensemble", "goe", "--n", "40", "--t-min", "10", "--t-max", "4", "--steps", "7"),
    # one-point tables: one operator each
    ("tabulate", "--ensemble", "gue", "--n", "40", "--t-min", "8.5", "--t-max", "8.5", "--steps", "1"),
    ("tabulate", "--ensemble", "goe", "--n", "40", "--t-min", "8.5", "--t-max", "8.5", "--steps", "1"),
    ("tabulate", "--ensemble", "gse", "--n", "41", "--t-min", "6", "--t-max", "6", "--steps", "1"),
) + tuple(
    ("tabulate", "--n", str(n), "--t-min", repr(math.sqrt(2.0 * n) + lower),
     "--t-max", repr(math.sqrt(2.0 * n) + upper), "--steps", str(steps), "--method", "exponential")
    for n, lower, upper, steps in EXPONENTIAL_TABLES
)


def _entry(value):
    """A JSON-ready entry: floats by repr, tuples and lists entry by entry."""
    if isinstance(value, (tuple, list)):
        return [_entry(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


def _record(out: dict, key: str, fn) -> None:
    try:
        out[key] = _entry(fn())
    except Exception as exc:  # a raised error is part of the record
        out[key] = f"raises {type(exc).__name__}"


def _values(gemax) -> dict:
    finite_n, airy, special, mc = gemax.finite_n, gemax.airy, gemax.special, gemax.mc
    out: dict = {}
    for beta in SAMPLER_BETAS:
        for n in SAMPLER_N:
            _record(
                out,
                f"sample_lambda_max beta={beta} n={n} sha256",
                lambda: hashlib.sha256(
                    mc.sample_lambda_max(beta, n, SAMPLER_COUNT, SAMPLER_SEED).samples.tobytes()
                ).hexdigest(),
            )
    for x in AIRY_X:
        _record(out, f"special.airy x={x!r}", lambda: [float(v) for v in special.airy(x)])
    for n in FINITE_N:
        for offset in OFFSETS:
            t = math.sqrt(2.0 * n) + offset
            at = f"n={n} t={t!r}"
            _record(out, f"f_n2 {at}", lambda: finite_n.f_n2(n, t))
            _record(out, f"log_f_n2 {at}", lambda: finite_n.log_f_n2(n, t))
            _record(out, f"q_p_n {at}", lambda: finite_n.q_p_n(n, t))
            _record(
                out,
                f"epsilon_numeric {at}",
                lambda: [getattr(finite_n.epsilon_numeric(n, t), f) for f in EPS_FIELDS],
            )
            _record(
                out,
                f"epsilon_closed {at}",
                lambda: [getattr(gemax.epsilon_closed(n, t), f) for f in EPS_FIELDS],
            )
            if n % 2 == 0:
                law, x = finite_n.f_n1, t
            else:
                law, x = finite_n.f_n4, t / math.sqrt(2.0)
            _record(out, f"{law.__name__} {at}", lambda: law(n, x))
            _record(out, f"f_n2 exponential {at}", lambda: finite_n.f_n2(n, t, "exponential"))
            _record(out, f"ab {at}", lambda: finite_n.ab(n, t))
    for n, t in FAR_LEFT:
        for reader in (finite_n.q_p_n, finite_n.ab):
            _record(out, f"{reader.__name__} n={n} t={t!r}", lambda: reader(n, t))
        _record(out, f"epsilon_numeric n={n} t={t!r}",
                lambda: [getattr(finite_n.epsilon_numeric(n, t), f) for f in EPS_FIELDS])
    edge = math.sqrt(2.0 * REPEATED_GOE)
    points = [edge - 2.9 + 5.4 * k / 8 for k in range(9)]
    _record(out, f"cdf_values goe n={REPEATED_GOE} repeated",
            lambda: finite_n.cdf_values("goe", REPEATED_GOE, points + points[::2]).tolist())
    for s in AIRY_POINTS:
        for law in (airy.f1_limit, airy.f2_limit, airy.f4_limit, airy.hastings_mcleod_q,
                    airy.log_f2_limit):
            _record(out, f"{law.__name__} s={s!r}", lambda: law(s))
    for ensemble in ("gue", "goe", "gse"):  # each law's table on the same points, one stack
        _record(out, f"limit_values ensemble={ensemble} s=AIRY_POINTS",
                lambda: airy.limit_values(ensemble, AIRY_POINTS).tolist())
    for s in BUNDLE_POINTS:
        _record(out, f"airy_bundle s={s!r}", lambda: repr(airy.airy_bundle(s)))
        _record(out, f"f2_limit exponential s={s!r}", lambda: math.exp(airy.airy_bundle(s).log_f2))
    for expansion in (airy.edgeworth_f2, airy.edgeworth_f1_sq, airy.edgeworth_f4_sq):
        _record(out, f"{expansion.__name__} n=40 c={OVERFLOW_C!r} s=0.0",
                lambda: repr(expansion(40, OVERFLOW_C, 0.0)))
    _record(out, "f2_limit s=[1.0, 2.0]", lambda: airy.f2_limit(np.array([1.0, 2.0])))
    # arguments that are not real numbers, or not one point, each refused by name; a value is its repr
    acceptance, run = gemax.acceptance, mc.sample_lambda_max(2, 4, 10, 1)
    refused = {
        "f2_limit s=True": lambda: airy.f2_limit(True),
        "airy_bundle s=True": lambda: airy.airy_bundle(True),
        "hastings_mcleod_q s=True": lambda: airy.hastings_mcleod_q(True),
        "e_c2 s=0.0 c=True": lambda: airy.e_c2(0.0, True),
        "tau n=40 c=True s=0": lambda: airy.tau(40, True, 0),
        "tau n=40 c=0 s='x'": lambda: airy.tau(40, 0, "x"),
        "tau n=40 c=0 s=None": lambda: airy.tau(40, 0, None),
        "tau n=40 c=0 s=nan": lambda: airy.tau(40, 0, math.nan),
        "edgeworth_comparison gue n=40 c=0.0 s='1'": lambda: acceptance.edgeworth_comparison("gue", 40, 0.0, "1"),
        "edgeworth_study gue n=40 c=0.0 s=['-1', True]": lambda: acceptance.edgeworth_study(
            "gue", 40, 0.0, ["-1", True]),
        "q_p_n n=40 t='8'": lambda: finite_n.q_p_n(40, "8"),
        "ab n=4 t='1'": lambda: finite_n.ab(4, "1"),
        "epsilon_numeric n=4 t='1'": lambda: finite_n.epsilon_numeric(4, "1"),
        "cdf_values gue n=40 x=[True, '2']": lambda: finite_n.cdf_values("gue", 40, [True, "2"]),
        "f_n2 n=40 t=True": lambda: finite_n.f_n2(40, True),
        "f_n2 n=40 t=[1.0, 2.0]": lambda: finite_n.f_n2(40, np.array([1.0, 2.0])),
        "f_n1 n=40 t=[1.0, 2.0]": lambda: finite_n.f_n1(40, np.array([1.0, 2.0])),
        "f_n4 n=41 u=[1.0, 2.0]": lambda: finite_n.f_n4(41, np.array([1.0, 2.0])),
        "gse_largest_cdf n=1 u='0'": lambda: finite_n.gse_largest_cdf(1, "0"),
        "empirical_cdf t=True": lambda: mc.empirical_cdf(run, True),
        "empirical_cdf t='1'": lambda: mc.empirical_cdf(run, "1"),
        "ks_statistic grid_points=2.5": lambda: mc.ks_statistic(run, acceptance.mc_cdf("gue", 4), grid_points=2.5),
    }
    for key, call in refused.items():
        _record(out, key, lambda: repr(call()))
    for correction in ("e_c1", "e_c2"):
        _record(out, f"{correction} s=0.0 c={OVERFLOW_C!r}", lambda: getattr(airy, correction)(0.0, OVERFLOW_C))
    _record(out, f"airy_bundle eta s=0.0 c={OVERFLOW_C!r}", lambda: airy.airy_bundle(0.0).eta(OVERFLOW_C))
    return out


def _argvs(cli) -> dict:
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        missing = str(Path(tmp) / "missing")
        for argv in ARGVS:
            stdout = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main([a.format(missing=missing) for a in argv], stdout=stdout)
                except Exception:  # an uncaught error ends the process with exit 1
                    code = 1
            out["gemax " + " ".join(argv)] = {"exit": code, "stdout": stdout.getvalue()}
    return out


def snapshot(tree: Path, path: Path) -> None:
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    gemax = importlib.import_module("gemax")
    if Path(gemax.__file__).resolve().parent != src / "gemax":
        sys.exit(f"imported gemax from {gemax.__file__}, not from {src}")
    cli = importlib.import_module("gemax.cli")
    record = {**_values(gemax), **_argvs(cli)}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} keys written to {path}")


def _gaps(a, b):
    """(absolute, relative) gaps between the differing floats of two entries.

    Two texts that split into the same tokens apart from their numbers, as
    the stdouts of one argv do, are compared number by number.
    """
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [g for k in a for g in _gaps(a[k], b[k])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [g for x, y in zip(a, b) for g in _gaps(x, y)]
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        if isinstance(a, str) and isinstance(b, str):
            parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
            if len(parts_a) == len(parts_b) > 1 and parts_a[::2] == parts_b[::2]:
                return _gaps(parts_a[1::2], parts_b[1::2])
        return []
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return []
    return [(abs(x - y), abs(x - y) / max(abs(x), abs(y)))]


def _family(key: str) -> str:
    """A CLI argv's subcommand, or the words of a key before its first name=value."""
    words = key.split()
    if words[0] == "gemax":
        return words[1]
    return " ".join(takewhile(lambda word: "=" not in word, words))


def _kind(entry) -> str:
    """What an entry is: ``missing``, ``raises <class>``, ``exit <code>`` for an argv, else ``value``."""
    if entry is None:
        return "missing"
    if isinstance(entry, dict):
        return f"exit {entry['exit']}"
    if isinstance(entry, str) and entry.startswith("raises "):
        return entry
    return "value"


def _per_family(counts: Counter) -> str:
    return ", ".join(f"{label} {count}" for label, count in counts.most_common()) or "none"


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in differing:
        gaps = _gaps(a.get(key), b.get(key))
        gap = ""
        if gaps:
            absolute, relative = map(max, zip(*gaps))
            gap = f" (relative gap {relative:.3g}, absolute gap {absolute:.3g})"
        print(f"{key}{gap}\n  A: {a.get(key, '<missing>')!r}\n  B: {b.get(key, '<missing>')!r}")
    print(f"{len(differing)} of {len(a.keys() | b.keys())} keys differ")
    kinds = {key: (_kind(a.get(key)), _kind(b.get(key))) for key in differing}
    moved = Counter(_family(key) for key in differing if kinds[key][0] == kinds[key][1])
    changed = Counter(
        f"{_family(key)} ({kinds[key][0]} -> {kinds[key][1]})"
        for key in differing
        if kinds[key][0] != kinds[key][1]
    )
    print("keys whose value moved, per family: " + _per_family(moved))
    print("keys whose kind changed, per family: " + _per_family(changed))
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and not argv[0].startswith("-"):
        snapshot(Path(argv[0]), Path(argv[1]))
        return 0
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
