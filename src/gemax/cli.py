"""Command-line front end: tabulation, limits, Edgeworth comparisons,
Monte Carlo validation, convergence studies, and the acceptance suite.

Exit codes: 0 success, 1 validation or numerical failure or a request too
large for memory, 2 usage error.  One table, DOMAINS, decides each option's own
domain before ``--out`` or any work; n, c, --seed and --samples are the library's.
All numeric output uses 17 significant digits, '.' decimals and '\\n' newlines,
so files re-parse to full precision and identical configurations produce
byte-identical output.  ``--out`` is written only once the command has finished,
so a usage error or a numerical failure leaves no new file and an existing one
untouched.  A JSON table's ``config`` echoes every option but ``--out`` and ``--format``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, acceptance, airy, finite_n, mc
from .acceptance import edgeworth_study, run_criteria, sup_errors
from .errors import NumericalError, ParameterError

SQRT2 = math.sqrt(2.0)
S_WINDOW = (lambda v: airy.S_MIN <= v <= airy.S_MAX, f"a value in [{airy.S_MIN}, {airy.S_MAX}]")

#: each option's own domain: dest -> (its test, which NaN fails, and the domain
#: its error names); up to 10**18 steps numpy itself refuses a table too large for memory
DOMAINS = {
    "steps": (lambda v: 0 <= v <= 10**18, "a value in [0, 10**18]"),
    "t_min": (math.isfinite, "a finite value"),
    "t_max": (math.isfinite, "a finite value"),
    "s_min": S_WINDOW,
    "s_max": S_WINDOW,
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _table(args, header, rows) -> tuple[str, int]:
    if args.format == "csv":
        lines = [header, *([_fmt(v) for v in row] for row in rows)]
        return "".join(",".join(line) + "\n" for line in lines), 0
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out", "format")}
    # RFC 8259 has no NaN or infinity: such a value is null, where CSV writes nan
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in zip(header, row)}
            for row in rows]
    payload = {"command": args.command, "config": config, "version": __version__, "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(f"{option} takes comma-separated integers, got {text!r}") from None


def cmd_tabulate(args) -> tuple[str, int]:
    if args.gue_scale and args.ensemble != "gse":
        raise ParameterError(f"--gue-scale applies to --ensemble gse only, got {args.ensemble}")
    if not math.isfinite(args.t_max - args.t_min):
        raise ParameterError(f"--t-min {args.t_min} and --t-max {args.t_max} span no finite width")
    grid = np.linspace(args.t_min, args.t_max, args.steps)
    # the GSE grid is in the symplectic variable u unless --gue-scale is given
    x = grid / SQRT2 if args.gue_scale else grid
    values = finite_n.cdf_values(args.ensemble, args.n, x, args.method)
    return _table(args, ("t", "F"), [(float(t), float(v)) for t, v in zip(grid, values)])


def cmd_limit(args) -> tuple[str, int]:
    grid = np.linspace(args.s_min, args.s_max, args.steps)
    values = airy.limit_values(args.ensemble, grid)
    return _table(args, ("s", "F"), list(zip(grid.tolist(), values.tolist())))


def cmd_edgeworth(args) -> tuple[str, int]:
    grid = np.linspace(args.s_min, args.s_max, args.steps)
    truths, results = edgeworth_study(args.ensemble, args.n, args.c, grid)
    rows = [(float(s), t, r.leading, r.order_one_third, r.order_two_thirds, r.combined,
             r.combined - t) for s, t, r in zip(grid, truths.tolist(), results)]
    header = ("s", "finite_n", "leading", "first_order", "second_order", "combined", "error")
    return _table(args, header, rows)


def cmd_mc(args) -> tuple[str, int]:
    ks = acceptance.mc_ks(args.ensemble, args.n, args.samples, args.seed)
    crit = mc.ks_critical_1pct(args.samples)
    return _table(args, ("ks", "critical_value_1pct", "pass"), [(ks, crit, ks < crit)])


def cmd_convergence(args) -> tuple[str, int]:
    ns = _int_list(args.n_list, "--n-list")
    if len(ns) < 3:
        raise ParameterError(f"need at least 3 n values, got {ns}")
    if len(set(ns)) < len(ns):
        raise ParameterError(f"--n-list repeats an n, got {ns}")
    for n in ns:
        finite_n.check_n(n, finite_n.PARITY[args.ensemble])
    if args.steps < 1:
        raise ParameterError(f"need --steps >= 1, got {args.steps}")
    args.n_list = ns  # the JSON config echoes the parsed list
    s_grid = np.linspace(args.s_min, args.s_max, args.steps)
    column = 1 if args.reference == "edgeworth" else 0
    errs = sup_errors(args.ensemble, ns, args.c, s_grid)[:, column].tolist()
    rows = []
    for i, (n, err) in enumerate(zip(ns, errs)):
        if i == 0 or err == 0.0 or errs[i - 1] == 0.0:
            rate = float("nan")  # no rate from a zero error
        else:
            rate = math.log(err / errs[i - 1]) / math.log(n / ns[i - 1])
        rows.append((n, err, rate))
    return _table(args, ("n", "sup_error", "rate_estimate"), rows)


def cmd_validate(args) -> tuple[str, int]:
    indices = None if args.criteria is None else _int_list(args.criteria, "--criteria")
    results = run_criteria(indices)
    all_pass = all(r.passed for r in results)
    text = "".join(f"criterion {r.index:2d} [{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n"
                   for r in results)
    return text + f"validation {'PASSED' if all_pass else 'FAILED'}\n", 0 if all_pass else 1


# built once per process: it keys on nothing, and parse_args leaves it as it
# was, each call filling a fresh namespace
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # help at a fixed 78 columns, argparse's width when no terminal is attached:
    # its default asks the terminal for its size in every formatter it makes,
    # and add_argument makes one per call
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="gemax",
        description="Largest-eigenvalue distributions of the Gaussian ensembles",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ensemble", choices=("goe", "gue", "gse"), default="gue")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("tabulate", help="finite-n CDF table", formatter_class=formatter)
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--method", choices=("determinant", "exponential"), default="determinant")
    p.add_argument("--gue-scale", action="store_true",
                   help="tabulate the symplectic law against t = u*sqrt(2)")

    p = sub.add_parser("limit", help="limiting-law table", formatter_class=formatter)
    common(p)
    p.add_argument("--s-min", type=float, default=-8.0)
    p.add_argument("--s-max", type=float, default=6.0)
    p.add_argument("--steps", type=int, default=29)

    p = sub.add_parser("edgeworth", help="expansion vs finite-n truth", formatter_class=formatter)
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--s-min", type=float, default=-3.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=9)

    p = sub.add_parser("mc", help="Monte Carlo KS validation", formatter_class=formatter)
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convergence", help="convergence-rate study", formatter_class=formatter)
    common(p)
    p.add_argument("--n-list", default="20,40,80,160")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--reference", choices=("limit", "edgeworth"), default="limit")
    p.add_argument("--s-min", type=float, default=-3.0)
    p.add_argument("--s-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=9)

    p = sub.add_parser("validate", help="run the acceptance suite", formatter_class=formatter)
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p.add_argument("--out", default=None)
    return parser


COMMANDS = {
    "tabulate": cmd_tabulate,
    "limit": cmd_limit,
    "edgeworth": cmd_edgeworth,
    "mc": cmd_mc,
    "convergence": cmd_convergence,
    "validate": cmd_validate,
}


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise ParameterError(f"cannot open --out {path}: {exc.strerror}") from None


def _is_stdout(path: str) -> bool:
    # a "w" reopen of the file fd 1 writes to, as /dev/stdout, would truncate it
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def main(argv=None, stdout=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    made = False  # whether the probe below created --out
    try:
        for dest, value in vars(args).items():
            if dest in DOMAINS and not DOMAINS[dest][0](value):
                raise ParameterError(f"--{dest.replace('_', '-')} is {value}; need {DOMAINS[dest][1]}")
        if args.out:
            existed = os.path.lexists(args.out)
            _open_out(args.out, "a").close()  # refuse an unopenable path before any work
            made = not existed
        text, code = COMMANDS[args.command](args)
        if args.out and not _is_stdout(args.out):
            with _open_out(args.out, "w") as handle:
                handle.write(text)
        else:
            (stdout if stdout is not None else sys.stdout).write(text)
        return code
    except (ParameterError, NumericalError, MemoryError) as exc:
        if made:  # a failed command leaves no new file behind
            with contextlib.suppress(OSError):
                os.remove(args.out)
        # numpy refuses a request too large for memory before it allocates: exit 1, as a failure
        usage = isinstance(exc, ParameterError)
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"{'error' if usage else kind}: {exc}", file=sys.stderr)
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
