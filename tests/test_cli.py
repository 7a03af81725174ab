"""End-to-end tests of the command-line interface."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gemax import acceptance, airy, cli, finite_n, mc
from gemax.acceptance import mc_cdf
from gemax.errors import NumericalError, ParameterError
from gemax.finite_n import f_n1, f_n2, f_n4, gse_largest_cdf
from helpers import limit_law_reference


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main(argv, stdout=buf)
    return code, buf.getvalue()


class TestTabulate:
    def test_gue_n1_is_erf(self):
        # [DERIVED] single-eigenvalue closed form through the full pipeline
        code, out = run_cli(
            ["tabulate", "--ensemble", "gue", "--n", "1",
             "--t-min", "-1", "--t-max", "1", "--steps", "3"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,F"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for t_str, f_str in rows:
            expected = 0.5 * (1.0 + math.erf(float(t_str)))
            assert float(f_str) == pytest.approx(expected, abs=1e-8)

    def test_json_format(self):
        code, out = run_cli(
            ["tabulate", "--ensemble", "gue", "--n", "2",
             "--t-min", "0", "--t-max", "1", "--steps", "2", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "tabulate"
        assert len(doc["rows"]) == 2
        assert set(doc["rows"][0]) == {"t", "F"}

    @pytest.mark.parametrize("option, value", [("--t-min", "nan"), ("--t-max", "inf"),
                                               ("--t-min", "-inf"), ("--t-max", "nan")])
    def test_non_finite_window_is_a_usage_error(self, option, value, capsys):
        # a NaN bound failed as a quadrature grid the user never gave, and an
        # infinite one printed a numpy RuntimeWarning first
        argv = {"--t-min": "-1", "--t-max": "1", option: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["tabulate", "--ensemble", "goe", "--n", "40", "--steps", "3",
                                 *(f"{k}={v}" for k, v in argv.items())])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {option} is {value}; need a finite value\n"

    def test_goe_parity_error(self):
        code, _ = run_cli(
            ["tabulate", "--ensemble", "goe", "--n", "3",
             "--t-min", "0", "--t-max", "1", "--steps", "2"]
        )
        assert code == 2

    def test_gse_parity_error(self):
        code, _ = run_cli(
            ["tabulate", "--ensemble", "gse", "--n", "4",
             "--t-min", "0", "--t-max", "1", "--steps", "2"]
        )
        assert code == 2

    def test_exponential_left_tail(self):
        # the exponential path's log F read +9612 at n = 40, t = -2 and the
        # command died with an OverflowError traceback
        code, out = run_cli(
            ["tabulate", "--n", "40", "--t-min", "-2", "--t-max", "0",
             "--steps", "3", "--method", "exponential"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(0.0 <= float(f) <= 1e-12 for _, f in rows)

    @pytest.mark.parametrize("ensemble, n", [("goe", 40), ("gse", 41)])
    def test_exponential_is_gue_only(self, ensemble, n, monkeypatch, capsys):
        # the GOE/GSE values ran the assembly path while the JSON config
        # echoed "method": "exponential"
        def refuse(*args, **kwargs):
            raise AssertionError("computed a value for a rejected method")

        monkeypatch.setattr(cli.finite_n, "f_n1", refuse)
        monkeypatch.setattr(cli.finite_n, "f_n4", refuse)
        code, out = run_cli(
            ["tabulate", "--ensemble", ensemble, "--n", str(n), "--t-min", "8",
             "--t-max", "9", "--steps", "2", "--method", "exponential"]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("ensemble, n", [("gue", 4), ("goe", 4), ("gse", 5)])
    def test_determinant_method_accepted(self, ensemble, n):
        code, out = run_cli(
            ["tabulate", "--ensemble", ensemble, "--n", str(n), "--t-min", "2",
             "--t-max", "3", "--steps", "2", "--method", "determinant"]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_gse_n1_is_one(self):
        # kernel index 1 has no symplectic eigenvalue; this row exited 1
        # (log F above zero at u = -4) and read 0 further left
        code, out = run_cli(
            ["tabulate", "--ensemble", "gse", "--n", "1", "--t-min", "-5",
             "--t-max", "-3", "--steps", "5"]
        )
        assert code == 0
        assert [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]] == [1.0] * 5

    def test_n_above_supported_range(self, capsys):
        code, out = run_cli(
            ["tabulate", "--n", "800", "--t-min", "38", "--t-max", "39", "--steps", "2"]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_file(self, tmp_path):
        path = tmp_path / "table.csv"
        code, out = run_cli(
            ["tabulate", "--ensemble", "gue", "--n", "1",
             "--t-min", "0", "--t-max", "1", "--steps", "2", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text().startswith("t,F")


class TestLimit:
    def test_f2_value(self):
        code, out = run_cli(
            ["limit", "--ensemble", "gue", "--s-min", "0", "--s-max", "0", "--steps", "1"]
        )
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        # [DERIVED] F_2(0) from published Tracy-Widom evaluations
        assert value == pytest.approx(0.9693728283552, abs=1e-9)

    @pytest.mark.parametrize("ensemble", ["goe", "gue", "gse"])
    @pytest.mark.parametrize("window", [("-10", "-9"), ("7", "8")], ids=["left", "right"])
    def test_window_edges(self, ensemble, window):
        # the documented window [-10, 8] is usable up to both edges
        code, out = run_cli(
            ["limit", "--ensemble", ensemble, "--s-min", window[0], "--s-max", window[1],
             "--steps", "2"]
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(values) == 2
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("ensemble", ["goe", "gue", "gse"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_is_its_points(self, ensemble, fmt):
        # a 37-step table over the whole window is one stack; each row is the
        # one-operator read of its s, bit for bit
        code, out = run_cli(["limit", "--ensemble", ensemble, "--s-min", "-10", "--s-max", "8",
                             "--steps", "37", "--format", fmt])
        assert code == 0
        if fmt == "json":
            rows = [(r["s"], r["F"]) for r in json.loads(out)["rows"]]
        else:
            rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert [s for s, _ in rows] == np.linspace(-10.0, 8.0, 37).tolist()
        assert [f for _, f in rows] == [limit_law_reference(ensemble, s) for s, _ in rows]

    def test_sign_loss_exit_code(self, monkeypatch, capsys):
        # a determinant of I - A_s that loses positivity is a numerical failure
        airy_ai = airy.airy_ai
        monkeypatch.setattr(airy, "airy_ai", lambda x: 2.0 * airy_ai(x))
        code, _ = run_cli(
            ["limit", "--ensemble", "goe", "--s-min", "-3", "--s-max", "-3", "--steps", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestEdgeworth:
    def test_columns(self):
        code, out = run_cli(
            ["edgeworth", "--ensemble", "gue", "--n", "40",
             "--s-min", "-1", "--s-max", "0", "--steps", "2"]
        )
        assert code == 0
        header = out.strip().splitlines()[0].split(",")
        assert header == [
            "s", "finite_n", "leading", "first_order", "second_order", "combined", "error",
        ]

    @pytest.mark.parametrize("ensemble,n", [("gue", 40), ("goe", 40), ("gse", 41)])
    @pytest.mark.parametrize("window", [("-10", "-9"), ("7", "8")], ids=["left", "right"])
    def test_window_edges(self, ensemble, n, window):
        # the Edgeworth terms at s = -10 and s = 8 reach q' through a stencil
        # 2e-3 past the window, which the window check must not reject
        code, out = run_cli(
            ["edgeworth", "--ensemble", ensemble, "--n", str(n),
             "--s-min", window[0], "--s-max", window[1], "--steps", "2"]
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_window_exit_code(self):
        code, _ = run_cli(
            ["edgeworth", "--ensemble", "gue", "--n", "40",
             "--s-min", "-20", "--s-max", "0", "--steps", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, named",
        [("--s-min", "--s-min is nan"), ("--s-max", "--s-max is nan"), ("--c", "c=nan")],
    )
    def test_nan_is_a_usage_error(self, option, named, capsys):
        # a NaN s-window bound passed the window check, and it and a NaN --c
        # both failed later as a quadrature grid "(nan, nan)" the user never gave
        argv = {"--s-min": "-1", "--s-max": "0", "--c": "0", option: "nan"}
        code, out = run_cli(["edgeworth", "--ensemble", "gue", "--n", "40", "--steps", "3",
                             *(v for item in argv.items() for v in item)])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_one_expansion_per_point(self, monkeypatch):
        # the expansion was built once inside the comparison and once more
        # for the row
        calls = []
        expansion = airy.edgeworth_f1_sq
        monkeypatch.setattr(airy, "edgeworth_f1_sq", lambda *a: calls.append(a) or expansion(*a))
        code, _ = run_cli(
            ["edgeworth", "--ensemble", "goe", "--n", "40",
             "--s-min", "-1", "--s-max", "0", "--steps", "2"]
        )
        assert code == 0
        assert calls == [(40, 0.0, -1.0), (40, 0.0, 0.0)]


class TestMc:
    def test_ks_row(self):
        code, out = run_cli(
            ["mc", "--ensemble", "gue", "--n", "2", "--samples", "2000", "--seed", "7"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ks,critical_value_1pct,pass"
        ks, crit, verdict = lines[1].split(",")
        assert float(ks) < float(crit)
        assert verdict == "true"

    def test_determinism(self):
        argv = ["mc", "--ensemble", "gue", "--n", "2", "--samples", "1000", "--seed", "3"]
        assert run_cli(argv) == run_cli(argv)

    @pytest.mark.parametrize("ensemble, n", [("gue", 401), ("goe", 3), ("gse", 200), ("gse", 0)])
    def test_domain_checked_before_sampling(self, monkeypatch, capsys, ensemble, n):
        def refuse(*args):
            raise AssertionError("sampled before the domain check")

        monkeypatch.setattr(mc, "sample_lambda_max", refuse)
        code, out = run_cli(["mc", "--ensemble", ensemble, "--n", str(n), "--samples", "256"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_cdf_is_a_numerical_failure(self, monkeypatch, capsys):
        # a NaN CDF value used to print "nan,...,false" and exit 0
        monkeypatch.setattr(acceptance, "mc_cdf", lambda ensemble, n: lambda x: x * math.nan)
        code, out = run_cli(["mc", "--ensemble", "gue", "--n", "2", "--samples", "200"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the CDF is not finite at x = ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("ensemble, n", [("gue", 400), ("goe", 400), ("gse", 199), ("gse", 1)])
    def test_domain_edges_accepted(self, ensemble, n):
        assert callable(mc_cdf(ensemble, n))

    def test_one_check_with_criterion_5(self, monkeypatch):
        # gemax mc and criterion 5 each ran their own sampler-and-KS pipeline,
        # with a beta table of their own
        class Refused(Exception):
            pass

        def refuse(*args):
            raise Refused(args)

        monkeypatch.setattr(acceptance, "mc_ks", refuse)
        with pytest.raises(Refused) as cli_call:
            run_cli(["mc", "--ensemble", "gse", "--n", "3", "--samples", "500", "--seed", "4"])
        with pytest.raises(Refused) as criterion_call:
            acceptance.criterion_5()
        assert cli_call.value.args[0] == ("gse", 3, 500, 4)
        assert criterion_call.value.args[0] == ("gue", 2, acceptance.MC_COUNT, 9001)


class TestConvergence:
    def test_rate_near_two_thirds(self):
        # [DERIVED] GUE at the exact edge converges at rate n^{-2/3}
        code, out = run_cli(
            ["convergence", "--ensemble", "gue", "--n-list", "20,40,80",
             "--s-min", "-2", "--s-max", "0", "--steps", "5"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        last_rate = float(lines[-1].split(",")[-1])
        assert last_rate == pytest.approx(-2.0 / 3.0, abs=0.25)

    def test_zero_error_rate_is_nan(self):
        # at s = 8 truth and expansion both round to 1.0: every sup error is
        # 0, and a rate between two zero errors ended in ZeroDivisionError
        code, out = run_cli(
            ["convergence", "--reference", "edgeworth", "--s-min", "8", "--s-max", "8",
             "--steps", "1", "--n-list", "20,40,80"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == [0.0, 0.0, 0.0]
        assert all(math.isnan(float(row[2])) for row in rows)

    @pytest.mark.parametrize("argv, rated", [
        (["--n-list", "20,40,80", "--steps", "2"], [False, True, True]),
        (["--reference", "edgeworth", "--s-min", "8", "--s-max", "8", "--steps", "1", "--n-list", "20,40,80"],
         [False, False, False]),
    ], ids=["first row", "zero errors"])
    def test_json_rate_without_value_is_null(self, argv, rated):
        # the rate of row 1, and any rate after a zero error, was the bare
        # token NaN, which RFC 8259 does not allow and jq and JSON.parse reject
        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        code, out = run_cli(["convergence", *argv, "--format", "json"])
        assert code == 0
        rates = [row["rate_estimate"] for row in json.loads(out, parse_constant=refuse)["rows"]]
        assert [rate is not None for rate in rates] == rated
        assert all(isinstance(rate, float) for rate in rates if rate is not None)

    def test_n_list_validation(self):
        code, _ = run_cli(
            ["convergence", "--ensemble", "gue", "--n-list", "20,40",
             "--s-min", "-1", "--s-max", "0", "--steps", "3"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "ensemble, n_list", [("goe", "20,41,80"), ("gse", "21,41,80"), ("gue", "20,40,401")]
    )
    def test_n_list_checked_before_computing(self, ensemble, n_list, monkeypatch, capsys):
        # a wrong-parity or out-of-range n late in the list was rejected only
        # after the values of the n before it were computed
        def refuse(*args):
            raise AssertionError("computed a value before the n-list check")

        monkeypatch.setattr(cli, "sup_errors", refuse)
        code, out = run_cli(
            ["convergence", "--ensemble", ensemble, "--n-list", n_list, "--steps", "3"]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_s_window_checked_before_computing(self, monkeypatch, capsys):
        # an s-window past [-10, 8] was rejected only after the first value
        # was computed
        def refuse(*args):
            raise AssertionError("computed a value before the s-window check")

        monkeypatch.setattr(cli, "sup_errors", refuse)
        code, out = run_cli(
            ["convergence", "--s-min", "-12", "--n-list", "20,40,80", "--steps", "2"]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "error: --s-min is -12.0; need a value in [-10.0, 8.0]\n"


class TestValidate:
    def test_passing_report(self):
        code, out = run_cli(["validate", "--criteria", "1,10"])
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("criterion  1 [PASS] n=1 exactness: max err ")
        assert lines[1] == "criterion 10 [PASS] determinism: differing outputs 0 (bound 1)"
        assert lines[2:] == ["validation PASSED"]

    def test_failing_report(self, monkeypatch):
        # a stand-in criterion 1 whose one clause lies above its bound
        failing = acceptance.CriterionResult(1, "stand-in", (acceptance.Clause("max err", 2e-8, 1e-8),))
        monkeypatch.setitem(acceptance.CRITERIA, 1, lambda: failing)
        code, out = run_cli(["validate", "--criteria", "1,10"])
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "criterion  1 [FAIL] stand-in: max err 2e-08 (bound 1e-08)"
        assert lines[1].startswith("criterion 10 [PASS] ")
        assert lines[2:] == ["validation FAILED"]

    def test_bounds_take_no_scale(self, monkeypatch, capsys):
        # --tolerance-scale multiplied 21 of the 26 clause bounds, so
        # --criteria 9,10 --tolerance-scale 1e-300 passed; each bound is now
        # the literal its line prints, and the option is refused before any work
        def refuse():
            raise AssertionError("ran a criterion")

        for i in acceptance.CRITERIA:
            monkeypatch.setitem(acceptance.CRITERIA, i, refuse)
        assert run_cli(["validate", "--tolerance-scale", "1"]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --tolerance-scale 1" in err


class TestParser:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["tabulate", "--n", "4", "--t-min", "0", "--t-max", "1", "--steps", "-1"],
            ["limit", "--steps", "-1"],
            ["edgeworth", "--n", "40", "--steps", "-1"],
            ["convergence", "--steps", "-1"],
            ["convergence", "--steps", "0"],
            ["convergence", "--n-list", "20,4O,80"],
            ["convergence", "--n-list", "20,20,40"],
            ["edgeworth", "--n", "0", "--c", "0.5", "--steps", "1"],
            ["validate", "--criteria", "1.5"],
            ["validate", "--criteria", "11"],
            ["validate", "--criteria", "10,10"],
            ["mc", "--n", "2", "--samples", "100", "--seed", "-1"],
            ["tabulate", "--ensemble", "gue", "--n", "0", "--t-min", "0", "--t-max", "1",
             "--steps", "0"],
            ["tabulate", "--ensemble", "gue", "--n", "401", "--t-min", "0", "--t-max", "1",
             "--steps", "0"],
            ["edgeworth", "--ensemble", "gue", "--n", "500", "--steps", "0"],
            ["tabulate", "--n", "4", "--t-min=-1e308", "--t-max", "1e308", "--steps", "3"],
            ["limit", "--s-min=-1e308", "--s-max", "1e308", "--steps", "3"],
            ["tabulate", "--ensemble", "gue", "--n", "4", "--t-min", "0", "--t-max", "1",
             "--steps", "3", "--gue-scale"],
            ["tabulate", "--ensemble", "goe", "--n", "4", "--t-min", "0", "--t-max", "1",
             "--steps", "3", "--gue-scale"],
            ["tabulate", "--n", "4", "--t-min", "0", "--t-max", "1", "--steps", str(2**63 - 1)],
            ["limit", "--steps", str(10**18 + 1)],
            ["edgeworth", "--n", "40", "--steps", str(2**60)],
            ["convergence", "--steps", str(2**63 - 1)],
            ["mc", "--n", "4", "--samples", str(2**63 - 1)],
            ["tabulate", "--n", "4", "--t-min", "1", "--t-max", "1e308", "--steps", "3",
             "--method", "exponential"],
            ["validate", "--criteria", ""],
        ],
        ids=["tabulate steps", "limit steps", "edgeworth steps", "convergence steps",
             "convergence steps 0",
             "n-list letter", "n-list repeat", "edgeworth n=0", "criteria float",
             "criteria 11", "criteria repeat", "mc seed",
             "tabulate n=0", "tabulate n=401", "edgeworth n=500", "tabulate width",
             "limit width", "gue-scale gue", "gue-scale goe", "tabulate steps cap",
             "limit steps cap", "edgeworth steps cap", "convergence steps cap", "mc samples cap",
             "exponential far right", "criteria empty"],
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        # each of these used to end in a traceback (ValueError, KeyError or
        # ZeroDivisionError), with n outside 1..400 and --steps 0 in an empty
        # table; a window whose width overflows printed numpy
        # RuntimeWarnings first; --gue-scale was ignored outside the GSE; past
        # the caps numpy raised IndexError or ValueError, and an exponential
        # table to 1e308 OverflowError; --criteria '' ran all ten criteria.
        # None may warn or get as far as computing a value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(argv)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["limit", "--steps", "2"], ["validate", "--criteria", "1"]],
        ids=["limit", "validate"],
    )
    def test_unopenable_out_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # a path in a missing directory ended in a FileNotFoundError traceback;
        # it is refused before any value is computed
        def refuse(*args):
            raise AssertionError("computed a value before opening --out")

        monkeypatch.setattr(airy, "limit_values", refuse)
        monkeypatch.setitem(acceptance.CRITERIA, 1, refuse)
        code, out = run_cli([*argv, "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_required(self):
        assert run_cli(["tabulate"])[0] == 2

    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        # main builds its parser once per process; a sequence of calls on that
        # one parser gives the bytes and exit codes a fresh parser gives, so no
        # parsed state leaks from one call into the next
        sequence = [
            ["convergence", "--n-list", "20,40,80", "--steps", "2", "--format", "json"],
            ["convergence", "--steps", "2", "--format", "json"],
            ["tabulate", "--n", "4", "--t-min", "0"],
            ["tabulate", "--n", "4", "--t-min", "-1", "--t-max", "1", "--steps", "3"],
            ["limit", "--steps", "3"],
        ]
        assert cli.build_parser() is cli.build_parser()
        shared = [(*run_cli(argv), capsys.readouterr().err) for argv in sequence]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [(*run_cli(argv), capsys.readouterr().err) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
        # the second table echoes the default list, not the first call's
        assert json.loads(shared[1][1])["config"]["n_list"] == [20, 40, 80, 160]


class TestOut:
    @pytest.mark.parametrize(
        "argv",
        [["limit", "--steps", "2"],
         ["tabulate", "--ensemble", "goe", "--n", "4", "--t-min", "1", "--t-max", "2",
          "--steps", "2", "--format", "json"]],
        ids=["csv", "json"],
    )
    def test_out_holds_stdout_bytes(self, argv, tmp_path):
        path = tmp_path / "table"
        code, out = run_cli(argv)
        assert code == 0
        assert run_cli([*argv, "--out", str(path)]) == (0, "")
        assert path.read_bytes() == out.encode()

    def test_usage_error_keeps_out_file(self, tmp_path, capsys):
        # --out was truncated before the arguments were checked
        path = tmp_path / "table.csv"
        path.write_bytes(b"t,F\n0,0.5\n")
        code, _ = run_cli(["tabulate", "--n", "0", "--t-min", "0", "--t-max", "1",
                           "--steps", "2", "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_bytes() == b"t,F\n0,0.5\n"

    def test_numerical_failure_keeps_out_file(self, tmp_path, monkeypatch, capsys):
        def fail(ensemble, s):
            raise NumericalError(f"refused s = {s}")

        monkeypatch.setattr(airy, "limit_values", fail)
        path = tmp_path / "table.csv"
        path.write_bytes(b"s,F\n0,0.5\n")
        code, _ = run_cli(["limit", "--steps", "2", "--out", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert path.read_bytes() == b"s,F\n0,0.5\n"

    @pytest.mark.parametrize(
        "argv, code",
        [(["tabulate", "--n", "0", "--t-min", "0", "--t-max", "1", "--steps", "2"], 2),
         (["limit", "--steps", "2"], 1)],
        ids=["usage", "numerical"],
    )
    def test_failure_creates_no_out_file(self, argv, code, tmp_path, monkeypatch, capsys):
        # the probe that refuses an unopenable path creates the file; a failure removes it
        def fail(ensemble, s):
            raise NumericalError(f"refused s = {s}")

        monkeypatch.setattr(airy, "limit_values", fail)
        path = tmp_path / "new.csv"
        assert run_cli([*argv, "--out", str(path)]) == (code, "")
        assert capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [["tabulate", "--n", "4", "--t-min", "0", "--t-max", "1", "--steps", str(10**15)],
         ["mc", "--n", "4", "--samples", str(10**15)]],
        ids=["tabulate", "mc"],
    )
    def test_request_too_large_for_memory(self, argv, tmp_path, capsys):
        # numpy refuses the 7.1 PiB array before it allocates anything; its
        # MemoryError ended the process in a traceback
        path = tmp_path / "new.csv"
        assert run_cli([*argv, "--out", str(path)]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1, err
        assert not path.exists()

    @pytest.mark.parametrize("name", ["file/x.csv", "x" * 300], ids=["under-a-file", "too-long"])
    def test_unopenable_new_path_is_a_usage_error(self, name, tmp_path, capsys):
        # removing such a path after the refused probe raised, not FileNotFoundError
        (tmp_path / "file").write_bytes(b"kept\n")
        assert run_cli(["limit", "--steps", "2", "--out", str(tmp_path / name)]) == (2, "")
        assert capsys.readouterr().err.startswith("error: cannot open --out ")
        assert (tmp_path / "file").read_bytes() == b"kept\n"

    def test_devnull(self):
        # a file that cannot be truncated by position is still a valid --out
        assert run_cli(["limit", "--steps", "2", "--out", os.devnull]) == (0, "")

    def test_out_naming_stdout_appends_to_it(self, tmp_path):
        # a "w" reopen of /dev/stdout truncated the file stdout was redirected to
        path = tmp_path / "f.txt"
        path.write_bytes(b"before\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["limit", "--steps", "2"]
        with path.open("ab") as stdout:
            done = subprocess.run([sys.executable, "-m", "gemax.cli", *argv, "--out", "/dev/stdout"],
                                  stdout=stdout, env=env, check=False)
        assert done.returncode == 0
        assert path.read_text() == "before\n" + run_cli(argv)[1]


#: every option of every subcommand gets each of these (ROADMAP Direction 14)
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324", str(2**63 - 1), str(10**15), "", "abc")
#: a 3-step base argv per subcommand; a swept option is appended as --option=value, which wins
SWEEP_BASES = {
    "tabulate": ["tabulate", "--n", "4", "--t-min", "-1", "--t-max", "1", "--steps", "3",
                 "--method", "exponential"],
    "tabulate gse": ["tabulate", "--ensemble", "gse", "--n", "5", "--t-min", "-1", "--t-max", "1",
                     "--steps", "3"],
    "limit": ["limit", "--steps", "3"],
    "edgeworth": ["edgeworth", "--n", "40", "--steps", "3"],
    "mc": ["mc", "--n", "2", "--samples", "200", "--seed", "1"],
    "convergence": ["convergence", "--n-list", "20,40,80", "--steps", "3"],
    "validate": ["validate", "--criteria", "1"],
}
#: the columns of a table that hold a CDF value
CDF_COLUMNS = ("F", "finite_n", "leading")


def _swept_options(command: str) -> list[str]:
    """Every option of the subcommand that takes a value, but --out (TestOut's)."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.nargs != 0 and a.dest != "out"]


def _sweep_faults(argv, capsys) -> list[str]:
    """What breaks the CLI's contract on argv, run in-process."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, out = run_cli(argv)
        except BaseException as exc:  # in a process, a traceback
            return [f"{argv}: {exc!r}"]
    err = capsys.readouterr().err
    faults = [f"{argv}: warned {w.message}" for w in caught]
    lines = err.splitlines()
    if code not in (0, 1, 2):
        faults.append(f"{argv}: exit {code}")
    elif code == 0:
        if err:
            faults.append(f"{argv}: exit 0 with stderr {err!r}")
        rows = json.loads(out)["rows"] if out.startswith("{") else [
            dict(zip(out.splitlines()[0].split(","), line.split(","))) for line in out.splitlines()[1:]]
        values = [float(row[k]) for row in rows for k in CDF_COLUMNS if k in row]
        if not all(0.0 <= v <= 1.0 for v in values):  # a NaN fails too
            faults.append(f"{argv}: CDF values {values}")
    elif code == 1 and not err and out.endswith("validation FAILED\n"):
        pass  # validate's failing report is its stdout
    elif err.startswith("usage: "):  # argparse's usage, then its one error line
        if [line for line in lines if ": error: " in line] != lines[-1:]:
            faults.append(f"{argv}: stderr {err!r}")
    elif len(lines) != 1 or not lines[0].startswith(("error: ", "numerical failure: ", "out of memory: ")):
        faults.append(f"{argv}: stderr {err!r}")
    return faults


class TestHostileInputs:
    @pytest.mark.parametrize("base", SWEEP_BASES)
    def test_every_option_and_value(self, base, capsys):
        # the parent ended in a traceback on --steps 2**63-1 (IndexError inside
        # np.linspace) on tabulate, limit, edgeworth and convergence, on
        # mc --samples 2**63-1 (ValueError from np.empty) and on an exponential
        # table to --t-max=1e308 (OverflowError)
        argv = SWEEP_BASES[base]
        faults = [fault for option in _swept_options(argv[0]) for value in HOSTILE
                  for fault in _sweep_faults([*argv, f"{option}={value}"], capsys)]
        assert not faults, "\n".join(faults)

    def test_far_left_table_is_quiet(self):
        # the parent printed a numpy RuntimeWarning before this table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["tabulate", "--n", "4", "--t-min=-1e308", "--t-max", "0", "--steps", "2"])
        assert code == 0
        assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == [0.0, f_n2(4, 0.0)]

    def test_overflowing_tau_names_c(self, capsys):
        # 2(n + c) overflowed inside tau: "need finite points, got inf at index 0"
        assert run_cli(["edgeworth", "--n", "40", "--c", "1e308", "--steps", "3"]) == (2, "")
        assert capsys.readouterr().err == ("error: need finite n >= 1 and c with n + c > 0, 2(n + c) "
                                           "finite, got n=40, c=1e+308\n")

    def test_tau_past_t_max_names_c(self, capsys):
        # tau past finite_n.T_MAX with 2(n + c) finite was reported as an internal
        # point: "need finite points up to 1e+12, got 4472135954998.433 at index 0"
        for argv, n in ((["edgeworth", "--n", "40", "--c", "1e25", "--steps", "2"], 40),
                        (["convergence", "--n-list", "20,40,80", "--c", "1e25", "--steps", "2"], 20)):
            assert run_cli(argv) == (2, "")
            assert capsys.readouterr().err == f"error: need c with tau(n, c, s) <= 1e+12, got n={n}, c=1e+25\n"

    @pytest.mark.parametrize("reader", [finite_n.q_p_n, finite_n.ab, finite_n.epsilon_numeric],
                             ids=["q_p_n", "ab", "epsilon_numeric"])
    def test_library_readers(self, reader):
        # the readers of solves over the same floats: a value, or a ParameterError
        # or NumericalError, and no warning
        floats = [float(v) for v in HOSTILE if v not in ("", "abc")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (4, 0, -1, 2**63 - 1, 10**15, *floats):
                for x in (0.0, *floats):
                    try:
                        reader(m, x)
                    except (ParameterError, NumericalError):
                        continue

    @pytest.mark.parametrize("n, law", [(4, f_n2), (4, partial(f_n2, method="exponential")), (4, f_n1),
                                        (5, f_n4), (2, gse_largest_cdf), (None, airy.f2_limit),
                                        (None, airy.f1_limit), (None, airy.f4_limit)],
                             ids=["f_n2", "f_n2 exponential", "f_n1", "f_n4", "gse_largest_cdf",
                                  "f2_limit", "f1_limit", "f4_limit"])
    def test_library_cdfs(self, n, law):
        # every value in [0, 1], or a ParameterError or NumericalError
        floats = [float(v) for v in HOSTILE if v not in ("", "abc")]
        calls = [partial(law, x) for x in floats] if n is None else [
            partial(law, m, x) for m in (n, 0, -1, 2**63 - 1, 10**15, *floats) for x in (0.0, *floats)]
        for call in calls:
            try:
                value = call()
            except (ParameterError, NumericalError):
                continue
            assert 0.0 <= value <= 1.0, call

    @pytest.mark.parametrize("call, message", [
        # numpy's ValueError (ambiguous truth value)
        (lambda: airy.f2_limit(np.array([1.0, 2.0])), "need a real number s, got array([1., 2.])"),
        # TypeError
        (lambda: airy.f1_limit("1"), "need a real number s, got '1'"),
        (lambda: airy.f4_limit(1j), "need a real number s, got 1j"),
        (lambda: airy.hastings_mcleod_q(None), "need a real number s, got None"),
        (lambda: airy.e_c2(None, 0.0), "need a real number s, got None"),
        (lambda: airy.e_c1(0.0, "1"), "need a finite real number c, got '1'"),
        # TypeError: unhashable type, from the bundle's cache
        (lambda: airy.airy_bundle(np.array([1.0])), "need a real number s, got array([1.])"),
        # NaN, returned
        (lambda: airy.e_c2(0.0, math.nan), "need a finite real number c, got nan"),
        (lambda: airy.airy_bundle(0.0).eta(math.nan), "need a finite real number c, got nan"),
        # 1.63 and 1.031, returned
        (lambda: mc.ks_critical_1pct(True), "need an integer count, got True"),
        (lambda: mc.ks_critical_1pct(2.5), "need an integer count, got 2.5"),
        # a bool read as a number: F_2(1) = 0.99751 and the rest returned
        (lambda: airy.f2_limit(True), "need a real number s, got True"),
        (lambda: airy.airy_bundle(True), "need a real number s, got True"),
        (lambda: airy.hastings_mcleod_q(True), "need a real number s, got True"),
        (lambda: airy.e_c2(0.0, True), "need a finite real number c, got True"),
        (lambda: airy.tau(40, True, 0), "need a real number c, got True"),
        # TypeError, TypeError and NaN, returned: tau never checked s
        (lambda: airy.tau(40, 0, "x"), "need a finite real number s, got 'x'"),
        (lambda: airy.tau(40, 0, None), "need a finite real number s, got None"),
        (lambda: airy.tau(40, 0, math.nan), "need a finite real number s, got nan"),
        # float() ran over s before the window check: a value, and a bare ValueError
        (lambda: acceptance.edgeworth_comparison("gue", 40, 0.0, "1"), "need a real number s, got '1'"),
        (lambda: acceptance.edgeworth_study("gue", 40, 0.0, ["-1", True]), "need a real number s, got '-1'"),
        # the finite-n and Monte Carlo readers: q_p_n(40, '8') read (1.6288, 2.4398),
        # and every other string or bool point returned a value
        (lambda: finite_n.q_p_n(40, "8"), "need real t, got '8'"),
        (lambda: finite_n.ab(4, "1"), "need real t, got '1'"),
        (lambda: finite_n.epsilon_numeric(4, "1"), "need real t, got '1'"),
        (lambda: finite_n.cdf_values("gue", 40, [True, "2"]), "need real t, got [True, '2']"),
        (lambda: f_n2(40, True), "need real t, got True"),
        (lambda: gse_largest_cdf(1, "0"), "need real u, got '0'"),
        (lambda: mc.empirical_cdf(mc.sample_lambda_max(2, 4, 10, 1), True), "need a real number t, got True"),
        # TypeError from float(), from comparing a float with a str, and from math.isnan
        (lambda: f_n2(40, np.array([1.0, 2.0])), "need one point t, got array([1., 2.])"),
        (lambda: f_n1(40, np.array([1.0, 2.0])), "need one point t, got array([1., 2.])"),
        (lambda: f_n4(41, np.array([1.0, 2.0])), "need one point u, got array([1., 2.])"),
        (lambda: mc.ks_statistic(mc.sample_lambda_max(2, 4, 10, 1), mc_cdf("gue", 4), grid_points=2.5),
         "need an integer grid_points, got 2.5"),
        (lambda: mc.empirical_cdf(mc.sample_lambda_max(2, 4, 10, 1), "1"), "need a real number t, got '1'"),
        # values at t = 1.0 and 2.0, a TypeError (unhashable list or array)
        # three times and numpy's ValueError: Maximum allowed size exceeded
        (lambda: finite_n.cdf_values("gue", 40, [True, 2.0]), "need real t, got True at index 0"),
        (lambda: finite_n.cdf_values(["gue"], 40, 1.0), "unknown ensemble ['gue']"),
        (lambda: acceptance.edgeworth_study(["gue"], 40, 0.0, 0.0), "unknown ensemble ['gue']"),
        (lambda: mc_cdf(np.array(["gue"]), 4), "unknown ensemble array(['gue'], dtype='<U3')"),
        (lambda: mc.sample_lambda_max(2, 2**70, 10, 1),
         f"need 1 <= n <= 1e+18 and 1 <= count <= 1e+18, got n={2**70}, count=10"),
    ], ids=["f2_limit array", "f1_limit str", "f4_limit complex", "hastings_mcleod_q None",
            "e_c2 s None", "e_c1 c str", "airy_bundle array", "e_c2 c nan", "eta nan",
            "ks_critical_1pct bool", "ks_critical_1pct float",
            "f2_limit bool", "airy_bundle bool", "hastings_mcleod_q bool", "e_c2 c bool", "tau c bool",
            "tau s str", "tau s None", "tau s nan", "edgeworth_comparison s str", "edgeworth_study s list",
            "q_p_n str", "ab str", "epsilon_numeric str", "cdf_values list", "f_n2 bool",
            "gse_largest_cdf str", "empirical_cdf bool", "f_n2 array", "f_n1 array", "f_n4 array", "ks_statistic grid_points float",
            "empirical_cdf str", "cdf_values bool in a table", "cdf_values list ensemble",
            "edgeworth_study list ensemble", "mc_cdf array ensemble", "sample_lambda_max n 2**70"])
    def test_library_arguments_are_named(self, call, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("expansion", [airy.edgeworth_f2, airy.edgeworth_f1_sq, airy.edgeworth_f4_sq],
                             ids=["f2", "f1_sq", "f4_sq"])
    def test_overflowing_expansion_raises(self, expansion):
        # -inf, NaN and +inf were returned as terms
        with pytest.raises(NumericalError, match=r"not finite at n=40, c=1e\+154, s=0\.0$"):
            expansion(40, 1e154, 0.0)

    @pytest.mark.parametrize("call", [lambda: airy.e_c1(0.0, 1e154), lambda: airy.e_c2(0.0, 1e154),
                                      lambda: airy.airy_bundle(0.0).eta(1e154)],
                             ids=["e_c1", "e_c2", "eta"])
    def test_overflowing_correction_raises(self, call):
        # inf, NaN and inf were returned
        with pytest.raises(NumericalError, match=r"not finite at c=1e\+154, s=0\.0$"):
            call()

    @pytest.mark.parametrize("count", [10**18 + 1, 2**60, 2**63 - 1, 2**64, 10**30])
    def test_sample_count_above_the_cap(self, count):
        # np.empty raised "ValueError: array is too big" from 2^60 on
        with pytest.raises(ParameterError, match="count <= 1e\\+18"):
            mc.sample_lambda_max(2, 4, count, 0)
