import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstf import checks, cli
from gstf.cli import run_command


def run_cli_process(*args, env_extra=None, flags=(), preexec_fn=None):
    """The CLI in a fresh interpreter, run with the interpreter ``flags``."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *flags, "-m", "gstf.cli", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=preexec_fn)


def run_cli(capsys, *args):
    """The CLI in this process: exit code and captured stdout/stderr."""
    capsys.readouterr()
    code = run_command(list(args))
    out, err = capsys.readouterr()
    return SimpleNamespace(returncode=code, stdout=out, stderr=err)


class TestGoldenReports:
    def test_classify_json_byte_identical_across_runs(self, tmp_path):
        args = ("classify", "--expr", "gaussian(1)", "--space", "S",
                "--s", "0.5", "--points", "1024", "--n-max", "4")
        a = run_cli_process(*args, "--out", str(tmp_path / "a.json"))
        b = run_cli_process(*args, "--out", str(tmp_path / "b.json"),
                            env_extra={"OMP_NUM_THREADS": "1"})
        c = run_cli_process(*args, "--out", str(tmp_path / "c.json"),
                            env_extra={"OMP_NUM_THREADS": "4"})
        assert a.returncode == b.returncode == c.returncode == 0
        blobs = [(tmp_path / n).read_bytes() for n in
                 ("a.json", "b.json", "c.json")]
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs")
    def test_stft_report_byte_identical_on_one_cpu(self, tmp_path):
        # 513 x 1001 and 16384 points: the STFT engine shares its blocks
        # with a thread pool unless the process is pinned to one CPU
        args = ("classify", "--expr", "gaussian(1)", "--window",
                "gaussian(1)", "--space", "S", "--s", "0.5", "--points",
                "16384")
        one = run_cli_process(*args, "--out", str(tmp_path / "one.json"),
                              preexec_fn=lambda: os.sched_setaffinity(0, {
                                  min(os.sched_getaffinity(0))}))
        every = run_cli_process(*args, "--out", str(tmp_path / "all.json"))
        assert one.returncode == every.returncode == 0
        assert ((tmp_path / "one.json").read_bytes()
                == (tmp_path / "all.json").read_bytes())

    def test_transform_csv_byte_identical(self, tmp_path, capsys):
        args = ("transform", "--expr", "hermite(2)", "--points", "512",
                "--format", "csv")
        run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == \
               (tmp_path / "b.csv").read_bytes()

    def test_timings_flag_adds_nondeterministic_field(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                      "--space", "S", "--s", "0.5", "--points", "256",
                      "--n-max", "2", "--timings")
        rep = json.loads(out.stdout)
        assert rep["timings"]["elapsed_s"] > 0


SAMPLES_HEADER = ["x", "value-real", "value-imag"]

# One small run of each subcommand, with the header its CSV documents.
SUBCOMMANDS = {
    "transform": (["transform", "--expr", "gaussian(1)", "--points", "64"],
                  SAMPLES_HEADER),
    "stft": (["stft", "--expr", "gaussian(1)", "--points", "256"],
             ["x", "xi", "value-real", "value-imag"]),
    "classify": (["classify", "--expr", "gaussian(1)", "--space", "S",
                  "--s", "0.5", "--points", "256", "--n-max", "2"],
                 ["kind", "key", "value", "attained_at", "bound_at",
                  "masked_edge"]),
    "witness": (["witness", "--s", "0.75", "--sigma", "0.75", "--type",
                 "beurling", "--points", "64"], SAMPLES_HEADER),
    "toeplitz": (["toeplitz", "--expr", "gaussian(1)", "--points", "256"],
                 SAMPLES_HEADER),
    "verify": (["verify", "--suite", "toeplitz"],
               ["check", "value", "tolerance", "status"]),
}


class TestReportPath:
    """Every subcommand writes the same bytes to stdout and to --out, in
    either format."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_stdout_equals_out_file(self, tmp_path, capsys, command, fmt):
        argv, header = SUBCOMMANDS[command]
        argv = [*argv, "--format", fmt]
        out = run_cli(capsys, *argv)
        path = tmp_path / "report"
        code = run_command([*argv, "--out", str(path)])
        assert out.returncode == code == 0
        assert capsys.readouterr().out == ""
        assert out.stdout.encode() == path.read_bytes()
        assert out.stderr == ""
        if fmt == "csv":
            rows = list(csv.reader(out.stdout.splitlines()))
            assert rows[0] == header and len(rows) > 1
            return
        rep = json.loads(out.stdout)
        assert (rep["command"], rep["timings"]) == (command, None)
        timed = json.loads(run_cli(capsys, *argv, "--timings").stdout)
        assert timed["timings"]["elapsed_s"] > 0


class TestClassifyCommand:
    def test_member_report_shape(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                      "--space", "S", "--s", "0.5", "--points", "1024",
                      "--n-max", "4")
        assert out.returncode == 0
        rep = json.loads(out.stdout)
        assert rep["schema_version"] == 3
        assert rep["command"] == "classify"
        assert rep["verdict"] == "Member"
        assert list(rep["fitted"]) == ["C_peak", "r_star", "N_star"]
        r_star = rep["fitted"]["r_star"]
        assert list(r_star) == ["value", "attained_at", "bound_at",
                                "masked_edge"]
        # exp(-x^2/2) at s = 1/2: the rate 1/2, on a grid without x = 0
        assert r_star["value"] == pytest.approx(0.5, abs=1e-9)
        assert rep["diagnostics"]["floor"] == 1e-13
        assert rep["diagnostics"]["guard_band"] == 2
        assert rep["timings"] is None

    def test_shifted_peak_reports_a_positive_rate(self, capsys):
        # the rim of the grid bounds r* a little below 1/2, not at 0
        out = run_cli(capsys, "classify", "--expr", "translate(gaussian(1), 2)",
                      "--space", "S", "--s", "0.5")
        r_star = json.loads(out.stdout)["fitted"]["r_star"]
        assert 0.4 < r_star["value"] < 0.5
        assert r_star["bound_at"] == pytest.approx(12.0 - 24.0 / 2047)

    def test_csv_has_one_row_per_critical_scale(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                      "--space", "S", "--sigma", "0.5", "--points", "1024",
                      "--window", "gaussian(1)", "--format", "csv")
        rows = list(csv.reader(out.stdout.splitlines()))
        assert [row[:2] for row in rows[1:]] == [
            ["meta", "verdict"], ["meta", "C_peak"], ["critical", "r_star"],
            ["critical", "N_star"]]
        assert rows[4][-1] == "True"  # |V| meets the floor before the rim

    def test_assert_member_failure_exits_1(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(0.001)",
                      "--space", "S", "--s", "0.5", "--points", "1024",
                      "--n-max", "4", "--assert-member")
        assert out.returncode == 1
        assert json.loads(out.stdout)["verdict"] == "NotMember"

    def test_space_and_type_flags_are_synonyms(self, capsys):
        a = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                    "--space", "Sigma", "--s", "1", "--points", "512",
                    "--n-max", "2")
        b = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                    "--type", "beurling", "--s", "1", "--points", "512",
                    "--n-max", "2")
        assert json.loads(a.stdout)["verdict"] == json.loads(b.stdout)["verdict"]

    def test_contradictory_space_and_type_rejected(self, capsys):
        # exactly one of --space and --type names the regularity: both,
        # even when they agree, or neither exits 2
        for flags in (["--space", "S", "--type", "beurling"],
                      ["--space", "S", "--type", "roumieu"], []):
            # each command runs (exit 0) with --space S alone
            for command in (["classify", "--expr", "gaussian(1)", "--s", "1"],
                            ["witness", "--s", "1", "--sigma", "1"]):
                out = run_cli(capsys, *command, *flags)
                assert (out.returncode, out.stdout) == (2, ""), flags

    def test_csv_input_round_trip(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        run_cli(capsys, "transform", "--expr", "gaussian(1)",
                "--points", "256", "--format", "csv", "--out", str(path))
        out = run_cli(capsys, "classify", "--in", str(path),
                      "--type", "roumieu", "--sigma", "0.5", "--n-max", "4")
        assert out.returncode == 0
        assert json.loads(out.stdout)["verdict"] == "Member"

    def test_csv_input_reports_its_sample_count(self, tmp_path, capsys):
        # 512 samples over +-160, where the flags' defaults are 2048 over
        # +-12: the report names no half-width and the sample count
        path = tmp_path / "f.csv"
        x = np.linspace(-160.0, 160.0, 512)
        np.savetxt(path, np.c_[x, np.exp(-x**2 / 2)], delimiter=",")
        inp = ["--in", str(path)]
        space = ["--space", "S", "--s", "0.5"]
        for command in (["transform", *inp], ["stft", *inp],
                        ["toeplitz", *inp], ["classify", *inp, *space],
                        ["classify", *inp, *space, "--window", "gaussian(1)"]):
            out = run_cli(capsys, *command)
            assert out.returncode == 0, command
            params = json.loads(out.stdout)["params"]
            assert (params["half_width"], params["points"]) == (None, 512)
        out = run_cli(capsys, "transform", "--expr", "gaussian(1)",
                      "--points", "512", "--half-width", "160")
        params = json.loads(out.stdout)["params"]
        assert (params["half_width"], params["points"]) == (160.0, 512)

    def test_nonuniform_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,value-real\n0.0,1.0\n1.0,0.5\n2.5,0.2\n")
        out = run_cli(capsys, "classify", "--in", str(path), "--space", "S",
                      "--s", "1")
        assert out.returncode == 2
        assert "uniform" in out.stderr


class TestErrorPaths:
    def test_parse_error_exits_2(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(",
                      "--space", "S", "--s", "0.5")
        assert out.returncode == 2
        assert "UnbalancedParen" in out.stderr

    def test_trivial_space_exits_2(self, capsys):
        out = run_cli(capsys, "witness", "--s", "0.2", "--sigma", "0.3",
                      "--type", "beurling")
        assert out.returncode == 2
        assert "TrivialSpace" in out.stderr

    def test_non_pow2_points_rejected(self, capsys):
        out = run_cli(capsys, "transform", "--expr", "bump()",
                      "--points", "1000")
        assert out.returncode == 2

    @pytest.mark.parametrize("points", ["3", "33554432"])
    def test_points_out_of_range_names_the_flag(self, capsys, points):
        # checked before the grid is built, whose message names its exponent
        out = run_cli(capsys, "transform", "--expr", "gaussian(1)",
                      "--points", points)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("error: GridError: --points must be a power of "
                              "two from 2 to 16777216\n")

    @pytest.mark.parametrize("argv", [
        ["stft"], ["toeplitz"], ["classify", "--space", "S", "--s", "0.5"]])
    def test_empty_window_exits_2(self, capsys, argv):
        out = run_cli(capsys, *argv, "--expr", "gaussian(1)", "--points",
                      "256", "--window", "")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: ParseError: empty expression (offset 0)\n"

    @pytest.mark.parametrize("flag", [("--points", "3"),
                                      ("--half-width", "-5")])
    def test_verify_rejects_grid_flags(self, capsys, flag):
        # the suites run on fixed grids, so verify takes no grid flags
        out = run_cli(capsys, "verify", "--suite", "toeplitz", *flag)
        assert (out.returncode, out.stdout) == (2, "")
        assert "unrecognized arguments" in out.stderr


class TestOtherCommands:
    def test_witness_csv_has_samples(self, capsys):
        out = run_cli(capsys, "witness", "--s", "0.75", "--sigma", "0.75",
                      "--type", "beurling", "--points", "256",
                      "--format", "csv")
        rows = list(csv.reader(out.stdout.splitlines()))
        assert rows[0] == ["x", "value-real", "value-imag"]
        assert len(rows) == 257

    def test_stft_json_profiles(self, capsys):
        out = run_cli(capsys, "stft", "--expr", "gaussian(1)",
                      "--points", "512")
        rep = json.loads(out.stdout)
        assert rep["max_abs"] > 0.5
        assert len(rep["profiles"]["x"]) == 129

    def test_toeplitz_unit_symbol_reports_small_defect(self, capsys):
        out = run_cli(capsys, "toeplitz", "--expr", "gaussian(1)",
                      "--points", "1024")
        rep = json.loads(out.stdout)
        assert rep["reproduction_defect"] < 1e-5

    def test_toeplitz_zero_input_reproduces_exactly(self, capsys):
        # the output of a zero f is zero: the defect over 1, not 0/0
        out = run_cli(capsys, "toeplitz", "--expr", "0*gaussian(1)",
                      "--symbol", "unit", "--points", "1024")
        assert out.returncode == 0
        assert json.loads(out.stdout)["reproduction_defect"] == 0

    def test_verify_reports_no_negative_zero(self, capsys):
        out = run_cli(capsys, "verify", "--suite", "all")
        assert out.returncode == 0
        values = [c["value"] for c in json.loads(out.stdout)["checks"]]
        assert all(v > 0 or math.copysign(1.0, v) == 1.0 for v in values)
        assert re.search(r"-0(?![.\de])", out.stdout) is None

    def test_verify_toeplitz_suite_passes(self, capsys):
        out = run_cli(capsys, "verify", "--suite", "toeplitz")
        assert out.returncode == 0
        rep = json.loads(out.stdout)
        assert rep["verdict"] == "pass"
        assert all(c["status"] == "pass" for c in rep["checks"])


class TestInProcessContract:
    """Malformed input exits 2 with one ``error:`` line, never a traceback."""

    def assert_error_exit(self, argv, capsys):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        "x,value-real\n0.0,abc\n1.0,0.5\n",  # non-numeric value
        "0.0,1.0\n1.0\n",                      # short row
        b"0.0,1.0\n1.0,\xff\xfe\n",           # not UTF-8
        "0.0,1.0\ninf,0.5\n",                  # non-finite x
        "nan,1.0\n1.0,0.5\n",
        "-1e308,1.0\n1e308,0.5\n",             # the step overflows
        "-1e308,1.0\n0.0,1.0\n1e308,0.5\n",
        "1.7e308,1.0\n1.79e308,0.5\n",         # the centre overflows
    ])
    def test_malformed_csv(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        self.assert_error_exit(["classify", "--in", str(path), "--space", "S",
                                "--s", "1"], capsys)

    def test_bad_r_list(self, capsys):
        # the trial rates are fixed: --r-list is no option, well formed
        # or not
        for rates in ("1,x", "1"):
            code = run_command(["classify", "--expr", "gaussian(1)",
                                "--space", "S", "--s", "1", "--points",
                                "256", "--r-list", rates])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert f"error: unrecognized arguments: --r-list {rates}\n" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--n-max", "-1"),      # empty polynomial table
        ("--s", "0"),           # a class index must be > 0
        ("--s", "-1"),
        ("--s", "nan"),
        ("--s", "inf"),         # no finite index left
        ("--sigma", "0"),
        ("--n-max", "-1", "--window", "gaussian(1)"),
        ("--n-max", "17"),      # past the polynomial weights' bound
        ("--n-max", "17", "--window", "gaussian(1)"),
    ])
    def test_out_of_range_options(self, capsys, flags):
        self.assert_error_exit(["classify", "--expr", "subexp(1, 1)",
                                "--space", "Sigma", "--s", "0.5",
                                "--points", "1024", *flags], capsys)

    @pytest.mark.parametrize("argv", [
        ["toeplitz", "--window", "0*gaussian(1)"],       # the L2 norm is 0
        ["toeplitz", "--window", "1e-200*gaussian(1)"],  # norm^2 underflows
        ["toeplitz", "--window", "1e300*gaussian(1)"],   # norm^2 overflows
        # V would vanish, and its zero profiles pass every side
        ["classify", "--space", "S", "--s", "0.5", "--window",
         "0*gaussian(1)"],
    ])
    def test_degenerate_window_exits_2_without_warnings(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_error_exit([*argv, "--expr", "poly(3)"], capsys)
        assert [str(w.message) for w in caught] == []

    def test_tiny_index_classifies_without_warnings(self, capsys):
        # |x|^(1/s) overflows to inf: the weight's limit, not an error
        code = run_command(["classify", "--expr", "gaussian(1)", "--space",
                            "S", "--s", "1e-300", "--points", "64"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert json.loads(out)["verdict"] in ("Member", "NotMember",
                                              "Inconclusive")

    def test_rate_at_underflowing_weights_is_minus_inf(self, capsys):
        # |x|^(1/s) underflows, and |x|^3 is largest at the rim already at
        # rate 0: no rate is interior-attained
        out = run_cli(capsys, "classify", "--expr", "poly(3) * gaussian(2)",
                      "--half-width=1.0119745965501096e-78", "--space", "S",
                      "--s=1.0119745965501096e-78")
        rep = json.loads(out.stdout)
        assert (out.returncode, out.stderr) == (0, "")
        assert rep["fitted"]["r_star"]["value"] == "-inf"
        assert rep["verdict"] == "NotMember"

    def test_n_star_where_x_squared_overflows(self, capsys):
        # x^2 overflows on the dual grid, where log(1+x^2) is 2 log|x|
        out = run_cli(capsys, "classify", "--expr", "subexp(1, 1)",
                      "--points=8", "--half-width=1e-300", "--space", "Sigma",
                      "--s=1e-30", "--n-max=0")
        rep = json.loads(out.stdout)
        assert (out.returncode, out.stderr) == (0, "")
        assert 0 < rep["fitted"]["N_star"]["value"] < 1
        assert abs(rep["fitted"]["N_star"]["bound_at"]) > 1e300

    @pytest.mark.parametrize("text", [
        "(" * 400 + "bump()" + ")" * 400,
        "-" * 1500 + "bump()",
        "scale(" * 300 + "bump()" + ", 1)" * 300,
        "+".join(["bump()"] * 500),
        "*".join(["bump()"] * 500),
        "(" * 101 + "bump()" + ")" * 101,
        "-" * 101 + "bump()",
        "scale(" * 101 + "bump()" + ", 1)" * 101,
        " + ".join(["bump()"] * 102),
        " * ".join(["bump()"] * 102),
    ], ids=lambda t: f"{t[:8]}..{len(t)}")
    def test_deep_expressions_exit_2(self, capsys, text):
        # past the parser's depth limit, well under its length cap
        self.assert_error_exit(["transform", f"--expr={text}", "--points",
                                "64"], capsys)

    @pytest.mark.parametrize("text", ["hermite(1e7)", "hermite(1e308)"])
    def test_huge_hermite_order_exits_2(self, capsys, text):
        # the recurrence stops once no sample is finite
        self.assert_error_exit(["transform", "--expr", text, "--points",
                                "64"], capsys)

    @pytest.mark.parametrize("text,offset", [("gaussian(1e999)", 9),
                                             ("-1e999", 1)])
    def test_overflowing_literal_is_a_parse_error(self, capsys, text, offset):
        assert run_command(["transform", f"--expr={text}"]) == 2
        assert capsys.readouterr().err == (
            f"error: ParseError: number 1e999 overflows (offset {offset})\n")

    def test_nonpositive_gaussian_width_exits_2(self, capsys):
        assert run_command(["transform", "--expr", "gaussian(0)"]) == 2
        assert capsys.readouterr().err == (
            "error: GstfError: gaussian: a must be positive\n")

    def test_overflowing_samples_exit_2_without_warnings(self, capsys):
        self.assert_error_exit(["classify", "--expr", "poly(3) * gaussian(2)",
                                "--space", "S", "--s", "0.5",
                                "--half-width", "1e300"], capsys)

    @pytest.mark.parametrize("argv", [
        ["transform"], ["stft"], ["toeplitz"],
        ["classify", "--space", "S", "--s", "0.5"],
        ["classify", "--space", "S", "--s", "0.5", "--window", "gaussian(1)"],
    ])
    def test_overflowing_transform_exits_2_without_warnings(self, capsys,
                                                            argv):
        # finite samples whose FFT overflows: the finiteness check of the
        # result decides, and numpy warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_error_exit([*argv, "--expr", "1e308 * gaussian(1)",
                                    "--points", "64"], capsys)
        assert [str(w.message) for w in caught] == []

    def test_overflow_on_the_shared_engine_exits_2(self):
        # 16384 points run the STFT engine's blocks on its thread pool,
        # where numpy's error state must be set again: an overflow warning
        # there would be an exception under -W error
        out = run_cli_process("classify", "--expr", "1e308 * gaussian(1)",
                              "--window", "gaussian(1)", "--space", "S",
                              "--s", "0.5", "--points", "16384",
                              flags=("-W", "error::RuntimeWarning"))
        assert out.returncode == 2
        assert out.stderr.startswith("error:")
        assert out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv,message", [
        (["classify", "--in", "{csv}", "--space", "S", "--s", "1"],
         "GridError: grid step must be positive and finite"),
        (["toeplitz", "--expr", "poly(3)", "--window", "1e300*gaussian(1)"],
         "GridError: the window's L2 norm is inf: it must be finite and > 0"),
    ], ids=["csv-step", "window-norm"])
    def test_overflow_exits_2_under_warnings_as_errors(self, tmp_path, argv,
                                                       message):
        # the CSV loader's x step and the window's norm overflow to inf in
        # the package's one error state, and the input checks reject it
        path = tmp_path / "over.csv"
        path.write_text("-1e308,1.0\n1e308,0.5\n")
        out = run_cli_process(*(a.format(csv=path) for a in argv),
                              flags=("-W", "error::RuntimeWarning"))
        assert (out.returncode, out.stderr) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("flags", [("--s=-inf", "--sigma", "0.5"),
                                       ("--s", "0.5", "--sigma=-inf")])
    def test_negative_infinite_index_exits_2(self, capsys, flags):
        # only +inf marks the unconstrained side
        self.assert_error_exit(["classify", "--expr", "gaussian(1)",
                                "--space", "S", *flags], capsys)

    def test_control_characters_in_strings_stay_valid_json(self, tmp_path,
                                                            capsys):
        path = tmp_path / "t\tab.csv"
        path.write_text("x,value-real\n-1.5,0.1\n-0.5,1.0\n0.5,1.0\n"
                        "1.5,0.1\n")
        assert run_command(["transform", "--in", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["params"]["input"] == f"csv:{path}"
        assert len(rep["samples"]) == 4


class TestJsonRows:
    """A tuple of finite floats is written with one template; the bytes
    equal those of the per-element path, which a list always takes."""

    @pytest.mark.parametrize("row", [
        (0.1, -2.5, 3.0), (0.0, -0.0), (5e-324, -2.2250738585072009e-308),
        (1e308, -1e308), (1e308, 1e308),  # the sum overflows
        (math.nan, 1.0), (math.inf, -math.inf, 0.5),
        (np.float64(0.1), 0.2), (np.float64(math.nan),), (),
        (1, 0.5), (True, 0.5), (False,), (0.5, 2, -0.0),
    ])
    def test_float_row_bytes_equal_per_element_bytes(self, row):
        assert cli._jdump(row) == cli._jdump(list(row))

    def test_float_rows_print_17_digits_and_quote_non_finite(self):
        assert cli._jdump((0.1, -0.0, 1e308)) == \
            "[0.10000000000000001, -0, 1e+308]"
        assert cli._jdump((1.0, math.nan, -math.inf)) == \
            '[1, "nan", "-inf"]'

    @given(st.lists(st.floats() | st.integers() | st.booleans(),
                    max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_row(self, row):
        assert cli._jdump(tuple(row)) == cli._jdump(row)


def test_verify_suite_choices_are_the_registry():
    # the parser names the suites without importing the registry
    verify = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)
                  ).choices["verify"]
    suite = next(a for a in verify._actions if a.dest == "suite")
    assert suite.choices == tuple(checks.SUITES) + ("all",)


def _flag(name, values):
    """Optional ``--name=value`` (the = keeps a leading '-' a value)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_POINTS = st.one_of(st.sampled_from([2**k for k in range(1, 13)]),
                    st.sampled_from([-4, -1, 0, 3, 100, 4097, 2**25]))


# Windows of the grammar, and ones whose samples or L2 norm are 0 or whose
# norm overflows.
_WINDOW = st.sampled_from(["gaussian(1)", "gaussian(3)", "bump()",
                           "hermite(1)", "0*gaussian(1)",
                           "1e-200*gaussian(1)", "1e300*gaussian(1)"])


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["transform", "stft", "classify",
                                    "toeplitz"]))
    args = [command, "--expr",
            draw(st.sampled_from(["gaussian(1)", "hermite(2)",
                                  "subexp(1, 1)", "poly(3) * gaussian(2)"]))]
    args += draw(_flag("points", _POINTS))
    args += draw(_flag("half-width", st.one_of(st.floats(0.5, 40.0),
                                               _ANY_FLOAT)))
    if command == "classify":
        args += ["--space", draw(st.sampled_from(["S", "Sigma"]))]
        args += draw(_flag("s", st.one_of(st.floats(0.1, 4.0), _ANY_FLOAT)))
        args += draw(_flag("sigma", _ANY_FLOAT))
        args += draw(_flag("n-max", st.integers(-3, 12)))
    if command != "transform":
        args += draw(_flag("window", _WINDOW))
    if command == "toeplitz":
        args += draw(_flag("symbol", st.sampled_from(["unit", "gaussian"])))
    return args


_NUMBER = st.one_of(st.integers(0, 12).map(str),
                    st.floats(0.0, 1e3).map(repr),
                    st.sampled_from(["1e999", ".5", "2.", "1e-400", "0"]))
_CALL = st.one_of(
    st.just("bump()"),
    st.sampled_from(["gaussian", "hermite", "poly", "spike"]).flatmap(
        lambda name: _NUMBER.map(lambda v: f"{name}({v})")),
    st.tuples(_NUMBER, _NUMBER).map(lambda t: "subexp(%s, %s)" % t))
_DEEP = {  # nesting shapes of a given size
    "(": lambda n: "(" * n + "bump()" + ")" * n,
    "-": lambda n: "-" * n + "bump()",
    "scale": lambda n: "scale(" * n + "bump()" + ", 1)" * n,
    "+": lambda n: "+".join(["bump()"] * n),
    "*": lambda n: "*".join(["gaussian(1)"] * n),
}


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " - ", " * "]),
                  inner).map("".join),
        inner.map(lambda t: f"({t})"),
        inner.map(lambda t: f"-{t}"),
        st.tuples(st.sampled_from(["translate", "modulate", "scale"]),
                  inner, _NUMBER).map(lambda t: "%s(%s, %s)" % t))


# Expression text from the grammar, its deep shapes across the depth
# limit, and stray characters.
_EXPR_TEXT = st.one_of(
    st.recursive(st.one_of(_NUMBER, _CALL), _extend, max_leaves=10),
    st.tuples(st.sampled_from(sorted(_DEEP)), st.integers(90, 1500)).map(
        lambda t: _DEEP[t[0]](t[1])),
    st.text(alphabet="()+-*,. 0123456789eabgmpsu", max_size=30))


@st.composite
def _csv_content(draw):
    """CSV samples on a grid that may be broken or overflow, with at most
    one bad row (non-finite or overflowing x or value, a short row, a
    stray cell, an imaginary part), after an optional header."""
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 8, 16]))
    step = draw(st.one_of(st.floats(0.01, 2.0), st.floats(0.01, 2.0),
                          _ANY_FLOAT))
    centre = draw(st.one_of(st.just(0.0), st.just(0.0), _ANY_FLOAT))
    xs = [centre + (j - (n - 1) / 2) * step for j in range(n)]
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    rows = [f"{x!r},{v!r}" for x, v in zip(xs, values)]
    if rows and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        x, v = draw(_ANY_FLOAT), draw(_ANY_FLOAT)
        rows[j] = draw(st.sampled_from([
            f"{x!r},{values[j]!r}", f"{xs[j]!r},{v!r}", f"{xs[j]!r}",
            f"{xs[j]!r},?", f"{xs[j]!r},{values[j]!r},{v!r}"]))
    header = draw(st.sampled_from(["", "x,value-real\n", "X,re,im\n",
                                   "t,v\n"]))
    return header + "\n".join(rows) + "\n"


def _assert_contract(argv):
    """0, 1 or 2, never a traceback or a numpy warning, and a JSON report
    whenever the command ran."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_command(argv)
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        json.loads(out.getvalue())
        # a limit, never nan, wherever the classifier's weights overflow
        assert '"nan"' not in out.getvalue(), argv
    else:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


class TestCliContractFuzz:
    """Every input keeps the exit-code contract."""

    @settings(max_examples=40, deadline=None)
    @given(_cli_args())
    def test_exit_code_contract(self, argv):
        _assert_contract(argv)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["transform", "classify", "stft"]), _EXPR_TEXT)
    def test_expression_text(self, command, text):
        argv = [command, "--points=64"]
        if command == "classify":
            argv += ["--space=S", "--s=1", f"--expr={text}"]
        elif command == "stft":
            argv += ["--expr=gaussian(1)", f"--window={text}"]
        else:
            argv += [f"--expr={text}"]
        _assert_contract(argv)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([["transform"], ["stft"],
                            ["classify", "--space=S", "--s=1"]]),
           _csv_content())
    def test_csv_content(self, tmp_path_factory, command, content):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_text(content)
        _assert_contract([*command, "--in", str(path)])
