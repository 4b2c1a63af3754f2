import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstf.cli import run_command


def run_cli_process(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "gstf.cli", *args],
                          capture_output=True, text=True, env=env)


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


class TestClassifyCommand:
    def test_member_report_shape(self, capsys):
        out = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                      "--space", "S", "--s", "0.5", "--points", "1024",
                      "--n-max", "4")
        assert out.returncode == 0
        rep = json.loads(out.stdout)
        assert rep["schema_version"] == 1
        assert rep["command"] == "classify"
        assert rep["verdict"] == "Member"
        assert set(rep["fitted"]) == {"C_peak", "r_fit", "N_table",
                                      "beurling_table"}
        assert rep["diagnostics"]["floor"] == 1e-13
        assert rep["timings"] is None

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
        out = run_cli(capsys, "classify", "--expr", "gaussian(1)",
                      "--space", "S", "--type", "beurling", "--s", "1")
        assert out.returncode == 2

    def test_csv_input_round_trip(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        run_cli(capsys, "transform", "--expr", "gaussian(1)",
                "--points", "256", "--format", "csv", "--out", str(path))
        out = run_cli(capsys, "classify", "--in", str(path),
                      "--type", "roumieu", "--sigma", "0.5", "--n-max", "4")
        assert out.returncode == 0
        assert json.loads(out.stdout)["verdict"] == "Member"

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
        self.assert_error_exit(["classify", "--expr", "gaussian(1)",
                                "--space", "S", "--s", "1", "--points", "256",
                                "--r-list", "1,x"], capsys)

    @pytest.mark.parametrize("flags", [
        ("--n-max", "-1"),      # empty polynomial table
        ("--r-list", "nan"),    # every Beurling sup vacuous
        ("--r-list", "1,inf"),
        ("--r-list", "0,1"),
        ("--floor", "nan"),
        ("--floor", "-1"),
        ("--floor", "1"),
    ])
    def test_out_of_range_options(self, capsys, flags):
        self.assert_error_exit(["classify", "--expr", "subexp(1, 1)",
                                "--space", "Sigma", "--s", "0.5",
                                "--points", "1024", *flags], capsys)

    def test_tiny_index_classifies_without_warnings(self, capsys):
        # |x|^(1/s) overflows to inf: the weight's limit, not an error
        code = run_command(["classify", "--expr", "gaussian(1)", "--space",
                            "S", "--s", "1e-300", "--points", "64"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert json.loads(out)["verdict"] in ("Member", "NotMember",
                                              "Inconclusive")

    def test_overflowing_samples_exit_2_without_warnings(self, capsys):
        self.assert_error_exit(["classify", "--expr", "poly(3) * gaussian(2)",
                                "--space", "S", "--s", "0.5",
                                "--half-width", "1e300"], capsys)

    def test_control_characters_in_strings_stay_valid_json(self, tmp_path,
                                                            capsys):
        path = tmp_path / "t\tab.csv"
        path.write_text("x,value-real\n-1.5,0.1\n-0.5,1.0\n0.5,1.0\n"
                        "1.5,0.1\n")
        assert run_command(["transform", "--in", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["params"]["input"] == f"csv:{path}"
        assert len(rep["samples"]) == 4


def _flag(name, values):
    """Optional ``--name=value`` (the = keeps a leading '-' a value)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_POINTS = st.one_of(st.sampled_from([2**k for k in range(1, 13)]),
                    st.sampled_from([-4, -1, 0, 3, 100, 4097, 2**25]))


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["transform", "stft", "classify"]))
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
        args += draw(_flag("floor", st.one_of(st.floats(0.0, 1e-3),
                                              _ANY_FLOAT)))
        args += draw(_flag("n-max", st.integers(-3, 12)))
        args += draw(_flag("r-list", st.one_of(
            st.lists(_ANY_FLOAT, min_size=1, max_size=3).map(
                lambda rs: ",".join(map(repr, rs))),
            st.text(max_size=6))))
    return args


class TestCliContractFuzz:
    """Every input keeps the exit-code contract: 0, 1 or 2, never a
    traceback or a numpy warning, and a JSON report whenever the command
    ran."""

    @settings(max_examples=40, deadline=None)
    @given(_cli_args())
    def test_exit_code_contract(self, argv):
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
