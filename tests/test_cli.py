import json
import subprocess
import sys

import numpy as np
import pytest

from avgcorr import NONCLASSICAL_MIN, SingularTriple, classify, sigma_quadrature
from avgcorr import sweep
from avgcorr.cli import CSV_HEADER, format_sig12, run


def test_format_sig12():
    assert format_sig12(0.5) == "0.500000000000"
    assert format_sig12(0.25) == "0.250000000000"
    assert format_sig12(0.0) == "0.000000000000"
    assert format_sig12(8.0) == "8.00000000000"
    assert format_sig12(0.04) == "0.0400000000000"
    assert format_sig12(0.09999999999999999) == "0.100000000000"
    assert format_sig12(1.0) == "1.00000000000"


def test_sigma_balanced_closed(capsys):
    assert run(["sigma", "--c", "0.70710678118", "--channel", "phase",
                "--p", "0", "--method", "closed"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.500000000000")
    assert "nonclassical" in out


def test_sigma_c_one_any_damping(capsys):
    assert run(["sigma", "--c", "1.0", "--channel", "phase",
                "--p", "0.7", "--method", "quadrature"]) == 0
    assert capsys.readouterr().out.startswith("0.250000000000")


def test_sigma_rate_time_pair_matches_direct_p(capsys):
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude",
                "--gamma", "2.0", "--t", "0.5"]) == 0
    via_rate = capsys.readouterr().out
    p = 1 - np.exp(-1.0)
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude",
                "--p", str(p)]) == 0
    assert capsys.readouterr().out == via_rate


def test_sigma_monte_carlo_deterministic(capsys):
    argv = ["sigma", "--c", "0.8", "--method", "mc",
            "--samples", "50000", "--seed", "9"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--c", "1.2", "--p", "0"],
        ["sigma", "--c", "0.5", "--p", "1.5"],
        ["sigma", "--c", "0.5", "--p", "0.2", "--gamma", "1", "--t", "1"],
        ["sigma", "--c", "0.5", "--gamma", "1"],
        ["sigma", "--c", "0.5", "--t", "1"],
        ["sigma", "--c", "0.5", "--gamma", "-1", "--t", "1"],
        ["sigma", "--c", "0.5", "--unknown-flag"],
        ["sigma"],
        ["bogus-command"],
        ["sweep", "--figure", "1", "--channel", "phase"],
        ["sweep", "--figure", "3"],
        ["sweep", "--channel", "phase", "--steps", "1"],
        ["sweep", "--channel", "phase", "--gammas", "a,b"],
        ["sweep", "--channel", "phase", "--gammas", ","],
        ["sweep"],
        ["classify"],
        ["classify", "--value", "0.3", "--c", "0.5"],
        ["verify", "--trials", "0"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err != ""


def test_classify_value(capsys):
    assert run(["classify", "--value", "0.3"]) == 0
    assert capsys.readouterr().out == "indeterminate\n"
    assert run(["classify", "--value", "0.2"]) == 0
    assert capsys.readouterr().out == "classical_compatible\n"


def test_classify_state(capsys):
    assert run(["classify", "--c", "0.70710678118", "--p", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.500000000000")
    assert out.rstrip().endswith("nonclassical")


def test_sweep_figure1_csv(tmp_path):
    path = tmp_path / "fig1.csv"
    assert run(["sweep", "--figure", "1", "--out", str(path)]) == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 201
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        value = float(fields[6])
        # 12-digit rounding can cross a threshold; skip only those rows
        if min(abs(value - 0.25), abs(value - NONCLASSICAL_MIN)) > 1e-9:
            assert fields[7] == classify(value)
    first = lines[1].split(",")
    assert first[1] == "0.000000000000"  # t = 0
    assert first[6] == "0.500000000000"  # starts at the maximum


def test_sweep_custom_flags(tmp_path):
    path = tmp_path / "small.csv"
    assert run(["sweep", "--channel", "phase", "--gammas", "0.5",
                "--t-max", "2.0", "--steps", "5", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 5


def test_sweep_json_round_trip(tmp_path):
    path = tmp_path / "fig2.json"
    assert run(["sweep", "--figure", "2", "--format", "json",
                "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    for key in ("seed", "method", "quadrature_nodes", "rng"):
        assert key in payload["metadata"]
    assert [b["gamma"] for b in payload["blocks"]] == [0.5, 1.0, 2.0]
    rng = np.random.default_rng(77)
    rows = [row for block in payload["blocks"] for row in block["rows"]]
    for row in rng.choice(rows, size=5, replace=False):
        triple = SingularTriple(row["alpha"], row["beta"], row["gamma_sv"])
        assert abs(sigma_quadrature(triple).value - row["sigma"]) < 1e-9


def test_sweep_stdout(capsys):
    assert run(["sweep", "--channel", "amplitude", "--gammas", "1.0",
                "--steps", "3", "--t-max", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.splitlines()) == 4


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--channel", "amplitude", "--gammas", "1.0,2.0",
            "--steps", "11", "--t-max", "4.0", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_to_missing_directory_exits_1(capsys):
    assert run(["sweep", "--channel", "phase", "--gammas", "1.0",
                "--steps", "3", "--t-max", "1.0",
                "--out", "/nonexistent-dir-for-test/out.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_quick(capsys):
    assert run(["verify", "--samples", "40000", "--trials", "3",
                "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("trial ") for line in out.splitlines()) == 3
    assert "all within 4 standard errors" in out


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "avgcorr", "sigma", "--c", "1.0", "--p", "0",
         "--method", "closed"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("0.250000000000")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--channel", "phase", "--gammas", "nan"],
        ["sweep", "--channel", "amplitude", "--gammas", "0.5,inf"],
        ["sweep", "--channel", "phase", "--t-max", "inf"],
        ["sigma", "--c", "0.5", "--gamma", "inf", "--t", "0"],
        ["sigma", "--c", "0.5", "--gamma", "1", "--t", "nan"],
        ["sigma", "--c", "0.5", "--p", "nan"],
    ],
)
def test_non_finite_input_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]
    ]


def test_numeric_failure_reports_one_line_and_exits_1(monkeypatch, capsys):
    # a negative tolerance makes the sweep's analytic-triple check fail
    monkeypatch.setattr(sweep, "ANALYTIC_TRIPLE_TOL", -1.0)
    assert run(["sweep", "--channel", "phase", "--gammas", "1.0",
                "--steps", "3", "--t-max", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: damped singular values")
    assert captured.err.count("\n") == 1
