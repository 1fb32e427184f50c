import argparse
import ast
import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcorr.sweep
from avgcorr import NONCLASSICAL_MIN, classify, correlation_matrix, figure_dataset, random_density
from avgcorr import cli, correlation
from avgcorr.cli import CSV_HEADER, build_parser, format_sig12, run
from avgcorr.states import RuleError
from oracles import SingularTriple, sigma_quadrature

INV_SQRT2 = 1 / np.sqrt(2)


CLI_TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
CLI_IMPORTS = [alias.name for node in ast.walk(CLI_TREE)
               if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_cli_imports_no_private_name():
    # the CLI maps flags to the library's public calls; it reaches past no `_` name
    assert [name for name in CLI_IMPORTS if name.startswith("_")] == []


def test_cli_leaves_verify_and_rule_errors_to_their_owners():
    # verify's states, R_G and Monte Carlo calls live in
    # correlation.verify_trials, and run() alone turns a RuleError into a
    # usage error
    moved = {"random_density", "correlation_matrix", "sigma_for_state", "sigma_monte_carlo_batch"}
    assert moved.isdisjoint(CLI_IMPORTS)
    catchers = [function.name for function in ast.walk(CLI_TREE)
                if isinstance(function, ast.FunctionDef) for handler in ast.walk(function)
                if isinstance(handler, ast.ExceptHandler) and "RuleError" in ast.dump(handler.type)]
    assert catchers == ["run"]


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
    # a product state keeps Sigma = 1/4 under phase damping, which lies on
    # the closed classical boundary, so every form of the query must say so
    damping = [["--p", p] for p in ("0.3", "0.5", "0.6", "0.7", "1.0")]
    damping += [["--gamma", "1.0", "--t", repr(math.log(2.0))],
                ["--gamma", "2.0", "--t", "0.5"]]
    for c in ("0.0", "1.0"):
        for flags in damping:
            for command, method in (("sigma", "closed"), ("sigma", "quadrature"),
                                    ("classify", "quadrature")):
                argv = [command, "--c", c, "--channel", "phase", *flags,
                        "--method", method]
                assert run(argv) == 0, argv
                out = capsys.readouterr().out
                assert out == "0.250000000000 classical_compatible\n", argv


@pytest.mark.parametrize("c", ["5e-324", "1e-310", "1e-200"])
def test_sigma_of_subnormal_schmidt_coefficient(c, capsys):
    # the triple is (1, ~2c, ~2c), whose squares underflow: Sigma = 1/4 to
    # double precision, with no overflow on the way, for both exact methods
    for command, channel, method in itertools.product(
            ("sigma", "classify"), ("phase", "amplitude"), ("closed", "quadrature")):
        argv = [command, "--c", c, "--p", "0", "--channel", channel, "--method", method]
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        assert captured.out == "0.250000000000 classical_compatible\n", argv


def test_sigma_matches_every_sweep_row(capsys):
    # `sigma --gamma g --t t` must print the sweep row of the same (g, t)
    rng = np.random.default_rng(1838)
    for i in range(12):
        channel = ("phase", "amplitude")[i % 2]
        method = ("closed", "quadrature")[(i // 2) % 2]
        c = repr(float((0.0, 1.0, INV_SQRT2, rng.uniform())[(i // 4 + i) % 4]))
        gammas = ",".join(repr(float(g)) for g in rng.uniform(0.0, 3.0, 1 + i % 3))
        t_max = repr(float(rng.uniform(0.1, 10.0)))
        steps = int(rng.integers(2, 21))
        common = ["--channel", channel, "--method", method, "--c", c]
        assert run(["sweep", *common, "--gammas", gammas, "--t-max", t_max,
                    "--steps", str(steps)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        times = np.linspace(0.0, float(t_max), steps)
        assert len(rows) == steps * len(gammas.split(","))
        for row, (gamma, t) in zip(rows, itertools.product(gammas.split(","), times)):
            assert run(["sigma", *common, "--gamma", gamma, "--t", repr(float(t))]) == 0
            fields = row.split(",")
            assert capsys.readouterr().out == f"{fields[6]} {fields[7]}\n", (common, row)


def test_verify_state_and_monte_carlo_keys_never_meet(monkeypatch, capsys):
    # trial i's state draws from spawn key (i, 0); the one Monte Carlo seed
    # has key (trials,), so its chunk j's PCG64 words come from (trials, j)
    keys = []

    def recording(make):
        def made(seed):
            keys.append(seed.spawn_key)
            return make(seed)
        return made

    monkeypatch.setattr(np.random, "default_rng", recording(np.random.default_rng))
    monkeypatch.setattr(np.random, "PCG64", recording(np.random.PCG64))
    assert run(["verify", "--samples", str(2 * correlation.MC_CHUNK + 1), "--trials", "3"]) == 0
    assert keys[:3] == [(0, 0), (1, 0), (2, 0)]
    assert sorted(keys[3:]) == [(3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("samples", [1000, correlation.MC_CHUNK + 1])
def test_verify_prints_each_trials_monte_carlo_value_alone(samples, monkeypatch, capsys):
    # verify averages every trial over the directions of its one Monte
    # Carlo seed, so each trial's line holds its state's value and standard
    # error alone, at the same samples and seed
    states = []

    def recording(rng):
        states.append(random_density(rng))
        return states[-1]

    monkeypatch.setattr(correlation, "random_density", recording)
    assert run(["verify", "--samples", str(samples), "--trials", "3", "--seed", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(states) == 3 and len(lines) == 4
    seed = np.random.SeedSequence(8, spawn_key=(3,))
    for rho, line in zip(states, lines):
        value, stderr = correlation.sigma_monte_carlo_batch(correlation_matrix(rho), samples, seed)
        assert f" mc={format_sig12(float(value))} stderr={float(stderr):.3e} " in line, line


def test_sigma_rate_time_pair_matches_direct_p(capsys):
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude",
                "--gamma", "2.0", "--t", "0.5"]) == 0
    via_rate = capsys.readouterr().out
    p = 1 - np.exp(-1.0)
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude",
                "--p", str(p)]) == 0
    assert capsys.readouterr().out == via_rate


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
        ["sweep", "--channel", "phase", "--gammas", ""],
        ["sweep"],
        ["classify"],
        ["classify", "--value", "0.3", "--c", "0.5"],
        ["verify", "--trials", "0"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["sigma", "--c", "1.25", "--p", "0"], "1.25"),
        (["sigma", "--c", "0.5", "--p", "-0.5"], "-0.5"),
        (["sigma", "--c", "0.5", "--gamma", "-1.5", "--t", "1"], "-1.5"),
        (["sigma", "--c", "0.5", "--gamma", "1", "--t", "-2.5"], "-2.5"),
        (["sweep", "--channel", "phase", "--c", "1.75"], "1.75"),
        (["sweep", "--channel", "amplitude", "--gammas", "1,-0.25"], "-0.25"),
        (["sweep", "--channel", "phase", "--t-max", "-3.5"], "-3.5"),
        (["sweep", "--channel", "phase", "--steps", "-7"], "-7"),
        (["verify", "--samples", "1"], "the sample count must be >= 2, got 1"),
    ],
)
def test_range_errors_name_the_bad_value(argv, bad, capsys):
    # the library checks these ranges, verify's sample count among them, and
    # run() reports its RuleError as a usage error
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert "error:" in last and bad in last, last


def test_classify_value(capsys):
    assert run(["classify", "--value", "0.3"]) == 0
    assert capsys.readouterr().out == "indeterminate\n"
    assert run(["classify", "--value", "0.2"]) == 0
    assert capsys.readouterr().out == "classical_compatible\n"
    # finite values outside [0, 1/2] keep their labels
    for value, label in (("-1", "classical_compatible"), ("0.9", "nonclassical"),
                         ("1e308", "nonclassical")):
        assert run(["classify", "--value", value]) == 0
        assert capsys.readouterr().out == f"{label}\n"


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


@pytest.mark.parametrize("figure, channel", [("1", "phase"), ("2", "amplitude")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_figure_is_a_channel_preset(figure, channel, fmt):
    # --figure N fixes only the channel; every other shape value is
    # SweepSpec's default, as in a plain --channel sweep
    preset = outcome(["sweep", "--figure", figure, "--format", fmt])
    plain = outcome(["sweep", "--channel", channel, "--format", fmt])
    assert preset[0] == 0 and preset[1] != ""
    assert preset == plain
    # --method selects nothing, so it is no shape flag
    assert outcome(["sweep", "--figure", figure, "--method", "closed", "--format", fmt]) == plain


def test_sweep_custom_flags(tmp_path):
    path = tmp_path / "small.csv"
    assert run(["sweep", "--channel", "phase", "--gammas", "0.5",
                "--t-max", "2.0", "--steps", "5", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 5


def test_sweep_json_round_trip(tmp_path):
    # a rate or c of -0.0 is 0.0, so no -0.0 reaches the rates, p, c or the
    # singular values
    cases = [(["--figure", "2"], [0.5, 1.0, 2.0]),
             (["--channel", "phase", "--gammas=-0.0", "--steps", "2"], [0.0]),
             (["--channel", "phase", "--c=-0.0", "--gammas", "1", "--steps", "2"], [1.0])]
    for argv, gammas in cases:
        path = tmp_path / "sweep.json"
        assert run(["sweep", *argv, "--format", "json", "--out", str(path)]) == 0
        text = path.read_text()
        assert "-0.0" not in text, argv
        payload = json.loads(text)
        assert list(payload["metadata"]) == ["channel", "c", "gammas", "t_max", "steps",
                                             "estimator", "rel_error_bound"]
        assert payload["metadata"]["estimator"] == "carlson_rc"
        assert payload["metadata"]["gammas"] == [b["gamma"] for b in payload["blocks"]] == gammas
        rng = np.random.default_rng(77)
        rows = [row for block in payload["blocks"] for row in block["rows"]]
        for row in rng.choice(rows, size=min(5, len(rows)), replace=False):
            triple = SingularTriple(row["alpha"], row["beta"], row["gamma_sv"])
            assert abs(sigma_quadrature(triple).value - row["sigma"]) < 1e-9


def test_closed_and_quadrature_spell_one_method(capsys):
    # both spellings run the library's "exact" method: the same bytes, the
    # JSON metadata included
    for argv in (["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"],
                 ["sweep", "--channel", "amplitude", "--steps", "5"],
                 ["sweep", "--channel", "phase", "--steps", "5", "--format", "json"]):
        outputs = []
        for method in ("closed", "quadrature"):
            assert run([*argv, "--method", method]) == 0, argv
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1], argv


def test_sweep_stdout(capsys):
    assert run(["sweep", "--channel", "amplitude", "--gammas", "1.0",
                "--steps", "3", "--t-max", "1.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert len(out.splitlines()) == 4


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--channel", "amplitude", "--gammas", "1.0,2.0",
            "--steps", "11", "--t-max", "4.0"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_write_output_rejects_an_unknown_format(fmt, tmp_path, capsys):
    curve = figure_dataset(1)
    with pytest.raises(ValueError, match=f"unknown output format '{fmt}'"):
        cli.write_output(curve, fmt)
    with pytest.raises(ValueError):
        cli.write_output(curve, fmt, str(tmp_path / "out"))
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "out").exists()


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


def test_verify_counts_the_exact_error_bound_in_the_gap(monkeypatch, capsys):
    # every trial is the singlet, K = -I, where Sigma is 1/2 exactly. At 2
    # samples and this seed both |K^T a| are 1 - 2^-53, so Monte Carlo gives
    # 1/2 less an ulp with a standard error of 0: the gap lies within the
    # exact value's error bound, not within 4 standard errors alone. The
    # summary line keeps its fixed words, which count that bound too
    singlet = np.zeros((4, 4))
    singlet[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    mc_seed = np.random.SeedSequence(28, spawn_key=(20,))
    value, stderr = correlation.sigma_monte_carlo_batch(
        correlation.correlation_matrix(singlet), 2, mc_seed)
    assert (float(value).hex(), stderr) == ("0x1.fffffffffffffp-2", 0.0)
    monkeypatch.setattr(correlation, "random_density", lambda rng: singlet)
    assert run(["verify", "--samples", "2", "--seed", "28"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert all(line.endswith(" 0.00 ok") for line in lines[:20])
    assert lines[20] == "20 trials at 2 samples: all within 4 standard errors"


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "avgcorr", "sigma", "--c", "1.0", "--p", "0",
         "--method", "closed"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("0.250000000000")


# the last line each non-finite input gives: the library's message for a
# model rule, read the same from sigma and from sweep, and the CLI's own for
# classify --value
RATE_INF = "avgcorr: error: decoherence rate must be finite and >= 0, got inf"
C_NAN = "avgcorr: error: Schmidt coefficient must lie in [0, 1], got nan"
NON_FINITE_ERRORS = {
    "sweep --channel phase --gammas nan":
        "avgcorr: error: decoherence rate must be finite and >= 0, got nan",
    "sweep --channel amplitude --gammas 0.5,inf": RATE_INF,
    "sweep --channel phase --t-max inf": "avgcorr: error: t_max must be finite and > 0, got inf",
    "sigma --c 0.5 --gamma inf --t 0": RATE_INF,
    "sigma --c 0.5 --gamma 1 --t nan": "avgcorr: error: time must be finite and >= 0, got nan",
    "sigma --c 0.5 --p nan": "avgcorr: error: p must lie in [0, 1], got nan",
    "classify --value nan": "avgcorr: error: --value must be finite, got nan",
    "classify --value inf": "avgcorr: error: --value must be finite, got inf",
    "classify --value -inf": "avgcorr: error: --value must be finite, got -inf",
    "sigma --c 0.5 --gamma inf --t 1": RATE_INF,
    "sigma --c 0.5 --gamma 1 --t inf": "avgcorr: error: time must be finite and >= 0, got inf",
    "sweep --channel phase --gammas 1,inf": RATE_INF,
    "sigma --c nan --p 0.3": C_NAN,
    "sweep --channel phase --c nan": C_NAN,
}
# negative values that argparse's own pattern takes for flags; each reaches
# the rule it breaks
NEGATIVE_VALUE_ERRORS = {
    "sigma --c 0.5 --gamma -1e5 --t 1":
        "avgcorr: error: decoherence rate must be finite and >= 0, got -100000.0",
    "sigma --c 0.5 --gamma -inf --t 1":
        "avgcorr: error: decoherence rate must be finite and >= 0, got -inf",
    "sweep --channel phase --gammas -1,2":
        "avgcorr: error: decoherence rate must be finite and >= 0, got -1.0",
    "sweep --channel phase --t-max -1e3":
        "avgcorr: error: t_max must be finite and > 0, got -1000.0",
}
LAST_LINES = {**NON_FINITE_ERRORS, **NEGATIVE_VALUE_ERRORS}


@pytest.mark.parametrize("argv", [argv.split() for argv in LAST_LINES])
def test_non_finite_input_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]
    ]
    assert err.splitlines()[-1] == LAST_LINES[" ".join(argv)]


def test_numeric_failure_reports_one_line_and_exits_1(monkeypatch, capsys):
    # the damped closed form cannot fail by itself, so a failure is injected
    # into it for the commands that run it; its message spans two lines
    def fail(s, kappa):
        raise RuntimeError("closed form failed\n  (injected)")

    with monkeypatch.context() as patch:
        patch.setattr(avgcorr.sweep, "sigma_damped", fail)
        assert run(["sweep", "--channel", "phase", "--gammas", "1.0",
                    "--steps", "3", "--t-max", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: closed form failed (injected)")
        assert captured.err.count("\n") == 1
        # the one-state commands report a usage error only for a ValueError;
        # the estimator's RuntimeError stays a numeric failure
        for argv in (["sigma", "--c", "0.6", "--p", "0.2"],
                     ["classify", "--c", "0.6", "--channel", "amplitude", "--p", "0.2"]):
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: closed form failed (injected)")
            assert captured.err.count("\n") == 1, argv
    # no duplication step allowed makes R_G, which verify runs, fail to converge
    monkeypatch.setattr(correlation, "RG_MAX_STEPS", 0)
    assert run(["verify", "--samples", "100", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: R_G duplication did not converge in 0 steps")
    assert captured.err.count("\n") == 1


def test_grid_too_large_to_allocate_exits_1(capsys):
    # 10^15 steps ask for petabytes at once, so the allocation fails at
    # once; a size that could be allocated must not be tried here
    assert run(["sweep", "--channel", "phase", "--steps", "1000000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")
    assert captured.err.count("\n") == 1


# verify is the one command that runs Monte Carlo: the other three take no
# mc method, sample count or seed
MONTE_CARLO_FLAGS = {"--method mc": "argument --method: invalid choice: 'mc'",
                     # the library's name of the method that is gone
                     "--method monte_carlo": "argument --method: invalid choice: 'monte_carlo'",
                     "--samples 10": "error: unrecognized arguments: --samples 10",
                     "--seed 7": "error: unrecognized arguments: --seed 7"}


@pytest.mark.parametrize("flag", sorted(MONTE_CARLO_FLAGS))
@pytest.mark.parametrize("argv", [
    ["sigma", "--c", "0.5", "--p", "0.2"],
    ["classify", "--c", "0.5", "--p", "0.2"],
    ["sweep", "--channel", "phase", "--steps", "3"],
], ids=["sigma", "classify", "sweep"])
def test_monte_carlo_flags_are_usage_errors_outside_verify(argv, flag, capsys):
    assert run([*argv, *flag.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [captured.err.splitlines()[-1]]
    assert MONTE_CARLO_FLAGS[flag] in errors[0]


def test_negative_seed_is_a_usage_error(capsys):
    # verify_trials checks the seed, in _seed_sequence's words
    assert run(["verify", "--trials", "1", "--samples", "100", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = "avgcorr: error: seed must be >= 0, got -1"
    assert [line for line in captured.err.splitlines() if "error:" in line] == [last]
    assert captured.err.splitlines()[-1] == last


def test_zero_trials_is_a_usage_error(capsys):
    # the usage and one error line, the library's text
    assert run(["verify", "--trials", "0"]) == 2
    assert capsys.readouterr() == (
        "", build_parser().format_usage() + "avgcorr: error: the trial count must be >= 1, got 0\n")


# The argv fuzz builds a well-formed call of each subcommand and then
# replaces or inserts up to two odd tokens, so a third of the cases reach
# the numerics whole and the rest probe one or two bad inputs at a time.
# A sweep names --steps (at most 50), so 300 cases take seconds.
ODD_TOKENS = ("0", "1", "-0.0", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324",
              "-1", "", "x", "-", "--", ",", "1,2", "0x10", "1e", "--c", "--bogus", "-h")
odd = st.sampled_from(ODD_TOKENS) | st.floats().map(repr)
unit = st.floats(0.0, 1.0).map(repr)
rate = st.floats(0.0, 10.0).map(repr)
OPTIONAL_FLAGS = {
    "--channel": st.sampled_from(("phase", "amplitude")),
    "--method": st.sampled_from(("closed", "quadrature")),
}
SWEEP_FLAGS = {
    "--c": unit, "--t-max": rate, "--format": st.sampled_from(("csv", "json")),
    "--gammas": st.lists(rate, min_size=1, max_size=3).map(",".join),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(("sigma", "classify", "sweep")))
    if command == "sweep" and draw(st.booleans()):
        core = [("--figure", draw(st.sampled_from(("1", "2"))))]
        extra = {"--method": OPTIONAL_FLAGS["--method"], "--format": SWEEP_FLAGS["--format"]}
    elif command == "sweep":
        core = [("--channel", draw(OPTIONAL_FLAGS["--channel"])),
                ("--steps", draw(st.integers(2, 50).map(str)))]
        extra = {**OPTIONAL_FLAGS, **SWEEP_FLAGS}
        del extra["--channel"]
    elif command == "classify" and draw(st.booleans()):
        core, extra = [("--value", draw(unit))], {}
    else:
        damping = draw(st.sampled_from(((), ("--p",), ("--gamma", "--t"))))
        core = [("--c", draw(unit))]
        core += [(flag, draw(unit if flag == "--p" else rate)) for flag in damping]
        extra = OPTIONAL_FLAGS
    names = draw(st.lists(st.sampled_from(sorted(extra)), unique=True)) if extra else []
    argv = [command]
    for flag, value in core + [(name, draw(extra[name])) for name in names]:
        argv += [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(odd)]
    return argv


@settings(max_examples=300, deadline=None)
@given(fuzz_argv())
def test_run_never_raises_on_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, argv
    if rc == 1:  # a numeric failure is one `error:` line
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if rc == 2:
        assert "error:" in err.splitlines()[-1], (argv, err)


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


USAGE_ERROR_ARGV = ["sigma", "--c", "1.5", "--p", "0"]
VALID_ARGV = ["classify", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"]


@settings(max_examples=60, deadline=None)
@given(st.lists(fuzz_argv(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_reused_parser_matches_a_fresh_parser(argvs, random):
    # a usage error exits through parser.error, part way into a parse; the
    # calls after it must not see a trace of it in the shared parser
    argvs = argvs + [USAGE_ERROR_ARGV, VALID_ARGV, USAGE_ERROR_ARGV]
    random.shuffle(argvs)
    saved = cli._parser
    try:
        fresh = []
        for argv in argvs:
            cli._parser = None  # run() builds a new parser for this call
            fresh.append(outcome(argv))
        cli._parser = None
        shared = [outcome(argv) for argv in argvs]
    finally:
        cli._parser = saved
    for argv, want, got in zip(argvs, fresh, shared):
        assert got == want, argv


def test_run_builds_its_parser_once(monkeypatch, capsys):
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["sigma", "--c", "0.5", "--p", "0.2"], USAGE_ERROR_ARGV,
                 ["classify", "--value", "0.3"], ["verify", "--trials", "0"]):
        run(argv)
    capsys.readouterr()
    assert len(builds) == 1
    assert build_parser() is not build_parser()


def test_usage_errors_format_the_top_level_usage_once(monkeypatch, capsys):
    fresh = build_parser()
    usage, sigma_usage = fresh.format_usage(), fresh.subcommands["sigma"].format_usage()
    formatted = []
    format_usage = argparse.ArgumentParser.format_usage

    def counted(self):
        formatted.append(self.prog)
        return format_usage(self)

    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counted)
    monkeypatch.setattr(cli, "_parser", None)
    for argv, message in [
        (["sigma", "--c", "2", "--p", "0.3"], "Schmidt coefficient must lie in [0, 1], got 2.0"),
        (["sweep", "--channel", "phase", "--gammas", "-1"],
         "decoherence rate must be finite and >= 0, got -1.0"),
    ]:
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"{usage}avgcorr: error: {message}\n")
    assert formatted == ["avgcorr"]
    # a subcommand's own error prints that subcommand's usage
    assert run(["sigma", "--channel", "bogus", "--c", "1"]) == 2
    assert capsys.readouterr().err.startswith(sigma_usage + "avgcorr sigma: error: ")
    assert formatted == ["avgcorr", "avgcorr sigma"]


def full_parse_outcome(argv, parser=None):
    """`run(argv)` as the top-level parser alone would run it: it parses the
    whole argv and hands the tail to the subcommand's parser. The oracle of
    the direct dispatch in `run()`."""
    parser = parser or build_parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
            try:
                rc = args.func(args, parser)
            except RuleError as exc:  # as run() reports a library rule
                parser.error(str(exc))
        except SystemExit as exc:
            rc = int(exc.code or 0)
        except (OSError, ValueError, RuntimeError, MemoryError) as exc:
            print("error:", " ".join(str(exc).split()), file=sys.stderr)
            rc = 1
    return rc, out.getvalue(), err.getvalue()


# Inputs where a parse of the whole argv and a parse of the tokens after the
# command could differ: help, abbreviations of --help and of the commands,
# `--` on either side of the command, leftover tokens, `=` forms, negative
# numbers (those argparse's own pattern misses among them) and repeated flags.
EDGE_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["--h"], ["-hx"], ["-x"], ["sig"], ["Sigma"],
    ["bogus-command", "--c", "0.5"], ["-h", "sigma"], ["--", "sigma", "--c", "0.5"],
    ["--", "--", "sigma"], ["sigma", "-h"], ["sweep", "--help"], ["verify", "-h"],
    ["classify", "--he"], ["sigma", "--h"], ["sigma", "-hx"],
    ["sigma", "--c", "0.5", "junk"], ["sigma", "--c", "0.5", "--p", "0.2", "x", "--y", "-z"],
    ["verify", "--trials", "0", "extra"], ["sigma", "sweep"],
    ["sigma", "--", "--c", "0.5"], ["sigma", "--c", "0.5", "--"],
    ["sigma", "--c", "0.5", "--", "0.2"], ["sigma", "--c=0.5"],
    ["sigma", "--c=0.5", "--p=0.2", "--method=closed"], ["sigma", "--c", "-0.5"],
    ["sigma", "--c", "0.5", "--c", "0.6"], ["sigma", "--ch", "amplitude", "--c", "0.6"],
    ["sigma", "--s", "5", "--c", "0.6"], ["classify", "--va", "0.3"],
    ["sweep", "--figure", "1", "--format", "json", "--out"],
    ["sweep", "--figure", "2", "--method", "closed", "--format", "json"],
    ["verify", "--samples", "1000", "--trials", "2", "--seed", "3"],
    ["classify", "--value", "0.3", "--value", "0.2"],
    ["sigma", "--c", "0.5", "--gamma", "-1e5", "--t", "1"],
    ["sweep", "--channel", "phase", "--gammas", "-1,2"],
]


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_direct_dispatch_matches_a_full_parse_on_edge_cases(argv):
    assert outcome(argv) == full_parse_outcome(argv)


@settings(max_examples=200, deadline=None)
@given(fuzz_argv())
def test_direct_dispatch_matches_a_full_parse_on_fuzzed_argv(argv):
    assert outcome(argv) == full_parse_outcome(argv)


@settings(max_examples=200, deadline=None)
@given(fuzz_argv() | st.sampled_from(EDGE_ARGV))
def test_direct_dispatch_hands_the_handler_the_full_parse_namespace(argv):
    # a parse that succeeds on the whole argv must give the handler the
    # same namespace; the handlers here only record it
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("cmd_sigma", "cmd_sweep", "cmd_verify", "cmd_classify"):
            patch.setattr(cli, name, lambda args, parser: seen.append(vars(args)) or 0)
        patch.setattr(cli, "_parser", None)
        parser = build_parser()
        want_rc = full_parse_outcome(argv, parser)[0]
        got_rc = outcome(argv)[0]
    assert got_rc == want_rc, argv
    if want_rc == 0 and seen:
        assert len(seen) == 2, argv
        # compared as text, since a parsed nan is unequal to itself
        assert repr(sorted(seen[0].items())) == repr(sorted(seen[1].items())), argv


def test_run_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["avgcorr", "classify", "--value", "0.3"])
    assert run() == 0
    assert capsys.readouterr() == ("indeterminate\n", "")
    monkeypatch.setattr(sys, "argv", ["avgcorr", "sigma", "--c", "1.5", "--p", "0"])
    assert run(None) == 2
    assert "Schmidt coefficient" in capsys.readouterr().err


def test_run_parses_a_command_s_tokens_once(monkeypatch, capsys):
    parser = build_parser()
    parses = []
    for name, each in [("avgcorr", parser), *parser.subcommands.items()]:
        def counted(*args, _parse=each.parse_known_args, _name=name, **kwargs):
            parses.append(_name)
            return _parse(*args, **kwargs)
        monkeypatch.setattr(each, "parse_known_args", counted)
    monkeypatch.setattr(cli, "_parser", parser)
    assert run(["sigma", "--c", "0.5", "--p", "0.2"]) == 0
    assert run(["classify", "--value", "0.3", "junk"]) == 2
    assert parses == ["sigma", "classify"]
    assert run(["sig"]) == 2
    assert parses[2:] == ["avgcorr"]
    capsys.readouterr()
