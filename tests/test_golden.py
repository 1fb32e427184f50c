"""Golden-file pins of the sweep output bytes.

`tests/data/figure{1,2}.csv` hold the exact bytes of `avgcorr sweep
--figure 1|2`, `tests/data/figure{1,2}.json` those of the same sweeps with
`--format json`, and `tests/data/sweep_*.json` those of two small JSON
sweeps; any change to how the sweep computes or renders a row must keep
them. The JSON goldens were written by one `float.__repr__` call per
number, so they pin the numpy digit kernel that replaced it. `tests/data/verify_small.txt` holds the stdout of a small `avgcorr
verify` run, `quadrature=` token included, and `tests/data/sweep_mc_small.csv`
that of a small Monte Carlo sweep, every row averaged over the same 100
directions: the two pin the Monte Carlo stream, its draw sizing included.
Both fit in one chunk; `tests/data/verify_chunks.txt` holds a `verify` run
of three chunks, which pins the chunk streams and the order their totals
are added in, whatever the number of CPUs, and
`tests/data/sigma_mc_default.txt` a one-point `sigma --method mc` at the
default sample count and seed (MC_SAMPLES, MC_SEED): eight chunks for a
batch of one.
"""

from pathlib import Path

import pytest

from avgcorr.cli import run

DATA = Path(__file__).parent / "data"

JSON_SWEEPS = {
    "figure1.json": ["--figure", "1"],
    "figure2.json": ["--figure", "2"],
    "sweep_phase_closed.json": [
        "--channel", "phase", "--method", "closed", "--c", "0.37",
        "--gammas", "0.4,1.3,2.7", "--steps", "20",
    ],
    "sweep_amplitude_quadrature.json": [
        "--channel", "amplitude", "--method", "quadrature", "--c", "0.8",
        "--gammas", "1.5", "--steps", "40",
    ],
}

MC_SIGMA = ["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3", "--method", "mc"]

MC_SWEEP = ["--channel", "amplitude", "--method", "mc", "--samples", "100", "--c", "0.6",
            "--gammas", "1", "--steps", "20"]


@pytest.mark.parametrize("figure", [1, 2])
def test_figure_csv_matches_golden_bytes(figure, tmp_path):
    out = tmp_path / f"figure{figure}.csv"
    assert run(["sweep", "--figure", str(figure), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"figure{figure}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(JSON_SWEEPS))
def test_sweep_json_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    argv = ["sweep", *JSON_SWEEPS[name], "--format", "json", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_verify_stdout_matches_golden_bytes(capsys):
    assert run(["verify", "--samples", "20000", "--trials", "3", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / "verify_small.txt").read_bytes()


def test_multi_chunk_verify_stdout_matches_golden_bytes(capsys):
    assert run(["verify", "--samples", "300000", "--trials", "2", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / "verify_chunks.txt").read_bytes()


def test_monte_carlo_sweep_csv_matches_golden_bytes(tmp_path):
    out = tmp_path / "sweep_mc_small.csv"
    argv = ["sweep", *MC_SWEEP, "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == (DATA / "sweep_mc_small.csv").read_bytes()


def test_default_monte_carlo_sigma_matches_golden_bytes(capsys):
    assert run(MC_SIGMA) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / "sigma_mc_default.txt").read_bytes()
