"""Golden-file pins of the sweep output bytes.

`tests/data/figure{1,2}.csv` hold the exact bytes of `avgcorr sweep
--figure 1|2`, and `tests/data/sweep_*.json` those of two small JSON
sweeps; any change to how the sweep computes or renders a row must keep
them. `tests/data/verify_small.txt` holds the stdout of a small `avgcorr
verify` run, `quadrature=` token included, and `tests/data/sweep_mc_small.csv`
that of a small Monte Carlo sweep, one estimate of 100 samples per row: the
two pin the Monte Carlo stream, its draw sizing included.
"""

from pathlib import Path

import pytest

from avgcorr.cli import run

DATA = Path(__file__).parent / "data"

JSON_SWEEPS = {
    "sweep_phase_closed.json": [
        "--channel", "phase", "--method", "closed", "--c", "0.37",
        "--gammas", "0.4,1.3,2.7", "--steps", "20",
    ],
    "sweep_amplitude_quadrature.json": [
        "--channel", "amplitude", "--method", "quadrature", "--c", "0.8",
        "--gammas", "1.5", "--steps", "40",
    ],
}

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


def test_monte_carlo_sweep_csv_matches_golden_bytes(tmp_path):
    out = tmp_path / "sweep_mc_small.csv"
    argv = ["sweep", *MC_SWEEP, "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == (DATA / "sweep_mc_small.csv").read_bytes()
