"""Golden-file pins of the sweep output bytes.

`tests/data/figure{1,2}.csv` hold the exact bytes of `avgcorr sweep
--figure 1|2`, `tests/data/figure{1,2}.json` those of the same sweeps with
`--format json`, and `tests/data/sweep_phase_closed.json` and
`sweep_amplitude_quadrature.json` those of two small JSON sweeps; any
change to how the sweep computes or renders a row must keep them. The JSON
goldens were written by one `float.__repr__` call per number, so they pin
the numpy digit kernel that replaced it.

`verify` is the one command that runs the Monte Carlo oracle, and its
goldens pin the Monte Carlo stream. `tests/data/verify_small.txt` holds
the stdout of a small `avgcorr verify` run, `quadrature=` token included,
in one chunk, its draw sizing included; `tests/data/verify_chunks.txt` a
run of three chunks, which pins the chunk streams and the order their
totals are added in, whatever the number of CPUs;
`tests/data/verify_default_chunks.txt` one trial at the default sample
count (MC_SAMPLES), eight chunks for a batch of one; and
`tests/data/verify_tiles.txt` nine trials in three chunks, evaluated in
tiles of 4, 4 and 1 matrices.
`tests/data/sigma_amplitude.txt` and `classify_*.txt` hold one-state
`sigma` and `classify` lines, whose labels `classify` returns as 0-d
arrays, and `tests/data/sigma_phase_timed.txt` a phase-damped `sigma` at a
rate and time, the one-point path through `p_of_t`.

Every file under `tests/data` is named once in the tables below, and each
table drives a test. The Monte Carlo goldens are compared on every CPU the
process may use, where a run of more than one chunk goes through the
thread pool, and again with one CPU, where every chunk runs in the calling
thread.
"""

import concurrent.futures
from pathlib import Path

import pytest

from avgcorr import correlation
from avgcorr.cli import run

DATA = Path(__file__).parent / "data"

FIGURES = (1, 2)

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

ONE_STATE = {
    "sigma_amplitude.txt": ["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"],
    "sigma_phase_timed.txt": ["sigma", "--c", "0.37", "--channel", "phase",
                              "--gamma", "1.3", "--t", "0.7"],
    "classify_value.txt": ["classify", "--value", "0.3"],
    "classify_state.txt": ["classify", "--c", "0.9", "--channel", "amplitude", "--p", "0.4"],
}

# the full argv of every Monte Carlo golden, whose stdout is the golden
MONTE_CARLO = {
    "verify_small.txt": ["verify", "--samples", "20000", "--trials", "3", "--seed", "42"],
    "verify_chunks.txt": ["verify", "--samples", "300000", "--trials", "2", "--seed", "42"],
    "verify_default_chunks.txt": ["verify", "--trials", "1", "--seed", "42"],
    "verify_tiles.txt": ["verify", "--trials", "9", "--samples", "300000", "--seed", "42"],
}

GOLDENS = [*(f"figure{figure}.csv" for figure in FIGURES), *JSON_SWEEPS, *ONE_STATE,
           *MONTE_CARLO]


def test_golden_tables_name_every_data_file_once():
    assert len(set(GOLDENS)) == len(GOLDENS)
    assert sorted(GOLDENS) == sorted(path.name for path in DATA.iterdir())


@pytest.mark.parametrize("figure", FIGURES)
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


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_golden_on_every_cpu(name, capsys):
    assert run(MONTE_CARLO[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(ONE_STATE))
def test_one_state_stdout_matches_golden_bytes(name, capsys):
    assert run(ONE_STATE[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_golden_on_one_cpu(name, monkeypatch, capsys):
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(correlation, "_cpu_count", lambda: 1)
    assert run(MONTE_CARLO[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / name).read_bytes()
    assert pools == []
