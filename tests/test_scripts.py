"""Smoke tests of the scripts in `scripts/`, run as a user runs them: in a
fresh interpreter with the package on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


def test_make_figure_data_writes_the_golden_csvs(tmp_path):
    result = run_script("make_figure_data.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for figure in (1, 2):
        name = f"figure{figure}.csv"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
    # the per-rate summary reads the curve's columns
    assert "  gamma=2.0 : start=0.500000 min=0.166711 final=0.250000" in result.stdout


def test_scan_schmidt_peaks_at_the_grid_point_nearest_inv_sqrt2():
    # 21 points put the grid at multiples of 0.05, so 0.7 is nearest 1/sqrt(2)
    result = run_script("scan_schmidt.py", "--points", "21")
    assert result.returncode == 0, result.stderr
    last = result.stdout.splitlines()[-1]
    assert last.startswith("peak sigma = 0.49993332"), last
    assert last.endswith("at c = 0.700000 (1/sqrt(2) = 0.707107)"), last
