"""Smoke tests of the scripts in `scripts/`, of the README's library
example and of what the command line loads, run as a user runs them: in a
fresh interpreter with the package on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

# `scan_schmidt.py --points 21` as the per-state `sigma_for_state` loop printed
# it, before the script became one `damped_sigma` call
SCAN_21 = (
    "       c           sigma  label\n"
    "  0.0000    0.2500000000  classical_compatible\n"
    "  0.0500    0.2575050113  indeterminate\n"
    "  0.1000    0.2732100441  indeterminate\n"
    "  0.1500    0.2934288240  indeterminate\n"
    "  0.2000    0.3163246017  indeterminate\n"
    "  0.2500    0.3406713237  indeterminate\n"
    "  0.3000    0.3655406712  nonclassical\n"
    "  0.3500    0.3901665768  nonclassical\n"
    "  0.4000    0.4138719511  nonclassical\n"
    "  0.4500    0.4360220651  nonclassical\n"
    "  0.5000    0.4559898041  nonclassical\n"
    "  0.5500    0.4731248854  nonclassical\n"
    "  0.6000    0.4867212482  nonclassical\n"
    "  0.6500    0.4959763925  nonclassical\n"
    "  0.7000    0.4999333280  nonclassical\n"
    "  0.7500    0.4973876403  nonclassical\n"
    "  0.8000    0.4867212482  nonclassical\n"
    "  0.8500    0.4655637809  nonclassical\n"
    "  0.9000    0.4299649726  nonclassical\n"
    "  0.9500    0.3716235573  nonclassical\n"
    "  1.0000    0.2500000000  classical_compatible\n"
    "\n"
    "peak sigma = 0.4999333280 at c = 0.700000 (1/sqrt(2) = 0.707107)\n"
)


def run_python(*args, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env=env, cwd=ROOT)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_make_figure_data_writes_the_golden_csvs(tmp_path):
    result = run_script("make_figure_data.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for figure in (1, 2):
        name = f"figure{figure}.csv"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
    # the per-rate summary reads the curve's columns
    assert "  gamma=2.0 : start=0.500000 min=0.166711 final=0.250000" in result.stdout


def test_make_figure_data_writes_the_golden_json(tmp_path):
    result = run_script("make_figure_data.py", "--outdir", str(tmp_path), "--format", "json")
    assert result.returncode == 0, result.stderr
    for figure in (1, 2):
        name = f"figure{figure}.json"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_scan_schmidt_peaks_at_the_grid_point_nearest_inv_sqrt2():
    # 21 points put the grid at multiples of 0.05, so 0.7 is nearest 1/sqrt(2)
    result = run_script("scan_schmidt.py", "--points", "21")
    assert result.returncode == 0, result.stderr
    assert result.stdout == SCAN_21


def test_readme_library_example_prints_what_its_comments_say():
    # the ```python block under "## Library": each print's output line must
    # start with the "# " comment beneath the print, up to a trailing "..."
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    comments = [after for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
    assert len(comments) == 3 and all(comment.startswith("# ") for comment in comments)
    expected = [comment[2:].removesuffix("...") for comment in comments]
    result = run_python("-c", block)
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert want and got.startswith(want), (got, want)


# Prints which of the JSON writer's modules avgcorr has loaded after the
# parser is built, after a sigma and a CSV sweep, and after a JSON sweep,
# leaving out any that numpy itself loads.
IMPORT_SURFACE = """
import os, sys
import numpy
preloaded = set(sys.modules)
from avgcorr import cli
WRITER = ("avgcorr.float_repr", "json")

def loaded():
    print(sorted(m for m in WRITER if m in sys.modules and m not in preloaded))

cli.build_parser()
loaded()
assert cli.run(["sigma", "--c", "0.6", "--p", "0.3", "--out", os.devnull]) == 0
assert cli.run(["sweep", "--figure", "1", "--out", os.devnull]) == 0
loaded()
assert cli.run(["sweep", "--figure", "1", "--format", "json", "--out", os.devnull]) == 0
loaded()
"""


def test_only_a_json_render_loads_the_json_writer():
    result = run_python("-c", IMPORT_SURFACE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]", "['avgcorr.float_repr', 'json']"]


def test_first_json_render_of_a_process_writes_the_golden_bytes():
    # in-process tests never render JSON first: test_render.py loads
    # float_repr as it is collected
    result = run_python("-m", "avgcorr", "sweep", "--figure", "1", "--format", "json",
                        text=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / "figure1.json").read_bytes()
