"""Golden-file pin of the canned decay datasets.

`tests/data/figure{1,2}.csv` hold the exact bytes of `avgcorr sweep
--figure 1|2`; any change to how the sweep computes or renders a row must
keep them.
"""

from pathlib import Path

import pytest

from avgcorr.cli import run

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("figure", [1, 2])
def test_figure_csv_matches_golden_bytes(figure, tmp_path):
    out = tmp_path / f"figure{figure}.csv"
    assert run(["sweep", "--figure", str(figure), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"figure{figure}.csv").read_bytes()
