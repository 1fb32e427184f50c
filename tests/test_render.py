"""The columnar renderers against the per-row renderers they replaced.

`old_format_sig12`, `old_render_csv` and `old_render_json` are copies of
the renderers that walked `DecayCurve.blocks` row by row; the CSV and JSON
written from the columns must match them byte for byte.
"""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from avgcorr import AMPLITUDE_DAMPING, PHASE_DAMPING, SweepSpec, decay_curve
from avgcorr import cli
from avgcorr.cli import CSV_HEADER, format_sig12, render_csv, render_json, run


def old_format_sig12(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    exponent = math.floor(math.log10(abs(x)))
    for _ in range(2):
        decimals = max(11 - exponent, 0)
        out = f"{x:.{decimals}f}"
        rounded = float(out)
        if rounded != 0.0 and math.floor(math.log10(abs(rounded))) != exponent:
            exponent += 1
            continue
        return out
    return out


def old_render_csv(curve) -> str:
    lines = [CSV_HEADER]
    for block in curve.blocks:
        for row in block.rows:
            numbers = (block.gamma, row.t, row.p, row.alpha, row.beta, row.gamma_sv, row.sigma)
            lines.append(",".join([*map(old_format_sig12, numbers), row.classification]))
    return "\n".join(lines) + "\n"


def old_render_json(curve) -> str:
    payload = {
        "metadata": curve.metadata,
        "blocks": [
            {"gamma": block.gamma, "rows": [asdict(row) for row in block.rows]}
            for block in curve.blocks
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_format_sig12_matches_old_below_1e12():
    rng = np.random.default_rng(1212)
    values = 10.0 ** rng.uniform(-12.0, 12.0, 10**5) * rng.choice([-1.0, 1.0], 10**5)
    # and every double within 50 ulps of each decade, where rounding carries
    for k in range(-12, 12):
        for side in (-np.inf, np.inf):
            x = 10.0**k
            for _ in range(50):
                values = np.append(values, [x, -x])
                x = np.nextafter(x, side)
    values = values[(np.abs(values) >= 1e-12) & (np.abs(values) < 1e12)]
    bad = [x for x in values.tolist() if format_sig12(x) != old_format_sig12(x)]
    assert not bad, f"{len(bad)} values differ, first {bad[0]!r}"


def test_format_sig12_is_scientific_from_1e12():
    assert format_sig12(1e308) == "1.00000000000e+308"
    assert format_sig12(1e12) == "1.00000000000e+12"
    assert format_sig12(-2.5e15) == "-2.50000000000e+15"
    assert format_sig12(999999999999.0) == old_format_sig12(999999999999.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_sig12(bad)


def random_specs(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        c = (0.0, 1.0)[i] if i < 2 else float(rng.uniform())
        yield SweepSpec(
            channel_kind=(PHASE_DAMPING, AMPLITUDE_DAMPING)[i % 2],
            c=c,
            gammas=tuple(float(g) for g in rng.uniform(0.0, 3.0, rng.integers(1, 4))),
            t_max=float(rng.uniform(0.1, 10.0)),
            steps=int(rng.integers(2, 61)),
            method=("closed_form", "quadrature")[(i // 2) % 2],
        )


def test_columnar_renderers_match_per_row_renderers():
    specs = list(random_specs(24, seed=4242))
    assert {(s.channel_kind, s.method) for s in specs} == {
        (kind, method) for kind in (PHASE_DAMPING, AMPLITUDE_DAMPING)
        for method in ("closed_form", "quadrature")
    }
    assert {0.0, 1.0} <= {s.c for s in specs}
    for spec in specs:
        curve = decay_curve(spec)
        assert render_csv(curve) == old_render_csv(curve), spec
        assert render_json(curve) == old_render_json(curve), spec


def test_blocks_view_matches_columns():
    spec = SweepSpec(AMPLITUDE_DAMPING, 0.6, (0.5, 2), t_max=3.0, steps=7)
    curve = decay_curve(spec)
    assert curve.blocks is curve.blocks  # built once, on first read
    with pytest.raises(ValueError):
        curve.sigma[0, 0] = 0.0  # so the view cannot go stale
    assert [block.gamma for block in curve.blocks] == [0.5, 2.0]
    for bi, block in enumerate(curve.blocks):
        assert [row.t for row in block.rows] == curve.t.tolist()
        assert [row.p for row in block.rows] == curve.p[bi].tolist()
        assert [[row.alpha, row.beta, row.gamma_sv] for row in block.rows] == (
            curve.sv[bi].tolist()
        )
        assert [row.sigma for row in block.rows] == curve.sigma[bi].tolist()
        assert [row.classification for row in block.rows] == curve.labels[bi].tolist()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_curve_exits_1_with_one_line(fmt, monkeypatch, capsys):
    def nan_curve(spec, **kwargs):
        curve = decay_curve(spec, **kwargs)
        return replace(curve, sigma=np.full_like(curve.sigma, np.nan))

    monkeypatch.setattr(cli, "decay_curve", nan_curve)
    argv = ["sweep", "--channel", "phase", "--gammas", "1.0", "--steps", "3"]
    assert run([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
