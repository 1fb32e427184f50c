"""The columnar renderers against the per-row renderers they replaced.

`old_format_sig12`, `old_render_csv` and `old_render_json` are copies of
the renderers that walked the curve row by row (`rows.blocks`); the CSV and
JSON written from the columns must match them byte for byte. With
`format_sig12` as its formatter, `old_render_csv` is the CSV writer that
made one `format_sig12` call per value.
"""

import json
import math
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgcorr import (AMPLITUDE_DAMPING, PHASE_DAMPING, DecayCurve, SweepSpec, decay_curve,
                     figure_dataset)
from avgcorr import cli, float_repr
from avgcorr.cli import CSV_HEADER, format_sig12, render_csv, render_json, run
from avgcorr.correlation import classify
from rows import blocks


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


def old_render_csv(curve, fmt=old_format_sig12) -> str:
    lines = [CSV_HEADER]
    for block in blocks(curve):
        for row in block.rows:
            numbers = (block.gamma, row.t, row.p, row.alpha, row.beta, row.gamma_sv, row.sigma)
            lines.append(",".join([*map(fmt, numbers), row.classification]))
    return "\n".join(lines) + "\n"


def old_render_json(curve) -> str:
    payload = {
        "metadata": curve.metadata,
        "blocks": [
            {"gamma": block.gamma, "rows": [asdict(row) for row in block.rows]}
            for block in blocks(curve)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_format_sig12_matches_old_below_1e12():
    rng = np.random.default_rng(1212)
    values = 10.0 ** rng.uniform(-12.0, 12.0, 10**5) * rng.choice([-1.0, 1.0], 10**5)
    # and every double within 50 ulps of each decade, where rounding carries,
    # the lower switch at 1e-12 included
    for k in range(-12, 12):
        for side in (-np.inf, np.inf):
            x = 10.0**k
            for _ in range(50):
                values = np.append(values, [x, -x])
                x = np.nextafter(x, side)
    values = values[(np.abs(values) >= 1e-12) & (np.abs(values) < 1e12)]
    assert 1e-12 in values and np.nextafter(1e-12, 1.0) in values
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


def test_format_sig12_is_scientific_below_1e_minus_12():
    assert format_sig12(1e-200) == "1.00000000000e-200"
    assert format_sig12(5e-324) == "4.94065645841e-324"
    assert format_sig12(-2.5e-15) == "-2.50000000000e-15"
    assert format_sig12(np.nextafter(1e-12, 0.0)) == "1.00000000000e-12"
    assert format_sig12(1e-12) == old_format_sig12(1e-12) == "0.00000000000100000000000"


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
        )


def test_columnar_renderers_match_per_row_renderers():
    specs = list(random_specs(24, seed=4242))
    assert {s.channel_kind for s in specs} == {PHASE_DAMPING, AMPLITUDE_DAMPING}
    assert {0.0, 1.0} <= {s.c for s in specs}
    for spec in specs:
        curve = decay_curve(spec)
        assert render_csv(curve) == old_render_csv(curve), spec
        assert render_json(curve) == old_render_json(curve), spec


def exact_ties():
    """Doubles exactly on a half-way point of the 12th significant digit,
    both signs: x = m / 2**(d + 1) with m odd makes x * 10**d end in .5, and
    x has 12 - d digits before the point for d = 0 .. 17, which m < 2**53
    can reach (123456789012.5, 12345678901.25, 1234567890.125, ...)."""
    rng = np.random.default_rng(2125)
    named = (123456789012.5, 12345678901.25, 1234567890.125)
    values = []
    for d in range(18):
        lo = Fraction(2 ** (d + 1) * 10**11, 10**d)  # m in [lo, 10 lo)
        odd = {math.ceil(lo) | 1, (math.ceil(10 * lo) - 2) | 1}
        odd |= {int(m) | 1 for m in rng.uniform(float(lo), float(10 * lo), 20)}
        odd |= {int(x * 2 ** (d + 1)) for x in named}
        for m in sorted(m for m in odd if m % 2 and lo <= m < 10 * lo):
            x = m / 2 ** (d + 1)
            assert Fraction(x) * 10**d % 1 == Fraction(1, 2) and 10 ** (11 - d) <= x
            values += [x, -x]
    return np.array(values)


def adversarial_values():
    """Doubles on which a per-column formatter could slip: every double
    within 50 ulps of each decade 1e-12 .. 1e12, both signs; +-0.0; values
    near a half-way point of the 12th significant digit and exactly on one;
    values just below 1e-12 and at or above 1e12."""
    values = [0.0, -0.0]
    for k in range(-12, 13):
        for side in (-np.inf, np.inf):
            x = 10.0**k
            for _ in range(50):
                values += [x, -x]
                x = float(np.nextafter(x, side))
    rng = np.random.default_rng(5125)
    for digits, k in zip(rng.integers(10**11, 10**12, 2000).tolist(),
                         rng.integers(-12, 12, 2000).tolist()):
        x = float(f"{digits}5e{k - 12}")  # d.ddddddddddd5 x 10^k
        values += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, np.inf)), -x]
    tiny = np.nextafter(1e-12, 0.0)
    values += [tiny, -tiny, 9.99e-13, 5e-324, -5e-324, 1e12, -1e12, 1e15, 1e308,
               999999999999.5, 999999999999.4999, np.nextafter(1e12, 0.0)]
    values = np.concatenate([values, exact_ties()])
    assert (np.signbit(values) & (values == 0.0)).any()
    return values


def curve_from_values(values, rates, steps, seed):
    """A DecayCurve whose seven numeric columns are filled from `values`,
    shuffled and cycled over the (rate, time) grid."""
    rng = np.random.default_rng(seed)
    pool = rng.permutation(np.resize(values, max(values.size, rates * (1 + 5 * steps) + steps)))
    gammas, t, rest = pool[:rates], pool[rates:rates + steps], pool[rates + steps:]
    grid = rest[:rates * steps * 5].reshape(rates, steps, 5)
    sigma = grid[..., 4].copy()
    return DecayCurve(gammas=gammas, t=t, p=grid[..., 0].copy(), sv=grid[..., 1:4].copy(),
                      sigma=sigma, labels=classify(sigma), metadata={})


@pytest.mark.parametrize("rates, steps", [(1, 2), (2, 37), (3, 10**4)])
def test_render_csv_matches_per_value_formatter_on_adversarial_columns(rates, steps):
    values = adversarial_values()
    for seed in range(3 if steps < 100 else 1):
        curve = curve_from_values(values, rates, steps, seed)
        assert render_csv(curve) == old_render_csv(curve, format_sig12), (rates, steps, seed)
    if steps > values.size // 5:
        # the big curve holds every value in a numeric cell
        cells = np.concatenate([curve.gammas, curve.t, curve.p.ravel(), curve.sv.ravel(),
                                curve.sigma.ravel()])
        assert np.isin(values, cells).all()


@pytest.mark.parametrize("rates, steps", [(1, 2), (2, 37), (3, 10**4)])
def test_render_json_matches_json_dumps_on_adversarial_columns(rates, steps):
    """render_json writes each distinct row number once; it must key them
    on their bits, since 0.0 and -0.0 are equal but written differently."""
    values = adversarial_values()
    curve = curve_from_values(values, rates, steps, seed=rates)
    assert render_json(curve) == old_render_json(curve), (rates, steps)
    if steps > values.size // 5:
        row_cells = np.concatenate([curve.p.ravel(), curve.sv.ravel(), curve.sigma.ravel()])
        zeros = row_cells[row_cells == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_exact_ties_round_half_to_even():
    ties = exact_ties()
    assert {123456789012.5, 12345678901.25, 1234567890.125} <= set(ties.tolist())
    assert {abs(x) < 1e-5 for x in ties.tolist()} == {True, False}
    for x in ties.tolist():
        assert int(format_sig12(x)[-1]) % 2 == 0, x
    curve = curve_from_values(ties, rates=2, steps=ties.size // 5, seed=7)
    assert render_csv(curve) == old_render_csv(curve, format_sig12)
    cells = np.concatenate([curve.gammas, curve.t, curve.p.ravel(), curve.sv.ravel(),
                            curve.sigma.ravel()])
    assert np.isin(ties, cells).all()


def one_point_curve(gamma, t, p, alpha, beta, gamma_sv, sigma):
    sigma = np.array([[sigma]])
    return DecayCurve(gammas=np.array([gamma]), t=np.array([t]), p=np.array([[p]]),
                      sv=np.array([[[alpha, beta, gamma_sv]]]), sigma=sigma,
                      labels=classify(sigma), metadata={})


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite.map(lambda x: (x,) * 7) | st.tuples(*[finite] * 7))
def test_render_csv_row_of_any_finite_values_matches_format_sig12(values):
    curve = one_point_curve(*values)
    row = ",".join([*map(format_sig12, values), str(curve.labels[0, 0])])
    assert render_csv(curve) == f"{CSV_HEADER}\n{row}\n"


@given(finite.map(lambda x: (x,) * 7) | st.tuples(*[finite] * 7))
def test_render_json_row_of_any_finite_values_matches_json_dumps(values):
    curve = one_point_curve(*values)
    assert render_json(curve) == old_render_json(curve)


def empty_curve(rates, steps):
    sigma = np.zeros((rates, steps))
    return DecayCurve(gammas=np.ones(rates), t=np.ones(steps), p=sigma,
                      sv=np.zeros((rates, steps, 3)), sigma=sigma,
                      labels=classify(sigma), metadata={})


@pytest.mark.parametrize("rates, steps", [(0, 3), (2, 0)])
def test_render_csv_of_an_empty_grid_is_the_header(rates, steps):
    curve = empty_curve(rates, steps)
    assert render_csv(curve) == old_render_csv(curve, format_sig12) == CSV_HEADER + "\n"


@pytest.mark.parametrize("rates, steps", [(0, 3), (2, 0)])
def test_render_json_of_an_empty_grid_is_the_json_dumps_layout(rates, steps):
    curve = empty_curve(rates, steps)
    assert render_json(curve) == old_render_json(curve)


def test_render_csv_sends_few_cells_to_format_sig12(monkeypatch):
    """A fall-back of the CSV writer to the per-value formatter must fail
    here, not only show in the benchmark."""
    calls = []

    def counted(x):
        calls.append(x)
        return format_sig12(x)

    monkeypatch.setattr(cli, "format_sig12", counted)
    sweep = SweepSpec(AMPLITUDE_DAMPING, 0.6, (0.5, 1.0, 2.0), t_max=8.0, steps=400)
    for curve in (figure_dataset(2), decay_curve(sweep)):
        calls.clear()
        render_csv(curve)
        cells = curve.gammas.size + curve.t.size + 5 * curve.p.size
        # the zeros at t = 0 always reach it, so the counter is known to be wired
        assert 0 < len(calls) < 0.01 * cells, (len(calls), cells)


def test_render_json_sends_few_cells_to_repr(monkeypatch):
    """A fall-back of the JSON writer to one repr per value must fail here,
    not only show in the benchmark."""
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(float_repr, "repr", counted, raising=False)
    sweep = SweepSpec(PHASE_DAMPING, 0.6, (0.5, 1.0, 2.0), t_max=8.0, steps=400)
    for curve in (figure_dataset(1), figure_dataset(2), decay_curve(sweep)):
        calls.clear()
        assert render_json(curve) == old_render_json(curve)
        rates, steps = curve.p.shape
        cells = np.concatenate((curve.p[..., None], curve.sv, curve.sigma[..., None]), axis=-1)
        numbers = np.concatenate((curve.gammas, curve.t, cells.ravel()))
        distinct = np.unique(numbers.view(np.int64)).size
        # damped rows repeat their numbers: (p, 1.0, s, s, Sigma) under phase damping
        assert distinct <= 3 * rates * steps + steps + rates
        # 0.0 at t = 0 and the power-of-two rates always reach it, so the
        # counter is known to be wired
        assert 0 < len(calls) < 0.01 * distinct, (len(calls), distinct)


@pytest.mark.parametrize("common", [0.0, 1.0])
def test_render_json_keeps_signed_zeros_apart_from_beta(common):
    """alpha and gamma_sv repeat beta except for the sign at zero, and
    alpha holds one bit pattern except for one -0.0 row: a rule that
    compared values rather than bits would merge their texts."""
    beta = np.array([[0.0, -0.0, 0.3, 0.0, 0.5], [-0.0, 0.5, 0.0, 0.7, -0.0]])
    gamma_sv = np.where(beta == 0.0, -beta, beta)
    alpha = np.full_like(beta, common)
    alpha[1, 2] = -0.0  # beside beta's 0.0
    # gamma_sv's bits differ from beta's at the zeros, both ways, and only there
    assert np.array_equal(gamma_sv.view(np.int64) != beta.view(np.int64), beta == 0.0)
    assert np.signbit(gamma_sv[beta == 0.0]).sum() == 3  # of six
    sigma = np.where(beta == 0.0, -beta, 0.25)
    curve = DecayCurve(gammas=np.array([0.0, -0.0]), t=np.array([-0.0, 0.0, 1.0, 2.0, 3.0]),
                       p=-beta, sv=np.stack((alpha, beta, gamma_sv), axis=-1), sigma=sigma,
                       labels=classify(sigma), metadata={})
    assert render_json(curve) == old_render_json(curve)


@pytest.mark.parametrize("kind, per_row", [(PHASE_DAMPING, 3), (AMPLITUDE_DAMPING, 4)])
def test_render_json_writes_a_damped_row_s_repeats_once(kind, per_row, monkeypatch):
    """Under phase damping a row is (p, 1.0, s, s, Sigma) and under
    amplitude damping alpha or gamma_sv is beta, so `repr_bytes` gets at
    most per_row numbers a row, plus the times, the rates and one for a
    column of one bit pattern. A return to five a row must fail here, not
    only show in the benchmark."""
    sizes = []
    repr_bytes = float_repr.repr_bytes

    def counted(x):
        sizes.append(x.size)
        return repr_bytes(x)

    # render_json imports repr_bytes from float_repr on each call
    monkeypatch.setattr(float_repr, "repr_bytes", counted)
    rng = np.random.default_rng(3400 + per_row)
    sweep = SweepSpec(kind, float(rng.uniform()), tuple(rng.uniform(0.1, 3.0, 3).tolist()),
                      t_max=8.0, steps=400)
    figure = {PHASE_DAMPING: 1, AMPLITUDE_DAMPING: 2}[kind]
    for curve in (figure_dataset(figure), decay_curve(sweep)):
        sizes.clear()
        assert render_json(curve) == old_render_json(curve)
        rates, steps = curve.p.shape
        assert len(sizes) == 1
        assert sizes[0] <= per_row * rates * steps + steps + rates + 1, (kind, rates, steps)


def render_json_peak(curve) -> int:
    render_json(curve)  # numpy's first-call set-up is not the renderer's
    tracemalloc.start()
    try:
        render_json(curve)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_json_allocation_peak_stays_below_1mb():
    """The per-value writer it replaced peaked at about 0.93 MB here, for
    337 kB of output; the byte matrices must not cost more."""
    curve = decay_curve(SweepSpec(PHASE_DAMPING, 0.6, (0.5, 1.0, 2.0), t_max=8.0, steps=400))
    assert render_json_peak(curve) <= 1_000_000


def repr_texts(x) -> list[str]:
    cells, extents = float_repr.repr_bytes(np.asarray(x, dtype=float))
    texts = [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]
    # each extent ends at the cell's last non-NUL byte
    assert all(cell[extent - 1] and not cell[extent:].any()
               for cell, extent in zip(cells, extents.tolist()))
    return texts


def repr_adversarial_values() -> np.ndarray:
    """Doubles on which a shortest-repr kernel could slip, both signs: every
    power of two; every double within 50 ulps of 10**k for k = -300 .. 300,
    the layout edges 1e-4 and 1e16 among them; the 2**53 region, where the
    half-ulp bounds are integers; decimals of 1 to 17 digits read back;
    subnormals; the largest double and 0.0."""
    values = [np.ldexp(1.0, np.arange(-1074, 1024))]
    for k in range(-300, 301):
        x = float(f"1e{k}")
        values.append(x + np.arange(-50, 51) * np.spacing(x))
        values.append(np.nextafter(x, 0.0) - np.arange(50) * np.spacing(np.nextafter(x, 0.0)))
    values.append(np.arange(-2000, 2000) + 2.0**53)
    values.append(np.arange(-2000, 2000) / 2 + 2.0**52)
    rng = np.random.default_rng(1753)
    digits = rng.integers(1, 18, 20000)
    mantissas = [int(rng.integers(10 ** (d - 1), 10**d)) for d in digits.tolist()]
    values.append([float(f"{m}e{k}") for m, k in zip(mantissas, rng.integers(-330, 300, 20000))])
    values.append(rng.integers(1, 2**52, 2000, dtype=np.int64).view(np.float64))  # subnormals
    values.append([5e-324, 2.0**-1022, np.nextafter(2.0**-1022, 0.0), 1.7976931348623157e308, 0.0])
    values = np.concatenate(values)
    values = values[np.isfinite(values)]
    return np.concatenate((values, -values))


def test_repr_bytes_matches_float_repr_on_adversarial_values():
    values = repr_adversarial_values()
    assert {1e-4, 1e16, 2.0**53, 5e-324, -0.0} <= set(values.tolist())
    bad = [(x, text) for x, text in zip(values.tolist(), repr_texts(values)) if text != repr(x)]
    assert not bad, f"{len(bad)} values differ, first {bad[0]!r}"


@pytest.mark.parametrize("rates, steps", [(1, 7), (3, 10**4)])
def test_render_json_matches_json_dumps_on_repr_adversarial_columns(rates, steps):
    curve = curve_from_values(repr_adversarial_values(), rates, steps, seed=steps)
    assert render_json(curve) == old_render_json(curve), (rates, steps)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_repr_bytes_matches_float_repr_on_any_finite_bits(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert repr_texts(values) == list(map(repr, values.tolist()))


@pytest.mark.parametrize("column, bad", [
    ("alpha", math.nan), ("sigma", math.nan),
    ("alpha", math.inf), ("sigma", -math.inf),
])
def test_one_non_finite_cell_exits_1_with_one_line(column, bad, monkeypatch, capsys):
    def spoiled_curve(spec, **kwargs):
        curve = decay_curve(spec, **kwargs)
        sv, sigma = curve.sv.copy(), curve.sigma.copy()
        if column == "alpha":
            sv[1, 3, 0] = bad
        else:
            sigma[1, 3] = bad
        return replace(curve, sv=sv, sigma=sigma)

    monkeypatch.setattr(cli, "decay_curve", spoiled_curve)
    argv = ["sweep", "--channel", "amplitude", "--gammas", "0.5,1.0", "--steps", "7"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_blocks_view_matches_columns():
    spec = SweepSpec(AMPLITUDE_DAMPING, 0.6, (0.5, 2), t_max=3.0, steps=7)
    curve = decay_curve(spec)
    for column in (curve.gammas, curve.t, curve.p, curve.sv, curve.sigma, curve.labels):
        with pytest.raises(ValueError):
            column[0] = column[-1]  # the columns are read-only
    curve_blocks = blocks(curve)
    assert [block.gamma for block in curve_blocks] == [0.5, 2.0]
    for bi, block in enumerate(curve_blocks):
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
