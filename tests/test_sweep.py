import numpy as np
import pytest

from avgcorr import (
    AMPLITUDE_DAMPING,
    NONCLASSICAL_MIN,
    PHASE_DAMPING,
    SweepSpec,
    classify,
    correlation_matrix,
    damped_sigma,
    decay_curve,
    figure_dataset,
    make_pure_state,
    p_of_t,
    sigma_for_state,
)
from avgcorr.cli import write_output
from avgcorr.correlation import RG_REL_ERROR_BOUND, sigma_monte_carlo_batch
from avgcorr.states import RuleError
from kraus import apply_both, make_channel
from oracles import singular_values
from rows import blocks

INV_SQRT2 = 1 / np.sqrt(2)

LABEL_RANK = {"nonclassical": 2, "indeterminate": 1, "classical_compatible": 0}


@pytest.fixture(scope="module")
def figure1():
    return figure_dataset(1)


@pytest.fixture(scope="module")
def figure2():
    return figure_dataset(2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(channel_kind="bogus", c=0.5, gammas=(1.0,), t_max=1.0, steps=5),
        dict(channel_kind=PHASE_DAMPING, c=1.5, gammas=(1.0,), t_max=1.0, steps=5),
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(), t_max=1.0, steps=5),
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(-1.0,), t_max=1.0, steps=5),
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(1.0,), t_max=0.0, steps=5),
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(1.0,), t_max=1.0, steps=1),
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(1.0,), t_max=1.0, steps=3.5),
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


@pytest.mark.parametrize("steps, message", [
    (1, "steps must be >= 2, got 1"),
    (-3, "steps must be >= 2, got -3"),
    (3.5, "steps must be an integer, got 3.5"),
    ("3", "steps must be an integer, got '3'"),
], ids=["one", "negative", "float", "string"])
def test_sweep_spec_names_a_bad_step_count(steps, message):
    with pytest.raises(RuleError) as info:
        SweepSpec(PHASE_DAMPING, steps=steps)
    assert str(info.value) == message
    # the rule's one owner called the count checker
    assert [entry.name for entry in info.traceback[-2:]] == ["__post_init__", "check_count"]


# The damping API and sigma_for_state run one exact method: a method,
# sample count or seed, by keyword or in the place it once had, is a
# TypeError, never a silent default
SMALL = SweepSpec(PHASE_DAMPING, steps=3)
REMOVED_PARAMETERS = {
    "damped_sigma-method": lambda: damped_sigma(PHASE_DAMPING, 0.6, 0.3, method="exact"),
    "damped_sigma-n_samples": lambda: damped_sigma(PHASE_DAMPING, 0.6, 0.3, n_samples=100),
    "damped_sigma-seed": lambda: damped_sigma(PHASE_DAMPING, 0.6, 0.3, seed=42),
    "damped_sigma-positional": lambda: damped_sigma(PHASE_DAMPING, 0.6, 0.3, "exact"),
    "sigma_for_state-method": lambda: sigma_for_state(make_pure_state(0.6), method="exact"),
    "sigma_for_state-n_samples": lambda: sigma_for_state(make_pure_state(0.6), n_samples=100),
    "sigma_for_state-seed": lambda: sigma_for_state(make_pure_state(0.6), seed=42),
    "sigma_for_state-positional": lambda: sigma_for_state(make_pure_state(0.6), "exact"),
    "decay_curve-n_samples": lambda: decay_curve(SMALL, n_samples=100),
    "decay_curve-seed": lambda: decay_curve(SMALL, seed=42),
    "decay_curve-positional": lambda: decay_curve(SMALL, 100),
    "figure_dataset-seed": lambda: figure_dataset(1, seed=42),
    "figure_dataset-positional": lambda: figure_dataset(1, 42),
    "SweepSpec-method": lambda: SweepSpec(PHASE_DAMPING, method="exact"),
    "SweepSpec-positional": lambda: SweepSpec(PHASE_DAMPING, 0.5, (1.0,), 1.0, 5, "exact"),
}


@pytest.mark.parametrize("case", sorted(REMOVED_PARAMETERS))
def test_the_exact_api_takes_no_method_samples_or_seed(case):
    name = case.split("-")[1]
    message = "positional argument" if name == "positional" else f"keyword argument '{name}'"
    with pytest.raises(TypeError, match=message):
        REMOVED_PARAMETERS[case]()


def test_numpy_typed_spec_writes_the_json_of_its_plain_twin(capsys):
    typed = SweepSpec(PHASE_DAMPING, c=np.float32(0.6),
                      gammas=np.array([0.5, 1.0], dtype=np.float32),
                      t_max=np.float32(3.5), steps=np.int64(3))
    plain = SweepSpec(PHASE_DAMPING, c=float(np.float32(0.6)), gammas=(0.5, 1.0),
                      t_max=3.5, steps=3)
    assert typed == plain
    assert [type(v) for v in (typed.c, typed.gammas, typed.t_max, typed.steps)] == [
        float, tuple, float, int]
    texts = []
    for spec in (typed, plain):
        write_output(decay_curve(spec), fmt="json")
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_phase_decay_shape():
    spec = SweepSpec(PHASE_DAMPING, INV_SQRT2, (1.0,), t_max=8.0, steps=81)
    (block,) = blocks(decay_curve(spec))
    sigmas = [r.sigma for r in block.rows]
    assert abs(sigmas[0] - 0.5) < 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    assert all(s >= 0.25 - 1e-9 for s in sigmas)


def test_phase_decay_zero_rate_is_flat():
    spec = SweepSpec(PHASE_DAMPING, INV_SQRT2, (0.0,), t_max=8.0, steps=21)
    (block,) = blocks(decay_curve(spec))
    assert all(abs(r.sigma - 0.5) < 1e-12 for r in block.rows)
    assert all(r.p == 0.0 for r in block.rows)


def test_rows_match_damped_singular_forms():
    # the pipeline triple must reproduce the closed-form damped magnitudes
    for kind in (PHASE_DAMPING, AMPLITUDE_DAMPING):
        spec = SweepSpec(kind, 0.6, (1.3,), t_max=4.0, steps=17)
        (block,) = blocks(decay_curve(spec))
        for row in block.rows:
            shrunk = 2 * 0.6 * np.sqrt(1 - 0.36) * (1 - row.p)
            third = 1.0 if kind == PHASE_DAMPING else abs(1 - 2 * row.p)
            expected = sorted([shrunk, shrunk, third], reverse=True)
            got = [row.alpha, row.beta, row.gamma_sv]
            assert np.max(np.abs(np.array(got) - expected)) < 1e-10


def test_grid_structure():
    spec = SweepSpec(PHASE_DAMPING, 0.5, (0.5, 2.0), t_max=3.0, steps=7)
    curve = decay_curve(spec)
    assert [b.gamma for b in blocks(curve)] == [0.5, 2.0]
    for block in blocks(curve):
        ts = [r.t for r in block.rows]
        ps = [r.p for r in block.rows]
        assert len(ts) == 7
        assert ts[0] == 0.0 and ts[-1] == 3.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert all(p == p_of_t(block.gamma, t) for t, p in zip(ts, ps))
        assert all(0.0 <= r.sigma <= 0.5 + 1e-12 for r in block.rows)


def test_amplitude_decay_dips_below_quarter():
    spec = SweepSpec(AMPLITUDE_DAMPING, INV_SQRT2, (1.0,), t_max=8.0, steps=201)
    (block,) = blocks(decay_curve(spec))
    sigmas = np.array([r.sigma for r in block.rows])
    assert sigmas.min() < 0.25
    assert abs(sigmas[-1] - 0.25) < 0.02
    # Monte Carlo confirmation at the minimizing grid point
    row = block.rows[int(sigmas.argmin())]
    k = np.diag([-row.alpha, -row.beta, row.gamma_sv])  # signs do not matter
    mc, stderr = sigma_monte_carlo_batch(k, 10**6, seed=55)
    assert abs(row.sigma - mc) <= 4 * stderr


def test_figure1_starts_at_half_and_orders_by_rate(figure1):
    figure_blocks = blocks(figure1)
    for block in figure_blocks:
        assert len(block.rows) == 201
        assert abs(block.rows[0].sigma - 0.5) < 1e-12
    for slow, fast in zip(figure_blocks, figure_blocks[1:]):
        assert fast.gamma > slow.gamma
        for r_slow, r_fast in zip(slow.rows[1:], fast.rows[1:]):
            assert r_fast.sigma <= r_slow.sigma + 1e-12


def test_figure2_crosses_threshold(figure2):
    for block in blocks(figure2):
        assert min(r.sigma for r in block.rows) < 0.25
        assert abs(block.rows[0].sigma - 0.5) < 1e-12


def test_figure2_classification_transitions(figure2):
    for block in blocks(figure2):
        ranks = [LABEL_RANK[r.classification] for r in block.rows]
        assert ranks[0] == 2
        assert ranks[-1] == 0
        assert all(b <= a for a, b in zip(ranks, ranks[1:]))
        assert set(ranks) == {0, 1, 2}


def test_figure_rows_recomputable_by_monte_carlo(figure2):
    block = blocks(figure2)[1]
    for idx in (20, 120):
        row = block.rows[idx]
        k = np.diag([row.alpha, row.beta, row.gamma_sv])
        mc, stderr = sigma_monte_carlo_batch(k, 10**6, seed=idx)
        assert abs(row.sigma - mc) <= 4 * stderr


@pytest.mark.xfail(strict=True, reason="ROADMAP open item 2: a late phase-damped Sigma "
                   "rounds to 0.25 while its exact value lies above 1/4")
def test_no_phase_damped_row_with_beta_above_zero_is_classical():
    # under phase damping Sigma - 1/4 = s^2 R_C(1, s^2) / 4 > 0 for every
    # s = beta > 0; the rounded Sigma reads exactly 0.25 from t = 4 on here
    curve = decay_curve(SweepSpec(PHASE_DAMPING, gammas=(5.0,)))
    damped = curve.sv[..., 1] > 0.0
    assert not (curve.labels[damped] == "classical_compatible").any()


def test_metadata_records_reproducibility_inputs(figure1):
    md = figure1.metadata
    assert list(md) == ["channel", "c", "gammas", "t_max", "steps", "estimator",
                        "rel_error_bound"]
    assert md["estimator"] == "carlson_rc"
    assert md["rel_error_bound"] == RG_REL_ERROR_BOUND
    assert md["gammas"] == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("figure, kind", [(1, PHASE_DAMPING), (2, AMPLITUDE_DAMPING)])
def test_figure_dataset_is_the_default_spec(figure, kind):
    spec = SweepSpec(kind)
    assert (spec.c, spec.gammas, spec.t_max, spec.steps) == (INV_SQRT2, (0.5, 1.0, 2.0), 8.0, 201)
    canned, plain = figure_dataset(figure), decay_curve(spec)
    assert canned.metadata == plain.metadata
    for name in ("gammas", "t", "p", "sv", "sigma", "labels"):
        np.testing.assert_array_equal(getattr(canned, name), getattr(plain, name))


def test_figure_dataset_rejects_unknown_figure():
    with pytest.raises(ValueError):
        figure_dataset(3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c=np.nan),
        dict(gammas=(1.0, np.nan)),
        dict(gammas=(np.inf,)),
        dict(t_max=np.inf),
        dict(t_max=np.nan),
    ],
)
def test_sweep_spec_rejects_non_finite(kwargs):
    spec = dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(1.0,), t_max=1.0, steps=5)
    with pytest.raises(ValueError):
        SweepSpec(**{**spec, **kwargs})


def per_point_rows(spec):
    """The sweep rows computed point by point through the Kraus form:
    apply_both -> correlation_matrix -> singular_values, and R_G on that one
    state by `sigma_for_state`."""
    rho0 = make_pure_state(spec.c)
    for gamma in spec.gammas:
        for t in np.linspace(0.0, spec.t_max, spec.steps):
            p = p_of_t(gamma, t)
            rho = apply_both(rho0, make_channel(spec.channel_kind, p))
            s = singular_values(correlation_matrix(rho))
            value, _ = sigma_for_state(rho)
            yield gamma, (t, p, s.alpha, s.beta, s.gamma_sv, float(value)), classify(value)


def test_batched_sweep_matches_per_point_kraus_pipeline():
    rng = np.random.default_rng(20240316)
    for i in range(24):
        gammas = tuple(float(g) for g in rng.uniform(0.0, 3.0, rng.integers(1, 4)))
        if i % 4 == 0:
            gammas += (0.0, 50.0)  # p stays 0, and p reaches 1
        spec = SweepSpec(
            channel_kind=(PHASE_DAMPING, AMPLITUDE_DAMPING)[i % 2],
            c=float(rng.choice([0.0, 1.0, INV_SQRT2, rng.uniform()])),
            gammas=gammas,
            t_max=float(rng.uniform(0.1, 10.0)),
            steps=int(rng.integers(2, 13)),
        )
        curve = decay_curve(spec)
        got = [(block.gamma, row) for block in blocks(curve) for row in block.rows]
        want = list(per_point_rows(spec))
        assert len(got) == len(want)
        for (gamma, row), (ref_gamma, numbers, label) in zip(got, want):
            assert gamma == ref_gamma
            values = (row.t, row.p, row.alpha, row.beta, row.gamma_sv, row.sigma)
            assert np.max(np.abs(np.subtract(values, numbers))) <= 1e-15, (spec, row)
            sigma = numbers[-1]
            near = min(abs(sigma - 0.25), abs(sigma - NONCLASSICAL_MIN)) <= 1e-12
            assert row.classification == label or near, (spec, row)


def labeled_points(source):
    """(kind, c, p, sv, labels) of every point of a figure's sweep or of a
    21 x 21 grid of (c, p) in [0, 1]^2, c and p at each point's shape."""
    if source.startswith("figure"):
        curve = figure_dataset(int(source[-1]))
        kind, c = curve.metadata["channel"], curve.metadata["c"]
        return kind, np.full(curve.p.shape, c), curve.p, curve.sv, curve.labels
    kind = {"phase_grid": PHASE_DAMPING, "amplitude_grid": AMPLITUDE_DAMPING}[source]
    c, p = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 21), indexing="ij")
    sv, sigma = damped_sigma(kind, c, p)
    return kind, c, p, sv, classify(sigma)


CERTIFIED_SOURCES = ["figure1", "figure2", "phase_grid", "amplitude_grid"]


@pytest.mark.parametrize("source", CERTIFIED_SOURCES)
def test_labels_above_one_quarter_certify_entanglement(source):
    # every separable state has Sigma <= 1/4, so a label above it names an
    # entangled state: its partial transpose, from the Kraus pipeline, has
    # a negative eigenvalue (Peres)
    kind, c, p, _, labels = labeled_points(source)
    above = labels != "classical_compatible"
    assert above.any()
    for ci, pi in zip(c[above], p[above]):
        rho = apply_both(make_pure_state(ci), make_channel(kind, pi))
        partial = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.linalg.eigvalsh(partial)[0] < 0.0, (ci, pi)


@pytest.mark.parametrize("source", CERTIFIED_SOURCES)
def test_nonclassical_labels_certify_a_chsh_violation(source):
    # Sigma > 1/(2 sqrt 2) needs M > 1, M the sum of K's two largest squared
    # singular values: the state violates CHSH (Horodecki)
    _, _, _, sv, labels = labeled_points(source)
    nonclassical = labels == "nonclassical"
    assert nonclassical.any()
    assert (sv[nonclassical, 0] ** 2 + sv[nonclassical, 1] ** 2 > 1.0).all()

