import numpy as np
import pytest

from avgcorr import (
    AMPLITUDE_DAMPING,
    NONCLASSICAL_MIN,
    PHASE_DAMPING,
    SweepSpec,
    apply_both,
    classify,
    correlation_matrix,
    decay_curve,
    figure_dataset,
    make_channel,
    make_pure_state,
    p_of_t,
    sigma_closed_pure,
    sigma_monte_carlo,
    sigma_quadrature,
    singular_values,
)
from avgcorr.correlation import DEGENERATE_PAIR_TOL

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
        dict(channel_kind=PHASE_DAMPING, c=0.5, gammas=(1.0,), t_max=1.0, steps=5,
             method="bogus"),
    ],
)
def test_sweep_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


def test_phase_decay_shape():
    spec = SweepSpec(PHASE_DAMPING, INV_SQRT2, (1.0,), t_max=8.0, steps=81)
    (block,) = decay_curve(spec).blocks
    sigmas = [r.sigma for r in block.rows]
    assert abs(sigmas[0] - 0.5) < 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    assert all(s >= 0.25 - 1e-9 for s in sigmas)


def test_phase_decay_zero_rate_is_flat():
    spec = SweepSpec(PHASE_DAMPING, INV_SQRT2, (0.0,), t_max=8.0, steps=21)
    (block,) = decay_curve(spec).blocks
    assert all(abs(r.sigma - 0.5) < 1e-12 for r in block.rows)
    assert all(r.p == 0.0 for r in block.rows)


def test_rows_match_damped_singular_forms():
    # the pipeline triple must reproduce the closed-form damped magnitudes
    for kind in (PHASE_DAMPING, AMPLITUDE_DAMPING):
        spec = SweepSpec(kind, 0.6, (1.3,), t_max=4.0, steps=17)
        (block,) = decay_curve(spec).blocks
        for row in block.rows:
            shrunk = 2 * 0.6 * np.sqrt(1 - 0.36) * (1 - row.p)
            third = 1.0 if kind == PHASE_DAMPING else abs(1 - 2 * row.p)
            expected = sorted([shrunk, shrunk, third], reverse=True)
            got = [row.alpha, row.beta, row.gamma_sv]
            assert np.max(np.abs(np.array(got) - expected)) < 1e-10


def test_grid_structure():
    spec = SweepSpec(PHASE_DAMPING, 0.5, (0.5, 2.0), t_max=3.0, steps=7)
    curve = decay_curve(spec)
    assert [b.gamma for b in curve.blocks] == [0.5, 2.0]
    for block in curve.blocks:
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
    (block,) = decay_curve(spec).blocks
    sigmas = np.array([r.sigma for r in block.rows])
    assert sigmas.min() < 0.25
    assert abs(sigmas[-1] - 0.25) < 0.02
    # Monte Carlo confirmation at the minimizing grid point
    row = block.rows[int(sigmas.argmin())]
    k = np.diag([-row.alpha, -row.beta, row.gamma_sv])  # signs do not matter
    mc = sigma_monte_carlo(k, 10**6, seed=55)
    assert abs(row.sigma - mc.value) <= 4 * mc.error_bound


def test_figure1_starts_at_half_and_orders_by_rate(figure1):
    for block in figure1.blocks:
        assert len(block.rows) == 201
        assert abs(block.rows[0].sigma - 0.5) < 1e-12
    for slow, fast in zip(figure1.blocks, figure1.blocks[1:]):
        assert fast.gamma > slow.gamma
        for r_slow, r_fast in zip(slow.rows[1:], fast.rows[1:]):
            assert r_fast.sigma <= r_slow.sigma + 1e-12


def test_figure2_crosses_threshold(figure2):
    for block in figure2.blocks:
        assert min(r.sigma for r in block.rows) < 0.25
        assert abs(block.rows[0].sigma - 0.5) < 1e-12


def test_figure2_classification_transitions(figure2):
    for block in figure2.blocks:
        ranks = [LABEL_RANK[r.classification] for r in block.rows]
        assert ranks[0] == 2
        assert ranks[-1] == 0
        assert all(b <= a for a, b in zip(ranks, ranks[1:]))
        assert set(ranks) == {0, 1, 2}


def test_figure_rows_recomputable_by_monte_carlo(figure2):
    block = figure2.blocks[1]
    for idx in (20, 120):
        row = block.rows[idx]
        k = np.diag([row.alpha, row.beta, row.gamma_sv])
        mc = sigma_monte_carlo(k, 10**6, seed=idx)
        assert abs(row.sigma - mc.value) <= 4 * mc.error_bound


def test_monte_carlo_sweep_method():
    spec = SweepSpec(AMPLITUDE_DAMPING, INV_SQRT2, (1.0,), t_max=2.0, steps=4,
                     method="monte_carlo")
    curve = decay_curve(spec, n_samples=10**5, seed=5)
    reference = decay_curve(SweepSpec(AMPLITUDE_DAMPING, INV_SQRT2, (1.0,),
                                      t_max=2.0, steps=4))
    for mc_row, q_row in zip(curve.blocks[0].rows, reference.blocks[0].rows):
        assert abs(mc_row.sigma - q_row.sigma) < 6e-3  # ~4 standard errors at 1e5
    again = decay_curve(spec, n_samples=10**5, seed=5)
    assert [r.sigma for r in again.blocks[0].rows] == [
        r.sigma for r in curve.blocks[0].rows
    ]


def test_closed_form_sweep_falls_back_when_not_degenerate():
    # amplitude damping leaves distinct smaller singular values, so the
    # closed-form method must quietly route those points through quadrature
    for kind in (PHASE_DAMPING, AMPLITUDE_DAMPING):
        closed = decay_curve(SweepSpec(kind, INV_SQRT2, (1.0,), t_max=4.0,
                                       steps=9, method="closed_form"))
        quad = decay_curve(SweepSpec(kind, INV_SQRT2, (1.0,), t_max=4.0, steps=9))
        for c_row, q_row in zip(closed.blocks[0].rows, quad.blocks[0].rows):
            assert abs(c_row.sigma - q_row.sigma) < 1e-9


def test_metadata_records_reproducibility_inputs(figure1):
    md = figure1.metadata
    assert md["method"] == "quadrature"
    assert md["seed"] == 42
    assert md["quadrature_nodes"] == 512
    assert "PCG64" in md["rng"]
    assert md["gammas"] == [0.5, 1.0, 2.0]


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


def per_point_rows(spec, n_samples, seed):
    """The sweep rows computed point by point through the Kraus form:
    apply_both -> correlation_matrix -> singular_values -> estimator."""
    rho0 = make_pure_state(spec.c)
    for bi, gamma in enumerate(spec.gammas):
        for ti, t in enumerate(np.linspace(0.0, spec.t_max, spec.steps)):
            p = p_of_t(gamma, t)
            k = correlation_matrix(apply_both(rho0, make_channel(spec.channel_kind, p)))
            s = singular_values(k)
            if spec.method == "monte_carlo":
                est = sigma_monte_carlo(
                    k, n_samples, np.random.SeedSequence(seed, spawn_key=(bi, ti))
                )
            elif (spec.method == "closed_form"
                  and abs(s.beta - s.gamma_sv) <= DEGENERATE_PAIR_TOL):
                est = sigma_closed_pure(s.alpha, s.beta)
            else:
                est = sigma_quadrature(s)
            yield gamma, (t, p, s.alpha, s.beta, s.gamma_sv, est.value), classify(est)


def test_batched_sweep_matches_per_point_kraus_pipeline():
    rng = np.random.default_rng(20240316)
    methods = ("quadrature", "closed_form", "monte_carlo")
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
            method=methods[(i // 2) % 3],
        )
        seed = int(rng.integers(0, 2**31))
        curve = decay_curve(spec, n_samples=10**4, seed=seed)
        got = [(block.gamma, row) for block in curve.blocks for row in block.rows]
        want = list(per_point_rows(spec, 10**4, seed))
        assert len(got) == len(want)
        for (gamma, row), (ref_gamma, numbers, label) in zip(got, want):
            assert gamma == ref_gamma
            values = (row.t, row.p, row.alpha, row.beta, row.gamma_sv, row.sigma)
            assert np.max(np.abs(np.subtract(values, numbers))) <= 1e-15, (spec, row)
            sigma = numbers[-1]
            near = min(abs(sigma - 0.25), abs(sigma - NONCLASSICAL_MIN)) <= 1e-12
            assert row.classification == label or near, (spec, row)
