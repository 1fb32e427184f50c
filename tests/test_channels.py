import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgcorr import (
    DampingSchedule,
    amplitude_damping,
    apply_both,
    apply_local_channel,
    completeness_residual,
    make_channel,
    make_pure_state,
    p_of_t,
    pauli_transfer,
    phase_damping,
    random_density,
    t_matrix,
    validate_density,
)

prob = st.floats(min_value=0.0, max_value=1.0)


def phase_damped_matrix(c, p):
    """Damped state written out directly from the known closed form."""
    s = np.sqrt(1 - c * c)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = c * c
    rho[2, 2] = 1 - c * c
    rho[1, 2] = rho[2, 1] = -c * s * (1 - p)
    return rho


def amplitude_damped_matrix(c, p):
    s = np.sqrt(1 - c * c)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = p
    rho[1, 1] = c * c * (1 - p)
    rho[2, 2] = (1 - c * c) * (1 - p)
    rho[1, 2] = rho[2, 1] = -c * s * (1 - p)
    return rho


def test_phase_damping_kraus_forms():
    ch = phase_damping(0.36)
    assert np.allclose(ch.operators[0], np.diag([1.0, 0.8]))
    assert np.allclose(ch.operators[1], np.diag([0.0, 0.6]))
    full = phase_damping(1.0)
    assert np.allclose(full.operators[0], np.diag([1.0, 0.0]))
    assert np.allclose(full.operators[1], np.diag([0.0, 1.0]))
    none = phase_damping(0.0)
    assert np.allclose(none.operators[0], np.eye(2))
    assert np.allclose(none.operators[1], np.zeros((2, 2)))


def test_amplitude_damping_kraus_forms():
    ch = amplitude_damping(0.36)
    assert np.allclose(ch.operators[0], np.diag([1.0, 0.8]))
    expected_k1 = np.zeros((2, 2))
    expected_k1[0, 1] = 0.6
    assert np.allclose(ch.operators[1], expected_k1)
    none = amplitude_damping(0.0)
    assert np.allclose(none.operators[0], np.eye(2))


@given(prob)
def test_phase_damping_completeness(p):
    assert completeness_residual(phase_damping(p)) < 1e-12


@given(prob)
def test_amplitude_damping_completeness(p):
    assert completeness_residual(amplitude_damping(p)) < 1e-12


@pytest.mark.parametrize("bad", [-0.1, 1.0001, 2.0])
def test_channel_domain_errors(bad):
    with pytest.raises(ValueError):
        phase_damping(bad)
    with pytest.raises(ValueError):
        amplitude_damping(bad)


def test_zero_damping_is_identity():
    rng = np.random.default_rng(21)
    rho = random_density(rng)
    for ch in (phase_damping(0.0), amplitude_damping(0.0)):
        assert np.max(np.abs(apply_both(rho, ch) - rho)) < 1e-15


def test_phase_damping_scales_coherences_only():
    for c in (0.3, 1 / np.sqrt(2), 0.9):
        for p in (0.0, 0.25, 0.5, 1.0):
            got = apply_both(make_pure_state(c), phase_damping(p))
            assert np.max(np.abs(got - phase_damped_matrix(c, p))) < 1e-12


def test_amplitude_damping_matches_closed_form():
    for c in (0.3, 1 / np.sqrt(2), 0.9):
        for p in (0.0, 0.25, 0.5, 1.0):
            got = apply_both(make_pure_state(c), amplitude_damping(p))
            assert np.max(np.abs(got - amplitude_damped_matrix(c, p))) < 1e-12


def test_full_amplitude_damping_reaches_ground_state():
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    for c in (0.0, 0.4, 1.0):
        got = apply_both(make_pure_state(c), amplitude_damping(1.0))
        assert np.max(np.abs(got - ground)) < 1e-12


def test_channel_preserves_density_invariants():
    rng = np.random.default_rng(22)
    for _ in range(20):
        rho = random_density(rng)
        pa, pb = rng.uniform(size=2)
        for family in (phase_damping, amplitude_damping):
            out = apply_local_channel(rho, family(pa), family(pb))
            report = validate_density(out)
            assert report.ok, report.failures
            assert abs(np.trace(out) - np.trace(rho)) < 1e-12


def test_phase_damping_composition_law():
    rng = np.random.default_rng(23)
    rho = random_density(rng)
    for p1, p2 in [(0.2, 0.5), (0.9, 0.1), (0.33, 0.33)]:
        twice = apply_both(apply_both(rho, phase_damping(p1)), phase_damping(p2))
        once = apply_both(rho, phase_damping(1 - (1 - p1) * (1 - p2)))
        assert np.max(np.abs(twice - once)) < 1e-12


def test_p_of_t_values():
    assert p_of_t(1.0, 0.0) == 0.0
    assert abs(p_of_t(2.0, 0.5) - (1 - np.exp(-1))) < 1e-15
    assert p_of_t(1.0, 1e3) == pytest.approx(1.0, abs=1e-12)
    assert p_of_t(0.0, 5.0) == 0.0


@pytest.mark.parametrize("gamma,t", [(-1.0, 1.0), (1.0, -1.0), (-0.5, -0.5)])
def test_p_of_t_domain_errors(gamma, t):
    with pytest.raises(ValueError):
        p_of_t(gamma, t)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_p_of_t_monotone_in_time(gamma, t1, t2):
    lo, hi = sorted((t1, t2))
    assert p_of_t(gamma, lo) <= p_of_t(gamma, hi)
    assert 0.0 <= p_of_t(gamma, hi) <= 1.0


def test_damping_schedule():
    sched = DampingSchedule(gamma=1.5)
    ts = np.linspace(0.0, 10.0, 50)
    ps = [sched.probability(t) for t in ts]
    assert ps[0] == 0.0
    assert all(b >= a for a, b in zip(ps, ps[1:]))
    assert ps[-1] > 0.999999
    with pytest.raises(ValueError):
        DampingSchedule(gamma=-0.1)


@pytest.mark.parametrize("kind", ["phase", "amplitude"])
def test_pauli_transfer_matches_kraus_sandwich(kind):
    # R T R^T must reproduce the T-matrix of the Kraus-damped state
    rng = np.random.default_rng(1838)
    for p in (0.0, 1.0, *rng.uniform(0.0, 1.0, 8)):
        r = pauli_transfer(kind, p)
        channel = make_channel(kind, p)
        for _ in range(5):
            rho = random_density(rng)
            damped = t_matrix(apply_local_channel(rho, channel, channel))
            assert np.max(np.abs(r @ t_matrix(rho) @ r.T - damped)) <= 1e-15


def test_pauli_transfer_stacks_over_p():
    ps = np.array([[0.0, 0.3], [0.6, 1.0]])
    for kind in ("phase_damping", "amplitude_damping"):
        stacked = pauli_transfer(kind, ps)
        assert stacked.shape == (2, 2, 4, 4)
        for idx in np.ndindex(ps.shape):
            assert np.array_equal(stacked[idx], pauli_transfer(kind, ps[idx]))


@pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan, np.inf])
def test_pauli_transfer_domain_errors(bad):
    with pytest.raises(ValueError):
        pauli_transfer("phase", [0.5, bad])
    with pytest.raises(ValueError):
        pauli_transfer("bogus", 0.5)
