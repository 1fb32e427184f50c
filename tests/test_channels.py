import importlib.util
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import avgcorr
from avgcorr import (
    make_pure_state,
    p_of_t,
    random_density,
    validate_density,
)
from avgcorr.states import IDENTITY_2, SIGMA_1, SIGMA_2, SIGMA_3, RuleError
from avgcorr.sweep import CHANNEL_KINDS, PHASE_DAMPING
from kraus import (
    amplitude_damping,
    apply_both,
    apply_local_channel,
    completeness_residual,
    make_channel,
    phase_damping,
)
from transfer import pauli_transfer, t_matrix, tensor2

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
    assert p_of_t(1e308, 8.0) == 1.0  # gamma * t overflows
    assert np.array_equal(p_of_t(np.array([[1e308]]), np.array([0.0, 8.0])), [[0.0, 1.0]])
    # arrays broadcast, element for element the scalar law
    gammas, times = np.array([0.0, 0.5, 2.0]), np.linspace(0.0, 8.0, 9)
    grid = p_of_t(gammas[:, None], times)
    assert grid.shape == (3, 9)
    for (bi, ti), p in np.ndenumerate(grid):
        assert p == p_of_t(float(gammas[bi]), float(times[ti]))


@pytest.mark.parametrize("gamma,t", [(-1.0, 1.0), (1.0, -1.0), (-0.5, -0.5),
                                     ([0.5, -1.0], 1.0), (1.0, [0.0, -0.5]),
                                     (np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0),
                                     (0.0, np.inf), ([1.0, np.inf], [[2.0], [0.0]]),
                                     (np.inf, 3.0)])
def test_p_of_t_domain_errors(gamma, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ValueError, not a warning and then NaN
        with pytest.raises(ValueError):
            p_of_t(gamma, t)


@pytest.mark.parametrize("gamma, t, message", [
    (np.nan, 1.0, "decoherence rate must be finite and >= 0, got nan"),
    ([0.5, 1.0], [[0.0], [np.nan]], "time must be finite and >= 0, got nan"),
    (np.inf, 0.0, "decoherence rate must be finite and >= 0, got inf"),
    ([1.0, 0.0], [[1.0], [np.inf]], "time must be finite and >= 0, got inf"),
])
def test_p_of_t_names_the_value_it_rejects(gamma, t, message):
    with pytest.raises(RuleError) as raised:
        p_of_t(gamma, t)
    assert str(raised.value) == message
    # the rule's one owner called the range checker
    owner = "p_of_t" if message.startswith("time") else "_check_rates"
    assert [entry.name for entry in raised.traceback[-2:]] == [owner, "check_range"]


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_p_of_t_monotone_in_time(gamma, t1, t2):
    lo, hi = sorted((t1, t2))
    assert p_of_t(gamma, lo) <= p_of_t(gamma, hi)
    assert 0.0 <= p_of_t(gamma, hi) <= 1.0


@pytest.mark.parametrize("kind", CHANNEL_KINDS, ids=("phase", "amplitude"))
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
        pauli_transfer(PHASE_DAMPING, [0.5, bad])
    for kind in ("bogus", "phase", "amplitude"):  # only CHANNEL_KINDS
        with pytest.raises(ValueError):
            pauli_transfer(kind, 0.5)


def test_the_channels_live_in_sweep_under_the_same_public_names():
    # the damping law and the channel kinds sit with the damped correlation
    # matrix in `avgcorr.sweep`; the package exports these 20 names
    assert importlib.util.find_spec("avgcorr.channels") is None
    assert CHANNEL_KINDS == (avgcorr.PHASE_DAMPING, avgcorr.AMPLITUDE_DAMPING)
    assert sorted(avgcorr.__all__) == [
        "AMPLITUDE_DAMPING", "CLASSICAL_COMPATIBLE", "CLASSICAL_MAX", "DecayCurve",
        "DensityReport", "INDETERMINATE", "NONCLASSICAL", "NONCLASSICAL_MIN",
        "PHASE_DAMPING", "SweepSpec", "classify", "correlation_matrix", "damped_sigma",
        "decay_curve", "figure_dataset", "make_pure_state", "p_of_t", "random_density",
        "sigma_for_state", "validate_density",
    ]
    assert all(hasattr(avgcorr, name) for name in avgcorr.__all__)


# tensor2, the Kronecker product the Kraus and transfer oracles build on
def kron_by_loops(a, b):
    """Independent elementwise Kronecker product used as oracle."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def test_tensor2_identity():
    assert np.array_equal(tensor2(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_tensor2_sigma3_pair():
    assert np.allclose(tensor2(SIGMA_3, SIGMA_3), np.diag([1, -1, -1, 1]))


def test_tensor2_sigma1_sigma2():
    got = tensor2(SIGMA_1, SIGMA_2)
    assert np.max(np.abs(got - kron_by_loops(SIGMA_1, SIGMA_2))) == 0.0
    antidiag = [got[i, 3 - i] for i in range(4)]
    assert np.allclose(antidiag, [-1j, 1j, -1j, 1j])
    assert np.count_nonzero(got) == 4


def test_tensor2_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.max(np.abs(tensor2(a, b) - kron_by_loops(a, b))) < 1e-12


def test_tensor2_mixed_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        lhs = tensor2(a, b) @ tensor2(c, d)
        rhs = tensor2(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_tensor2_bilinear():
    rng = np.random.default_rng(13)
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(tensor2(a + b, c), tensor2(a, c) + tensor2(b, c))
    assert np.allclose(tensor2(2.5 * a, c), 2.5 * tensor2(a, c))
