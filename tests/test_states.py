import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgcorr import make_pure_state, random_density, sigma_for_state, validate_density
from avgcorr.states import (PAULIS, SIGMA_1, SIGMA_2, SIGMA_3, _density_residuals,
                            _first_failure)
from transfer import pauli, tensor2

unit = st.floats(min_value=0.0, max_value=1.0)


def outer_by_loops(amps):
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            out[i, j] = amps[i] * np.conj(amps[j])
    return out


def test_pauli_algebra():
    for sigma in PAULIS:
        assert np.allclose(sigma, sigma.conj().T)
        assert np.allclose(sigma @ sigma.conj().T, np.eye(2))
        assert abs(np.trace(sigma)) == 0.0
    assert np.allclose(SIGMA_1 @ SIGMA_2, 1j * SIGMA_3)
    assert np.allclose(SIGMA_2 @ SIGMA_3, 1j * SIGMA_1)
    assert np.allclose(SIGMA_3 @ SIGMA_1, 1j * SIGMA_2)


def test_pauli_lookup():
    for idx in (1, 2, 3):
        assert np.array_equal(pauli(idx), PAULIS[idx - 1])
    with pytest.raises(ValueError):
        pauli(0)


def test_pure_state_balanced():
    rho = make_pure_state(1 / np.sqrt(2))
    expected = np.zeros((4, 4))
    expected[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_pure_state_c_one():
    rho = make_pure_state(1.0)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.max(np.abs(rho - expected)) == 0.0


def test_pure_state_c_06_matches_outer_product():
    rho = make_pure_state(0.6)
    assert abs(rho[1, 1] - 0.36) < 1e-15
    assert abs(rho[2, 2] - 0.64) < 1e-15
    assert abs(rho[1, 2] + 0.48) < 1e-15
    oracle = outer_by_loops([0.0, 0.6, -np.sqrt(1 - 0.36), 0.0])
    assert np.max(np.abs(rho - oracle)) < 1e-15


@pytest.mark.parametrize("c", [-0.1, 1.1, 2.0, -1e-9])
def test_pure_state_domain(c):
    with pytest.raises(ValueError):
        make_pure_state(c)


@given(unit)
def test_pure_state_is_valid_projector(c):
    rho = make_pure_state(c)
    assert validate_density(rho).ok
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


def test_pure_state_eigenvalues_on_grid():
    for c in np.linspace(0.0, 1.0, 21):
        eigs = np.sort(np.linalg.eigvalsh(make_pure_state(c)))
        assert np.max(np.abs(eigs - [0, 0, 0, 1])) < 1e-10


def test_antiparallel_support():
    # both Schmidt terms live where the qubits disagree
    zz = tensor2(SIGMA_3, SIGMA_3)
    for c in np.linspace(0.0, 1.0, 11):
        assert abs(np.trace(make_pure_state(c) @ zz).real + 1.0) < 1e-12


def test_validate_density_accepts_constructed_state():
    assert validate_density(make_pure_state(0.3)).ok


def test_validate_density_maximally_mixed():
    report = validate_density(np.eye(4) / 4)
    assert report.ok
    assert abs(report.min_eigenvalue - 0.25) < 1e-12


def test_validate_density_flags_bad_trace():
    report = validate_density(np.diag([1.0, 0.0, 0.0, 0.01]))
    assert not report.ok
    assert abs(report.trace_deviation - 0.01) < 1e-12
    assert any("trace" in msg for msg in report.failures)


def test_validate_density_flags_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.2j
    report = validate_density(rho)
    assert not report.ok
    assert report.hermiticity_residual > 0.1


@pytest.mark.parametrize("at, bad", [((0, 1), np.inf), ((2, 2), np.nan)])
def test_non_finite_entries_are_reported_without_warnings(at, bad):
    rho = np.eye(4, dtype=complex) / 4
    rho[at] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        report = validate_density(rho)
        assert report.failures == ["non-finite entries: 1"]
        assert not report.ok
        with pytest.raises(ValueError, match="^not a density matrix: non-finite entries: 1$"):
            sigma_for_state(rho)


@pytest.mark.parametrize("rho", [np.eye(3) / 3, np.ones(4) / 4, np.array(0.25),
                                 np.stack([np.eye(4) / 4] * 2), np.stack([np.eye(3) / 3] * 2)],
                         ids=["3x3", "1-d", "0-d", "stack", "stack-3x3"])
def test_a_shape_other_than_4x4_is_reported_before_any_arithmetic(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_density(rho)
    assert report.failures == [f"shape {rho.shape}, expected (4, 4)"]  # the one check that ran
    assert not report.ok
    if rho.shape[-2:] == (4, 4):
        return  # sigma_for_state reads a stack of 4x4 states as states
    with pytest.raises(ValueError) as raised:
        sigma_for_state(rho)
    assert str(raised.value) == f"not a density matrix: shape {rho.shape}, expected (4, 4)"


def test_random_density_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(25):
        assert validate_density(random_density(rng)).ok


def scuffed_stack(n, seed):
    """n random states, some pushed across or near each check's tolerance:
    a Hermiticity residual, a trace off by 1e-12 and 1e-10, an eigenvalue
    of -2e-10 or -5e-11, a NaN or an infinite entry."""
    rng = np.random.default_rng(seed)
    rhos = np.array([random_density(rng) for _ in range(n)])
    kind = rng.integers(0, 9, n)
    rhos[kind == 1, 0, 1] += 2e-12j
    rhos[kind == 2, 0, 0] += 1e-12
    rhos[kind == 3, 0, 0] += 1e-10
    rhos[kind == 4] = np.diag([0.5, 0.3, 0.2 + 2e-10, -2e-10])
    rhos[kind == 5] = np.diag([0.5, 0.3, 0.2 + 5e-11, -5e-11])
    rhos[kind == 6, 2, 1] = np.nan
    rhos[kind == 7, 3, 3] = np.inf
    return rhos


@pytest.mark.parametrize("n", [1, 3, 20, 500])
def test_stacked_checks_give_each_matrix_its_report_alone(n):
    # one pass over the stack: every residual is bit for bit that of the
    # matrix alone, and the first failing matrix is the one a loop finds
    rhos = scuffed_stack(n, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = _density_residuals(rhos)
        first = _first_failure(rhos)
    reports = [validate_density(rho) for rho in rhos]
    alone = np.array([[r.hermiticity_residual, r.trace_deviation, r.min_eigenvalue]
                      for r in reports])
    assert np.array(residuals[:3]).T.tobytes() == alone.tobytes()
    assert residuals[3].tolist() == [r.non_finite_entries for r in reports]
    bad = [i for i, report in enumerate(reports) if not report.ok]
    if not bad:
        assert first is None
    else:
        assert first[0] == [bad[0]]
        assert first[1].failures == reports[bad[0]].failures
    assert _first_failure(rhos[[i for i in range(n) if i not in bad]]) is None
