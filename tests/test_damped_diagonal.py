"""The damped correlation matrix K is exactly diagonal, so `damped_sigma`
reads its singular values off the sorted |diagonal| instead of an SVD."""

import numpy as np
import pytest

import avgcorr.sweep
from avgcorr import (
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    damped_sigma,
    figure_dataset,
    make_pure_state,
    p_of_t,
    pauli_transfer,
    t_matrix,
)
from avgcorr.cli import run

CS = [0.0, 1.0, 5e-324, 1e-300, 1 / np.sqrt(2), 0.6, 0.3,
      *np.random.default_rng(9403).uniform(size=12)]
PS = np.concatenate((
    [0.0, 1e-300, 0.5, 2.0 / 3.0, 1.0],
    p_of_t(np.array([[0.5], [1.0], [2.0], [50.0]]), np.linspace(0.0, 8.0, 201)).ravel(),
))


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_sorted_diagonal_is_the_svd_bit_for_bit(kind):
    r = pauli_transfer(kind, PS)
    for c in CS:
        k = (r @ t_matrix(make_pure_state(c)) @ np.swapaxes(r, -1, -2))[..., 1:, 1:]
        sv, _ = damped_sigma(kind, c, PS)
        want = np.linalg.svd(k, compute_uv=False)
        assert np.array_equal(sv.view(np.int64), want.view(np.int64)), c


def test_damping_path_runs_no_svd(monkeypatch, capsys):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on the damping path")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    figure_dataset(1)
    figure_dataset(2)
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"]) == 0
    assert run(["classify", "--c", "0.6", "--gamma", "1", "--t", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bad", [1e-300, np.nan])
def test_nonzero_off_diagonal_entry_fails_the_check(bad, monkeypatch, capsys):
    real_t_matrix = avgcorr.sweep.t_matrix

    def leaky_t_matrix(rho):
        t = real_t_matrix(rho)
        t[1, 2] = bad
        return t

    monkeypatch.setattr(avgcorr.sweep, "t_matrix", leaky_t_matrix)
    for kind in (PHASE_DAMPING, AMPLITUDE_DAMPING):
        with pytest.raises(RuntimeError, match=r"K_12 = .* at p=0\.0$"):
            damped_sigma(kind, 0.6, np.linspace(0.0, 0.9, 7))
    argv = ["sweep", "--channel", "phase", "--c", "0.6", "--gammas", "1", "--steps", "5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
