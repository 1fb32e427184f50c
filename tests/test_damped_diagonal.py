"""`damped_sigma` writes the damped correlation matrix K = diag(-s, -s, kappa)
in closed form (for Monte Carlo, the one estimator that reads it) and its
descending singular triple with no SVD, no sort and no runtime cross-check. The Pauli-transfer product R T R^T of
`tests/transfer.py` is the oracle it is held to here, and Monte Carlo on that
K the oracle of the closed-form Sigma the exact methods run."""

import sys

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
    sigma_monte_carlo,
    t_matrix,
)
from avgcorr.cli import run
from transfer import pauli_transfer

CS = [0.0, 1.0, 5e-324, 1e-300, 1 / np.sqrt(2), 0.6, 0.3,
      *np.random.default_rng(9403).uniform(size=12)]
PS = np.concatenate((
    [0.0, 1e-300, 0.5, 2.0 / 3.0, 1.0],
    p_of_t(np.array([[0.5], [1.0], [2.0], [50.0]]), np.linspace(0.0, 8.0, 201)).ravel(),
))


def damped_k(kind, c, p, monkeypatch):
    """The K that `damped_sigma` hands to the Monte Carlo batch runner, the
    one estimator that reads it, with its sv."""
    seen = []

    def record(k, n_samples, seeds):
        seen.append(k)
        return np.zeros(k.shape[:-2]), np.zeros(k.shape[:-2])

    with monkeypatch.context() as patch:
        patch.setattr(avgcorr.sweep, "sigma_monte_carlo_batch", record)
        sv, _ = damped_sigma(kind, c, p, "monte_carlo")
    return seen[0], sv


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("method", ["closed_form", "quadrature"])
def test_exact_methods_get_no_k_and_the_same_triple(kind, method, monkeypatch):
    # the exact methods run the closed form on s and kappa: they call no
    # Monte Carlo runner and allocate no (..., 3, 3) K, and their triple is
    # Monte Carlo's bit for bit
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact method called sigma_monte_carlo_batch")

    built = []
    zeros = np.zeros

    def record_zeros(shape, *args, **kwargs):
        if np.shape(shape) and tuple(shape)[-2:] == (3, 3):
            built.append(shape)
        return zeros(shape, *args, **kwargs)

    for c in CS:
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", record_zeros)
            patch.setattr(avgcorr.sweep, "sigma_monte_carlo_batch", forbidden)
            sv, _ = damped_sigma(kind, c, PS, method)
            assert built == [], c
            k, want = damped_k(kind, c, PS, monkeypatch)
            assert built == [k.shape], c  # the spy sees Monte Carlo's K
            built.clear()
        assert sv.tobytes() == want.tobytes(), c


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_closed_form_agrees_with_monte_carlo_on_the_damped_k(kind, monkeypatch):
    # the damped family's independent oracle: the double-sphere average of
    # the K that damped_sigma builds for Monte Carlo, within 4 standard errors
    for i, (c, p) in enumerate([(0.6, 0.0), (1 / np.sqrt(2), 0.3), (0.3, 0.5),
                                (0.95, 2.0 / 3.0), (0.8, 0.9), (0.0, 0.4)]):
        k, _ = damped_k(kind, c, p, monkeypatch)
        _, exact = damped_sigma(kind, c, p, "closed_form")
        estimate = sigma_monte_carlo(k, 200_000, 9100 + i)
        assert abs(estimate.value - exact) <= 4.0 * estimate.error_bound, (c, p)


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_transfer_oracle_matches_the_closed_form(kind, monkeypatch):
    r = pauli_transfer(kind, PS)
    for c in CS:
        want = (r @ t_matrix(make_pure_state(c)) @ np.swapaxes(r, -1, -2))[..., 1:, 1:]
        k, _ = damped_k(kind, c, PS, monkeypatch)
        assert np.max(np.abs(k - want)) <= 1e-15, c
        assert (k * want >= 0.0).all(), c  # Monte Carlo sees the product's signs


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_sorted_diagonal_is_the_svd_bit_for_bit(kind, monkeypatch):
    for c in CS:
        k, sv = damped_k(kind, c, PS, monkeypatch)
        assert not k[..., ~np.eye(3, dtype=bool)].any()  # exactly diagonal
        # LAPACK rescales a matrix whose entries all lie below about 1e-138
        # by a factor that is not a power of two, and so moves its singular
        # values by an ulp (at p = 1/2, c = 1e-300); 2**600 scales exactly
        tiny = np.abs(k).max(axis=(-2, -1)) < 1e-100
        want = np.linalg.svd(np.ldexp(k, np.where(tiny, 600, 0)[..., None, None]),
                             compute_uv=False)
        want = np.ldexp(want, np.where(tiny, -600, 0)[..., None])
        assert np.array_equal(sv.view(np.int64), want.view(np.int64)), c


def test_damping_path_runs_no_svd(monkeypatch, capsys):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on the damping path")
        return call

    monkeypatch.setattr(np.linalg, "svd", forbidden("np.linalg.svd"))
    for module in [m for name, m in sys.modules.items() if name.startswith("avgcorr")]:
        for name in ("t_matrix", "make_pure_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    figure_dataset(1)
    figure_dataset(2)
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"]) == 0
    assert run(["classify", "--c", "0.6", "--gamma", "1", "--t", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan, -np.inf])
def test_damped_sigma_rejects_p_outside_the_unit_interval(kind, bad):
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got "):
        damped_sigma(kind, 0.6, [0.5, bad])


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan, np.inf])
def test_damped_sigma_rejects_c_outside_the_unit_interval(kind, bad):
    with pytest.raises(ValueError,
                       match=r"^Schmidt coefficient must lie in \[0, 1\], got "):
        damped_sigma(kind, bad, [0.0, 0.5])


@pytest.mark.parametrize("kind", ["bogus", "phase", "amplitude"])
def test_damped_sigma_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"^unknown channel kind '{kind}'$"):
        damped_sigma(kind, 0.6, [0.0, 0.5])


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_damped_sigma_of_no_points_is_empty(kind, method):
    sv, sigma = damped_sigma(kind, 0.6, [], method)
    assert sv.shape == (0, 3) and sigma.shape == (0,)


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("method", ["quadrature", "monte_carlo"])
def test_damped_sigma_of_one_point_has_0d_shapes(kind, method):
    for c, p in [(0.6, 0.3), (np.float64(0.6), np.asarray(0.3)), (np.asarray(0.6), 1.0)]:
        sv, sigma = damped_sigma(kind, c, p, method, n_samples=100, seeds=[5])
        assert sv.shape == (3,) and np.shape(sigma) == (), (c, p)
        want_sv, want_sigma = damped_sigma(kind, [c], [p], method, n_samples=100, seeds=[5])
        assert sv.tobytes() == want_sv.tobytes()
        assert np.asarray(sigma).tobytes() == want_sigma.tobytes()


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_c_broadcasts_against_p(kind):
    cs = np.array(CS)[:, None]
    sv, sigma = damped_sigma(kind, cs, PS)
    assert sv.shape == (len(CS), len(PS), 3) and sigma.shape == (len(CS), len(PS))
    for i, c in enumerate(CS):
        want_sv, want_sigma = damped_sigma(kind, c, PS)
        assert np.array_equal(sv[i], want_sv), c
        assert sigma[i].tobytes() == want_sigma.tobytes(), c
