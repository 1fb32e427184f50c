"""`damped_sigma` writes the damped correlation matrix K = diag(-s, -s, kappa)
in closed form (for Monte Carlo, the one estimator that reads it) and its
descending singular triple with no SVD, no sort and no runtime cross-check. The Pauli-transfer product R T R^T of
`tests/transfer.py` is the oracle it is held to here, and Monte Carlo on that
K the oracle of the closed-form Sigma the exact method runs."""

import re
import sys

import numpy as np
import pytest

import avgcorr.sweep
from avgcorr import (
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    SweepSpec,
    damped_sigma,
    figure_dataset,
    make_pure_state,
    p_of_t,
    sigma_for_state,
)
from avgcorr.cli import run
from avgcorr.correlation import sigma_monte_carlo_batch
from avgcorr.states import RuleError
from oracles import sigma_double_sphere
from transfer import pauli_transfer, t_matrix

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
def test_exact_method_gets_no_k_and_the_same_triple(kind, monkeypatch):
    # the exact method runs the closed form on s and kappa: it calls no
    # Monte Carlo runner and allocates no (..., 3, 3) K, and its triple is
    # Monte Carlo's bit for bit
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact method called sigma_monte_carlo_batch")

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
            sv, _ = damped_sigma(kind, c, PS, "exact")
            assert built == [], c
            k, want = damped_k(kind, c, PS, monkeypatch)
            assert built == [k.shape], c  # the spy sees Monte Carlo's K
            built.clear()
        assert sv.tobytes() == want.tobytes(), c


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
def test_closed_form_agrees_with_monte_carlo_on_the_damped_k(kind, monkeypatch):
    # the K that damped_sigma builds for Monte Carlo, averaged by the
    # library's conditional estimate and by the double-sphere average, the
    # damped family's independent oracle, each within 4 standard errors
    for i, (c, p) in enumerate([(0.6, 0.0), (1 / np.sqrt(2), 0.3), (0.3, 0.5),
                                (0.95, 2.0 / 3.0), (0.8, 0.9), (0.0, 0.4)]):
        k, _ = damped_k(kind, c, p, monkeypatch)
        _, exact = damped_sigma(kind, c, p, "exact")
        for value, stderr in (sigma_monte_carlo_batch(k, 200_000, 9100 + i),
                              sigma_double_sphere(k, 200_000, 9200 + i)):
            assert abs(value - exact) <= 4.0 * stderr, (c, p)


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
    patched = set()
    for module in [m for name, m in sys.modules.items() if name.startswith("avgcorr")]:
        for name in ("correlation_matrix", "make_pure_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
                patched.add(name)
    assert patched == {"correlation_matrix", "make_pure_state"}  # each forbids a real call
    figure_dataset(1)
    figure_dataset(2)
    assert run(["sigma", "--c", "0.6", "--channel", "amplitude", "--p", "0.3"]) == 0
    assert run(["classify", "--c", "0.6", "--gamma", "1", "--t", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan, -np.inf])
def test_damped_sigma_rejects_p_outside_the_unit_interval(kind, bad):
    with pytest.raises(RuleError, match=r"^p must lie in \[0, 1\], got ") as info:
        damped_sigma(kind, 0.6, [0.5, bad])
    assert raised_by(info) == ["damped_sigma", "check_range"]  # the rule's one owner


def raised_by(info) -> list[str]:
    """The function that raised the error in `info` and its caller: a
    rule's checker and the rule's owner."""
    return [entry.name for entry in info.traceback[-2:]]


def entry_points(values, others=(), other_values=None):
    """Cases (entry, value) of a rule's tests: damped_sigma on every value,
    under the value's own id, then each other entry point that checks the
    rule on `other_values` (default `values`), its name leading the id."""
    cases = [pytest.param("damped_sigma", value, id=str(value)) for value in values]
    for entry in others:
        cases += [pytest.param(entry, value, id=f"{entry}-{value}")
                  for value in (values if other_values is None else other_values)]
    return cases


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("entry, bad", entry_points(
    [-0.1, 1.0001, np.nan, np.inf], ("make_pure_state", "SweepSpec"),
    [-0.1, 1.0001, -5e-324, np.nan, np.inf]))
def test_damped_sigma_rejects_c_outside_the_unit_interval(entry, kind, bad):
    call = {"damped_sigma": lambda: damped_sigma(kind, bad, [0.0, 0.5]),
            "make_pure_state": lambda: make_pure_state(bad),
            "SweepSpec": lambda: SweepSpec(kind, c=bad)}[entry]
    with pytest.raises(RuleError,
                       match=r"^Schmidt coefficient must lie in \[0, 1\], got ") as info:
        call()
    assert raised_by(info) == ["check_schmidt", "check_range"]  # the rule's one owner


@pytest.mark.parametrize("entry, kind", entry_points(["bogus", "phase", "amplitude"],
                                                     ("SweepSpec",)))
def test_damped_sigma_rejects_an_unknown_kind(entry, kind):
    call = {"damped_sigma": lambda: damped_sigma(kind, 0.6, [0.0, 0.5]),
            "SweepSpec": lambda: SweepSpec(kind)}[entry]
    with pytest.raises(RuleError, match=f"^unknown channel kind '{kind}'$") as info:
        call()
    assert info.traceback[-1].name == "_check_kind"  # the rule's one owner raised it


# the methods are "exact" and "monte_carlo"; "closed", "quadrature" and "mc" are
# only CLI spellings
@pytest.mark.parametrize("entry, method", entry_points(
    ["bogus", "closed", "mc", "closed_form", "quadrature"], ("SweepSpec", "sigma_for_state")))
def test_damped_sigma_rejects_an_unknown_method(entry, method):
    call = {"damped_sigma": lambda: damped_sigma(PHASE_DAMPING, 0.6, [0.0, 0.5], method),
            "SweepSpec": lambda: SweepSpec(PHASE_DAMPING, method=method),
            "sigma_for_state": lambda: sigma_for_state(make_pure_state(0.6), method)}[entry]
    with pytest.raises(RuleError, match=f"^unknown method '{method}'$") as info:
        call()
    assert info.traceback[-1].name == "check_method"  # the rule's one owner raised it


# damped_sigma takes p, not rates: a sweep's rates are p_of_t's, and SweepSpec
# rejects a negative or infinite one as p_of_t does
@pytest.mark.parametrize("entry", ["p_of_t", "SweepSpec"])
@pytest.mark.parametrize("bad", [-1.0, -5e-324, np.inf])
def test_sweep_spec_rejects_a_negative_rate_as_p_of_t_does(entry, bad):
    call = {"p_of_t": lambda: p_of_t(np.array([1.0, bad]), 2.0),
            "SweepSpec": lambda: SweepSpec(PHASE_DAMPING, gammas=(1.0, bad))}[entry]
    message = f"^decoherence rate must be finite and >= 0, got {re.escape(str(bad))}$"
    with pytest.raises(RuleError, match=message) as info:
        call()
    assert raised_by(info) == ["_check_rates", "check_range"]  # the rule's one owner


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("method", ["exact", "monte_carlo"])
def test_damped_sigma_of_no_points_is_empty(kind, method):
    sv, sigma = damped_sigma(kind, 0.6, [], method)
    assert sv.shape == (0, 3) and sigma.shape == (0,)


@pytest.mark.parametrize("kind", [PHASE_DAMPING, AMPLITUDE_DAMPING])
@pytest.mark.parametrize("method", ["exact", "monte_carlo"])
def test_damped_sigma_of_one_point_has_0d_shapes(kind, method):
    for c, p in [(0.6, 0.3), (np.float64(0.6), np.asarray(0.3)), (np.asarray(0.6), 1.0)]:
        sv, sigma = damped_sigma(kind, c, p, method, n_samples=100, seed=5)
        assert sv.shape == (3,) and np.shape(sigma) == (), (c, p)
        want_sv, want_sigma = damped_sigma(kind, [c], [p], method, n_samples=100, seed=5)
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
