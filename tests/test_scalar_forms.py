"""One-point calls in every scalar form: a Python float, an np.float64, a
0-d array and the entry of a 1-element array give the same bits, the same
public types and the same error messages, and each value is its entry in a
batch call over the same inputs."""

import itertools

import numpy as np
import pytest

from avgcorr import AMPLITUDE_DAMPING, PHASE_DAMPING, damped_sigma
from avgcorr.correlation import (
    CLASSICAL_COMPATIBLE,
    INDETERMINATE,
    NONCLASSICAL,
    NONCLASSICAL_MIN,
    classify,
    sigma_damped,
)
from avgcorr.sweep import p_of_t

FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": lambda x: np.asarray(x, dtype=float),
    "array entry": lambda x: np.array([x], dtype=float)[0],
}
KINDS = [PHASE_DAMPING, AMPLITUDE_DAMPING]
CS = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.6]
PS = [0.0, -0.0, 1.0, 5e-324, 0.3]
# (gamma, t): gamma t = 0 from either side, p = 0.0 for a rate of -0.0,
# subnormal and ordinary products, gamma t past 37 (p = 1) and one that
# overflows to inf (p = 1)
RATE_TIMES = [(1.0, 0.0), (0.0, 5.0), (-0.0, 2.0), (5e-324, 1.0), (1.3, 0.7),
              (1.0, 37.5), (2.0, 40.0), (1e200, 1e200)]
# (s, kappa) of K = diag(-s, -s, kappa), NaN and signed zeros included
S_KAPPAS = [(0.0, -1.0), (-0.0, -1.0), (1.0, -1.0), (5e-324, -1.0), (0.5, 0.5),
            (1.0, 0.0), (0.3, -0.0), (0.48, -0.4), (np.nan, -1.0), (0.3, np.nan)]
LABELED = [(0.25, CLASSICAL_COMPATIBLE), (np.nextafter(0.25, 0.0), CLASSICAL_COMPATIBLE),
           (np.nextafter(0.25, 1.0), INDETERMINATE), (NONCLASSICAL_MIN, INDETERMINATE),
           (np.nextafter(NONCLASSICAL_MIN, 0.0), INDETERMINATE),
           (np.nextafter(NONCLASSICAL_MIN, 1.0), NONCLASSICAL), (np.nan, INDETERMINATE),
           (0.0, CLASSICAL_COMPATIBLE), (-0.0, CLASSICAL_COMPATIBLE), (0.5, NONCLASSICAL)]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("form", FORMS)
def test_p_of_t_gives_a_float_with_its_grid_bits(form):
    to = FORMS[form]
    gammas, times = np.array(RATE_TIMES).T
    grid = p_of_t(gammas, times)
    for (gamma, t), want in zip(RATE_TIMES, grid):
        got = p_of_t(to(gamma), to(t))
        assert type(got) is float
        assert bits(got) == bits(want), (gamma, t)
    assert bits(p_of_t(to(-0.0), to(2.0))) == bits(0.0)
    assert p_of_t(to(1.0), to(37.5)) == p_of_t(to(1e200), to(1e200)) == 1.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("form", FORMS)
def test_damped_sigma_gives_its_grid_bits_and_types(kind, form):
    to = FORMS[form]
    grid_sv, grid_sigma = damped_sigma(kind, np.array(CS)[:, None], PS)
    for (i, c), (j, p) in itertools.product(enumerate(CS), enumerate(PS)):
        sv, sigma = damped_sigma(kind, to(c), to(p))
        assert type(sv) is np.ndarray and sv.shape == (3,)
        assert type(sigma) is np.float64 and np.shape(sigma) == ()
        assert sv.tobytes() == grid_sv[i, j].tobytes(), (c, p)
        assert bits(sigma) == bits(grid_sigma[i, j]), (c, p)


@pytest.mark.parametrize("form", FORMS)
def test_sigma_damped_gives_its_batch_bits(form):
    to = FORMS[form]
    s, kappa = np.array(S_KAPPAS).T
    batch = sigma_damped(s, kappa)
    for (one_s, one_kappa), want in zip(S_KAPPAS, batch):
        got = sigma_damped(to(one_s), to(one_kappa))
        assert np.shape(got) == ()
        assert bits(got) == bits(want), (one_s, one_kappa)


@pytest.mark.parametrize("form", FORMS)
def test_classify_gives_a_0d_label_array(form):
    values = [value for value, _ in LABELED]
    assert classify(values).tolist() == [label for _, label in LABELED]
    for value, label in LABELED:
        got = classify(FORMS[form](value))
        assert type(got) is np.ndarray and got.shape == () and got.dtype == np.dtype("<U20")
        assert got == label, value


@pytest.mark.parametrize("form", ["np.float64", "0-d array"])
@pytest.mark.parametrize("call, bad, message", [
    (lambda x: damped_sigma(PHASE_DAMPING, x, 0.3), np.nan,
     "Schmidt coefficient must lie in [0, 1], got nan"),
    (lambda x: damped_sigma(AMPLITUDE_DAMPING, 0.6, x), 1.5, "p must lie in [0, 1], got 1.5"),
    (lambda x: p_of_t(x, 1.0), -1.0, "decoherence rate must be finite and >= 0, got -1.0"),
    (lambda x: p_of_t(1.0, x), np.nan, "time must be finite and >= 0, got nan"),
    (lambda x: p_of_t(x, 0.0), np.inf, "decoherence rate must be finite and >= 0, got inf"),
], ids=["c", "p", "rate", "time", "infinite-rate"])
def test_a_bad_scalar_raises_the_message_of_a_float(form, call, bad, message):
    with pytest.raises(ValueError) as raised:
        call(FORMS[form](bad))
    assert str(raised.value) == message
