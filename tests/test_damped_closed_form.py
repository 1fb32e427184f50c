"""The damping path's Sigma, (s^2 R_C(kappa^2, s^2) + |kappa|) / 4 in
elementary functions (`correlation.sigma_damped`), against a 40-digit
mpmath.elliprg, against R_G (`sigma_rg_batch`) and point by point against the
sweep; and the precision of s0 = 2c sqrt(1 - c^2) it starts from."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcorr import AMPLITUDE_DAMPING, PHASE_DAMPING, SweepSpec, damped_sigma, decay_curve
from avgcorr.cli import format_sig12, run
from avgcorr.correlation import (
    RG_ABS_ERROR_FLOOR,
    RG_REL_ERROR_BOUND,
    sigma_damped,
    sigma_rg_batch,
)
from avgcorr.states import make_pure_state

KINDS = [PHASE_DAMPING, AMPLITUDE_DAMPING]
EDGE_CS = [0.0, 1.0, 5e-324, 1e-310, 1e-300, 1.0 - 2.0**-50, 1.0 / np.sqrt(2.0), 0.99999999]
EDGE_PS = [0.0, 0.5, 1.0 / 3.0, 2.0 / 3.0, 1.0]
CS = st.one_of(st.sampled_from(EDGE_CS), st.floats(0.0, 1.0))
PS = st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0))


def exact_sigma(kind, c, p):
    """40-digit Sigma of the damped state at the exact c and p, and s."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c, p = mpmath.mpf(c), mpmath.mpf(p)
        s = 2 * c * mpmath.sqrt(1 - c * c) * (1 - p)
        t = abs(2 * p - 1) if kind == AMPLITUDE_DAMPING else mpmath.mpf(1)
        # the odd argument first: mpmath 1.3.0 returns half of R_G(x, x, z)
        # for z within about 10^(-dps/2) of x
        return mpmath.elliprg(t * t, s * s, s * s) / 2, s


def assert_within_bound(kind, c, p):
    mpmath = pytest.importorskip("mpmath")
    _, value = damped_sigma(kind, c, p, "exact")
    exact, _ = exact_sigma(kind, c, p)
    assert np.isfinite(value), (kind, c, p)
    with mpmath.workdps(40):
        error = abs(mpmath.mpf(float(value)) - exact)
        assert error <= max(RG_REL_ERROR_BOUND * exact, RG_ABS_ERROR_FLOOR), (kind, c, p, value)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_matches_mpmath_at_the_edges(kind):
    for c in EDGE_CS:
        for p in [*EDGE_PS, 1e-300, 0.5 + 2.0**-53, 0.5 - 2.0**-54, 1.0 - 2.0**-53]:
            assert_within_bound(kind, c, p)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(c=CS, p=PS)
def test_closed_form_matches_mpmath(kind, c, p):
    assert_within_bound(kind, c, p)


@settings(max_examples=300, deadline=None)
@given(c=st.floats(0.0, 1.0), upper=st.booleans(), offset=st.floats(-1.0, 1.0))
@example(c=1.0 / np.sqrt(2.0), upper=False, offset=0.0)
def test_closed_form_matches_mpmath_where_s_is_near_kappa_amplitude(c, upper, offset):
    # s0 (1 - p) = |2p - 1| at p = (1 + s0)/(2 + s0) and, for s0 < 1, at
    # p = (1 - s0)/(2 - s0); the slope of s - |2p - 1| is at most 3
    s0 = 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c))
    root = (1.0 + s0) / (2.0 + s0) if upper else (1.0 - s0) / (2.0 - s0)
    p = min(max(root + offset * 3e-10, 0.0), 1.0)
    _, s = exact_sigma(AMPLITUDE_DAMPING, c, p)
    assert abs(float(s) - abs(2.0 * p - 1.0)) <= 1e-9
    assert_within_bound(AMPLITUDE_DAMPING, c, p)


@settings(max_examples=200, deadline=None)
@given(offset=st.floats(-1.0, 1.0), p=st.floats(0.0, 1e-10))
def test_closed_form_matches_mpmath_where_s_is_near_kappa_phase(offset, p):
    # s0 = 1 at c = 1/sqrt(2), and s0 falls quadratically away from it
    c = 1.0 / np.sqrt(2.0) + offset * 1e-5
    _, s = exact_sigma(PHASE_DAMPING, c, p)
    assert abs(float(s) - 1.0) <= 1e-9
    assert_within_bound(PHASE_DAMPING, c, p)


@settings(max_examples=300, deadline=None)
@given(c=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-50, 1.0 - 2.0**-53,
                                    0.99999999, 1.0 / np.sqrt(2.0)]),
                   st.floats(0.0, 1.0), st.floats(0.999, 1.0)))
def test_s0_and_the_state_amplitude_are_within_2_ulp(c):
    mpmath = pytest.importorskip("mpmath")
    sv, _ = damped_sigma(PHASE_DAMPING, c, 0.0)
    coherence = make_pure_state(c)[1, 2].real  # -c sqrt(1 - c^2) on |01><10|
    with mpmath.workdps(40):
        root = mpmath.sqrt(1 - mpmath.mpf(c) ** 2)
        for got, want in ((sv[1], 2 * mpmath.mpf(c) * root), (coherence, -mpmath.mpf(c) * root)):
            ulp = np.spacing(abs(float(want))) if want else 2.0**-1074
            assert abs(mpmath.mpf(float(got)) - want) <= 2 * ulp, (c, got)


def test_near_one_csv_row_matches_mpmath(capsys):
    # 1 - c*c cancels near c = 1; the factored s0 keeps all 12 digits
    assert run(["sweep", "--channel", "amplitude", "--c", "0.99999999", "--gammas", "1",
                "--t-max", "1.4", "--steps", "3"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    exact, s = exact_sigma(AMPLITUDE_DAMPING, 0.99999999, 0.0)
    assert row[4] == row[5] == format_sig12(float(s)) == "0.000282842709650"
    assert row[3] == "1.00000000000"
    assert row[6] == format_sig12(float(exact))


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_matches_rg_on_a_grid(kind):
    # the R_G oracle needs no mpmath: each is within its bound of Sigma, so
    # they differ by at most twice that
    cs = np.concatenate((np.linspace(0.0, 1.0, 296), [5e-324, 1e-300, 1.0 - 2.0**-50, 0.99999999]))
    ps = np.concatenate((np.linspace(0.0, 1.0, 299), [0.5, 1.0 / 3.0, 2.0 / 3.0, 0.5 + 2.0**-53]))
    sv, closed = damped_sigma(kind, cs[:, None], ps, "exact")
    assert closed.shape == (300, 303)
    rg = sigma_rg_batch(sv[..., 0], sv[..., 1], sv[..., 2])
    bound = np.maximum(RG_REL_ERROR_BOUND * rg, RG_ABS_ERROR_FLOOR)
    assert np.all(np.abs(closed - rg) <= 2.0 * bound)


def test_closed_form_landmarks():
    s = np.array([0.0, 1.0, 1.0, 0.0, 0.5, 5e-324, 1e-300])
    kappa = np.array([-1.0, -1.0, 0.0, 0.0, 0.5, -1.0, 0.0])
    got = sigma_damped(s, kappa)
    # product state, maximally entangled, K = diag(-1, -1, 0), K = 0,
    # s = |kappa|, a subnormal s, and kappa = 0 at a tiny s (pi s / 8)
    assert got[:-1].tolist() == [0.25, 0.5, np.pi / 8, 0.0, 0.25, 0.25]
    np.testing.assert_allclose(got[-1], np.pi / 8 * 1e-300, rtol=RG_REL_ERROR_BOUND, atol=0.0)
    for one_s, one_kappa, want in zip(s, kappa, got):  # a 0-d call is its batch entry
        assert np.asarray(sigma_damped(one_s, one_kappa)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(c=CS,
       gammas=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
       t_max=st.floats(0.01, 20.0),
       steps=st.integers(2, 60))
def test_every_sweep_row_is_the_one_point_value_bit_for_bit(kind, c, gammas, t_max, steps):
    curve = decay_curve(SweepSpec(kind, c, tuple(gammas), t_max, steps, "exact"))
    for index, p in np.ndenumerate(curve.p):
        _, one = damped_sigma(kind, c, p, "exact")
        assert np.asarray(one).tobytes() == curve.sigma[index].tobytes(), (index, p)


# the late-time law at q = exp(-gamma t), s = s0 q, with each residual bounded
# by its next-order term plus a few ulps of 1/4, from which Sigma is read off
LATE_CS = [0.3, 0.6, 1.0 / np.sqrt(2.0)]
LATE_QS = [1e-3, 1e-4, 1e-5]
QUARTER_ULPS = 4 * np.spacing(0.25)


@pytest.mark.parametrize("c", LATE_CS)
@pytest.mark.parametrize("q", LATE_QS)
def test_late_phase_damping_excess_over_a_quarter_is_q_squared_log(c, q):
    # Sigma - 1/4 = (s^2/4) ln(2/s) (1 + s^2/2 + ...): leading order
    # (s0^2/4) q^2 (gamma t + ln(2/s0))
    s0 = 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c))
    s = s0 * q
    lead = s0**2 / 4.0 * q**2 * (-np.log(q) + np.log(2.0 / s0))
    excess = sigma_damped(s, -1.0) - 0.25
    assert abs(excess - lead) <= lead * s * s + QUARTER_ULPS


@pytest.mark.parametrize("c", LATE_CS)
@pytest.mark.parametrize("q", LATE_QS)
def test_late_amplitude_damping_deficit_below_a_quarter_is_q_over_2_less_a_log(c, q):
    # kappa = 2p - 1 = 1 - 2q: 1/4 - Sigma = q/2 - (s^2/4) ln(2/s) to second
    # order, whose next term is about (s^2 q / 2) ln(2/s)
    s0 = 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c))
    s = s0 * q
    second = q / 2.0 - s0**2 * q**2 / 8.0 * np.log(4.0 / (s0**2 * q**2))
    deficit = 0.25 - sigma_damped(s, 1.0 - 2.0 * q)
    bound = s * s * q * np.log(2.0 / s) + QUARTER_ULPS
    assert abs(deficit - second) <= bound
    assert abs(deficit - q / 2.0) > 100.0 * bound  # the log term is resolved
