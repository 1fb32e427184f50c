import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avgcorr import (
    CLASSICAL_COMPATIBLE,
    INDETERMINATE,
    NONCLASSICAL,
    NONCLASSICAL_MIN,
    SingularTriple,
    amplitude_damping,
    apply_both,
    classify,
    correlation_matrix,
    f_phi,
    make_pure_state,
    phase_damping,
    random_density,
    sigma_closed_pure,
    sigma_for_state,
    sigma_monte_carlo,
    sigma_quadrature,
    singular_values,
    t_matrix,
)
from avgcorr.correlation import (
    classify_batch,
    sigma_closed_pure_batch,
    sigma_quadrature_batch,
)

INV_SQRT2 = 1 / np.sqrt(2)

# Closed-form value for the degenerate triple of the c = 0.9 pure state,
# frozen from a 30-digit evaluation of the arcsinh expression.
SIGMA_PURE_09 = 0.42996497258901055


def symmetric_eigs_by_charpoly(m):
    """Eigenvalues of a symmetric 3x3 matrix from its characteristic
    polynomial (trigonometric root formula); oracle for the SVD."""
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    q = np.trace(m) / 3.0
    if p1 == 0.0:
        return np.sort(np.diag(m))[::-1]
    p2 = (m[0, 0] - q) ** 2 + (m[1, 1] - q) ** 2 + (m[2, 2] - q) ** 2 + 2 * p1
    p = np.sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(b) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2 * p * np.cos(phi)
    lo = q + 2 * p * np.cos(phi + 2 * np.pi / 3.0)
    return np.array([hi, 3 * q - hi - lo, lo])


def singular_oracle(k):
    eigs = symmetric_eigs_by_charpoly(k.T @ k)
    return np.sqrt(np.clip(eigs, 0.0, None))


def test_correlation_matrix_balanced_pure_state():
    k = correlation_matrix(make_pure_state(INV_SQRT2))
    assert np.max(np.abs(k - np.diag([-1.0, -1.0, -1.0]))) < 1e-12


def test_correlation_matrix_maximally_mixed():
    assert np.max(np.abs(correlation_matrix(np.eye(4) / 4))) < 1e-15


def test_correlation_matrix_phase_damped():
    rho = apply_both(make_pure_state(INV_SQRT2), phase_damping(0.5))
    k = correlation_matrix(rho)
    assert np.max(np.abs(k - np.diag([-0.5, -0.5, -1.0]))) < 1e-12


def test_correlation_matrix_pure_state_diagonal_grid():
    for c in np.linspace(0.0, 1.0, 21):
        k = correlation_matrix(make_pure_state(c))
        d = -2 * c * np.sqrt(1 - c * c)
        assert np.max(np.abs(k - np.diag([d, d, -1.0]))) < 1e-12


def test_correlation_matrix_rejects_non_hermitian():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1] = 0.5  # no conjugate partner
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        correlation_matrix(rho)


def test_singular_values_landmarks():
    s = singular_values(np.diag([-1.0, -1.0, -1.0]))
    assert (s.alpha, s.beta, s.gamma_sv) == (1.0, 1.0, 1.0)
    z = singular_values(np.zeros((3, 3)))
    assert (z.alpha, z.beta, z.gamma_sv) == (0.0, 0.0, 0.0)


def test_singular_values_against_charpoly_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = rng.uniform(-1.0, 1.0, size=(3, 3))
        got = singular_values(k)
        expected = singular_oracle(k)
        assert np.max(np.abs(np.array([got.alpha, got.beta, got.gamma_sv]) - expected)) < 1e-10


def test_singular_triple_sorting_and_validation():
    s = SingularTriple.from_values(0.2, 0.9, 0.5)
    assert (s.alpha, s.beta, s.gamma_sv) == (0.9, 0.5, 0.2)
    with pytest.raises(ValueError):
        SingularTriple(0.2, 0.9, 0.5)
    with pytest.raises(ValueError):
        SingularTriple(1.0, 0.5, -0.1)


def test_f_phi_constant_for_degenerate_pair():
    s = SingularTriple(1.0, 0.6, 0.6)
    for phi in np.linspace(0, 2 * np.pi, 17):
        assert abs(f_phi(s, phi) - 0.36) < 1e-14


def test_f_phi_values():
    s = SingularTriple(1.0, 0.8, 0.2)
    assert abs(f_phi(s, 0.0) - 0.04) < 1e-14
    assert abs(f_phi(s, np.pi / 4) - 0.34) < 1e-14
    with pytest.raises(ValueError):
        f_phi(SingularTriple(0.0, 0.0, 0.0), 0.3)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_f_phi_in_unit_interval(alpha, fb, fg, phi):
    beta = alpha * fb
    s = SingularTriple(alpha, beta, beta * fg)
    assert -1e-12 <= f_phi(s, phi) <= 1.0 + 1e-12


def test_quadrature_landmarks():
    assert abs(sigma_quadrature(SingularTriple(1.0, 1.0, 1.0)).value - 0.5) < 1e-9
    assert abs(sigma_quadrature(SingularTriple(1.0, 0.0, 0.0)).value - 0.25) < 1e-9
    assert sigma_quadrature(SingularTriple(0.0, 0.0, 0.0)).value == 0.0


def test_quadrature_against_monte_carlo_degenerate_plateau():
    # triple of the amplitude-damped balanced state at p = 1/2; the exact
    # sphere average for diag(x, x, 0) is x*pi/8
    s = SingularTriple(0.5, 0.5, 0.0)
    quad = sigma_quadrature(s)
    assert abs(quad.value - np.pi / 16) < 1e-9
    mc = sigma_monte_carlo(np.diag([0.5, 0.5, 0.0]), 10**7, seed=314)
    assert abs(quad.value - mc.value) <= 3 * mc.error_bound


def test_closed_form_landmarks():
    assert sigma_closed_pure(1.0, 1.0).value == 0.5
    assert sigma_closed_pure(1.0, 0.0).value == 0.25
    assert sigma_closed_pure(0.0, 0.0).value == 0.0
    with pytest.raises(ValueError):
        sigma_closed_pure(0.5, 0.6)
    with pytest.raises(ValueError):
        sigma_closed_pure(1.0, -0.1)


def test_closed_form_frozen_value_and_cross_checks():
    beta = 2 * 0.9 * np.sqrt(1 - 0.81)
    closed = sigma_closed_pure(1.0, beta)
    assert abs(closed.value - SIGMA_PURE_09) < 1e-12
    quad = sigma_quadrature(SingularTriple(1.0, beta, beta))
    assert abs(closed.value - quad.value) < 1e-9
    mc = sigma_monte_carlo(correlation_matrix(make_pure_state(0.9)), 10**6, seed=99)
    assert abs(closed.value - mc.value) <= 3 * mc.error_bound


def test_closed_form_agrees_with_quadrature_on_degenerate_family():
    for alpha in (1.0, 0.6):
        for frac in np.linspace(0.0, 1.0, 11):
            beta = alpha * frac
            closed = sigma_closed_pure(alpha, beta).value
            quad = sigma_quadrature(SingularTriple(alpha, beta, beta)).value
            assert abs(closed - quad) < 1e-9


def test_closed_form_strictly_increasing_in_beta():
    values = [sigma_closed_pure(1.0, b).value for b in np.linspace(0.0, 1.0, 41)]
    for lo, hi in zip(values, values[1:]):
        assert hi - lo > 1e-12


def test_monte_carlo_zero_matrix_is_exact():
    est = sigma_monte_carlo(np.zeros((3, 3)), 10**4, seed=0)
    assert est.value == 0.0
    assert est.error_bound == 0.0


def test_monte_carlo_landmarks():
    mc = sigma_monte_carlo(np.diag([-1.0, -1.0, -1.0]), 10**6, seed=42)
    assert abs(mc.value - 0.5) <= 3 * mc.error_bound
    mc = sigma_monte_carlo(np.diag([1.0, 0.0, 0.0]), 10**6, seed=43)
    # separable average: E|cos theta_a| * E|cos theta_b| = 1/4
    assert abs(mc.value - 0.25) <= 3 * mc.error_bound


def test_monte_carlo_sign_invariance_and_determinism():
    k = correlation_matrix(make_pure_state(0.8))
    one = sigma_monte_carlo(k, 10**5, seed=7)
    two = sigma_monte_carlo(k, 10**5, seed=7)
    flipped = sigma_monte_carlo(-k, 10**5, seed=7)
    assert one.value == two.value == flipped.value
    assert one.error_bound == flipped.error_bound


def test_monte_carlo_needs_samples():
    with pytest.raises(ValueError):
        sigma_monte_carlo(np.eye(3), 0, seed=1)


def test_permutation_invariance():
    perms = [(0.9, 0.5, 0.2), (0.5, 0.9, 0.2), (0.2, 0.5, 0.9), (0.2, 0.9, 0.5)]
    reference = sigma_quadrature(SingularTriple.from_values(*perms[0])).value
    for perm in perms:
        assert abs(sigma_quadrature(SingularTriple.from_values(*perm)).value - reference) < 1e-9
        mc = sigma_monte_carlo(np.diag(perm), 3 * 10**5, seed=11)
        assert abs(mc.value - reference) <= 4 * mc.error_bound


def test_sigma_for_state_landmarks():
    assert abs(sigma_for_state(make_pure_state(INV_SQRT2), "quadrature").value - 0.5) < 1e-9
    for method in ("closed_form", "quadrature"):
        assert abs(sigma_for_state(make_pure_state(1.0), method).value - 0.25) < 1e-9
    mc = sigma_for_state(make_pure_state(1.0), "monte_carlo", n_samples=10**5, seed=3)
    assert abs(mc.value - 0.25) <= 4 * mc.error_bound
    with pytest.raises(ValueError):
        sigma_for_state(make_pure_state(0.5), "bogus")


def test_sigma_for_state_closed_form_fallback():
    # amplitude damping at p = 0.2 leaves distinct smaller singular values,
    # so a closed-form request must fall back to quadrature
    rho = apply_both(make_pure_state(INV_SQRT2), amplitude_damping(0.2))
    est = sigma_for_state(rho, "closed_form")
    assert est.method == "quadrature"
    pure = sigma_for_state(make_pure_state(0.4), "closed_form")
    assert pure.method == "closed_form"


def test_sigma_for_state_amplitude_damped_crosses_threshold():
    rho = apply_both(make_pure_state(INV_SQRT2), amplitude_damping(0.5))
    quad = sigma_for_state(rho, "quadrature")
    assert quad.value < 0.25
    mc = sigma_for_state(rho, "monte_carlo", n_samples=10**6, seed=17)
    assert abs(quad.value - mc.value) <= 4 * mc.error_bound
    assert mc.value < 0.25


def test_schmidt_sign_invariance():
    # flipping the relative sign of the two Schmidt terms leaves Sigma unchanged
    for c in (0.3, INV_SQRT2, 0.95):
        amp = np.array([0.0, c, +np.sqrt(1 - c * c), 0.0], dtype=complex)
        flipped = np.outer(amp, amp.conj())
        ref = sigma_for_state(make_pure_state(c), "quadrature").value
        assert abs(sigma_for_state(flipped, "quadrature").value - ref) < 1e-12


def test_quadrature_matches_monte_carlo_on_random_states():
    rng = np.random.default_rng(33)
    master = np.random.SeedSequence(34)
    for seq in master.spawn(100):
        rho = random_density(rng)
        k = correlation_matrix(rho)
        quad = sigma_quadrature(singular_values(k))
        mc = sigma_monte_carlo(k, 2 * 10**5, seed=seq)
        assert abs(quad.value - mc.value) <= 4 * mc.error_bound


def test_classify_examples():
    assert classify(0.24) == CLASSICAL_COMPATIBLE
    assert classify(0.36) == NONCLASSICAL
    assert classify(0.30) == INDETERMINATE


def test_classify_boundaries():
    assert classify(0.25) == CLASSICAL_COMPATIBLE
    assert classify(np.nextafter(0.25, 1.0)) == INDETERMINATE
    assert classify(NONCLASSICAL_MIN) == INDETERMINATE
    assert classify(np.nextafter(NONCLASSICAL_MIN, 1.0)) == NONCLASSICAL


def test_classify_accepts_estimates():
    est = sigma_for_state(make_pure_state(INV_SQRT2), "quadrature")
    assert classify(est) == NONCLASSICAL


@given(st.floats(min_value=0.0, max_value=1.0))
def test_classify_total_and_ordered(value):
    label = classify(value)
    if value <= 0.25:
        assert label == CLASSICAL_COMPATIBLE
    elif value > NONCLASSICAL_MIN:
        assert label == NONCLASSICAL
    else:
        assert label == INDETERMINATE


def seeded_triples(n, seed):
    """Sorted random triples plus zeros, degenerate pairs and kinks."""
    rng = np.random.default_rng(seed)
    triples = [np.sort(rng.uniform(0.0, 1.0, 3))[::-1] for _ in range(n)]
    for a in (1.0, 0.37):
        for b in (0.0, 1e-12, 0.2 * a, a * (1 - 1e-10), a):
            triples += [(a, b, 0.0), (a, b, b), (a, b, 0.5 * b)]
    triples += [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]
    return np.array(triples, dtype=float)


def test_quadrature_batch_is_the_single_triple_quadrature():
    triples = seeded_triples(60, 4)
    values, bounds = sigma_quadrature_batch(*triples.T)
    for (a, b, g), value, bound in zip(triples, values, bounds):
        est = sigma_quadrature(SingularTriple(a, b, g))
        assert (est.value, est.error_bound) == (value, bound)


def test_quadrature_batch_matches_elliprg():
    # Sigma = R_G(alpha^2, beta^2, gamma^2) / 2 (Carlson's symmetric integral)
    special = pytest.importorskip("scipy.special")
    triples = seeded_triples(500, 19)
    values, bounds = sigma_quadrature_batch(*triples.T)
    sq = triples**2
    expected = 0.5 * special.elliprg(sq[:, 0], sq[:, 1], sq[:, 2])
    assert np.max(np.abs(values - expected)) <= 1e-11
    assert np.all(bounds >= 0.0)


def test_closed_pure_batch_is_the_single_pair_closed_form():
    rng = np.random.default_rng(12)
    alpha = np.concatenate([rng.uniform(0.0, 1.0, 50), [0.0, 1.0, 1.0, 0.5]])
    beta = np.concatenate([alpha[:50] * rng.uniform(0.0, 1.0, 50), [0.0, 1.0, 0.0, 1e-10]])
    values = sigma_closed_pure_batch(alpha, beta)
    assert [sigma_closed_pure(a, b).value for a, b in zip(alpha, beta)] == values.tolist()
    with pytest.raises(ValueError):
        sigma_closed_pure_batch([0.5, 0.5], [0.2, 0.6])


def test_classify_batch_matches_classify():
    values = np.array([0.0, 0.25, np.nextafter(0.25, 1.0), NONCLASSICAL_MIN,
                       np.nextafter(NONCLASSICAL_MIN, 1.0), 0.5, np.nan])
    assert classify_batch(values).tolist() == [classify(v) for v in values]


def test_t_matrix_blocks():
    rng = np.random.default_rng(1996)
    for _ in range(20):
        rho = random_density(rng)
        t = t_matrix(rho)
        assert t.shape == (4, 4) and t.dtype == float
        assert abs(t[0, 0] - 1.0) <= 1e-15  # trace
        assert np.array_equal(t[1:, 1:], correlation_matrix(rho))
    with pytest.raises(ValueError):
        t_matrix(np.diag([1.0, 0.0, 0.0, 1j]))
