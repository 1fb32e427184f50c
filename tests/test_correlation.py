import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import avgcorr.correlation as correlation
from avgcorr import (
    CLASSICAL_COMPATIBLE,
    CLASSICAL_MAX,
    INDETERMINATE,
    NONCLASSICAL,
    NONCLASSICAL_MIN,
    classify,
    correlation_matrix,
    make_pure_state,
    random_density,
    sigma_for_state,
)
from avgcorr.correlation import (
    RG_ABS_ERROR_FLOOR,
    RG_REL_ERROR_BOUND,
    RG_TINY_RATIO,
    _singular_values,
    sigma_monte_carlo_batch,
    sigma_rg_batch,
)
from avgcorr.states import IDENTITY_2, PAULIS, tensor2
from kraus import amplitude_damping, apply_both, phase_damping
from oracles import (
    SingularTriple,
    sigma_closed_pure,
    sigma_closed_pure_batch,
    sigma_quadrature,
    sigma_quadrature_batch,
    singular_values,
)
from transfer import t_matrix

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


def test_pauli_products_are_the_kronecker_products_bit_for_bit():
    sigmas = (IDENTITY_2, *PAULIS)
    kron = np.array([[tensor2(a, b) for b in sigmas] for a in sigmas])
    assert np.array_equal(correlation._PAULI_PRODUCTS.view(np.int64), kron.view(np.int64))


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
    mc, stderr = sigma_monte_carlo_batch(np.diag([0.5, 0.5, 0.0]), 10**7, seed=314)
    assert abs(quad.value - mc) <= 3 * stderr


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
    mc, stderr = sigma_monte_carlo_batch(correlation_matrix(make_pure_state(0.9)), 10**6, seed=99)
    assert abs(closed.value - mc) <= 3 * stderr


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
    value, stderr = sigma_monte_carlo_batch(np.zeros((3, 3)), 10**4, seed=0)
    assert value == 0.0
    assert stderr == 0.0


def test_monte_carlo_landmarks():
    mc, stderr = sigma_monte_carlo_batch(np.diag([-1.0, -1.0, -1.0]), 10**6, seed=42)
    assert abs(mc - 0.5) <= 3 * stderr
    mc, stderr = sigma_monte_carlo_batch(np.diag([1.0, 0.0, 0.0]), 10**6, seed=43)
    # separable average: E|cos theta_a| * E|cos theta_b| = 1/4
    assert abs(mc - 0.25) <= 3 * stderr


def test_monte_carlo_sign_invariance_and_determinism():
    k = correlation_matrix(make_pure_state(0.8))
    one = sigma_monte_carlo_batch(k, 10**5, seed=7)
    two = sigma_monte_carlo_batch(k, 10**5, seed=7)
    flipped = sigma_monte_carlo_batch(-k, 10**5, seed=7)
    assert one[0] == two[0] == flipped[0]
    assert one[1] == flipped[1]


def test_monte_carlo_needs_samples():
    with pytest.raises(ValueError):
        sigma_monte_carlo_batch(np.eye(3), 0, seed=1)


def test_permutation_invariance():
    perms = [(0.9, 0.5, 0.2), (0.5, 0.9, 0.2), (0.2, 0.5, 0.9), (0.2, 0.9, 0.5)]
    reference = sigma_quadrature(SingularTriple.from_values(*perms[0])).value
    for perm in perms:
        assert abs(sigma_quadrature(SingularTriple.from_values(*perm)).value - reference) < 1e-9
        mc, stderr = sigma_monte_carlo_batch(np.diag(perm), 3 * 10**5, seed=11)
        assert abs(mc - reference) <= 4 * stderr


def test_sigma_for_state_landmarks():
    assert abs(sigma_for_state(make_pure_state(INV_SQRT2))[0] - 0.5) < 1e-9
    assert abs(sigma_for_state(make_pure_state(1.0))[0] - 0.25) < 1e-9
    mc, stderr = sigma_monte_carlo_batch(correlation_matrix(make_pure_state(1.0)), 10**5, 3)
    assert abs(mc - 0.25) <= 4 * stderr


def test_sigma_for_state_exact_methods_agree():
    # amplitude damping at p = 0.2 leaves distinct smaller singular values and
    # the undamped c = 0.4 state a degenerate pair; R_G runs on either
    for rho in (apply_both(make_pure_state(INV_SQRT2), amplitude_damping(0.2)),
                make_pure_state(0.4)):
        value, bound = sigma_for_state(rho)
        assert bound == RG_REL_ERROR_BOUND * value


def _non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.2j
    return rho


@pytest.mark.parametrize("rho, failure", [
    (2.0 * make_pure_state(0.6), "trace deviation 1.000e+00"),
    (np.diag([0.5, 0.5, 0.5, -0.5]), "min eigenvalue -5.000e-01"),
    (_non_hermitian(), "hermiticity residual 2.000e-01"),
    (np.diag([np.nan, 1.0, 0.0, 0.0]), "non-finite entries: 1"),
])
def test_sigma_for_state_rejects_a_non_density_matrix(rho, failure):
    with pytest.raises(ValueError, match="^not a density matrix: ") as info:
        sigma_for_state(rho)
    assert failure in str(info.value)
    assert "\n" not in str(info.value)


def bloch_states(u):
    """The qubit states of the Bloch vectors u (shape (..., 3))."""
    return (IDENTITY_2 + np.einsum("...i,ijk->...jk", u, PAULIS)) / 2


def test_separable_states_stay_at_or_below_one_quarter():
    # a product state has K = u v^T with |u|, |v| <= 1, so Sigma = |u||v|/4;
    # Sigma, the mean of |a^T K b|, is convex in K and K linear in rho, so
    # every mixture of product states stays at or below 1/4
    rng = np.random.default_rng(340)
    n, parts = 4000, 4
    u, v = rng.standard_normal((2, n, parts, 3))
    a, b = (bloch_states(x / np.linalg.norm(x, axis=-1, keepdims=True)) for x in (u, v))
    products = np.einsum("...ij,...kl->...ikjl", a, b).reshape(n, parts, 4, 4)
    count = rng.integers(1, parts + 1, n)  # product pure states in each mixture
    weights = rng.dirichlet(np.ones(parts), n) * (np.arange(parts) < count[:, None])
    rhos = np.einsum("np,npij->nij", weights / weights.sum(1, keepdims=True), products)
    values, bounds = sigma_for_state(rhos)
    assert (values <= CLASSICAL_MAX + bounds).all()
    pure = count == 1  # |u| = |v| = 1: the bound is reached
    assert pure.any() and (np.abs(values[pure] - CLASSICAL_MAX) <= bounds[pure]).all()


def test_sigma_above_the_nonclassical_bound_implies_a_chsh_violation():
    # a state violates CHSH iff M > 1, M the sum of K's two largest squared
    # singular values (Horodecki); Sigma <= sqrt(|K|_F^2 / 3) / 2 by Jensen
    # and |K|_F^2 <= 3M/2, so Sigma > 1/(2 sqrt 2) needs M > 1. On the grid
    # of Bell-diagonal states, K = -diag(triple), every sorted triple with
    # alpha + beta - gamma_sv <= 1 (the state's positivity) in steps of 1/40
    grid = np.arange(41) / 40
    alpha, beta, gamma_sv = np.meshgrid(grid, grid, grid, indexing="ij")
    keep = (alpha >= beta) & (beta >= gamma_sv) & (alpha + beta - gamma_sv <= 1.0)
    triples = np.stack((alpha[keep], beta[keep], gamma_sv[keep]), axis=-1)
    products = np.array([tensor2(p, p) for p in PAULIS])
    bell = (tensor2(IDENTITY_2, IDENTITY_2) - np.einsum("ni,ikl->nkl", triples, products)) / 4
    rng = np.random.default_rng(200)
    rhos = np.concatenate((bell, [random_density(rng) for _ in range(3000)]))
    values, _ = sigma_for_state(rhos)
    sv = np.linalg.svd(correlation_matrix(rhos), compute_uv=False)
    above = values > NONCLASSICAL_MIN
    assert above[:len(bell)].any() and above[len(bell):].any()
    assert (sv[above, 0] ** 2 + sv[above, 1] ** 2 > 1.0).all()
    # the isotropic triple 1/sqrt(2), where M = 1, reaches the bound
    isotropic = (tensor2(IDENTITY_2, IDENTITY_2) - INV_SQRT2 * products.sum(0)) / 4
    value, bound = sigma_for_state(isotropic)
    assert abs(value - NONCLASSICAL_MIN) <= bound


def test_sigma_for_state_amplitude_damped_crosses_threshold():
    rho = apply_both(make_pure_state(INV_SQRT2), amplitude_damping(0.5))
    quad, _ = sigma_for_state(rho)
    assert quad < 0.25
    mc, stderr = sigma_monte_carlo_batch(correlation_matrix(rho), 10**6, 17)
    assert abs(quad - mc) <= 4 * stderr
    assert mc < 0.25


def test_schmidt_sign_invariance():
    # flipping the relative sign of the two Schmidt terms leaves Sigma unchanged
    for c in (0.3, INV_SQRT2, 0.95):
        amp = np.array([0.0, c, +np.sqrt(1 - c * c), 0.0], dtype=complex)
        flipped = np.outer(amp, amp.conj())
        ref = sigma_for_state(make_pure_state(c))[0]
        assert abs(sigma_for_state(flipped)[0] - ref) < 1e-12


def test_quadrature_matches_monte_carlo_on_random_states():
    rng = np.random.default_rng(33)
    master = np.random.SeedSequence(34)
    for seq in master.spawn(100):
        rho = random_density(rng)
        k = correlation_matrix(rho)
        quad = sigma_quadrature(singular_values(k))
        mc, stderr = sigma_monte_carlo_batch(k, 2 * 10**5, seed=seq)
        assert abs(quad.value - mc) <= 4 * stderr


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
    value, _ = sigma_for_state(make_pure_state(INV_SQRT2))
    assert classify(value) == NONCLASSICAL


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
    assert classify(values).tolist() == [classify(v) for v in values]


def test_nan_is_indeterminate_and_labels_keep_their_dtype():
    assert classify(np.nan) == INDETERMINATE
    assert classify([np.nan]).tolist() == [INDETERMINATE]
    labels = [classify(0.3), classify([np.nan]), classify(np.zeros((2, 3)))]
    assert [type(x) for x in labels] == [np.ndarray] * 3
    assert [x.shape for x in labels] == [(), (1,), (2, 3)]
    assert {x.dtype for x in labels} == {np.dtype("<U20")}


def test_t_matrix_blocks():
    rng = np.random.default_rng(1996)
    for _ in range(20):
        rho = random_density(rng)
        t = t_matrix(rho)
        assert t.shape == (4, 4) and t.dtype == float
        assert abs(t[0, 0] - 1.0) <= 1e-15  # trace
        assert np.array_equal(t[1:, 1:], correlation_matrix(rho))
    with pytest.raises(ValueError, match="^not a density matrix: hermiticity residual "):
        correlation_matrix(np.diag([1.0, 0.0, 0.0, 1j]))


def simplex_triples(n, seed):
    """`seeded_triples` plus the far ends of the simplex: alpha = 1e154,
    magnitudes near 1e+-150 and 1e-300, subnormals, and ratios beta/alpha on
    both sides of RG_TINY_RATIO."""
    extremes = []
    for a in (1e154, 1e150, 1e-150, 1e-300, 1e-310, 5e-324):
        for fb in (1.0, 0.5, 1e-149, 1e-151, 0.0):
            extremes += [(a, a * fb, a * fb * fg) for fg in (1.0, 0.3, 0.0)]
    # subnormal smaller values under a unit alpha, as c = 5e-324 gives
    for b in (5e-324, 1e-310, 2.2e-308, 1e-200):
        extremes += [(1.0, b, b), (1.0, b, 0.0), (1.0, 1.0, b)]
    return np.vstack([seeded_triples(n, seed), extremes])


# Results below 2^-1022 are subnormal and carry an absolute rounding of a
# few units of 2^-1074 that no relative bound can cover.
SUBNORMAL_SLACK = 4 * 2.0**-1074


def test_rg_matches_quadrature_oracle_across_simplex():
    triples = simplex_triples(300, 61)
    assert np.all(triples[:, 0] >= triples[:, 1]) and np.all(triples[:, 1] >= triples[:, 2])
    # Sigma is homogeneous of degree one. The oracle runs on the triple
    # scaled to alpha = 1, because at a subnormal alpha its own sums keep
    # too few digits for 1e-11.
    scale = np.where(triples[:, 0] > 0.0, triples[:, 0], 1.0)
    expected = scale * sigma_quadrature_batch(*(triples / scale[:, None]).T)[0]
    got = sigma_rg_batch(*triples.T)
    assert np.all(np.abs(got - expected) <= 1e-11 * expected + SUBNORMAL_SLACK)


def test_rg_matches_monte_carlo_across_simplex():
    triples = simplex_triples(12, 62)
    unit = triples[(triples[:, 0] <= 1.0) & (triples[:, 0] >= 1e-3)]
    got = sigma_rg_batch(*unit.T)
    master = np.random.SeedSequence(63)
    for triple, value, seq in zip(unit, got, master.spawn(len(unit))):
        mc, stderr = sigma_monte_carlo_batch(np.diag(triple), 2 * 10**5, seed=seq)
        assert abs(value - mc) <= 4 * stderr or value == mc, triple


@pytest.mark.parametrize("alpha", [1.0, 0.37])
def test_rg_matches_monte_carlo_near_the_isotropic_corner(alpha):
    # near (1, 1, 1) every |K^T a| is close to alpha, spread by about delta/2
    # of it, far below the rounding of a one-pass sum of squares: the
    # standard error must keep that spread and still cover the gap to R_G.
    # At 2e5 samples it is about 3e-4 delta, so below delta = 1e-12 it falls
    # under an ulp of the mean and R_G's own rounding.
    deltas = [(0.0, 0.0), (0.0, 1e-3), (1e-4, 1e-4), (0.0, 1e-6), (0.0, 1e-9),
              (1e-10, 3e-10), (0.0, 1e-12)]
    triples = np.array([(alpha, alpha * (1 - db), alpha * (1 - dg)) for db, dg in deltas])
    got = sigma_rg_batch(*triples.T)
    for triple, value, seq in zip(triples, got, np.random.SeedSequence(65).spawn(len(triples))):
        mc, stderr = sigma_monte_carlo_batch(np.diag(triple), 2 * 10**5, seed=seq)
        assert stderr > 0.0 or triple[0] == triple[2], triple
        assert abs(value - mc) <= 4 * stderr or value == mc, triple


def mpmath_sigma(mpmath, a2, b2, g2):
    """Sigma = R_G(a2, b2, g2) / 2 of a descending triple's squares, by
    mpmath. The smallest goes first: mpmath 1.3.0's elliprg(x, x, z) returns
    half of R_G when z lies within about 10^(-dps/2) of x, and a descending
    triple with a = b puts its two equal values first."""
    return mpmath.elliprg(g2, a2, b2) / 2


def test_mpmath_oracle_keeps_a_nearly_equal_third_value():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = 1 - mpmath.mpf(10) ** -25
        # R_G(1, 1, x) = 1 - (1 - x)/6 + ...; the descending call gives 1/2
        assert abs(mpmath_sigma(mpmath, 1, 1, x) - 0.5) < 1e-25
        assert abs(mpmath_sigma(mpmath, 1, x, x) - 0.5) < 1e-25


def test_rg_matches_mpmath_elliprg_across_simplex():
    mpmath = pytest.importorskip("mpmath")
    triples = simplex_triples(150, 64)
    got = sigma_rg_batch(*triples.T)
    with mpmath.workdps(40):
        for (a, b, g), value in zip(triples.tolist(), got.tolist()):
            exact = mpmath_sigma(mpmath, *(mpmath.mpf(s) ** 2 for s in (a, b, g)))
            error = abs(mpmath.mpf(value) - exact)
            assert error <= RG_REL_ERROR_BOUND * exact + SUBNORMAL_SLACK, (a, b, g, value)


def test_rg_guards_and_landmarks():
    assert sigma_rg_batch([1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]).tolist() == [
        0.5, 0.25, 0.0]
    # at beta/alpha <= RG_TINY_RATIO Sigma is alpha/4, every entry taking
    # the guard at once included
    alpha = np.array([1.0, 1e154, 2.0, 5e-324])
    guarded = sigma_rg_batch(alpha, alpha * RG_TINY_RATIO, [0.0, 0.0, 1e-300, 0.0])
    assert guarded.tolist() == (alpha / 4).tolist()
    assert sigma_rg_batch([], [], []).shape == (0,)
    with pytest.raises(RuntimeError):
        sigma_rg_batch([np.nan], [np.nan], [np.nan])


# ratios of a sorted triple: zero, a degenerate pair, R_G's tiny-ratio
# guard and anything in between
RATIOS = st.one_of(st.sampled_from([0.0, 1.0, RG_TINY_RATIO]),
                   st.floats(0.0, RG_TINY_RATIO), st.floats(0.0, 1.0))


@given(st.floats(0.0, 1e300), RATIOS, RATIOS)
def test_rg_of_a_0d_triple_is_its_batch_of_one_bit_for_bit(alpha, beta_ratio, gamma_ratio):
    beta = alpha * beta_ratio
    gamma_sv = beta * gamma_ratio
    batch = sigma_rg_batch([alpha], [beta], [gamma_sv])
    for one in (sigma_rg_batch(np.asarray(alpha), np.asarray(beta), np.asarray(gamma_sv)),
                sigma_rg_batch(alpha, beta, gamma_sv)):
        assert np.shape(one) == () and batch.shape == (1,)
        assert np.asarray(one).tobytes() == batch.tobytes(), (alpha, beta, gamma_sv)


def triple_from_ratios(alpha, beta_ratio, gamma_ratio):
    return alpha, alpha * beta_ratio, alpha * beta_ratio * gamma_ratio


@given(st.lists(st.tuples(st.floats(0.0, 1e300), RATIOS, RATIOS).map(
    lambda ratios: triple_from_ratios(*ratios)), min_size=1, max_size=30))
def test_rg_of_a_batch_is_each_triple_alone_bit_for_bit(triples):
    batch = sigma_rg_batch(*np.array(triples).T)
    alone = np.array([sigma_rg_batch(*triple) for triple in triples])
    assert batch.tobytes() == alone.tobytes(), triples
    # the same for the K -> Sigma step on a stack of K with these triples,
    # rotated, and on the stack scaled by 2^-600, below SVD_RESCALE_BELOW
    rng = np.random.default_rng(len(triples))
    u, v = (np.linalg.qr(rng.standard_normal((len(triples), 3, 3)))[0] for _ in "uv")
    ks = u @ (np.array(triples)[:, :, None] * v)
    for stack in (ks, np.ldexp(ks, -600)):
        batch = sigma_rg_batch(*_singular_values(stack).T)
        alone = np.array([sigma_rg_batch(*_singular_values(k)) for k in stack])
        assert batch.tobytes() == alone.tobytes(), triples


def test_rg_values_do_not_move_with_their_batch():
    # each triple stops at its own convergence: a batch of sorted uniform
    # triples, with or without a slow (1, 1e-149, 0) triple, gives every
    # triple's value alone
    rng = np.random.default_rng(2000)
    triples = -np.sort(-rng.uniform(0.0, 1.0, (2000, 3)), axis=1)
    alone = np.array([sigma_rg_batch(*triple) for triple in triples])
    with_slow = np.vstack([triples, [1.0, 1e-149, 0.0]])
    assert sigma_rg_batch(*triples.T).tobytes() == alone.tobytes()
    assert sigma_rg_batch(*with_slow.T)[:-1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("triple", [(np.nan, np.nan, np.nan), (1.0, 0.5, np.nan),
                                    (1.0, np.nan, np.nan)])
def test_rg_of_a_0d_nan_triple_raises(triple):
    with pytest.raises(RuntimeError, match="did not converge"):
        sigma_rg_batch(*map(np.asarray, triple))


def test_sigma_for_state_exact_methods_are_one_estimator():
    # Bell-diagonal states with K = -diag(triple / 2): sigma_for_state runs
    # R_G on K's singular values, with a relative bound in the normal range
    # and the floor below it (Sigma = 0 here, subnormal Sigma in the next test)
    products = [tensor2(p, p) for p in PAULIS]
    for triple in seeded_triples(40, 65) / 2:
        rho = (tensor2(IDENTITY_2, IDENTITY_2)
               - np.einsum("i,ikl->kl", triple, products)) / 4
        want = float(sigma_rg_batch(*_singular_values(correlation_matrix(rho))))
        bound = RG_REL_ERROR_BOUND * want if want >= 2.0**-1022 else RG_ABS_ERROR_FLOOR
        assert sigma_for_state(rho) == (want, bound), triple


def test_sigma_for_state_error_bound_covers_subnormal_values():
    mpmath = pytest.importorskip("mpmath")
    # correlations of about 1e-310 and 1e-320 give subnormal values of Sigma.
    # The z-z entry stays 0: it sits on the diagonal of rho beside 1/4, where
    # a subnormal part would be rounded away.
    rng = np.random.default_rng(66)
    products = [[tensor2(si, sj) for sj in PAULIS] for si in PAULIS]
    worst = 0.0
    for scale in (1e-310, 1e-320):
        for _ in range(20):
            t = scale * rng.uniform(-1.0, 1.0, (3, 3))
            t[2, 2] = 0.0
            rho = (tensor2(IDENTITY_2, IDENTITY_2)
                   + np.einsum("ij,ijkl->kl", t, products)) / 4
            value, bound = sigma_for_state(rho)
            sv = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
            with mpmath.workdps(40):
                exact = mpmath_sigma(mpmath, *(mpmath.mpf(s) ** 2 for s in sv.tolist()))
                error = float(abs(mpmath.mpf(float(value)) - exact))
            assert 0.0 < value < 2.0**-1022
            assert bound == RG_ABS_ERROR_FLOOR
            assert error <= bound, (scale, t)
            worst = max(worst, error)
    assert worst > 0.0  # the states do round


@pytest.mark.parametrize("diagonal, triple", [
    ([-1e-300, -1e-300, 0.0], [1e-300, 1e-300, 0.0]),
    ([-2e-300, 1e-300, 0.0], [2e-300, 1e-300, 0.0]),
    ([0.0, 5e-324, 0.0], [5e-324, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
])
def test_singular_values_of_a_tiny_k_are_exact(diagonal, triple):
    assert _singular_values(np.diag(diagonal)).tolist() == triple


def test_singular_values_in_the_normal_range_are_lapacks():
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e-100, 2.0**-459):
        k = scale * rng.standard_normal((3, 3))
        k[0, 0] = scale  # so max|K| >= scale >= SVD_RESCALE_BELOW
        assert (_singular_values(k) == np.linalg.svd(k, compute_uv=False)).all()


@pytest.mark.parametrize("rho_03, rho_12", [(-2.5e-301, -2.5e-301), (-7.5e-301, -2.5e-301)])
def test_sigma_for_state_of_a_nearly_uncorrelated_state_is_exact(rho_03, rho_12):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = rho_03
    rho[1, 2] = rho[2, 1] = rho_12
    k = correlation_matrix(rho)  # diag(2(rho_03 + rho_12), 2(rho_12 - rho_03), 0)
    assert np.count_nonzero(k - np.diag(np.diag(k))) == 0
    triple = sorted(np.abs(np.diag(k)), reverse=True)
    assert sigma_for_state(rho)[0] == float(sigma_rg_batch(*triple))


def state_stack(shape, seed):
    """Random density matrices in an array of shape shape + (4, 4)."""
    rng = np.random.default_rng(seed)
    rhos = [random_density(rng) for _ in range(int(np.prod(shape)))]
    return np.array(rhos, dtype=complex).reshape(*shape, 4, 4)


@pytest.mark.parametrize("n", [2, 3, 20, 5000])
def test_correlation_matrix_of_a_stack_is_each_state_alone_bit_for_bit(n):
    rhos = state_stack((n,), n)
    alone = np.array([correlation_matrix(rho) for rho in rhos])
    assert correlation_matrix(rhos).tobytes() == alone.tobytes()
    assert correlation_matrix(rhos.reshape(-1, 1, 4, 4)).tobytes() == alone.tobytes()


# the two estimators `verify` runs on a stack of states, by the names of its
# output: R_G through sigma_for_state, and Monte Carlo on the states' K
ESTIMATORS = {
    "exact": sigma_for_state,
    "monte_carlo": lambda rhos: sigma_monte_carlo_batch(correlation_matrix(rhos), 3000, 72),
}


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,)], ids=["one", "5", "2x3", "empty"])
def test_sigma_for_state_of_a_stack_is_each_state_alone_bit_for_bit(shape, method):
    estimate = ESTIMATORS[method]
    rhos = state_stack(shape, 71)
    values, bounds = estimate(rhos)
    assert type(values) is type(bounds) is np.ndarray
    assert values.shape == bounds.shape == shape
    alone = [estimate(rho) for rho in rhos.reshape(-1, 4, 4)]
    assert values.ravel().tobytes() == np.array([v for v, _ in alone], float).tobytes()
    assert bounds.ravel().tobytes() == np.array([b for _, b in alone], float).tobytes()


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("shape, at", [((5,), (3,)), ((2, 3), (1, 0)), ((2, 3), (0, 2)),
                                       ((3,), (1,))])
def test_sigma_for_state_names_the_first_bad_state_of_a_stack(shape, at, method):
    rhos = state_stack(shape, 73)
    rhos[at] *= 2.0  # trace 2
    rhos[(-1,) * len(shape)] = np.diag([0.5, 0.5, 0.5, -0.5])  # the last, bad too, goes unnamed
    message = re.escape(f"not a density matrix at index {list(at)}: trace deviation 1.000e+00")
    with pytest.raises(ValueError, match="^" + message + "$") as info:
        ESTIMATORS[method](rhos)
    assert info.traceback[-1].name == "correlation_matrix"  # the check's one owner raised it
    with pytest.raises(ValueError, match="^" + message + "$"):
        correlation_matrix(rhos)
