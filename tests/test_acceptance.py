"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing
one line per criterion (visible with `pytest -rA` or `-s`).
"""

import itertools

import numpy as np
import pytest

from avgcorr import (
    correlation_matrix,
    figure_dataset,
    make_pure_state,
    random_density,
    sigma_for_state,
    validate_density,
)
from avgcorr.cli import run
from avgcorr.correlation import sigma_monte_carlo_batch, sigma_rg_batch

from kraus import amplitude_damping, apply_both, phase_damping
from oracles import sigma_closed_pure
from rows import blocks
from test_channels import amplitude_damped_matrix, phase_damped_matrix
from test_correlation import singular_oracle

INV_SQRT2 = 1 / np.sqrt(2)

# Grid minima of the amplitude-damping curves (c = 1/sqrt(2), t in [0, 8],
# 201 points), pinned by a 40-digit quadrature and confirmed by Monte Carlo
# before freezing. The continuum minimum is exactly 1/6 at p = 2/3, where
# the three singular values coincide at 1/3.
FROZEN_AMPLITUDE_MINIMA = {
    0.5: 0.166666858897777,
    1.0: 0.166702151447134,
    2.0: 0.166711175958823,
}


def _report(number, text):
    print(f"criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def figure1():
    return figure_dataset(1)


@pytest.fixture(scope="module")
def figure2():
    return figure_dataset(2)


def test_criterion_1_landmark_values():
    for c, expected in ((INV_SQRT2, 0.5), (1.0, 0.25)):
        value, _ = sigma_for_state(make_pure_state(c), "exact")
        assert abs(value - expected) <= 1e-9
    _report(1, "Sigma(c=1/sqrt2)=1/2 and Sigma(c=1)=1/4 by the exact R_G estimator")


def test_criterion_2_maximizer_location():
    grid = np.linspace(0.0, 1.0, 2001)
    values, _ = sigma_for_state([make_pure_state(c) for c in grid], "exact")
    best = grid[int(np.argmax(values))]
    step = grid[1] - grid[0]
    assert abs(best - INV_SQRT2) <= step + 1e-12
    _report(2, f"argmax over 2001-point grid at c={best:.6f}, within one step of 1/sqrt2")


def test_criterion_3_oracle_equivalence():
    master = np.random.SeedSequence(20240601)
    worst = 0.0
    for child in master.spawn(50):
        state_seq, mc_seq = child.spawn(2)
        rho = random_density(np.random.default_rng(state_seq))
        exact, _ = sigma_for_state(rho)
        mc, stderr = sigma_monte_carlo_batch(correlation_matrix(rho), 10**6, seed=mc_seq)
        gap = abs(exact - mc)
        assert gap <= 4.0 * stderr
        if stderr:
            worst = max(worst, gap / stderr)
    _report(3, f"50 random states, R_G vs 1e6-sample Monte Carlo, "
               f"worst gap {worst:.2f} standard errors")


def test_criterion_4_phase_damping_floor(figure1):
    for block in blocks(figure1):
        sigmas = np.array([r.sigma for r in block.rows])
        assert np.all(sigmas >= 0.25 - 1e-9)
        assert np.all(sigmas <= 0.5 + 1e-9)
        assert np.all(np.diff(sigmas) <= 1e-12)
        if block.gamma >= 1.0:
            assert abs(sigmas[-1] - 0.25) <= 0.02
    _report(4, "phase-damping curves stay in [1/4, 1/2], nonincreasing, "
               "and saturate at 1/4")


def test_criterion_5_amplitude_damping_crossing(figure2):
    for block in blocks(figure2):
        minimum = min(r.sigma for r in block.rows)
        assert minimum < 0.25
        assert abs(minimum - FROZEN_AMPLITUDE_MINIMA[block.gamma]) <= 1e-6
    _report(5, "amplitude-damping curves cross 1/4; minima match frozen "
               "regression constants to 1e-6")


def test_criterion_6_rate_ordering(figure1, figure2):
    # Sigma depends on (gamma, t) only through p = 1 - exp(-gamma*t), and the
    # figure rates double from block to block on the grid t_k = 0.04*k, so
    # the faster curve at t_k is the slower one at t_2k (rescaling).
    #
    # Rate order then follows from the shape of Sigma(p). At c = 1/sqrt2
    # phase damping gives the triple (1-p, 1-p, 1); R_G grows with each
    # argument, so the whole phase curve falls and a larger rate lies lower
    # at every grid point. Amplitude damping gives (1-p, 1-p, |2p-1|), so
    # Sigma(p) = R_G((1-p)^2, (1-p)^2, (2p-1)^2) / 2. Up to p = 1/2 every
    # entry falls. Past it the pair falls while |2p-1| grows. R_G is
    # symmetric, so where the three squares are equal its partial
    # derivatives are too, and dSigma/dp is proportional to
    # 2*(-2(1-p)) + 4(2p-1) = 12p - 8: zero at p = 2/3, where every singular
    # value is 1/3 and Sigma = R_G(1/9, 1/9, 1/9)/2 = 1/6, the dip of
    # criterion 5. Past 2/3 Sigma rises back to R_G(0, 0, 1)/2 = 1/4 (on a
    # 2e6-point p grid 0.5*scipy.special.elliprg falls up to 2/3 and rises
    # after it). So a larger rate lies lower while the faster curve falls
    # (its p <= 2/3) and higher once the slower one rises (its p >= 2/3);
    # in between the curves must cross and no order is claimed. Each
    # block's grid minimum lies within one step of p = 2/3: t = ln 3/gamma.
    turn_p = 2.0 / 3.0
    tol = 1e-12
    violations = []  # (channel, claim, excess, where)
    for name, curve in (("phase", figure1), ("amplitude", figure2)):
        curve_blocks = blocks(curve)
        rates = [block.gamma for block in curve_blocks]
        assert rates[1:] == [2 * g for g in rates[:-1]], \
            f"{name} rescaling: rates {rates} must double from block to block"
        step = curve_blocks[0].rows[1].t - curve_blocks[0].rows[0].t
        for slow, fast in zip(curve_blocks, curve_blocks[1:]):
            pair = f"gamma={slow.gamma} vs {fast.gamma}"
            for k in range((len(slow.rows) + 1) // 2):
                r_fast, r_slow = fast.rows[k], slow.rows[2 * k]
                excess = max(abs(r_fast.sigma - r_slow.sigma), abs(r_fast.p - r_slow.p))
                if excess > tol:
                    violations.append((name, "rescaling", excess,
                                       f"{pair}, t={r_fast.t:g} vs {r_slow.t:g}"))
            for r_slow, r_fast in zip(slow.rows, fast.rows):
                where = f"{pair}, t={r_slow.t:g}"
                if name == "phase" or r_fast.p <= turn_p:
                    if r_fast.sigma > r_slow.sigma + tol:
                        violations.append((name, "falling branch",
                                           r_fast.sigma - r_slow.sigma, where))
                elif r_slow.p >= turn_p:
                    if r_fast.sigma < r_slow.sigma - tol:
                        violations.append((name, "rising branch",
                                           r_slow.sigma - r_fast.sigma, where))
        if name == "amplitude":
            for block in curve_blocks:
                t_min = min(block.rows, key=lambda r: r.sigma).t
                off = abs(t_min - np.log(3.0) / block.gamma)
                if off > step + tol:
                    violations.append((name, "minimum", off,
                                       f"gamma={block.gamma}, argmin t={t_min:g}"))
    if violations:
        lines = []
        for key in dict.fromkeys(v[:2] for v in violations):
            hits = [v for v in violations if v[:2] == key]
            name, claim, excess, where = max(hits, key=lambda v: v[2])
            lines.append(f"{name} {claim}: {len(hits)} violations, "
                         f"worst {excess:.4g} at {where}")
        print("criterion 6: FAIL - " + "; ".join(lines))
        raise AssertionError("rate ordering broken: " + "; ".join(lines))
    _report(6, "Sigma(2*gamma, t) = Sigma(gamma, 2t) for both channels; phase: "
               "a larger rate gives a pointwise lower curve; amplitude: lower "
               "while the faster curve has p <= 2/3, higher once the slower has "
               "p >= 2/3, grid minimum within one step of t = ln3/gamma "
               "(all at 1e-12)")


def test_criterion_7_channel_correctness():
    for c in (0.3, INV_SQRT2, 0.9):
        rho0 = make_pure_state(c)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            cases = (
                (apply_both(rho0, phase_damping(p)), phase_damped_matrix(c, p)),
                (apply_both(rho0, amplitude_damping(p)), amplitude_damped_matrix(c, p)),
            )
            for got, expected in cases:
                assert np.max(np.abs(got - expected)) <= 1e-12
                assert abs(np.trace(got) - 1.0) <= 1e-12
                assert validate_density(got).min_eigenvalue >= -1e-10
    _report(7, "damped states match the closed-form matrices entrywise at 1e-12")


def exact_sigma(triples):
    """The runtime estimator on diagonal correlation matrices with these
    singular values, one triple per row."""
    triples = np.asarray(triples, dtype=float)
    k = np.zeros(triples.shape[:-1] + (3, 3))
    k[..., [0, 1, 2], [0, 1, 2]] = triples
    sv = np.linalg.svd(k, compute_uv=False)
    return sigma_rg_batch(sv[..., 0], sv[..., 1], sv[..., 2])


def test_criterion_8_property_suite():
    rng = np.random.default_rng(808)

    # SVD reconstruction and agreement with the characteristic-polynomial oracle
    for _ in range(100):
        k = rng.uniform(-1.0, 1.0, size=(3, 3))
        u, s, vt = np.linalg.svd(k)
        assert np.max(np.abs(u @ np.diag(s) @ vt - k)) <= 1e-10
        assert np.max(np.abs(s - singular_oracle(k))) <= 1e-10

    # permutation and sign invariance
    base = (0.8, 0.45, 0.15)
    perms = [np.multiply(perm, signs) for perm in itertools.permutations(base)
             for signs in itertools.product((1.0, -1.0), repeat=3)]
    values = exact_sigma(perms)
    assert np.max(np.abs(values - values[0])) <= 1e-9
    k = rng.uniform(-1.0, 1.0, size=(3, 3))
    assert (sigma_monte_carlo_batch(k, 10**4, seed=2)[0]
            == sigma_monte_carlo_batch(-k, 10**4, seed=2)[0])

    # bounds alpha/4 <= Sigma <= alpha/2 on a 20x20x20 sorted-triple grid
    fractions = np.linspace(0.0, 1.0, 20)
    alpha, fb, fg = np.meshgrid(fractions, fractions, fractions, indexing="ij")
    grid = np.stack([alpha, alpha * fb, alpha * fb * fg], axis=-1).reshape(-1, 3)
    values = exact_sigma(grid)
    assert np.all(grid[:, 0] / 4 - 1e-9 <= values)
    assert np.all(values <= grid[:, 0] / 2 + 1e-9)

    # limit paths: all singular values equal, two of them 0, and degenerate
    # pairs near both ends, against the closed-form oracle
    assert exact_sigma([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]).tolist() == [0.5, 0.25]
    for beta in (1.0 - 1e-10, np.sqrt(1.0 - 1e-9), 1e-10):
        exact = exact_sigma([[1.0, beta, beta]])[0]
        closed = sigma_closed_pure(1.0, beta).value
        assert abs(exact - closed) <= 1e-9
    _report(8, "SVD reconstruction, permutation/sign invariance, "
               "alpha/4..alpha/2 bounds on 8000 triples, and limit paths")


def test_criterion_9_determinism(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run(["sweep", "--figure", "2", "--seed", "7", "--out", str(first)]) == 0
    assert run(["sweep", "--figure", "2", "--seed", "7", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(9, "repeated `sweep --figure 2 --seed 7` runs are byte-identical")
