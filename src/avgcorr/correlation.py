"""Correlation matrix and the rotation-averaged correlation.

For a two-qubit state rho the correlation matrix is

    K_ij = tr(rho sigma_i (x) sigma_j),       i, j in {1, 2, 3},

and the average correlation Sigma is the mean of |a^T K b| over
measurement directions a, b drawn independently and uniformly on the unit
sphere. For fixed a, |a^T K b| = |v . b| with v = K^T a, and the mean of
|cos| over the sphere is 1/2, so averaging over b first gives
E_b |a^T K b| = |K^T a| / 2. In the singular basis of K,
|K^T a|^2 = alpha^2 u1^2 + beta^2 u2^2 + gamma_sv^2 u3^2 for a uniform unit
vector u, and the sphere mean of its square root is Carlson's symmetric
elliptic integral R_G (DLMF 19.23). Hence, for every triple
alpha >= beta >= gamma_sv >= 0,

    Sigma = (1/2) E_a |K^T a| = (1/2) R_G(alpha^2, beta^2, gamma_sv^2).

`sigma_rg_batch` evaluates it with Carlson's duplication algorithm for R_F
and R_D (B. C. Carlson, Numer. Algorithms 10 (1995) 13-26,
arXiv:math/9409227). A seeded Monte Carlo average over the two spheres is
the independent cross-check. `sigma_batch` is the one dispatch between the
two, for the sweep, the CLI and `sigma_for_state` alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import IDENTITY_2, PAULIS, tensor2

# Sigma <= 1/4 is attainable by classical correlations; Sigma > 1/(2 sqrt 2)
# only by nonclassical states. The lower boundary is closed, the upper open.
CLASSICAL_MAX = 0.25
NONCLASSICAL_MIN = 0.5 / np.sqrt(2.0)

CLASSICAL_COMPATIBLE = "classical_compatible"
INDETERMINATE = "indeterminate"
NONCLASSICAL = "nonclassical"

IMAG_RESIDUAL_HARD_LIMIT = 1e-9

# Method tag of the exact estimator, which every request but Monte Carlo runs.
ESTIMATOR = "carlson_rg"
# Relative error bound of `sigma_rg_batch` for results above the subnormal
# range; the tests hold it to a 40-digit mpmath.elliprg across the
# sorted-triple simplex, where the worst of 24288 triples measured 6.8e-16.
RG_REL_ERROR_BOUND = 1e-15
# At beta/alpha <= 1e-150 Sigma is alpha/4 to double precision, and from
# about 1e-154 on the R_D term would overflow.
RG_TINY_RATIO = 1e-150
# The duplication stops once every triple's largest value is within this
# relative distance of its smallest. The series variables are then at most
# 1.5e-3, below Carlson's (r/4)^(1/6) for a truncation error r = 2^-53.
RG_SPREAD = 1.5e-3
# b = 1e-150 takes 14 steps; a loop that reaches the cap has met a NaN.
RG_MAX_STEPS = 40

# Generator identity recorded in output metadata; the PCG64 stream is
# stable across numpy versions, so a seed pins results exactly.
RNG_IDENTITY = "numpy.random.Generator(PCG64)"
MC_CHUNK = 1_000_000

# _PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I
_PAULI_PRODUCTS = np.array(
    [[tensor2(si, sj) for sj in (IDENTITY_2,) + PAULIS] for si in (IDENTITY_2,) + PAULIS]
)


def t_matrix(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix T_mu,nu = tr(rho sigma_mu (x) sigma_nu), sigma_0 = I.

    T_00 is the trace, row 0 and column 0 hold the local Bloch vectors, and
    the lower 3x3 block is the correlation matrix K. A local channel pair
    with Pauli-transfer matrices R_A, R_B maps T to R_A T R_B^T.
    """
    t = np.einsum("ab,mnba->mn", np.asarray(rho, dtype=complex), _PAULI_PRODUCTS)
    worst_imag = float(np.max(np.abs(t.imag)))
    if worst_imag > IMAG_RESIDUAL_HARD_LIMIT:
        raise ValueError(
            f"correlation entries have imaginary residual {worst_imag:.3e}; "
            "input is not Hermitian"
        )
    return t.real.copy()


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 real matrix K_ij = tr(rho sigma_i (x) sigma_j), the lower block of T."""
    return np.ascontiguousarray(t_matrix(rho)[1:, 1:])


@dataclass(frozen=True)
class SigmaEstimate:
    """Average-correlation value with its method tag and error bound."""

    value: float
    method: str
    error_bound: float


def sigma_rg_batch(alpha, beta, gamma_sv) -> np.ndarray:
    """Sigma = R_G(alpha^2, beta^2, gamma_sv^2) / 2 of each sorted triple
    (arrays of one shape, alpha >= beta >= gamma_sv >= 0).

    Scaled by alpha, Sigma = (alpha/2) R_G(x, y, z) with (x, y, z) = (1, g^2,
    b^2), b = beta/alpha and g = gamma_sv/alpha, and (DLMF 19.21.10)

        2 R_G = z R_F - (x-z)(y-z) R_D / 3 + sqrt(xy/z).

    The middle value sits in the z slot, so -(x-z)(y-z) >= 0 and no two
    terms cancel. R_F and R_D share one duplication loop over the stacked
    (x, y, z) and finish with Carlson's fifth-order series. Where b is at
    most RG_TINY_RATIO, and so wherever alpha = 0, Sigma is alpha/4.
    """
    alpha = np.asarray(alpha, dtype=float)
    scale = np.maximum(alpha, 5e-324)  # alpha = 0 has beta = gamma_sv = 0
    b = np.asarray(beta, dtype=float) / scale
    g = np.asarray(gamma_sv, dtype=float) / scale
    tiny = b <= RG_TINY_RATIO
    b = np.where(tiny, 1.0, b)  # any valid triple; its value is discarded
    g2 = g * g  # may underflow; sqrt(xy/z) reads the same y = g2 as R_F and R_D
    v = np.array([np.ones_like(b), g2, b * b])  # x >= z >= y, kept so
    fac, rd_sum = 1.0, 0.0
    for _ in range(RG_MAX_STEPS):
        if (v[0] <= (1.0 + RG_SPREAD) * v[1]).all():
            break
        s = np.sqrt(v)
        lam = s[0] * (s[1] + s[2]) + s[1] * s[2]
        rd_sum += fac / (s[2] * (v[2] + lam))
        fac *= 0.25
        v += lam
        v *= 0.25
    else:
        raise RuntimeError(f"R_G duplication did not converge in {RG_MAX_STEPS} steps")
    x, y, z = v
    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)
    mean = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz
    e4, e5 = 3.0 * (xy - zz) * zz, xy * dz * zz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = 3.0 * rd_sum + fac * series / (mean * np.sqrt(mean))
    gap = (1.0 - b) * (1.0 + b) * (b - g) * (b + g)  # -(x-z)(y-z)
    return np.where(tiny, 0.25 * alpha,
                    0.25 * alpha * (b * b * rf + gap * rd / 3.0 + np.sqrt(g2) / b))


def sigma_monte_carlo(
    k: np.ndarray,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> SigmaEstimate:
    """Direct double-sphere average of |a^T K b| over uniform axes.

    Directions come from normalized standard-normal triples, which is
    exactly rotation invariant. Results are deterministic for a fixed seed;
    the error bound is the standard error of the mean.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    k = np.asarray(k, dtype=float)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    left = n_samples
    while left > 0:
        m = min(MC_CHUNK, left)
        a = rng.standard_normal((m, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((m, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        vals = np.abs(np.sum((a @ k) * b, axis=1))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        left -= m
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
        stderr = float(np.sqrt(var / n_samples))
    else:
        stderr = 0.0
    return SigmaEstimate(mean, "monte_carlo", stderr)


ESTIMATORS = ("closed_form", "quadrature", "monte_carlo")


def sigma_batch(
    method: str,
    k: np.ndarray,
    sv: np.ndarray,
    n_samples: int = 1_000_000,
    seeds=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Sigma of every correlation matrix in `k` (shape (..., 3, 3)) whose
    descending singular values are `sv` (shape (..., 3)); returns (values,
    error bounds) with shape sv.shape[:-1].

    "monte_carlo" samples each matrix with its own entry of `seeds` (one per
    matrix, in C order). "closed_form" and "quadrature" both run
    `sigma_rg_batch`, whose error bound is RG_REL_ERROR_BOUND relative.
    """
    if method == "monte_carlo":
        estimates = [sigma_monte_carlo(ki, n_samples, seed)
                     for ki, seed in zip(k.reshape(-1, 3, 3), seeds, strict=True)]
        values = np.array([e.value for e in estimates]).reshape(sv.shape[:-1])
        bounds = np.array([e.error_bound for e in estimates]).reshape(sv.shape[:-1])
        return values, bounds
    if method not in ESTIMATORS:
        raise ValueError(f"unknown method {method!r}")
    values = sigma_rg_batch(*np.moveaxis(sv, -1, 0))
    return values, RG_REL_ERROR_BOUND * values


def sigma_for_state(
    rho: np.ndarray,
    method: str = "quadrature",
    n_samples: int = 1_000_000,
    seed: int | np.random.SeedSequence = 42,
) -> SigmaEstimate:
    """Full pipeline rho -> K -> singular values -> Sigma by `sigma_batch`.

    The method tag is "monte_carlo" for a Monte Carlo request and
    ESTIMATOR for the others.
    """
    k = correlation_matrix(rho)
    sv = np.linalg.svd(k, compute_uv=False)
    values, bounds = sigma_batch(method, k, sv, n_samples, (seed,))
    tag = method if method == "monte_carlo" else ESTIMATOR
    return SigmaEstimate(float(values), tag, float(bounds))


def classify_batch(values) -> np.ndarray:
    """Nonclassicality labels of an array of average-correlation values.

    <= 1/4 is compatible with classical states; > 1/(2 sqrt 2) occurs only
    for nonclassical states; in between is indeterminate.
    """
    values = np.asarray(values, dtype=float)
    return np.where(values <= CLASSICAL_MAX, CLASSICAL_COMPATIBLE,
                    np.where(values > NONCLASSICAL_MIN, NONCLASSICAL, INDETERMINATE))


def classify(sigma: SigmaEstimate | float) -> str:
    """Nonclassicality label of one value or estimate, by `classify_batch`."""
    value = sigma.value if isinstance(sigma, SigmaEstimate) else float(sigma)
    return str(classify_batch(value))
