"""Correlation matrix, singular values, and the rotation-averaged correlation.

For a two-qubit state rho the correlation matrix is

    K_ij = tr(rho sigma_i (x) sigma_j),       i, j in {1, 2, 3},

and the average correlation Sigma is the mean of |a^T K b| over
measurement directions a, b drawn independently and uniformly on the unit
sphere. Sigma depends on K only through its singular values
alpha >= beta >= gamma_sv and reduces to the single integral

    Sigma = (alpha/4) * [1 + (1/2pi) * int_0^{2pi} g(f(phi)) dphi]

with

    f(phi) = (beta/alpha)^2 sin^2(phi) + (gamma_sv/alpha)^2 cos^2(phi),
    g(f)   = f / sqrt(1-f) * arcsinh(sqrt((1-f)/f)),

where g is extended by its limits g(0) = 0 and g(1) = 1. When the two
smaller singular values coincide, f is constant and the integral collapses
to the closed form implemented in `sigma_closed_pure`.

Three estimators are provided: the closed form, a spectrally convergent
periodic quadrature, and a seeded Monte Carlo average over the two spheres
that serves as an independent cross-check of the other two.
"""

from __future__ import annotations

import functools
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
DEGENERATE_PAIR_TOL = 1e-9

QUADRATURE_START_NODES = 512
QUADRATURE_MAX_NODES = 2**20
QUADRATURE_REL_TOL = 1e-10
# Triples refined together, and the most integrand values evaluated at once
# (16 triples x 1024 nodes); larger blocks cost memory and gain no speed.
QUADRATURE_BLOCK = 16
QUADRATURE_BLOCK_VALUES = QUADRATURE_BLOCK * 2 * QUADRATURE_START_NODES

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
class SingularTriple:
    """Singular values of a correlation matrix, sorted descending."""

    alpha: float
    beta: float
    gamma_sv: float

    def __post_init__(self):
        if not self.alpha >= self.beta >= self.gamma_sv >= 0.0:
            raise ValueError(
                f"singular values must satisfy alpha >= beta >= gamma_sv >= 0, "
                f"got ({self.alpha}, {self.beta}, {self.gamma_sv})"
            )

    @classmethod
    def from_values(cls, x: float, y: float, z: float) -> "SingularTriple":
        a, b, g = sorted((float(x), float(y), float(z)), reverse=True)
        return cls(a, b, g)


def singular_values(k: np.ndarray) -> SingularTriple:
    """Singular values of a 3x3 matrix, sorted descending."""
    vals = np.linalg.svd(np.asarray(k, dtype=float), compute_uv=False)
    return SingularTriple(float(vals[0]), float(vals[1]), float(vals[2]))


def f_phi(s: SingularTriple, phi) -> float | np.ndarray:
    """Angular weight (beta/alpha)^2 sin^2(phi) + (gamma_sv/alpha)^2 cos^2(phi).

    Lies in [0, 1] because the triple is sorted. Undefined at alpha = 0;
    the caller must short-circuit Sigma = 0 there.
    """
    if s.alpha == 0.0:
        raise ValueError("f_phi is undefined for alpha = 0 (Sigma is 0 there)")
    b2 = (s.beta / s.alpha) ** 2
    g2 = (s.gamma_sv / s.alpha) ** 2
    return b2 * np.sin(phi) ** 2 + g2 * np.cos(phi) ** 2


@dataclass(frozen=True)
class SigmaEstimate:
    """Average-correlation value with its method tag and error bound."""

    value: float
    method: str
    error_bound: float


def _g_kernel(f: np.ndarray) -> np.ndarray:
    """g(f) = f/sqrt(1-f) * arcsinh(sqrt((1-f)/f)) on [0, 1], by its limits
    at the endpoints.

    Near f = 1 the direct expression cancels catastrophically, so it is
    replaced by the expansion sqrt(f) * (1 - e/(6f) + 3e^2/(40f^2)) in
    e = 1 - f, accurate to ~e^3.
    """
    f = np.clip(np.asarray(f, dtype=float), 0.0, 1.0)
    out = np.zeros_like(f)
    near_one = f > 1.0 - 1e-8
    # below ~1e-300 the ratio (1-f)/f overflows; g there is < 1e-297 ~ 0
    mid = ~near_one & (f > 1e-300)

    fm = f[mid]
    out[mid] = fm / np.sqrt(1.0 - fm) * np.arcsinh(np.sqrt((1.0 - fm) / fm))

    fh = f[near_one]
    eps = 1.0 - fh
    out[near_one] = np.sqrt(fh) * (1.0 - eps / (6.0 * fh) + 3.0 * eps**2 / (40.0 * fh**2))
    return out


@functools.lru_cache(maxsize=8)
def _node_grid(n: int, midpoint: bool) -> tuple[np.ndarray, np.ndarray]:
    """sin^2 and cos^2 at the n equally spaced nodes 2 pi k/n over the full
    period, or at the midpoints between them."""
    if midpoint:
        phi = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    else:
        phi = 2.0 * np.pi * np.arange(n) / n
    s2, c2 = np.sin(phi) ** 2, np.cos(phi) ** 2
    s2.flags.writeable = c2.flags.writeable = False
    return s2, c2


def _mean_g(b2: np.ndarray, g2: np.ndarray, n: int, midpoint: bool) -> np.ndarray:
    """Per-row mean of g(b2 sin^2 + g2 cos^2) over one node grid, evaluated
    in chunks of at most QUADRATURE_BLOCK_VALUES integrand values."""
    s2, c2 = _node_grid(n, midpoint)
    out = np.empty(len(b2))
    rows = max(1, QUADRATURE_BLOCK_VALUES // n)
    for lo in range(0, len(b2), rows):
        part = slice(lo, lo + rows)
        f = b2[part, None] * s2 + g2[part, None] * c2
        out[part] = np.mean(_g_kernel(f.ravel()).reshape(f.shape), axis=1)
    return out


def sigma_quadrature_batch(
    alpha,
    beta,
    gamma_sv,
    rel_tol: float = QUADRATURE_REL_TOL,
    start_nodes: int = QUADRATURE_START_NODES,
    max_nodes: int = QUADRATURE_MAX_NODES,
) -> tuple[np.ndarray, np.ndarray]:
    """Average correlation of each sorted triple (1-D arrays alpha >= beta >=
    gamma_sv >= 0) by periodic trapezoidal quadrature over phi; returns
    (values, error bounds).

    Equally spaced nodes over the full period give spectral convergence for
    the smooth integrand; each triple's node count doubles by midpoint
    refinement until two successive estimates agree to `rel_tol`
    (relative), and its error bound is the last successive difference.
    Triples are refined together in blocks of QUADRATURE_BLOCK.
    """
    alpha = np.asarray(alpha, dtype=float)
    # alpha = 0 forces beta = gamma_sv = 0, so g = 0 and Sigma = 0 with a
    # zero error bound; dividing by 1 there keeps the arithmetic finite
    scale = np.where(alpha == 0.0, 1.0, alpha)
    b2_all = (np.asarray(beta, dtype=float) / scale) ** 2
    g2_all = (np.asarray(gamma_sv, dtype=float) / scale) ** 2
    values = np.empty(alpha.shape)
    bounds = np.empty(alpha.shape)
    for lo in range(0, len(alpha), QUADRATURE_BLOCK):
        block = slice(lo, lo + QUADRATURE_BLOCK)
        a, b2, g2 = alpha[block], b2_all[block], g2_all[block]
        n = start_nodes
        mean = _mean_g(b2, g2, n, midpoint=False)
        value = a / 4.0 * (1.0 + mean)
        delta = np.full(len(a), np.inf)
        active = np.arange(len(a))
        while n < max_nodes and active.size:
            # midpoint refinement reuses all previous nodes
            mean[active] = 0.5 * (mean[active] + _mean_g(b2[active], g2[active], n, midpoint=True))
            new_value = a[active] / 4.0 * (1.0 + mean[active])
            delta[active] = np.abs(new_value - value[active])
            value[active] = new_value
            n *= 2
            tol = rel_tol * np.maximum(np.abs(new_value), np.finfo(float).tiny)
            active = active[~(delta[active] <= tol)]
        values[block] = value
        bounds[block] = np.where(np.isfinite(delta), delta, 0.0)
    return values, bounds


def sigma_quadrature(
    s: SingularTriple,
    rel_tol: float = QUADRATURE_REL_TOL,
    start_nodes: int = QUADRATURE_START_NODES,
    max_nodes: int = QUADRATURE_MAX_NODES,
) -> SigmaEstimate:
    """Average correlation of one triple by `sigma_quadrature_batch`."""
    values, bounds = sigma_quadrature_batch(
        [s.alpha], [s.beta], [s.gamma_sv], rel_tol, start_nodes, max_nodes
    )
    return SigmaEstimate(float(values[0]), "quadrature", float(bounds[0]))


def sigma_closed_pure_batch(alpha, beta) -> np.ndarray:
    """Closed-form average correlation of degenerate triples (alpha, beta, beta).

    Sigma = (alpha/4) * [1 + beta^2/(alpha sqrt(alpha^2-beta^2))
                           * arcsinh(sqrt((alpha^2-beta^2)/beta^2))],

    extended by its limits alpha/2 at beta = alpha and alpha/4 at beta = 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    bad = (beta < 0.0) | (beta > alpha)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"need 0 <= beta <= alpha, got beta={beta[i]}, alpha={alpha[i]}")
    # factored difference keeps precision when beta -> alpha
    root = np.sqrt((alpha - beta) * (alpha + beta))
    with np.errstate(divide="ignore", invalid="ignore"):  # the limits below
        values = alpha / 4.0 * (1.0 + beta**2 / (alpha * root) * np.arcsinh(root / beta))
    values = np.where(beta == 0.0, alpha / 4.0, values)
    return np.where(beta == alpha, alpha / 2.0, values)


def sigma_closed_pure(alpha: float, beta: float) -> SigmaEstimate:
    """Closed-form average correlation of one degenerate triple, by
    `sigma_closed_pure_batch`."""
    value = sigma_closed_pure_batch([float(alpha)], [float(beta)])[0]
    return SigmaEstimate(float(value), "closed_form", 0.0)


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


def sigma_for_state(
    rho: np.ndarray,
    method: str = "quadrature",
    n_samples: int = 1_000_000,
    seed: int | np.random.SeedSequence = 42,
) -> SigmaEstimate:
    """Full pipeline rho -> K -> singular values -> Sigma.

    The closed form applies only when the two smaller singular values agree
    (within DEGENERATE_PAIR_TOL); otherwise the request silently falls back
    to quadrature and the returned method tag says so.
    """
    k = correlation_matrix(rho)
    if method == "monte_carlo":
        return sigma_monte_carlo(k, n_samples, seed)
    s = singular_values(k)
    if method == "closed_form":
        if abs(s.beta - s.gamma_sv) <= DEGENERATE_PAIR_TOL:
            return sigma_closed_pure(s.alpha, s.beta)
        return sigma_quadrature(s)
    if method == "quadrature":
        return sigma_quadrature(s)
    raise ValueError(f"unknown method {method!r}")


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
