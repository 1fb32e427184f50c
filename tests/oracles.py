"""The periodic quadrature and the degenerate-pair closed form of Sigma: the
oracles the tests hold the runtime estimator, Carlson's R_G, to. Also the
plain per-chunk, per-draw Monte Carlo loop that `sigma_monte_carlo` must
match bit for bit, and the double-sphere Monte Carlo average, which shares
no step with R_G.

Sigma depends on K only through its singular values alpha >= beta >=
gamma_sv and reduces to the single integral

    Sigma = (alpha/4) * [1 + (1/2pi) * int_0^{2pi} g(f(phi)) dphi]

with

    f(phi) = (beta/alpha)^2 sin^2(phi) + (gamma_sv/alpha)^2 cos^2(phi),
    g(f)   = f / sqrt(1-f) * arcsinh(sqrt((1-f)/f)),

where g is extended by its limits g(0) = 0 and g(1) = 1. When the two
smaller singular values coincide, f is constant and the integral collapses
to the closed form implemented in `sigma_closed_pure`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from avgcorr.correlation import MC_BLOCK, MC_CHUNK, SigmaEstimate

DEGENERATE_PAIR_TOL = 1e-9

QUADRATURE_START_NODES = 512
QUADRATURE_MAX_NODES = 2**20
QUADRATURE_REL_TOL = 1e-10
# Triples refined together, and the most integrand values evaluated at once
# (16 triples x 1024 nodes); larger blocks cost memory and gain no speed.
QUADRATURE_BLOCK = 16
QUADRATURE_BLOCK_VALUES = QUADRATURE_BLOCK * 2 * QUADRATURE_START_NODES


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


def marsaglia_points(rng: np.random.Generator, m: int) -> np.ndarray:
    """Unit vectors, as the columns of a (3, kept) array, from m Marsaglia
    candidates: m values of u, then m of v, uniform on [-1, 1); each (u, v)
    with q = u^2 + v^2 < 1 gives (2u sqrt(1-q), 2v sqrt(1-q), 1-2q), in
    draw order."""
    u, v = 2.0 * rng.random((2, m)) - 1.0
    q = u * u + v * v
    keep = q < 1.0
    u, v, q = u[keep], v[keep], q[keep]
    r = 2.0 * np.sqrt(1.0 - q)
    return np.stack([u * r, v * r, 1.0 - 2.0 * q])


def sigma_monte_carlo_one_shot(k: np.ndarray, n_samples: int, seed) -> SigmaEstimate:
    """The Monte Carlo estimate as its stream is defined: K scaled by the
    power of two that puts its largest entry in [1/2, 1), and its shift c =
    sqrt(|K|_F^2 / 3), the squares added in row-major order; the samples
    split into chunks of MC_CHUNK, chunk j drawing from the SeedSequence
    with the seed's entropy and spawn key +(j,); per draw of min(MC_BLOCK,
    3 * samples the chunk still needs // 2 + 16) candidates, the first p kept
    points are the axes a, p at most the samples the chunk still needs; each
    sample is |K^T a|, its squares added in axis order, and each draw's sum
    and sum of squares of |K^T a| - c go to the chunk's running totals; the
    chunks' totals are added in chunk order, and the mean c + sum/n and the
    standard error, halved, are scaled back. `sigma_monte_carlo` must match
    it bit for bit, alone and in any batch."""
    k = np.asarray(k, dtype=float)
    e = math.frexp(float(np.max(np.abs(k))))[1]
    k = np.ldexp(k, -e)
    norm2 = 0.0
    for entry in k.ravel().tolist():
        norm2 += entry * entry
    shift = math.sqrt(norm2 / 3.0)
    kt = np.ascontiguousarray(k.T)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    total = 0.0
    total_sq = 0.0
    for j, start in enumerate(range(0, n_samples, MC_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (j,), pool_size=root.pool_size))
        chunk_total = 0.0
        chunk_sq = 0.0
        left = min(MC_CHUNK, n_samples - start)
        while left > 0:
            points = marsaglia_points(rng, min(MC_BLOCK, 3 * left // 2 + 16))
            p = min(points.shape[1], left)
            w = kt @ points[:, :p]
            d = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2]) - shift
            chunk_total += float(d.sum())
            chunk_sq += float((d * d).sum())
            left -= p
        total += chunk_total
        total_sq += chunk_sq
    offset = total / n_samples
    if n_samples > 1:
        var = max(total_sq / n_samples - offset * offset, 0.0) * n_samples / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = 0.0
    return SigmaEstimate(math.ldexp(shift + offset, e - 1), "monte_carlo",
                         math.ldexp(stderr, e - 1))


def sigma_double_sphere(k: np.ndarray, n_samples: int, seed) -> SigmaEstimate:
    """The direct double-sphere mean of |a^T K b| over independent Marsaglia
    axes a and b, with its standard error: the oracle of
    `sigma_monte_carlo_one_shot`, which averages |K^T a| / 2, the exact mean
    over b, and so shares its first step with the R_G identity. This one
    shares nothing with either."""
    rng = np.random.default_rng(seed)
    k = np.asarray(k, dtype=float)
    vals = []
    left = n_samples
    while left > 0:
        points = marsaglia_points(rng, min(2**16, 3 * left + 16))
        p = min(points.shape[1] // 2, left)
        a, b = points[:, :p], points[:, p:2 * p]
        vals.append(np.abs(np.einsum("ip,ij,jp->p", a, k, b)))
        left -= p
    vals = np.concatenate(vals)
    return SigmaEstimate(float(vals.mean()), "monte_carlo",
                         float(vals.std(ddof=1) / math.sqrt(n_samples)))
