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
arXiv:math/9409227). A seeded Monte Carlo average over the two spheres,
`sigma_monte_carlo`, is the independent cross-check: it draws its axes as
Marsaglia points (Ann. Math. Statist. 43 (1972) 645-646), exactly uniform
from two uniforms in the unit disk, and never uses the identity above.
`sigma_monte_carlo_batch` runs a batch of them for `verify` and Monte Carlo
on the damping path.
`sigma_for_state` picks one of the two METHODS for a single state.

The damped pure states have K = diag(-s, -s, kappa), two of whose singular
values are equal, and there R_G reduces to the elementary R_C:
`sigma_damped` evaluates that case with atan2 and log1p, and the damping
path's exact method runs it instead of the duplication loop.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .states import IDENTITY_2, PAULIS, tensor2, validate_density

# Sigma <= 1/4 is attainable by classical correlations; Sigma > 1/(2 sqrt 2)
# only by nonclassical states. The lower boundary is closed, the upper open.
CLASSICAL_MAX = 0.25
NONCLASSICAL_MIN = 0.5 / np.sqrt(2.0)

CLASSICAL_COMPATIBLE = "classical_compatible"
INDETERMINATE = "indeterminate"
NONCLASSICAL = "nonclassical"

# the labels in the order of the thresholds a value passes, read-only
# because `classify_batch` returns a view of it for a 0-d value
_LABELS = np.array([CLASSICAL_COMPATIBLE, INDETERMINATE, NONCLASSICAL])
_LABELS.flags.writeable = False

IMAG_RESIDUAL_HARD_LIMIT = 1e-9

METHODS = ("exact", "monte_carlo")  # the exact formula, or the Monte Carlo average
# Method tag of the exact estimator of a general state, R_G by duplication.
ESTIMATOR = "carlson_rg"
# Relative error bound of `sigma_rg_batch` for results above the subnormal
# range; the tests hold it to a 40-digit mpmath.elliprg across the
# sorted-triple simplex, where the worst of 24288 triples measured 6.8e-16.
RG_REL_ERROR_BOUND = 1e-15
# Floor of the error bound for subnormal results, which carry an absolute
# rounding of up to about 1.2 units of 2^-1074 (against mpmath). It lies
# below RG_REL_ERROR_BOUND * 2^-1022, so normal-range bounds are relative.
RG_ABS_ERROR_FLOOR = 4 * 2.0**-1074
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
# Candidate points per Monte Carlo draw, at most, about 6400 samples: a
# draw's buffer and temporaries stay near 1 MB. On verify_mc (2 CPUs)
# 3 * 2^12 gave 10% fewer points/s, and 6 * 2^12 5% more peak RSS.
# `sigma_monte_carlo_batch` runs estimates concurrently only from MC_BLOCK
# samples on: below that an estimate is mostly interpreter time, which holds
# the GIL, and a pool made it slower.
MC_BLOCK = 2**14
# LAPACK's dgesdd rescales a matrix whose largest entry lies below
# sqrt(safe minimum) / eps = 2^-459 by a factor that is not a power of two,
# which can cost the singular values an ulp.
SVD_RESCALE_BELOW = 2.0**-459

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
    terms cancel. R_F and R_D share one duplication loop over x, y and z,
    kept as three values of the batch's shape, and finish with Carlson's
    fifth-order series. Where b is at most RG_TINY_RATIO, and so wherever
    alpha = 0, Sigma is alpha/4.
    """
    alpha = np.asarray(alpha, dtype=float)
    scale = np.maximum(alpha, 5e-324)  # alpha = 0 has beta = gamma_sv = 0
    b = np.asarray(beta, dtype=float) / scale
    g = np.asarray(gamma_sv, dtype=float) / scale
    tiny = b <= RG_TINY_RATIO
    b = np.where(tiny, 1.0, b)  # any valid triple; its value is discarded
    g2 = g * g  # may underflow; sqrt(xy/z) reads the same y = g2 as R_F and R_D
    x, y, z = np.ones_like(b), g2, b * b  # x >= z >= y, kept so
    fac, rd_sum = 1.0, 0.0
    for _ in range(RG_MAX_STEPS):
        # counts NaN as not converged, so a NaN triple reaches the cap
        if not np.count_nonzero(~(x <= (1.0 + RG_SPREAD) * y)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        rd_sum += fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
    else:
        raise RuntimeError(f"R_G duplication did not converge in {RG_MAX_STEPS} steps")
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


def sigma_damped(s, kappa) -> np.ndarray:
    """Sigma of each K = diag(-s, -s, kappa) (s >= 0; arrays that broadcast),
    the damped pure Schmidt state's correlation matrix, elementwise.

    Two of the singular values are equal, so with t = |kappa| (DLMF 19.20(i))

        Sigma = R_G(t^2, s^2, s^2) / 2 = (s^2 R_C(t^2, s^2) + t) / 4,

    and R_C is elementary (DLMF 19.2(iv)): with r = sqrt|(s-t)(s+t)|,
    r R_C = atan2(r, t) for s > t and artanh(r/t) = ln((t+r)/s) for s < t,
    written as log1p(r (t+s+r) / (s (t+s))), whose terms are all positive;
    at r = 0 the limit is R_C = 1/t. s and t are first scaled by the power
    of two that puts the larger in [1/2, 1), exactly, so nothing below
    underflows where it matters. In those units the guards r >= 2^-600 and
    s >= 2^-500 change no value: r is 0 or above 2^-28, and where s < 2^-500
    the R_C term lies below half an ulp of t. Each value depends only on
    its own (s, kappa).
    """
    s = np.asarray(s, dtype=float)
    t = np.abs(kappa)
    _, e = np.frexp(np.maximum(s, t))
    s, t = np.ldexp(s, -e), np.ldexp(t, -e)
    r = np.maximum(np.sqrt(np.abs((s - t) * (s + t))), 2.0**-600)
    s_low = np.maximum(s, 2.0**-500)
    ratio = np.where(s > t, np.arctan2(r, t),
                     np.log1p(r * (t + s_low + r) / (s_low * (t + s_low)))) / r
    return np.ldexp(s * (s * ratio) + t, e - 2)


def _sample_count(n_samples) -> int:
    """`n_samples` as an int; ValueError unless it is an integer >= 1."""
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"the sample count must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    return n_samples


def sigma_monte_carlo(
    k: np.ndarray,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> SigmaEstimate:
    """Direct double-sphere average of |a^T K b| over uniform axes.

    Each axis is a Marsaglia point (G. Marsaglia, Ann. Math. Statist. 43
    (1972) 645-646): (u, v) uniform on [-1, 1)^2, kept where q = u^2 + v^2
    < 1, gives the uniform unit vector (2u sqrt(1-q), 2v sqrt(1-q), 1-2q),
    with no normalisation. Results are deterministic for a fixed seed; the
    error bound is the standard error of the mean. A K that is not a finite
    3x3 matrix, or an n_samples that is not an integer >= 1, raises
    ValueError before any draw.

    Each draw takes m = min(MC_BLOCK, 3 * samples still needed + 16)
    candidates from one generator, the m values of u, then the m of v, into
    one buffer the estimate allocates once. Of the p pairs its kept points
    make (at most the samples still needed), the first p points are the a
    and the next p the b, in draw order; an odd or surplus point is dropped.
    A draw's sum and sum of squares, each in numpy's pairwise order, are
    added to running totals. K is first scaled by the power of two that puts
    its largest entry in [1/2, 1), and the mean and standard error scaled
    back, so no square under- or overflows at any finite scale.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (3, 3):
        raise ValueError(f"K must be a 3x3 matrix, got shape {k.shape}")
    peak = float(np.abs(k).max())
    if not math.isfinite(peak):
        raise ValueError("K has non-finite entries")
    n_samples = _sample_count(n_samples)
    e = math.frexp(peak)[1]
    # the draw keeps u/2 and v/2, which makes each axis 1/8 of itself,
    # (u/2 t, v/2 t, 1/8 - q/4) with t = sqrt(1/4 - q/4): the form then
    # reads 64K, here in units of 2^e, and every value is bit for bit that
    # of the formula above
    k64 = np.ldexp(k, 6 - e)
    rng = np.random.default_rng(seed)
    buf = np.empty(4 * min(MC_BLOCK, 3 * n_samples + 16))
    total = 0.0
    total_sq = 0.0
    left = n_samples
    while left:
        m = min(MC_BLOCK, 3 * left + 16)
        draw = buf[:4 * m].reshape(4, m)  # rows u/2, v/2 and their squares
        half = rng.random(out=buf[:2 * m])
        np.subtract(half, 0.5, out=half)
        np.square(draw[:2], out=draw[2:])
        q4 = np.add(draw[2], draw[3], out=draw[2])
        kept = draw[:3].compress(q4 < 0.25, 1)
        pairs = min(kept.shape[1] // 2, left)
        axes = kept[:, :2 * pairs]
        axes[:2] *= np.sqrt(np.subtract(0.25, axes[2]))
        np.subtract(0.125, axes[2], out=axes[2])
        w = k64 @ axes[:, pairs:]
        w *= axes[:, :pairs]
        vals = np.add.reduce(w, 0)
        np.abs(vals, out=w[0])
        np.square(vals, out=w[1])
        part, part_sq = np.add.reduce(w[:2], 1).tolist()  # each row pairwise
        total += part
        total_sq += part_sq
        left -= pairs
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = 0.0
    # 2^(e-1) is a double for every finite peak; 2x is exact, so each value
    # rounds once, as ldexp would, and a Sigma past the float range is inf
    unit = math.ldexp(0.5, e)
    return SigmaEstimate(2.0 * mean * unit, "monte_carlo", 2.0 * stderr * unit)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sigma_monte_carlo_batch(
    k: np.ndarray,
    n_samples: int,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Sigma of every correlation matrix in `k` (shape (..., 3,
    3)), each sampled with its own entry of `seeds` (one per matrix, in C
    order); returns (values, standard errors) with shape k.shape[:-2].

    From MC_BLOCK samples on, the estimates run on a thread pool made for
    this call only, with one worker per CPU this process may use and at most
    one per matrix; fewer samples, one matrix or one CPU run in the calling
    thread. Each value depends only on its matrix and seed, so the results
    are the same bytes whatever the worker count, and a worker's exception
    is raised here. Seeds that do not number one per matrix raise ValueError.
    """
    n_samples = _sample_count(n_samples)
    if len(seeds := list(seeds)) != k.size // 9:
        raise ValueError(f"need one seed per matrix, got {len(seeds)} for {k.size // 9}")
    jobs = list(zip(k.reshape(-1, 3, 3), seeds))
    workers = min(len(jobs), _cpu_count()) if n_samples >= MC_BLOCK else 1
    if workers <= 1:
        estimates = [sigma_monte_carlo(ki, n_samples, seed) for ki, seed in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~6 ms to import

        with ThreadPoolExecutor(workers) as pool:
            estimates = list(pool.map(
                lambda job: sigma_monte_carlo(job[0], n_samples, job[1]), jobs))
    values = np.array([e.value for e in estimates]).reshape(k.shape[:-2])
    bounds = np.array([e.error_bound for e in estimates]).reshape(k.shape[:-2])
    return values, bounds


def _singular_values(k: np.ndarray) -> np.ndarray:
    """Descending singular values of the 3x3 `k`. Where its largest entry is
    below SVD_RESCALE_BELOW, K is first scaled exactly by a power of two into
    [1/2, 1), so LAPACK's own rescaling never runs, and the values scaled back."""
    peak = np.max(np.abs(k))
    if peak >= SVD_RESCALE_BELOW:
        return np.linalg.svd(k, compute_uv=False)
    _, e = np.frexp(peak)
    return np.ldexp(np.linalg.svd(np.ldexp(k, -e), compute_uv=False), e)


def sigma_for_state(
    rho: np.ndarray,
    method: str = "exact",
    n_samples: int = 1_000_000,
    seed: int | np.random.SeedSequence = 42,
) -> SigmaEstimate:
    """Full pipeline rho -> K -> Sigma. "monte_carlo" runs `sigma_monte_carlo`
    on K, with no SVD; "exact" runs `sigma_rg_batch` on K's singular values,
    tagged ESTIMATOR, error bound max(RG_REL_ERROR_BOUND * value, RG_ABS_ERROR_FLOOR).

    A rho that fails `validate_density`, or a method not in METHODS, raises
    ValueError.
    """
    if failures := validate_density(rho).failures:
        raise ValueError(f"not a density matrix: {'; '.join(failures)}")
    k = correlation_matrix(rho)
    if method == "monte_carlo":
        return sigma_monte_carlo(k, n_samples, seed)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    value = float(sigma_rg_batch(*_singular_values(k)))
    return SigmaEstimate(value, ESTIMATOR, max(RG_REL_ERROR_BOUND * value, RG_ABS_ERROR_FLOOR))


def classify_batch(values) -> np.ndarray:
    """Nonclassicality labels of an array of average-correlation values, as
    an array of its shape (dtype <U20).

    <= 1/4 is compatible with classical states; > 1/(2 sqrt 2) occurs only
    for nonclassical states; in between, and for NaN, is indeterminate.
    Each label is read from _LABELS at the count of thresholds the value
    passes: not <= 1/4 (NaN passes) and > 1/(2 sqrt 2) (NaN does not).
    """
    values = np.asarray(values, dtype=float)
    rank = np.add(~(values <= CLASSICAL_MAX), values > NONCLASSICAL_MIN, dtype=np.intp)
    return _LABELS[rank, ...]  # the Ellipsis keeps a 0-d result an array


def classify(sigma: SigmaEstimate | float) -> str:
    """Nonclassicality label of one value or estimate, by `classify_batch`."""
    value = sigma.value if isinstance(sigma, SigmaEstimate) else float(sigma)
    return classify_batch(value).item()
