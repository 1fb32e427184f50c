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
arXiv:math/9409227). A seeded Monte Carlo average, `sigma_monte_carlo_batch`,
is the cross-check: it takes the first step above, E_b |a^T K b| = |K^T a|/2,
and averages |K^T a|/2 over uniform axes a alone, conditional Monte Carlo
(P. Glasserman, Monte Carlo Methods in Financial Engineering, Springer
2004), with the same mean as the double-sphere average and a variance
never larger. What it checks independently is the rest: the reduction to
the singular values and R_G with its duplication algorithm. Its axes are
Marsaglia points (Ann. Math. Statist. 43 (1972) 645-646), each from one
64-bit PCG64 word whose two 32-bit halves are a point of the square
[-1, 1)^2, kept in the unit disk: uniform on the sphere up to that 2^-31
lattice, about 2e-10. It evaluates every matrix of a batch
(`verify`'s trials, the points of a Monte Carlo sweep) on one seeded stream
of directions, common random numbers (Glasserman): the estimates
of one call have correlated errors, while each stays unbiased with its own
standard error and is the same bytes as the matrix alone. The tests
hold the shared step E_b |v . b| = |v|/2 by itself and keep the
double-sphere average as an oracle that shares nothing with R_G.
`sigma_for_state` runs one of the two METHODS on one state or a stack.

The damped pure states have K = diag(-s, -s, kappa), two of whose singular
values are equal, and there R_G reduces to the elementary R_C:
`sigma_damped` evaluates that case with atan2 and log1p, and the damping
path's exact method runs it instead of the duplication loop.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .states import IDENTITY_2, PAULIS, RuleError, _first_failure, check_count

# Sigma <= 1/4 is attainable by classical correlations; Sigma > 1/(2 sqrt 2)
# only by nonclassical states. The lower boundary is closed, the upper open.
CLASSICAL_MAX = 0.25
NONCLASSICAL_MIN = 0.5 / np.sqrt(2.0)

CLASSICAL_COMPATIBLE = "classical_compatible"
INDETERMINATE = "indeterminate"
NONCLASSICAL = "nonclassical"

# the labels in the order of the thresholds a value passes, read-only
# because `classify` returns a view of it for a 0-d value
_LABELS = np.array([CLASSICAL_COMPATIBLE, INDETERMINATE, NONCLASSICAL])
_LABELS.flags.writeable = False

METHODS = ("exact", "monte_carlo")  # the exact formula, or the Monte Carlo average


def check_method(method) -> None:
    """ValueError unless `method` is one of METHODS."""
    if method not in METHODS:
        raise RuleError(f"unknown method {method!r}")


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

# Generator identity recorded in output metadata. The Monte Carlo draws are
# PCG64's raw 64-bit words, a stream stable across numpy versions, so a
# seed pins results exactly; the text stays fixed so that the metadata of
# every output, the exact JSON goldens' included, keeps its bytes.
RNG_IDENTITY = "numpy.random.Generator(PCG64)"
# The sample count and seed of a Monte Carlo request that names none, in
# the library and on the command line alike.
MC_SAMPLES = 1_000_000
MC_SEED = 42
# Candidate points per Monte Carlo draw, at most, about 12900 samples: a
# draw's buffer, its kept axes and a tile's K^T a rows stay near 1 MB. Two
# 10^6-sample estimates (2 CPUs, in-process, one point per sample) took
# 23-24 ms with 2^14, 30-38 ms with 2^13 and 21-22 ms with 3 * 2^13, which
# peaked 1.5 MB higher; 2^13 peaked 1.5 MB lower.
MC_BLOCK = 2**14
# Samples per Monte Carlo chunk. Each chunk draws from its own stream and
# keeps its own totals, and a batch runs its chunks on up to one thread per
# CPU; the size is fixed, never read from the CPU count, so a seed gives the
# same bytes on any machine. Two 10^6-sample estimates (2 CPUs, in-process)
# took about 8% longer with 2^16 than with 2^17 or 2^18, which tied; 2^17
# still makes 8 chunks of 10^6 samples for machines with more CPUs.
MC_CHUNK = 2**17
# Matrices evaluated together on a draw's axes; their K^T a rows take at
# most MC_TILE * 384 kB, whatever the batch size. On a 603-point amplitude
# sweep of 10^4 samples (in-process, median of 40 calls, 3 runs), tiles of
# 1, 2, 8 and 16 took about 1.35x, 1.1-1.3x, 1.5x and 1.6x the 28-34 ms of 4.
MC_TILE = 4
# LAPACK's dgesdd rescales a matrix whose largest entry lies below
# sqrt(safe minimum) / eps = 2^-459 by a factor that is not a power of two,
# which can cost the singular values an ulp.
SVD_RESCALE_BELOW = 2.0**-459

# _PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I, the
# outer product's entry (mu, a, b, nu, c, d) at the Kronecker product's
# (2a + c, 2b + d)
_SIGMAS = np.array((IDENTITY_2, *PAULIS))
_PAULI_PRODUCTS = (np.multiply.outer(_SIGMAS, _SIGMAS)
                   .transpose(0, 3, 1, 4, 2, 5).reshape(4, 4, 4, 4))


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 real matrix K_ij = tr(rho sigma_i (x) sigma_j) of each matrix of
    `rho` (shape (..., 4, 4)), bit for bit that of the matrix alone. A matrix
    that fails `validate_density`'s checks, which run on the whole stack at
    once, raises ValueError, naming the first such one of a stack by its
    index, as [i, j]; an array whose shape does not end in (4, 4) is one."""
    rho = np.asarray(rho, dtype=complex)
    if failure := _first_failure(rho):
        index, report = failure
        at = f" at index {index}" if index else ""
        raise RuleError(f"not a density matrix{at}: {'; '.join(report.failures)}")
    t = np.einsum("...ab,mnba->...mn", rho, _PAULI_PRODUCTS)
    return np.ascontiguousarray(t[..., 1:, 1:].real)  # real to rounding once checked


def sigma_rg_batch(alpha, beta, gamma_sv) -> np.ndarray:
    """Sigma = R_G(alpha^2, beta^2, gamma_sv^2) / 2 of each sorted triple
    (arrays of one shape, alpha >= beta >= gamma_sv >= 0).

    Scaled by alpha, Sigma = (alpha/2) R_G(x, y, z) with (x, y, z) = (1, g^2,
    b^2), b = beta/alpha and g = gamma_sv/alpha, and (DLMF 19.21.10)

        2 R_G = z R_F - (x-z)(y-z) R_D / 3 + sqrt(xy/z).

    The middle value sits in the z slot, so -(x-z)(y-z) >= 0 and no two
    terms cancel. R_F and R_D share one duplication loop over x, y and z,
    kept as three values of the batch's shape, and finish with Carlson's
    fifth-order series. Each triple stops at its own convergence, so its
    value is the same bits in any batch. Where b is at most RG_TINY_RATIO,
    and so wherever alpha = 0, Sigma is alpha/4.
    """
    alpha = np.asarray(alpha, dtype=float)
    scale = np.maximum(alpha, 5e-324)  # alpha = 0 has beta = gamma_sv = 0
    b = np.asarray(beta, dtype=float) / scale
    g = np.asarray(gamma_sv, dtype=float) / scale
    tiny = b <= RG_TINY_RATIO
    b = np.where(tiny, 1.0, b)  # any valid triple; its value is discarded
    g2 = g * g  # may underflow; sqrt(xy/z) reads the same y = g2 as R_F and R_D
    x, y, z = np.ones_like(b), g2, b * b  # x >= z >= y, kept so
    rd_sum, fac = np.zeros_like(b), np.ones_like(b)
    for _ in range(RG_MAX_STEPS):
        # NaN counts as not converged, so a NaN triple reaches the cap
        active = ~(x <= (1.0 + RG_SPREAD) * y)
        if not (count := np.count_nonzero(active)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        step = (rd_sum + fac / (sz * (z + lam)), fac * 0.25,
                (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25)
        if count < active.size:  # the converged triples keep their values
            step = [np.where(active, new, old) for new, old in zip(step, (rd_sum, fac, x, y, z))]
        rd_sum, fac, x, y, z = step
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
    s = np.asarray(s, dtype=float)[()]
    t = np.abs(kappa)
    _, e = np.frexp(np.maximum(s, t))
    s, t = np.ldexp(s, -e), np.ldexp(t, -e)
    r = np.maximum(np.sqrt(np.abs((s - t) * (s + t))), 2.0**-600)
    s_low = np.maximum(s, 2.0**-500)
    ratio = np.where(s > t, np.arctan2(r, t),
                     np.log1p(r * (t + s_low + r) / (s_low * (t + s_low)))) / r
    return np.ldexp(s * (s * ratio) + t, e - 2)


def _seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` as a SeedSequence; ValueError unless it is one integer >= 0 or
    a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(check_count(seed, "seed", 0))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_totals(kt: np.ndarray, shift: np.ndarray, n: int,
                  seq: np.random.SeedSequence) -> np.ndarray:
    """(sum, sum of squares) of |K^T a| - shift over one chunk's n samples,
    drawn from `seq`, for each matrix of the scaled, transposed stack `kt`
    and its shift: a (len(kt), 2) array. The draws are shared by every
    matrix, which are evaluated MC_TILE at a time."""
    bitgen = np.random.PCG64(seq)
    m = min(MC_BLOCK, 3 * n // 2 + 16)  # the largest draw, the first
    tile = min(len(kt), MC_TILE)
    # a draw's u, v and their squares, then a tile's K^T a rows
    buf = np.empty(max(4, 3 * tile) * m)
    totals = np.zeros((len(kt), 2))
    left = n
    while left:
        m = min(MC_BLOCK, 3 * left // 2 + 16)
        draw = buf[:4 * m].reshape(4, m)  # rows u/2, v/2 and their squares
        # m words as 2m signed 32-bit halves, low half first on any host:
        # the first m are u/2, the next m v/2, in units of 2^-32
        halves = np.asarray(bitgen.random_raw(m), "<u8").view("<i4")
        np.multiply(halves, 2.0**-32, out=buf[:2 * m])
        np.square(draw[:2], out=draw[2:])
        q4 = np.add(draw[2], draw[3], out=draw[2])
        kept = draw[:3].compress(q4 < 0.25, 1)
        size = min(kept.shape[1], left)
        a = kept[:, :size]
        t = np.subtract(0.25, a[2], out=buf[:size])  # the draw is spent
        a[:2] *= np.sqrt(t, out=t)
        np.subtract(0.125, a[2], out=a[2])
        for lo in range(0, len(kt), tile):
            part = slice(lo, lo + tile)
            rows = min(tile, len(kt) - lo)
            w = np.matmul(kt[part], a, out=buf[:3 * rows * size].reshape(rows, 3, size))
            np.square(w, out=w)
            x = np.add(w[:, 0], w[:, 1], out=w[:, 0])
            x += w[:, 2]
            np.sqrt(x, out=x)
            x -= shift[part, None]
            np.square(x, out=w[:, 1])
            totals[part] += np.add.reduce(w[:, :2], 2)  # each row pairwise
        left -= size
    return totals


def sigma_monte_carlo_batch(
    k: np.ndarray,
    n_samples: int,
    seed: int | np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Monte Carlo average of |K^T a| / 2 over uniform axes a,
    which is Sigma, the mean of |a^T K b| over both axes, averaged over b
    exactly; for every correlation matrix in `k` (shape (..., 3, 3)), all on
    the directions one seed draws. Returns (values, standard errors) with
    shape k.shape[:-2].

    Each axis is a Marsaglia point (G. Marsaglia, Ann. Math. Statist. 43
    (1972) 645-646): (u, v) uniform on [-1, 1)^2, kept where q = u^2 + v^2
    < 1, gives the uniform unit vector (2u sqrt(1-q), 2v sqrt(1-q), 1-2q),
    with no normalisation. The n_samples samples are split into chunks of
    MC_CHUNK, the last one shorter. Chunk j draws from its own PCG64,
    seeded by the SeedSequence with `seed`'s entropy and spawn key +(j,), the
    child `seed.spawn()` would give a fresh copy of `seed`; `seed` itself is
    not changed. Within a chunk each draw takes m = min(MC_BLOCK, 3 *
    samples the chunk still needs // 2 + 16) candidates, one raw 64-bit
    word each. The m words are read as 2m signed 32-bit halves, each word's
    low half first whatever the host's byte order, and scaled by 2^-31: the
    first m are u, the next m v, so the points lie on a 2^-31 lattice, uniform
    on the sphere to about 2e-10. The draw's kept points, in draw order and
    at most the samples still needed, are the axes a, one per sample; a
    surplus point is dropped.
    Every matrix is evaluated on the same axes: this is common random
    numbers, so the estimates of one call have correlated errors, while
    each stays unbiased with its own standard error.

    Each matrix is first scaled by the power of two that puts its largest
    entry in [1/2, 1), and its mean and standard error scaled back, so no
    square under- or overflows at any finite scale. The samples are summed
    as their distances from a shift c, the RMS sqrt(|K|_F^2 / 3) of |K^T a|,
    so a nearly constant |K^T a| (K near an isotropic one) keeps its spread:
    (c - mean)^2 is at most the variance. For K = -I, whose |K^T a| are 1
    to an ulp or two, the mean rounds to 1/2 once those ulps average out. A
    draw's sum and sum of squares of |K^T a| - c, each in numpy's pairwise
    order, are added to the chunk's running totals, and the chunks' totals
    are added in chunk order. A value thus depends only on its matrix, the
    sample count and the seed: a matrix gives the same bytes alone and at
    any place in any batch.

    With more than one chunk, the chunks run on a thread pool made for this
    call only, with one worker per CPU this process may use and at most one
    per chunk; one chunk or one CPU runs in the calling thread. The results
    are the same bytes whatever the worker count, and a worker's exception
    is raised here. A K that is not finite with shape (..., 3, 3), an
    n_samples that is not an integer >= 1, or a seed that is not one
    integer >= 0 or a SeedSequence raises ValueError before any draw.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-2:] != (3, 3):
        raise RuleError(f"K must be a 3x3 matrix or a stack of them, got shape {k.shape}")
    flat = k.reshape(-1, 3, 3)
    peak = np.abs(flat).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(peak).all():
        raise RuleError("K has non-finite entries")
    n_samples = check_count(n_samples, "the sample count", 1)
    root = _seed_sequence(seed)
    e = np.frexp(peak)[1]
    scaled = np.ldexp(flat, -e[:, None, None])
    # the shift c of each matrix, its squares added in row-major order
    shift = np.sqrt(functools.reduce(np.add, np.square(scaled.reshape(-1, 9)).T, 0.0) / 3.0)
    # the draw keeps u/2 and v/2, which makes each axis 1/8 of itself,
    # (u/2 t, v/2 t, 1/8 - q/4) with t = sqrt(1/4 - q/4): 8K^T on it gives
    # K^T a, here in units of 2^e, and every value is bit for bit that of
    # the formula above
    kt = np.ascontiguousarray(8.0 * scaled.transpose(0, 2, 1))
    totals = np.zeros((len(flat), 2))
    if len(flat):
        chunks = -(-n_samples // MC_CHUNK)

        def chunk(j: int) -> np.ndarray:
            seq = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, j),
                                         pool_size=root.pool_size)
            return _chunk_totals(kt, shift, min(MC_CHUNK, n_samples - j * MC_CHUNK), seq)

        workers = min(chunks, _cpu_count())
        if workers <= 1:
            for part in map(chunk, range(chunks)):
                totals += part
        else:
            from concurrent.futures import ThreadPoolExecutor  # ~6 ms to import

            with ThreadPoolExecutor(workers) as pool:
                for part in pool.map(chunk, range(chunks)):
                    totals += part
    offset = totals[:, 0] / n_samples
    if n_samples > 1:
        var = (np.maximum(totals[:, 1] / n_samples - offset * offset, 0.0)
               * n_samples / (n_samples - 1))
        stderr = np.sqrt(var / n_samples)
    else:
        stderr = np.zeros_like(offset)
    # a sample is |K^T a| / 2, so 2^(e-1) scales back, a double for every
    # finite peak: each value rounds once, as ldexp would, and a Sigma past
    # the float range is inf
    unit = np.ldexp(0.5, e)
    with np.errstate(over="ignore"):
        values, stderrs = (shift + offset) * unit, stderr * unit
    return values.reshape(k.shape[:-2]), stderrs.reshape(k.shape[:-2])


def _singular_values(k: np.ndarray) -> np.ndarray:
    """Descending singular values of each 3x3 matrix of `k` (shape (..., 3,
    3)), shape k.shape[:-1]. A K whose largest entry is below
    SVD_RESCALE_BELOW is first scaled exactly by the power of two that puts
    that entry in [1/2, 1), so LAPACK's own rescaling never runs, and its
    values scaled back; every other K is scaled by 2^0, which is exact."""
    peak = np.abs(k).max(axis=(-2, -1))
    e = np.where(peak < SVD_RESCALE_BELOW, np.frexp(peak)[1], 0)[..., None]
    return np.ldexp(np.linalg.svd(np.ldexp(k, -e[..., None]), compute_uv=False), e)


def sigma_for_state(
    rho: np.ndarray,
    method: str = "exact",
    n_samples: int = MC_SAMPLES,
    seed: int | np.random.SeedSequence = MC_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline rho -> K -> Sigma for one state or a stack of them
    (shape (..., 4, 4)): (values, error bounds), each of shape
    rho.shape[:-2], 0-d for one state. Every value and bound is bit for bit
    that of its state alone.

    "monte_carlo" is one `sigma_monte_carlo_batch` call on the stack's K,
    with no SVD, and its bounds are the standard errors; "exact" runs
    `sigma_rg_batch` on K's singular values, with the bound
    max(RG_REL_ERROR_BOUND * value, RG_ABS_ERROR_FLOOR).

    A state that fails `correlation_matrix`'s density checks raises its
    ValueError, naming the first bad state of a stack, before a method not
    in METHODS raises one.
    """
    k = correlation_matrix(rho)
    check_method(method)
    if method == "monte_carlo":
        return sigma_monte_carlo_batch(k, n_samples, seed)
    values = sigma_rg_batch(*np.moveaxis(_singular_values(k), -1, 0))
    return values, np.asarray(np.maximum(RG_REL_ERROR_BOUND * values, RG_ABS_ERROR_FLOOR))


def classify(values) -> np.ndarray:
    """Nonclassicality labels of an array of average-correlation values, as
    an array of its shape (dtype <U20), 0-d for one value.

    <= 1/4 is compatible with classical states; > 1/(2 sqrt 2) occurs only
    for nonclassical states; in between, and for NaN, is indeterminate.
    Each label is read from _LABELS at the count of thresholds the value
    passes: not <= 1/4 (NaN passes) and > 1/(2 sqrt 2) (NaN does not).
    """
    values = np.asarray(values, dtype=float)[()]
    rank = np.add(~(values <= CLASSICAL_MAX), values > NONCLASSICAL_MIN, dtype=np.intp)
    return _LABELS[rank, ...]  # the Ellipsis keeps a 0-d result an array
