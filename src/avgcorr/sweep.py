"""Decay curves of the average correlation under local damping.

A sweep applies the same channel to both qubits of a pure state at
p(t) = 1 - exp(-gamma*t) over a uniform time grid and records the singular
triple, Sigma, and its nonclassicality label per point, one block per rate.

The whole (rate, time) grid is computed as arrays: the state's real 4x4
correlation matrix T is mapped to R T R^T by the channel's Pauli-transfer
matrix R(p) at every grid point, the singular values of the lower 3x3
blocks come from one batched SVD, and each estimator runs once over the
grid (Monte Carlo per point, with its own seed). The known damped forms of
the singular values serve as a built-in cross-check of every point. The
Kraus form (`apply_both`) stays the public way to damp a state and the
oracle the tests hold this path to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AMPLITUDE_DAMPING,
    CHANNEL_KINDS,
    PHASE_DAMPING,
    apply_local_channel,
    pauli_transfer,
)
from .correlation import (
    DEGENERATE_PAIR_TOL,
    QUADRATURE_REL_TOL,
    QUADRATURE_START_NODES,
    RNG_IDENTITY,
    classify_batch,
    sigma_closed_pure_batch,
    sigma_monte_carlo,
    sigma_quadrature_batch,
    t_matrix,
)
from .states import make_pure_state

ANALYTIC_TRIPLE_TOL = 1e-10

INV_SQRT2 = 1.0 / np.sqrt(2.0)
FIGURE_GAMMAS = (0.5, 1.0, 2.0)
FIGURE_T_MAX = 8.0
FIGURE_STEPS = 201


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one decay-curve computation."""

    channel_kind: str
    c: float
    gammas: tuple[float, ...]
    t_max: float
    steps: int
    method: str = "quadrature"

    def __post_init__(self):
        if self.channel_kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channel_kind!r}")
        if not all(map(math.isfinite, (self.c, self.t_max, *self.gammas))):
            raise ValueError(
                f"c, gammas and t_max must be finite, got c={self.c}, "
                f"gammas={self.gammas}, t_max={self.t_max}"
            )
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"Schmidt coefficient must lie in [0, 1], got {self.c}")
        if not self.gammas:
            raise ValueError("need at least one decoherence rate")
        if any(g < 0.0 for g in self.gammas):
            raise ValueError(f"decoherence rates must be >= 0, got {self.gammas}")
        if self.t_max <= 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.steps}")
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class DecayRow:
    t: float
    p: float
    alpha: float
    beta: float
    gamma_sv: float
    sigma: float
    classification: str


@dataclass(frozen=True)
class DecayBlock:
    gamma: float
    rows: tuple[DecayRow, ...]


@dataclass(frozen=True)
class DecayCurve:
    blocks: tuple[DecayBlock, ...]
    metadata: dict


def apply_both(rho: np.ndarray, channel) -> np.ndarray:
    """Same channel on both qubits (symmetric local noise)."""
    return apply_local_channel(rho, channel, channel)


def _check_analytic_triples(spec: SweepSpec, times: np.ndarray, p: np.ndarray,
                            sv: np.ndarray) -> None:
    """Compare every computed triple with the damped magnitudes known in
    closed form; a NaN anywhere fails the check."""
    c = spec.c
    shrunk = 2.0 * c * np.sqrt(1.0 - c * c) * (1.0 - p)
    third = np.ones_like(p) if spec.channel_kind == PHASE_DAMPING else np.abs(1.0 - 2.0 * p)
    expected = -np.sort(-np.stack([shrunk, shrunk, third], axis=-1), axis=-1)
    err = np.max(np.abs(sv - expected), axis=-1)
    worst = np.unravel_index(np.argmax(err), err.shape)
    if not err[worst] <= ANALYTIC_TRIPLE_TOL:
        bi, ti = worst
        raise RuntimeError(
            f"damped singular values {sv[worst]} disagree with the analytic "
            f"form {expected[worst]} at gamma={spec.gammas[bi]}, t={times[ti]}"
        )


def _sigmas(spec: SweepSpec, k: np.ndarray, sv: np.ndarray, n_samples: int,
            seed: int) -> np.ndarray:
    """Sigma at every grid point by the spec's estimator, shape sv.shape[:-1]."""
    if spec.method == "monte_carlo":
        return np.array([
            [sigma_monte_carlo(k[bi, ti], n_samples,
                               np.random.SeedSequence(seed, spawn_key=(bi, ti))).value
             for ti in range(k.shape[1])]
            for bi in range(k.shape[0])
        ])
    alpha, beta, gamma_sv = sv.reshape(-1, 3).T
    closed = (spec.method == "closed_form") & (np.abs(beta - gamma_sv) <= DEGENERATE_PAIR_TOL)
    quad = ~closed
    sigma = np.empty(alpha.shape)
    sigma[closed] = sigma_closed_pure_batch(alpha[closed], beta[closed])
    sigma[quad] = sigma_quadrature_batch(alpha[quad], beta[quad], gamma_sv[quad])[0]
    return sigma.reshape(sv.shape[:-1])


def decay_curve(
    spec: SweepSpec,
    n_samples: int = 1_000_000,
    seed: int = 42,
) -> DecayCurve:
    """Compute Sigma(t) blocks for every rate in the spec."""
    times = np.linspace(0.0, spec.t_max, spec.steps)
    p = -np.expm1(-np.array(spec.gammas)[:, None] * times)  # (rates, steps)
    r = pauli_transfer(spec.channel_kind, p)
    t_damped = r @ t_matrix(make_pure_state(spec.c)) @ np.swapaxes(r, -1, -2)
    k = np.ascontiguousarray(t_damped[..., 1:, 1:])
    sv = np.linalg.svd(k, compute_uv=False)  # descending
    _check_analytic_triples(spec, times, p, sv)
    sigma = _sigmas(spec, k, sv, n_samples, seed)
    labels = classify_batch(sigma)

    t_list = times.tolist()
    blocks = tuple(
        DecayBlock(
            gamma=float(gamma),
            rows=tuple(
                DecayRow(*fields)
                for fields in zip(t_list, p[bi].tolist(), *sv[bi].T.tolist(),
                                  sigma[bi].tolist(), labels[bi].tolist())
            ),
        )
        for bi, gamma in enumerate(spec.gammas)
    )
    metadata = {
        "channel": spec.channel_kind,
        "c": spec.c,
        "gammas": list(spec.gammas),
        "t_max": spec.t_max,
        "steps": spec.steps,
        "method": spec.method,
        "seed": seed,
        "samples": n_samples if spec.method == "monte_carlo" else None,
        "quadrature_nodes": QUADRATURE_START_NODES,
        "quadrature_rel_tol": QUADRATURE_REL_TOL,
        "rng": RNG_IDENTITY,
    }
    return DecayCurve(blocks=blocks, metadata=metadata)


def figure_dataset(figure: int, seed: int = 42) -> DecayCurve:
    """Canned decay datasets: figure 1 is phase damping, figure 2 amplitude.

    Both use c = 1/sqrt(2) (so Sigma starts at its maximum 1/2), rates
    {0.5, 1.0, 2.0}, and 201 points on t in [0, 8] with quadrature Sigma.
    """
    if figure not in (1, 2):
        raise ValueError(f"figure must be 1 or 2, got {figure}")
    kind = PHASE_DAMPING if figure == 1 else AMPLITUDE_DAMPING
    spec = SweepSpec(
        channel_kind=kind,
        c=INV_SQRT2,
        gammas=FIGURE_GAMMAS,
        t_max=FIGURE_T_MAX,
        steps=FIGURE_STEPS,
        method="quadrature",
    )
    return decay_curve(spec, seed=seed)
