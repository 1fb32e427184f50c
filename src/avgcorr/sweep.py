"""Decay curves of the average correlation under local damping.

A sweep applies the same channel to both qubits of a pure state at
p(t) = 1 - exp(-gamma*t) over a uniform time grid and records the singular
triple, Sigma, and its nonclassicality label per point, as columns over the
(rate, time) grid with a row view per rate.

The whole (rate, time) grid is computed as arrays: the state's real 4x4
correlation matrix T is mapped to R T R^T by the channel's Pauli-transfer
matrix R(p) at every grid point, the singular values of the lower 3x3
blocks come from one batched SVD, and each estimator runs once over the
grid (Monte Carlo per point, with its own seed). The known damped forms of
the singular values serve as a built-in cross-check of every point.
`damped_sigma` is that pipeline over any array of damping probabilities;
the CLI's one-state `sigma` and `classify` run it on a single p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import (
    AMPLITUDE_DAMPING,
    CHANNEL_KINDS,
    PHASE_DAMPING,
    p_of_t,
    pauli_transfer,
)
from .correlation import (
    ESTIMATOR,
    ESTIMATORS,
    RG_REL_ERROR_BOUND,
    RNG_IDENTITY,
    classify_batch,
    sigma_batch,
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
        if self.method not in ESTIMATORS:
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


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Decay curves as columns over the (rate, time) grid.

    `gammas` has one entry per rate and `t` one per step; `p`, `sigma` and
    `labels` have shape (rates, steps) and `sv`, the descending singular
    values, (rates, steps, 3). `blocks` is a row view of the same arrays,
    built on first read; `decay_curve` returns the arrays read-only.
    """

    gammas: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sv: np.ndarray
    sigma: np.ndarray
    labels: np.ndarray
    metadata: dict

    @cached_property
    def blocks(self) -> tuple[DecayBlock, ...]:
        t_list = self.t.tolist()
        return tuple(
            DecayBlock(
                gamma=gamma,
                rows=tuple(
                    DecayRow(*fields)
                    for fields in zip(t_list, self.p[bi].tolist(), *self.sv[bi].T.tolist(),
                                      self.sigma[bi].tolist(), self.labels[bi].tolist())
                ),
            )
            for bi, gamma in enumerate(self.gammas.tolist())
        )


def _check_analytic_triples(kind: str, c: float, p: np.ndarray, sv: np.ndarray) -> None:
    """Compare every computed triple with the damped magnitudes known in
    closed form; a NaN anywhere fails the check."""
    shrunk = 2.0 * c * np.sqrt(1.0 - c * c) * (1.0 - p)
    third = np.ones_like(p) if kind == PHASE_DAMPING else np.abs(1.0 - 2.0 * p)
    expected = -np.sort(-np.stack([shrunk, shrunk, third], axis=-1), axis=-1)
    err = np.max(np.abs(sv - expected), axis=-1)
    worst = np.unravel_index(np.argmax(err), err.shape)
    if not err[worst] <= ANALYTIC_TRIPLE_TOL:
        raise RuntimeError(
            f"damped singular values {sv[worst]} disagree with the analytic "
            f"form {expected[worst]} at p={p[worst]}"
        )


def damped_sigma(
    kind: str,
    c: float,
    p,
    method: str = "quadrature",
    n_samples: int = 1_000_000,
    seeds=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Singular triples and Sigma of the pure state with Schmidt coefficient
    c after `kind` damping of both qubits, at every probability in `p`;
    returns (sv, sigma) of shapes p.shape + (3,) and p.shape.

    `seeds` holds one Monte Carlo seed per point of `p`, in C order.
    """
    p = np.asarray(p, dtype=float)
    r = pauli_transfer(kind, p)
    t_damped = r @ t_matrix(make_pure_state(c)) @ np.swapaxes(r, -1, -2)
    k = np.ascontiguousarray(t_damped[..., 1:, 1:])
    sv = np.linalg.svd(k, compute_uv=False)  # descending
    _check_analytic_triples(kind, c, p, sv)
    sigma, _ = sigma_batch(method, k, sv, n_samples, seeds)
    return sv, sigma


def decay_curve(
    spec: SweepSpec,
    n_samples: int = 1_000_000,
    seed: int = 42,
) -> DecayCurve:
    """Compute the Sigma(t) curve of every rate in the spec as columns."""
    gammas = np.array(spec.gammas, dtype=float)
    times = np.linspace(0.0, spec.t_max, spec.steps)
    p = p_of_t(gammas[:, None], times)  # (rates, steps)
    # one seed per grid point, drawn only by Monte Carlo
    seeds = (np.random.SeedSequence(seed, spawn_key=key) for key in np.ndindex(p.shape))
    sv, sigma = damped_sigma(spec.channel_kind, spec.c, p, spec.method, n_samples, seeds)
    exact = spec.method != "monte_carlo"
    metadata = {
        "channel": spec.channel_kind,
        "c": spec.c,
        "gammas": list(spec.gammas),
        "t_max": spec.t_max,
        "steps": spec.steps,
        "method": spec.method,
        "seed": seed,
        "samples": None if exact else n_samples,
        "estimator": ESTIMATOR if exact else spec.method,
        "rel_error_bound": RG_REL_ERROR_BOUND if exact else None,
        "rng": RNG_IDENTITY,
    }
    columns = dict(gammas=gammas, t=times, p=p, sv=sv, sigma=sigma,
                   labels=classify_batch(sigma))
    for column in columns.values():
        column.flags.writeable = False  # keeps the cached `blocks` view true
    return DecayCurve(**columns, metadata=metadata)


def figure_dataset(figure: int, seed: int = 42) -> DecayCurve:
    """Canned decay datasets: figure 1 is phase damping, figure 2 amplitude.

    Both use c = 1/sqrt(2) (so Sigma starts at its maximum 1/2), rates
    {0.5, 1.0, 2.0}, and 201 points on t in [0, 8] with exact (R_G) Sigma.
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
