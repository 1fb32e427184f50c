"""Decay curves of the average correlation under local damping.

A sweep applies the same channel to both qubits of a pure state at
p(t) = 1 - exp(-gamma*t) over a uniform time grid and records the singular
triple, Sigma, and its nonclassicality label per point, as columns over the
(rate, time) grid.

For the pure Schmidt state c|01> - sqrt(1-c^2)|10>, both channels keep the
correlation matrix diagonal: K = diag(-s, -s, kappa) with
s = 2c sqrt(1-c^2)(1-p), kappa = -1 under phase damping and 2p - 1 under
amplitude damping (see `channels`). Its descending singular triple is
(max(s, |kappa|), s, min(s, |kappa|)), so `damped_sigma` writes the triple
in closed form over any array of damping probabilities, with neither an SVD
nor a sort. Two singular values are equal, so the exact method takes Sigma
from `correlation.sigma_damped`, elementwise in elementary functions: each
value depends only on its own (c, p), and a sweep row is bit for bit the
one-point value at its p. `damped_sigma` writes K itself out only for Monte
Carlo, the one estimator that reads it. The CLI's one-state `sigma` and
`classify` run it on a single p.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import AMPLITUDE_DAMPING, CHANNEL_KINDS, PHASE_DAMPING, p_of_t
from .correlation import (
    METHODS,
    RG_REL_ERROR_BOUND,
    RNG_IDENTITY,
    classify_batch,
    sigma_damped,
    sigma_monte_carlo_batch,
)

# the channel each canned figure shows
FIGURE_KINDS = {1: PHASE_DAMPING, 2: AMPLITUDE_DAMPING}


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one decay-curve computation; those left out take the
    figures' shape: c = 1/sqrt(2) (so Sigma starts at its maximum 1/2),
    rates {0.5, 1.0, 2.0} and 201 points on t in [0, 8], with the "exact"
    method. Every value is checked here, so a bad one raises ValueError at
    construction. c, t_max and the rates are then stored as Python floats
    (the rates as a tuple, a c or rate of -0.0 as 0.0) and steps as an int,
    so numpy values given here reach the JSON metadata as plain numbers."""

    channel_kind: str
    c: float = 1.0 / math.sqrt(2.0)
    gammas: tuple[float, ...] = (0.5, 1.0, 2.0)
    t_max: float = 8.0
    steps: int = 201
    method: str = "exact"

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
        if len(self.gammas) == 0:
            raise ValueError("need at least one decoherence rate")
        if any(g < 0.0 for g in self.gammas):
            raise ValueError(f"decoherence rates must be >= 0, got {self.gammas}")
        if self.t_max <= 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        try:
            if operator.index(self.steps) < 2:
                raise ValueError(f"need at least 2 time steps, got {self.steps}")
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "c", float(self.c) + 0.0)
        object.__setattr__(self, "gammas", tuple(float(g) + 0.0 for g in self.gammas))
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "steps", operator.index(self.steps))


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Decay curves as columns over the (rate, time) grid.

    `gammas` has one entry per rate and `t` one per step; `p`, `sigma` and
    `labels` have shape (rates, steps) and `sv`, the descending singular
    values, (rates, steps, 3). `decay_curve` returns the arrays read-only.
    """

    gammas: np.ndarray
    t: np.ndarray
    p: np.ndarray
    sv: np.ndarray
    sigma: np.ndarray
    labels: np.ndarray
    metadata: dict


def damped_sigma(
    kind: str,
    c: float,
    p,
    method: str = "exact",
    n_samples: int = 1_000_000,
    seeds=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Singular triples and Sigma of the pure state with Schmidt coefficient
    c after `kind` damping of both qubits, at every probability in `p`; c
    broadcasts against p. Returns (sv, sigma) of shapes S + (3,) and S, S
    the broadcast shape of c and p.

    "exact" runs `sigma_damped` on s and kappa; "monte_carlo" runs
    `sigma_monte_carlo_batch` on K, with `seeds` holding one seed per point
    of S, in C order. A c or p outside [0, 1] (NaN included), an unknown
    kind or a method not in METHODS raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.count_nonzero(bad := ~((c >= 0.0) & (c <= 1.0))):  # NaN fails
        raise ValueError(f"Schmidt coefficient must lie in [0, 1], got {c[bad].flat[0]}")
    if np.count_nonzero(bad := ~((p >= 0.0) & (p <= 1.0))):
        raise ValueError(f"p must lie in [0, 1], got {p[bad].flat[0]}")
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    # s has the broadcast shape of c and p; kappa broadcasts into it. The
    # factored 1 - c^2 does not cancel near c = 1.
    s = 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c)) * (1.0 - p)
    kappa = 2.0 * p - 1.0 if kind == AMPLITUDE_DAMPING else -1.0
    third = np.abs(kappa)
    sv = np.empty(np.shape(s) + (3,))  # descending
    np.maximum(s, third, out=sv[..., 0])
    sv[..., 1] = s
    np.minimum(s, third, out=sv[..., 2])
    if method == "monte_carlo":  # the one estimator that reads K
        k = np.zeros(sv.shape[:-1] + (3, 3))
        k[..., 0, 0] = k[..., 1, 1] = -s
        k[..., 2, 2] = kappa
        sigma, _ = sigma_monte_carlo_batch(k, n_samples, seeds)
    elif method in METHODS:
        sigma = sigma_damped(s, kappa)
    else:
        raise ValueError(f"unknown method {method!r}")
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
    exact = spec.method == "exact"
    metadata = {
        "channel": spec.channel_kind,
        "c": spec.c,
        "gammas": list(spec.gammas),
        "t_max": spec.t_max,
        "steps": spec.steps,
        "method": spec.method,
        "seed": seed,
        "samples": None if exact else n_samples,
        "estimator": "carlson_rc" if exact else spec.method,
        "rel_error_bound": RG_REL_ERROR_BOUND if exact else None,
        "rng": RNG_IDENTITY,
    }
    columns = dict(gammas=gammas, t=times, p=p, sv=sv, sigma=sigma,
                   labels=classify_batch(sigma))
    for column in columns.values():
        column.flags.writeable = False  # frozen=True guards the fields, this their contents
    return DecayCurve(**columns, metadata=metadata)


def figure_dataset(figure: int, seed: int = 42) -> DecayCurve:
    """Canned decay datasets on SweepSpec's default shape: figure 1 is phase
    damping, figure 2 amplitude damping."""
    if figure not in FIGURE_KINDS:
        raise ValueError(f"figure must be 1 or 2, got {figure}")
    return decay_curve(SweepSpec(FIGURE_KINDS[figure]), seed=seed)
