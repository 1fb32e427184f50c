"""Local damping of a pure Schmidt state, and its average correlation's
decay curves.

Phase damping (coherence loss without energy exchange) and amplitude damping
(energy decay toward |0>) have the Kraus operators

    phase:     K0 = diag(1, sqrt(1-p)),   K1 = diag(0, sqrt(p))
    amplitude: K0 = diag(1, sqrt(1-p)),   K1 = sqrt(p) |0><1|

and act on a qubit as rho -> sum_i Ki rho Ki^dag, at p(t) = 1 - exp(-gamma*t)
(`p_of_t`). The Kraus and Pauli-transfer forms of the channels are test
oracles (`tests/kraus.py`, `tests/transfer.py`). A sweep applies the same
channel to both qubits of a pure state over a uniform time grid and records
the singular triple, Sigma, and its nonclassicality label per point, as
columns over the (rate, time) grid.

For the pure Schmidt state c|01> - sqrt(1-c^2)|10>, whose correlation matrix
is diag(-s0, -s0, -1) with s0 = 2c sqrt(1-c^2), both channels keep K
diagonal: K = diag(-s, -s, kappa) with s = s0 (1-p), kappa = -1 under phase
damping and 2p - 1 under amplitude damping, which moves weight toward |00>.
Its descending singular triple is
(max(s, |kappa|), s, min(s, |kappa|)), so `damped_sigma` writes the triple
in closed form over any array of damping probabilities, with neither an SVD
nor a sort. Two singular values are equal, so it takes Sigma from
`correlation.sigma_damped`, elementwise in elementary functions: each value
depends only on its own (c, p), and a sweep row is bit for bit the one-point
value at its p. The CLI's one-state `sigma` and `classify` run it on a
single p. No estimator is chosen here: the Monte Carlo average is an oracle
that `verify` and the tests run on a state's K.

Rates and times must be finite and >= 0: `_check_rates` and `p_of_t` own
that rule for every entry point, `SweepSpec` included, each through
`states.check_range` with the largest double as its top; `damped_sigma`
checks p the same way, and `SweepSpec` its steps through
`states.check_count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import RG_REL_ERROR_BOUND, classify, sigma_damped
from .states import RuleError, check_count, check_range, check_schmidt

PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"
CHANNEL_KINDS = (PHASE_DAMPING, AMPLITUDE_DAMPING)

# the channel each canned figure shows
FIGURE_KINDS = {1: PHASE_DAMPING, 2: AMPLITUDE_DAMPING}

# the top of a range that must be finite: inf and NaN fail it
_LARGEST = np.finfo(float).max


def _check_kind(kind) -> None:
    """ValueError unless `kind` is one of CHANNEL_KINDS."""
    if kind not in CHANNEL_KINDS:
        raise RuleError(f"unknown channel kind {kind!r}")


def _check_rates(gamma) -> np.ndarray | np.float64:
    """Decoherence rates `gamma` as a float array, or a numpy float for one
    rate; ValueError unless every rate is finite and >= 0."""
    return check_range(gamma, "decoherence rate must be finite and >= 0", _LARGEST)


def p_of_t(gamma, t):
    """Damping probability after time t at decoherence rate gamma, for
    scalars (a float) or arrays that broadcast together (an array).

    p(t) = 1 - exp(-gamma * t), so p(0) = 0 and p -> 1 as t -> inf. A gamma
    or t that is negative, NaN or infinite raises ValueError.
    """
    gamma = _check_rates(gamma)
    t = check_range(t, "time must be finite and >= 0", _LARGEST)
    # expm1 keeps full precision for small gamma*t; a product that overflows
    # to inf is a rate-time far past saturation, and p = 1 there exactly
    with np.errstate(over="ignore"):
        p = -np.expm1(-gamma * t) + 0.0  # + 0.0: a rate of -0.0 gives p = 0.0
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one decay-curve computation; those left out take the
    figures' shape: c = 1/sqrt(2) (so Sigma starts at its maximum 1/2),
    rates {0.5, 1.0, 2.0} and 201 points on t in [0, 8]. Every value is
    checked here, so a bad one raises ValueError at construction. c, t_max
    and the rates are then stored as Python floats (the rates as a tuple, a
    c or rate of -0.0 as 0.0) and steps as an int, so numpy values given
    here reach the JSON metadata as plain numbers."""

    channel_kind: str
    c: float = 1.0 / math.sqrt(2.0)
    gammas: tuple[float, ...] = (0.5, 1.0, 2.0)
    t_max: float = 8.0
    steps: int = 201
    # not a field: every sweep runs the exact closed form, and the
    # benchmark's tracer (bench/tracing.py) still reads spec.method
    method = "exact"

    def __post_init__(self):
        _check_kind(self.channel_kind)
        check_schmidt(self.c)
        if len(self.gammas) == 0:
            raise RuleError("need at least one decoherence rate")
        _check_rates(self.gammas)
        if not 0.0 < self.t_max < math.inf:
            raise RuleError(f"t_max must be finite and > 0, got {self.t_max}")
        steps = check_count(self.steps, "steps", 2)
        object.__setattr__(self, "c", float(self.c) + 0.0)
        object.__setattr__(self, "gammas", tuple(float(g) + 0.0 for g in self.gammas))
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "steps", steps)


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


def damped_sigma(kind: str, c: float, p) -> tuple[np.ndarray, np.ndarray]:
    """Singular triples and Sigma of the pure state with Schmidt coefficient
    c after `kind` damping of both qubits, at every probability in `p`; c
    broadcasts against p. Returns (sv, sigma) of shapes S + (3,) and S, S
    the broadcast shape of c and p.

    Sigma is `sigma_damped` of s and kappa. A c or p outside [0, 1] (NaN
    included) or an unknown kind raises ValueError.
    """
    c = check_schmidt(c)
    p = check_range(p, "p must lie in [0, 1]")
    _check_kind(kind)
    # s has the broadcast shape of c and p; kappa broadcasts into it. The
    # factored 1 - c^2 does not cancel near c = 1.
    s = 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c)) * (1.0 - p)
    kappa = 2.0 * p - 1.0 if kind == AMPLITUDE_DAMPING else -1.0
    third = np.abs(kappa)
    sv = np.empty(np.shape(s) + (3,))  # descending
    np.maximum(s, third, out=sv[..., 0])
    sv[..., 1] = s
    np.minimum(s, third, out=sv[..., 2])
    return sv, sigma_damped(s, kappa)


def decay_curve(spec: SweepSpec) -> DecayCurve:
    """Compute the Sigma(t) curve of every rate in the spec as columns; the
    metadata holds the spec, the formula that ran (`estimator`) and its
    relative error bound."""
    gammas = np.array(spec.gammas, dtype=float)
    times = np.linspace(0.0, spec.t_max, spec.steps)
    p = p_of_t(gammas[:, None], times)  # (rates, steps)
    sv, sigma = damped_sigma(spec.channel_kind, spec.c, p)
    metadata = {
        "channel": spec.channel_kind,
        "c": spec.c,
        "gammas": list(spec.gammas),
        "t_max": spec.t_max,
        "steps": spec.steps,
        "estimator": "carlson_rc",
        "rel_error_bound": RG_REL_ERROR_BOUND,
    }
    columns = dict(gammas=gammas, t=times, p=p, sv=sv, sigma=sigma,
                   labels=classify(sigma))
    for column in columns.values():
        column.flags.writeable = False  # frozen=True guards the fields, this their contents
    return DecayCurve(**columns, metadata=metadata)


def figure_dataset(figure: int) -> DecayCurve:
    """Canned decay datasets on SweepSpec's default shape: figure 1 is phase
    damping, figure 2 amplitude damping."""
    if figure not in FIGURE_KINDS:
        raise RuleError(f"figure must be 1 or 2, got {figure}")
    return decay_curve(SweepSpec(FIGURE_KINDS[figure]))
