"""Local decoherence channels in Kraus form.

Phase damping (coherence loss without energy exchange):

    K0 = [[1, 0         ],      K1 = [[0, 0      ],
          [0, sqrt(1-p) ]]            [0, sqrt(p)]]

Amplitude damping (energy decay toward |0>):

    K0 = [[1, 0         ],      K1 = [[0, sqrt(p)],
          [0, sqrt(1-p) ]]            [0, 0      ]]

Both satisfy the completeness relation sum_i Ki^dag Ki = I, and a channel
acts on a two-qubit state in the trace-preserving sandwich form

    rho' = sum_{i,j} (Ki (x) Kj) rho (Ki (x) Kj)^dag.

The same channels in Pauli-transfer form, R_mu,nu = tr(sigma_mu E(sigma_nu))/2
with sigma_0 = I, are real 4x4 matrices (q = sqrt(1-p)):

    phase:     diag(1, q, q, 1)
    amplitude: diag(1, q, q, 1-p) plus R_30 = p

and a local pair acts on the real correlation matrix T of a two-qubit state
(see `correlation.t_matrix`) as T' = R_A T R_B^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import tensor2

COMPLETENESS_TOL = 1e-12

PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"
CHANNEL_KINDS = (PHASE_DAMPING, AMPLITUDE_DAMPING)


def _check_probability(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators of one single-qubit decoherence process."""

    operators: tuple[np.ndarray, ...]
    kind: str
    p: float


def completeness_residual(channel: KrausChannel) -> float:
    """Max entry of |sum_i Ki^dag Ki - I|."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in channel.operators:
        acc += k.conj().T @ k
    return float(np.max(np.abs(acc - np.eye(2))))


def phase_damping(p: float) -> KrausChannel:
    """Phase-damping channel with damping probability p."""
    p = _check_probability(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(p)]], dtype=complex)
    return KrausChannel((k0, k1), PHASE_DAMPING, p)


def amplitude_damping(p: float) -> KrausChannel:
    """Amplitude-damping channel with decay probability p."""
    p = _check_probability(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), AMPLITUDE_DAMPING, p)


def make_channel(kind: str, p: float) -> KrausChannel:
    """Build a channel by kind name; accepts the short aliases used by the CLI."""
    if kind in (PHASE_DAMPING, "phase"):
        return phase_damping(p)
    if kind in (AMPLITUDE_DAMPING, "amplitude"):
        return amplitude_damping(p)
    raise ValueError(f"unknown channel kind {kind!r}")


def apply_local_channel(
    rho: np.ndarray, ch_a: KrausChannel, ch_b: KrausChannel
) -> np.ndarray:
    """Apply one channel per qubit: rho' = sum_ij (Ki (x) Kj) rho (Ki (x) Kj)^dag."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for ka in ch_a.operators:
        for kb in ch_b.operators:
            op = tensor2(ka, kb)
            out += op @ rho @ op.conj().T
    return out


def pauli_transfer(kind: str, p) -> np.ndarray:
    """Pauli-transfer matrices of a channel for every damping probability in
    `p`, shape p.shape + (4, 4); accepts the same kind names as make_channel."""
    p = np.asarray(p, dtype=float)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p must lie in [0, 1], got {p[bad].flat[0]}")
    r = np.zeros(p.shape + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 1, 1] = r[..., 2, 2] = np.sqrt(1.0 - p)
    if kind in (PHASE_DAMPING, "phase"):
        r[..., 3, 3] = 1.0
    elif kind in (AMPLITUDE_DAMPING, "amplitude"):
        r[..., 3, 0] = p
        r[..., 3, 3] = 1.0 - p
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return r


def p_of_t(gamma: float, t: float) -> float:
    """Damping probability after time t at decoherence rate gamma.

    p(t) = 1 - exp(-gamma * t), so p(0) = 0 and p -> 1 as t -> inf.
    """
    gamma = float(gamma)
    t = float(t)
    if gamma < 0.0:
        raise ValueError(f"decoherence rate must be >= 0, got {gamma}")
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    # expm1 keeps full precision for small gamma*t
    return float(-np.expm1(-gamma * t))


@dataclass(frozen=True)
class DampingSchedule:
    """Maps elapsed time to damping probability at a fixed rate."""

    gamma: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError(f"decoherence rate must be >= 0, got {self.gamma}")

    def probability(self, t: float) -> float:
        return p_of_t(self.gamma, t)
