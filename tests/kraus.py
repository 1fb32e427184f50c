"""Phase and amplitude damping in Kraus form: the oracle the tests hold the
Pauli-transfer matrices and the closed-form damped triple to.

Phase damping (coherence loss without energy exchange):

    K0 = [[1, 0         ],      K1 = [[0, 0      ],
          [0, sqrt(1-p) ]]            [0, sqrt(p)]]

Amplitude damping (energy decay toward |0>):

    K0 = [[1, 0         ],      K1 = [[0, sqrt(p)],
          [0, sqrt(1-p) ]]            [0, 0      ]]

Both satisfy the completeness relation sum_i Ki^dag Ki = I, and a channel
acts on a two-qubit state in the trace-preserving sandwich form

    rho' = sum_{i,j} (Ki (x) Kj) rho (Ki (x) Kj)^dag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from avgcorr import AMPLITUDE_DAMPING, PHASE_DAMPING
from transfer import tensor2

COMPLETENESS_TOL = 1e-12


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


def apply_both(rho: np.ndarray, channel) -> np.ndarray:
    """Same channel on both qubits (symmetric local noise)."""
    return apply_local_channel(rho, channel, channel)
