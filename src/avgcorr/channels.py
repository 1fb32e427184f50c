"""Local decoherence channels in Pauli-transfer form.

Phase damping (coherence loss without energy exchange) and amplitude damping
(energy decay toward |0>) have the Kraus operators

    phase:     K0 = diag(1, sqrt(1-p)),   K1 = diag(0, sqrt(p))
    amplitude: K0 = diag(1, sqrt(1-p)),   K1 = sqrt(p) |0><1|

and act on a qubit as rho -> sum_i Ki rho Ki^dag. Their Pauli-transfer
matrices R_mu,nu = tr(sigma_mu E(sigma_nu))/2, with sigma_0 = I, follow from
these operators and are real 4x4 matrices (q = sqrt(1-p)):

    phase:     diag(1, q, q, 1)
    amplitude: diag(1, q, q, 1-p) plus R_30 = p

A local pair acts on the real correlation matrix T of a two-qubit state
(see `correlation.t_matrix`) as T' = R_A T R_B^T, so no damped density
matrix is ever built.
"""

from __future__ import annotations

import numpy as np

PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"
CHANNEL_KINDS = (PHASE_DAMPING, AMPLITUDE_DAMPING)


def pauli_transfer(kind: str, p) -> np.ndarray:
    """Pauli-transfer matrices of a channel in CHANNEL_KINDS for every damping
    probability in `p`, shape p.shape + (4, 4)."""
    p = np.asarray(p, dtype=float)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p must lie in [0, 1], got {p[bad].flat[0]}")
    r = np.zeros(p.shape + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 1, 1] = r[..., 2, 2] = np.sqrt(1.0 - p)
    if kind == PHASE_DAMPING:
        r[..., 3, 3] = 1.0
    elif kind == AMPLITUDE_DAMPING:
        r[..., 3, 0] = p
        r[..., 3, 3] = 1.0 - p
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return r


def p_of_t(gamma, t):
    """Damping probability after time t at decoherence rate gamma, for
    scalars (a float) or arrays that broadcast together (an array).

    p(t) = 1 - exp(-gamma * t), so p(0) = 0 and p -> 1 as t -> inf.
    """
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError(f"decoherence rate must be >= 0, got {gamma[gamma < 0.0].flat[0]}")
    if np.any(t < 0.0):
        raise ValueError(f"time must be >= 0, got {t[t < 0.0].flat[0]}")
    # expm1 keeps full precision for small gamma*t
    p = -np.expm1(-gamma * t)
    return float(p) if p.ndim == 0 else p
