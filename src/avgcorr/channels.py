"""Local decoherence channels and the damping law p(t).

Phase damping (coherence loss without energy exchange) and amplitude damping
(energy decay toward |0>) have the Kraus operators

    phase:     K0 = diag(1, sqrt(1-p)),   K1 = diag(0, sqrt(p))
    amplitude: K0 = diag(1, sqrt(1-p)),   K1 = sqrt(p) |0><1|

and act on a qubit as rho -> sum_i Ki rho Ki^dag. Applied to both qubits of
the pure state c|01> - sqrt(1-c^2)|10>, whose correlation matrix is
diag(-s0, -s0, -1) with s0 = 2c sqrt(1-c^2), either channel scales the two
transverse entries by 1-p and keeps K diagonal; the third entry stays -1
under phase damping and becomes 2p - 1 under amplitude damping, which moves
weight toward |00>. `sweep.damped_sigma` works from s and kappa directly
and writes K out only for Monte Carlo. The Kraus
and Pauli-transfer forms of the channels are test oracles (`tests/kraus.py`,
`tests/transfer.py`).
"""

from __future__ import annotations

import numpy as np

PHASE_DAMPING = "phase_damping"
AMPLITUDE_DAMPING = "amplitude_damping"
CHANNEL_KINDS = (PHASE_DAMPING, AMPLITUDE_DAMPING)


def p_of_t(gamma, t):
    """Damping probability after time t at decoherence rate gamma, for
    scalars (a float) or arrays that broadcast together (an array).

    p(t) = 1 - exp(-gamma * t), so p(0) = 0 and p -> 1 as t -> inf. A
    negative or NaN gamma or t, or an infinite one times zero, raises
    ValueError.
    """
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    # counts the values that pass, so NaN fails; the mask is built only then
    if np.count_nonzero(gamma >= 0.0) < gamma.size:
        raise ValueError(f"decoherence rate must be >= 0, got {gamma[~(gamma >= 0.0)].flat[0]}")
    if np.count_nonzero(t >= 0.0) < t.size:
        raise ValueError(f"time must be >= 0, got {t[~(t >= 0.0)].flat[0]}")
    # expm1 keeps full precision for small gamma*t; a product that overflows
    # to inf is a rate-time far past saturation, and p = 1 there exactly
    try:
        with np.errstate(over="ignore", invalid="raise"):
            p = -np.expm1(-gamma * t) + 0.0  # + 0.0: a rate of -0.0 gives p = 0.0
    except FloatingPointError:  # inf * 0, the one invalid product once NaN is out
        gamma, t = np.broadcast_arrays(gamma, t)
        at = np.flatnonzero(np.isinf(gamma) & (t == 0.0) | (gamma == 0.0) & np.isinf(t))[0]
        raise ValueError(f"gamma * t is undefined at gamma = {gamma.flat[at]}, "
                         f"t = {t.flat[at]}") from None
    return float(p) if p.ndim == 0 else p
