"""Pauli-transfer matrices of the two damping channels, the Pauli lookup
and the Kronecker product `tensor2`: the oracle the tests hold the
closed-form damped triple to.

A channel's Pauli-transfer matrix R_mu,nu = tr(sigma_mu E(sigma_nu))/2, with
sigma_0 = I, follows from its Kraus operators (see `kraus.py`) and is a real
4x4 matrix (q = sqrt(1-p)):

    phase:     diag(1, q, q, 1)
    amplitude: diag(1, q, q, 1-p) plus R_30 = p

A local pair acts on the real matrix T of a two-qubit state (`t_matrix`)
as T' = R_A T R_B^T, whose lower 3x3 block is the damped correlation
matrix K. `t_matrix` is the einsum that `avgcorr.correlation_matrix`
takes K from, over all 16 products where K reads the 9 of its lower block;
that block is K bit for bit. It checks nothing, since these tests pass it
only density matrices.
"""

from __future__ import annotations

import numpy as np

from avgcorr import AMPLITUDE_DAMPING, PHASE_DAMPING
from avgcorr.states import IDENTITY_2, PAULIS


def tensor2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B with A acting on the left (qubit A) slot."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))

# PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I
PAULI_PRODUCTS = np.array(
    [[tensor2(si, sj) for sj in (IDENTITY_2,) + PAULIS] for si in (IDENTITY_2,) + PAULIS]
)


def pauli(index: int) -> np.ndarray:
    """Pauli matrix for axis `index` in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index}")
    return PAULIS[index - 1].copy()


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


def t_matrix(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix T_mu,nu = tr(rho sigma_mu (x) sigma_nu), sigma_0 = I,
    of each matrix of `rho` (shape (..., 4, 4)), shape rho.shape[:-2] + (4,
    4). T_00 is the trace, row 0 and column 0 hold the local Bloch vectors,
    and the lower 3x3 block is the correlation matrix K."""
    t = np.einsum("...ab,mnba->...mn", np.asarray(rho, dtype=complex), PAULI_PRODUCTS)
    return t.real.copy()
