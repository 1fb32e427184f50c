"""Two-qubit density matrices and Pauli operators.

The product basis is ordered |00>, |01>, |10>, |11> with qubit A as the
left tensor factor. Every function here is pure; matrices are treated as
immutable once returned.

The package's range and count rules are written once, here:
`check_range` for values that must lie in [0, top] (c and p in [0, 1];
rates and times finite and >= 0, with the largest double as top) and
`check_count` for integers with a least value (a sweep's steps, the Monte
Carlo sample count, an integer seed and `verify`'s trial count). Each
rule's owner calls one of them with its own message. Every input rule of
the package, these and the rest, raises `RuleError`, a ValueError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Tolerances for the density-matrix invariants. The PSD slack absorbs
# rounding introduced by channel application without masking real
# violations.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
MIN_EIGENVALUE_TOL = -1e-10

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)
IDENTITY_2 = np.eye(2, dtype=complex)


class RuleError(ValueError):
    """A value that breaks one of the package's input rules. The command line
    reports it as a usage error, and any other error as a failure."""


def check_range(x, rule: str, top: float = 1.0) -> np.ndarray | np.float64:
    """`x` as a float array, or a numpy float for one value; RuleError
    "{rule}, got X", X the first bad entry, unless every entry lies in
    [0, top] (NaN does not)."""
    # [()]: one value becomes a numpy scalar, ~10x cheaper than a 0-d array on the same loops
    x = np.asarray(x, dtype=float)[()]
    # counts the values that pass, so NaN fails; the mask's inverse is built only then
    if np.count_nonzero(ok := (x >= 0.0) & (x <= top)) < x.size:
        raise RuleError(f"{rule}, got {x[~ok].flat[0]}")
    return x


def check_count(n, what: str, least: int) -> int:
    """`n` as an int; RuleError unless it is an integer >= `least`."""
    try:
        n = operator.index(n)
    except TypeError:
        raise RuleError(f"{what} must be an integer, got {n!r}") from None
    if n < least:
        raise RuleError(f"{what} must be >= {least}, got {n}")
    return n


def check_schmidt(c) -> np.ndarray | np.float64:
    """Schmidt coefficients `c` as a float array, or a numpy float for one
    value; ValueError unless every entry lies in [0, 1]."""
    return check_range(c, "Schmidt coefficient must lie in [0, 1]")


def make_pure_state(c: float) -> np.ndarray:
    """Density matrix of the entangled pure state c|01> - sqrt(1-c^2)|10>.

    The result is a rank-1 projector supported on the antiparallel
    subspace: diagonal block (c^2, 1-c^2) on |01>, |10> with off-diagonal
    -c*sqrt(1-c^2), zeros elsewhere.
    """
    c = float(c)
    check_schmidt(c)
    # the factored 1 - c^2 does not cancel near c = 1
    amp = np.array([0.0, c, -np.sqrt((1.0 - c) * (1.0 + c)), 0.0], dtype=complex)
    return np.outer(amp, amp.conj())


@dataclass(frozen=True)
class DensityReport:
    """Residuals of the density-matrix checks on a 4x4 matrix."""

    hermiticity_residual: float
    trace_deviation: float
    min_eigenvalue: float
    non_finite_entries: int = 0
    shape: tuple[int, ...] = (4, 4)

    @property
    def failures(self) -> list[str]:
        # only the checks that ran: a wrong shape or a non-finite entry runs no residual
        if self.shape != (4, 4):
            return [f"shape {self.shape}, expected (4, 4)"]
        if self.non_finite_entries:
            return [f"non-finite entries: {self.non_finite_entries}"]
        texts = (f"hermiticity residual {self.hermiticity_residual:.3e}",
                 f"trace deviation {self.trace_deviation:.3e}",
                 f"min eigenvalue {self.min_eigenvalue:.3e}")
        failed = _failed_checks(self.hermiticity_residual, self.trace_deviation,
                                self.min_eigenvalue, self.non_finite_entries)[1:]
        return [text for text, fails in zip(texts, failed) if fails]

    @property
    def ok(self) -> bool:
        return not self.failures


def _failed_checks(herm, trace_dev, min_eig, non_finite) -> tuple[np.ndarray, ...]:
    """Whether each check fails, elementwise, in the order of the report's
    failures: non-finite entries, Hermiticity, trace and the smallest
    eigenvalue. A NaN residual fails."""
    return (np.not_equal(non_finite, 0), ~np.less_equal(herm, HERMITICITY_TOL),
            ~np.less_equal(trace_dev, TRACE_TOL), ~np.greater_equal(min_eig, MIN_EIGENVALUE_TOL))


def _density_residuals(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Hermiticity residual, trace deviation, smallest eigenvalue, count of
    non-finite entries) of each matrix of the complex stack `rho` (shape
    (..., 4, 4)), four arrays of shape rho.shape[:-2], each entry that of
    its matrix alone. A matrix with a non-finite entry has NaN residuals,
    and no arithmetic runs on its entries."""
    non_finite = np.count_nonzero(~np.isfinite(rho), axis=(-2, -1))
    finite = non_finite == 0
    if not finite.all():
        rho = np.where(finite[..., None, None], rho, 0.0)  # residuals discarded below
    adjoint = rho.conj().swapaxes(-2, -1)
    herm = np.abs(rho - adjoint).max(axis=(-2, -1))
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    # eigvalsh assumes Hermitian input and returns real eigenvalues; use the
    # symmetrized matrix so a tiny Hermiticity residual cannot skew the check.
    min_eig = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min(axis=-1)
    return (*(np.where(finite, r, np.nan) for r in (herm, trace_dev, min_eig)), non_finite)


def _report(residuals: tuple[np.ndarray, ...], index: tuple[int, ...] = ()) -> DensityReport:
    """The report of the matrix at `index` of `_density_residuals`' stack."""
    herm, trace_dev, min_eig, non_finite = (r[index] for r in residuals)
    return DensityReport(float(herm), float(trace_dev), float(min_eig), int(non_finite))


def validate_density(rho: np.ndarray) -> DensityReport:
    """Check the 4x4 shape, Hermiticity, unit trace, and positive semidefiniteness.

    Failed checks are reported with their residuals (NaN for another shape
    or for non-finite entries), not raised.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):  # NaN residuals, no arithmetic
        return DensityReport(np.nan, np.nan, np.nan, shape=rho.shape)
    return _report(_density_residuals(rho))


def _first_failure(rho: np.ndarray) -> tuple[list[int], DensityReport] | None:
    """The index, as a list, and the report of the first matrix of the stack
    `rho` (shape (..., 4, 4)) in C order that fails `validate_density`'s
    checks, or None when every one passes. The checks run on the whole
    stack at once. An array whose shape does not end in (4, 4) is one
    matrix, at index [], that fails."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        return [], validate_density(rho)
    residuals = _density_residuals(rho)
    failed = np.logical_or.reduce(_failed_checks(*residuals))
    if not failed.any():
        return None
    index = np.unravel_index(np.argmax(failed), failed.shape)
    return [int(i) for i in index], _report(residuals, index)


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random physical state: a random pure state mixed with identity."""
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amp /= np.linalg.norm(amp)
    weight = rng.uniform()
    return weight * np.outer(amp, amp.conj()) + (1.0 - weight) * np.eye(4) / 4.0
