"""Rotation-averaged correlation of two-qubit states under local damping."""

from .channels import AMPLITUDE_DAMPING, PHASE_DAMPING, p_of_t, pauli_transfer
from .correlation import (
    CLASSICAL_COMPATIBLE,
    CLASSICAL_MAX,
    INDETERMINATE,
    NONCLASSICAL,
    NONCLASSICAL_MIN,
    SigmaEstimate,
    classify,
    correlation_matrix,
    sigma_for_state,
    sigma_monte_carlo,
    t_matrix,
)
from .states import (
    DensityReport,
    make_pure_state,
    pauli,
    random_density,
    tensor2,
    validate_density,
)
from .sweep import (
    DecayBlock,
    DecayCurve,
    DecayRow,
    SweepSpec,
    damped_sigma,
    decay_curve,
    figure_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE_DAMPING",
    "CLASSICAL_COMPATIBLE",
    "CLASSICAL_MAX",
    "DecayBlock",
    "DecayCurve",
    "DecayRow",
    "DensityReport",
    "INDETERMINATE",
    "NONCLASSICAL",
    "NONCLASSICAL_MIN",
    "PHASE_DAMPING",
    "SigmaEstimate",
    "SweepSpec",
    "classify",
    "correlation_matrix",
    "damped_sigma",
    "decay_curve",
    "figure_dataset",
    "make_pure_state",
    "p_of_t",
    "pauli",
    "pauli_transfer",
    "random_density",
    "sigma_for_state",
    "sigma_monte_carlo",
    "t_matrix",
    "tensor2",
    "validate_density",
]
