"""Rotation-averaged correlation of two-qubit states under local damping."""

from .correlation import (
    CLASSICAL_COMPATIBLE,
    CLASSICAL_MAX,
    INDETERMINATE,
    NONCLASSICAL,
    NONCLASSICAL_MIN,
    classify,
    correlation_matrix,
    sigma_for_state,
)
from .states import DensityReport, make_pure_state, random_density, validate_density
from .sweep import (
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    DecayCurve,
    SweepSpec,
    damped_sigma,
    decay_curve,
    figure_dataset,
    p_of_t,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE_DAMPING",
    "CLASSICAL_COMPATIBLE",
    "CLASSICAL_MAX",
    "DecayCurve",
    "DensityReport",
    "INDETERMINATE",
    "NONCLASSICAL",
    "NONCLASSICAL_MIN",
    "PHASE_DAMPING",
    "SweepSpec",
    "classify",
    "correlation_matrix",
    "damped_sigma",
    "decay_curve",
    "figure_dataset",
    "make_pure_state",
    "p_of_t",
    "random_density",
    "sigma_for_state",
    "validate_density",
]
