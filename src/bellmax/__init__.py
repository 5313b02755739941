"""Generalized CHSH-type Bell operators on N x N bipartite systems.

The package builds block-Pauli observables with an optional rank-one
corner projector, assembles the four-term Bell operator, computes the
closed-form maximal quantum value from correlation-matrix spectra, and
cross-validates every number with an independent see-saw optimizer.
"""

__version__ = "0.1.0"

from .linalg import (
    NonHermitianError,
    TensorSizeError,
    hermitian_eig,
    hermitian_eigenvalues,
    sym3_eig,
    tensor,
)
from .operators import (
    BellSettings,
    GammaSet,
    UnitVectorError,
    bell_operator,
    make_gamma_set,
    observable,
)
from .seesaw import (
    OracleResult,
    SeesawConfig,
    bell_value,
    bell_value_from_correlations,
    seesaw_maximize,
    spectral_max,
)
from .states import (
    DensityMatrix,
    IsotropicState,
    QuantumState,
    SchmidtState,
    StateValidationError,
    as_density,
    isotropic_to_density,
    load_state,
    partial_trace,
    schmidt_to_density,
)
from .violation import (
    CorrelationData,
    ThresholdResult,
    ViolationReport,
    best_k,
    correlation_data,
    max_violation_closed_form,
    noise_threshold,
    optimal_settings,
    scan_k,
)

__all__ = [
    "BellSettings",
    "CorrelationData",
    "DensityMatrix",
    "GammaSet",
    "IsotropicState",
    "NonHermitianError",
    "OracleResult",
    "QuantumState",
    "SchmidtState",
    "SeesawConfig",
    "StateValidationError",
    "TensorSizeError",
    "ThresholdResult",
    "UnitVectorError",
    "ViolationReport",
    "__version__",
    "as_density",
    "bell_operator",
    "bell_value",
    "bell_value_from_correlations",
    "best_k",
    "correlation_data",
    "hermitian_eig",
    "hermitian_eigenvalues",
    "isotropic_to_density",
    "load_state",
    "make_gamma_set",
    "max_violation_closed_form",
    "noise_threshold",
    "observable",
    "optimal_settings",
    "partial_trace",
    "scan_k",
    "schmidt_to_density",
    "seesaw_maximize",
    "spectral_max",
    "sym3_eig",
    "tensor",
]
