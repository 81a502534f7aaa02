"""State-independent variance bounds for qubit spin observables, with
entanglement-witness and EPR-steering criteria built on top."""

from .criteria import (
    ConditionalBranch,
    ConditionalDistribution,
    SteeringReport,
    WitnessReport,
    conditional_stats,
    entanglement_witness,
    inference_variance_min,
    steering_test,
)
from .incompat import (
    CubicCoefficients,
    IncompatibilityResult,
    cubic_coefficients,
    cubic_coefficients_unit,
    directions_from_angles,
    incompatibility,
    incompatibility_from_angles,
    incompatibility_pair,
    lambda_max_from_traces,
    moment_matrix,
    optimal_bloch,
)
from .linalg3 import (
    hermitian_psd_check,
    pauli_matrices,
    sym3_eigen_jacobi,
    sym3_spectrum,
    sym3_traces,
)
from .oracle import OracleResult, fibonacci_sphere, mixed_sample_floor, sphere_grid_min
from .states import (
    QubitState,
    TwoQubitState,
    product_state,
    singlet,
    uncertainty_sum,
    werner,
)

__version__ = "0.1.0"
