"""Coordinate Bethe ansatz for the isotropic six-vertex transfer matrix and
the periodic XXZ chain, with brute-force verification oracles."""

from .ansatz import (
    AmplitudeEvaluator,
    IdentityReport,
    SpectralPrediction,
    amplitude,
    bethe_residual,
    build_psi,
    eigenvalue_regular,
    eigenvalue_singular,
    full_prediction,
    identity_suite,
    transfer_eigenvalue,
)
from .basis import (
    OccupationVector,
    SectorIndex,
    arrow_flip,
    enumerate_sector,
    interlaced,
    mismatch_count,
)
from .errors import (
    CapExceededError,
    DegenerateMomentaError,
    DomainError,
    SectorMismatchError,
    SingularMomentumError,
)
from .functions import (
    Anisotropy,
    L_factor,
    M_factor,
    MomentumSet,
    grid_suite,
    scattering_kernel,
    theta,
    theta_partial_1,
)
from .oracle import (
    SpectrumResult,
    check_eigenpair,
    dense_eigenvalues,
    dense_spectrum,
    match_eigenvalue,
)
from .solver import (
    QuantumNumbers,
    SolveReport,
    SolverConfig,
    ground_state_quantum_numbers,
    log_equations,
    solve,
)
from .transfer import (
    SectorMatrix,
    VertexWeights,
    build_transfer_block,
    build_transfer_block_by_configuration,
    enumerate_row_completions,
    matrix_text,
    partition_function_bruteforce,
    trace_power,
    write_matrix,
)
from .xxz import build_hamiltonian_block, commutator_norm, energy_prediction

__version__ = "0.1.0"
