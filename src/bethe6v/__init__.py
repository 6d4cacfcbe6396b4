"""Coordinate Bethe ansatz for the isotropic six-vertex transfer matrix and
the periodic XXZ chain, with brute-force verification oracles."""

from .ansatz import (
    IdentityReport,
    SpectralPrediction,
    amplitude,
    bethe_residual,
    build_psi,
    full_prediction,
    identity_suite,
    pair_factors,
    transfer_eigenvalue,
)
from .basis import SectorIndex, enumerate_sector
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
    check_eigenpair,
    commutator_probe,
    match_eigenvalue,
    momentum_spectra,
)
from .solver import (
    QuantumNumbers,
    SolveReport,
    ground_state_quantum_numbers,
    log_equations,
    solve,
)
from .transfer import (
    TransferOperator,
    log_polynomial,
    log_trace_power,
    partition_function_bruteforce,
    transfer_operator,
    transfer_rows,
)
from .xxz import (
    HamiltonianOperator,
    energy_prediction,
    hamiltonian_operator,
    hamiltonian_rows,
)

__version__ = "0.1.0"
