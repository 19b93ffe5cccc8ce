"""Discrete phase-space toolkit for finite odd-prime dimensions.

Builds the Schwinger clock/shift unitary pair and the Hermitian operator
basis on the N x N phase-space lattice, decides whether a Hamiltonian
spectrum supports a stroboscopic quantum clock, constructs the matching
time-interval operator, and simulates the resulting dynamics with every
algebraic identity cross-checked at machine precision.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DimensionNotOddPrime,
    IncompatibleSpectrum,
    IndexOutOfRange,
    InternalConsistency,
    NoConvergence,
    NoRationalWithinTolerance,
    NotADensityMatrix,
    NotHermitian,
    NotScalarMultiple,
    QClockError,
)
from .numerics import (
    EigenSystem,
    exchange_phase,
    exp_hermitian,
    hermitian_eig,
    hermiticity_defect,
    is_odd_prime,
    rationalize,
)
from .schwinger import (
    SchwingerPair,
    build_pair,
    clock_diagonal,
    clock_power,
    commutation_phase,
    measure_commutation_sign,
    shift_eigenvector,
    shift_power,
)
from .phase_space import (
    OperatorBasis,
    build_basis,
    check_density,
    map_operator,
    unmap_grid,
    wigner_of_density,
)
from .spectrum import (
    DEGENERATE,
    NOT_COMMENSURABLE,
    RESIDUES_NOT_LINEAR,
    IncompatibilityCertificate,
    Spectrum,
    SpectrumDecomposition,
    analyze_float_spectrum,
    decompose_spectrum,
    rationalize_energies,
)
from .time_interval import (
    TimeIntervalOperator,
    build_time_operator,
    measure_weyl_sign,
    time_operator_grid,
    verify_energy_shift,
    verify_weyl_pair,
)
from .dynamics import (
    ClockStep,
    ClockTrace,
    clock_run,
    measure_shift_sign,
    shift_vs_evolution_residual,
    stroboscopic_step,
)
from .verification import (
    CheckResult,
    SuiteReport,
    harmonic_spectrum,
    measure_signs,
    run_suite,
    skewed_spectrum,
)
