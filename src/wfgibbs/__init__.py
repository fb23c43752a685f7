"""Statistics of quantum expectation values under Gibbs ensembles over
normalized wave functions: constrained ground states, effective potentials,
low-temperature fluctuation curves, and direct Monte Carlo sampling on a
truncated eigenbasis."""

from .constrain import (
    CoherentState,
    EffectivePotentialTable,
    default_grid,
    effective_potential,
    solve_lambda,
)
from .errors import (
    ConfigurationError,
    CoverageError,
    SolverError,
    TruncationError,
    UnreachableTargetError,
    UsageError,
    WfGibbsError,
)
from .lattice import (
    GridSpec,
    Harmonic,
    ModelParams,
    Polynomial,
    PotentialSpec,
    QuarticDoubleWell,
    Tilted,
    TridiagonalOperator,
    assemble_hamiltonian,
    position_element,
    tilt_hamiltonian,
)
from .sampling import (
    ChainConfig,
    SampleRun,
    TruncatedModel,
    build_truncated_model,
    exact_moments,
    sample_ensemble,
)
from .spectra import EigenPair, lowest_eigenpairs, parity_of
from .thermal import (
    ThermalCurve,
    canonical_atoms,
    fluctuation_curve,
    position_marginal,
    required_q_range,
    table_for_betas,
)
from .twostate import (
    DomainError,
    TwoStateModel,
    build_two_state,
    rescale,
    two_state_table,
    two_state_veff,
)

__version__ = "0.1.0"
