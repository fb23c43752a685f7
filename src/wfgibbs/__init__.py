"""Statistics of quantum expectation values under Gibbs ensembles over
normalized wave functions: constrained ground states, effective potentials,
low-temperature fluctuation curves, and direct Monte Carlo sampling on a
truncated eigenbasis."""

from .constrain import EffectivePotentialTable, default_grid, effective_potential
from .errors import (
    ConfigurationError,
    CoverageError,
    SolverError,
    UsageError,
    WfGibbsError,
)
from .lattice import GridSpec, Harmonic, ModelParams, Polynomial, QuarticDoubleWell, Tilted
from .sampling import (
    ChainConfig,
    SampleRun,
    TruncatedModel,
    build_truncated_model,
    canonical_atoms,
    exact_moments,
    sample_ensemble,
)
from .spectra import lowest_eigenpairs
from .thermal import ThermalCurve, fluctuation_curve, table_for_betas, two_state_curve
from .twostate import TwoStateModel, build_two_state, two_state_veff

__version__ = "0.1.0"
