"""Estimation of outcome functionals under nonignorable missingness with
a multiplicatively separable selection mechanism and a discrete shadow
instrument.

The estimand is beta = E[h(Y; psi) | R = 0], the mean of a user-chosen
transform of the outcome among nonrespondents, identified through the
conditional Wald-type contrast delta(Z, X) and extendable to functionals
of the full-population outcome law.

The package root exports what the CLI, the scripts and the README use, the
exceptions, and the types those functions return; everything else is
imported from its submodule.
"""

from .corruption import run_robustness
from .crossfit import EstimateReport, crossfit_beta
from .data import EstimationConfig, FunctionalSpec, ObservationTable, validate_table
from .dataio import (
    AnalysisConfig,
    IngestInfo,
    ingest_csv,
    load_config,
    write_report,
    write_table_csv,
)
from .exceptions import (
    ConfigurationError,
    DataContractError,
    EstimationError,
    FitError,
    MissingOutcomeError,
    MivestError,
    NoIncompleteCasesError,
    NuisanceFitError,
    WeakIdentificationError,
)
from .general import solve_functional
from .learners import LearnerConfig
from .nuisance import NuisanceSet, fit_nuisance_set
from .simulation import (
    DGPSpec,
    LatentRecord,
    MonteCarloReport,
    OracleResult,
    generate,
    oracle_beta,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ConfigurationError",
    "DGPSpec",
    "DataContractError",
    "EstimateReport",
    "EstimationConfig",
    "EstimationError",
    "FitError",
    "FunctionalSpec",
    "IngestInfo",
    "LatentRecord",
    "LearnerConfig",
    "MissingOutcomeError",
    "MivestError",
    "MonteCarloReport",
    "NoIncompleteCasesError",
    "NuisanceFitError",
    "NuisanceSet",
    "ObservationTable",
    "OracleResult",
    "WeakIdentificationError",
    "crossfit_beta",
    "fit_nuisance_set",
    "generate",
    "ingest_csv",
    "load_config",
    "oracle_beta",
    "run_monte_carlo",
    "run_robustness",
    "solve_functional",
    "validate_table",
    "write_report",
    "write_table_csv",
]
