"""Estimation of outcome functionals under nonignorable missingness with
a multiplicatively separable selection mechanism and a discrete shadow
instrument.

The estimand is beta = E[h(Y; psi) | R = 0], the mean of a user-chosen
transform of the outcome among nonrespondents, identified through the
conditional Wald-type contrast delta(Z, X) and extendable to functionals
of the full-population outcome law.
"""

from .binary import wald_ratio_binary
from .corruption import (
    Scenario,
    binary_scenarios,
    corrupt_nuisance,
    general_scenarios,
    run_robustness,
)
from .crossfit import (
    CrossfitResult,
    EstimateReport,
    FoldPlan,
    crossfit_beta,
    crossfit_estimate,
    crossfit_population_mean,
    make_folds,
    median_adjust,
)
from .data import (
    FunctionalSpec,
    ObservationTable,
    combine_instrument_levels,
    evaluate_h,
    validate_table,
)
from .dataio import (
    AnalysisConfig,
    IngestInfo,
    SimulationSection,
    config_from_dict,
    ingest_csv,
    load_config,
    report_json,
    write_report,
    write_table_csv,
)
from .exceptions import (
    ConfigurationError,
    DataContractError,
    DenominatorFloorError,
    EstimationError,
    FitError,
    MissingOutcomeError,
    MivestError,
    NoIncompleteCasesError,
    NuisanceFitError,
    WeakIdentificationError,
)
from .general import (
    beta_id_general,
    beta_if_general,
    if_values_general,
    normal_ci,
    population_mean_if,
    solve_functional,
    variance_if,
)
from .learners import LearnerConfig
from .nuisance import Diagnostics, NuisanceSet, evaluate_nuisances, fit_nuisance_set
from .oracles import (
    oracle_delta_fn,
    oracle_identified_beta,
    oracle_mu,
    oracle_nuisances,
    oracle_pi,
    oracle_rho,
    true_p_missing,
)
from .simulation import (
    DGPSpec,
    LatentRecord,
    MonteCarloReport,
    OracleResult,
    generate,
    oracle_beta,
    oracle_missing_quantile,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ConfigurationError",
    "CrossfitResult",
    "DGPSpec",
    "DataContractError",
    "DenominatorFloorError",
    "Diagnostics",
    "EstimateReport",
    "EstimationError",
    "FitError",
    "FoldPlan",
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
    "Scenario",
    "SimulationSection",
    "WeakIdentificationError",
    "beta_id_general",
    "beta_if_general",
    "binary_scenarios",
    "combine_instrument_levels",
    "config_from_dict",
    "corrupt_nuisance",
    "crossfit_beta",
    "crossfit_estimate",
    "crossfit_population_mean",
    "evaluate_h",
    "evaluate_nuisances",
    "fit_nuisance_set",
    "ingest_csv",
    "load_config",
    "general_scenarios",
    "generate",
    "if_values_general",
    "make_folds",
    "median_adjust",
    "normal_ci",
    "oracle_beta",
    "oracle_delta_fn",
    "oracle_identified_beta",
    "oracle_missing_quantile",
    "oracle_mu",
    "oracle_nuisances",
    "oracle_pi",
    "oracle_rho",
    "population_mean_if",
    "report_json",
    "run_monte_carlo",
    "run_robustness",
    "solve_functional",
    "true_p_missing",
    "validate_table",
    "variance_if",
    "wald_ratio_binary",
    "write_report",
    "write_table_csv",
]
