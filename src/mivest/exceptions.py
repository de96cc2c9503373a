"""Exception types shared across the package, and the tally of warnings.

The CLI maps these onto exit codes, so estimator code should raise the
most specific type that applies rather than bare ValueError.  Warnings
raised while a report is computed are recorded in it through
_tally_messages.
"""

from typing import Iterable


def _tally_messages(messages: Iterable[str]) -> list[dict]:
    """One {"message", "count"} entry per distinct message, in first-seen order."""
    counts: dict[str, int] = {}
    for message in messages:
        counts[message] = counts.get(message, 0) + 1
    return [{"message": m, "count": c} for m, c in counts.items()]


class MivestError(Exception):
    """Base class for package-specific failures."""


class ConfigurationError(MivestError):
    """Invalid configuration value or malformed config document."""


class DataContractError(MivestError):
    """Input data violates the table contract (roles, codes, missingness)."""


class MissingOutcomeError(DataContractError):
    """An outcome value was requested for a row where it is absent."""


class FitError(MivestError):
    """A nuisance learner failed to produce a usable fit."""


class NuisanceFitError(FitError):
    """fit_nuisance_set could not be completed on the given stratum."""


class EstimationError(MivestError):
    """An estimator could not produce a value on the given inputs."""


class NoIncompleteCasesError(EstimationError):
    """The target functional is undefined because no rows have R = 0."""


class WeakIdentificationError(EstimationError):
    """Root finding for the functional found no sign change on the grid."""
