import pytest
from hypothesis import settings

from mivest.data import FunctionalSpec
from mivest.learners import LearnerConfig
from mivest.nuisance import fit_nuisance_set
from mivest.simulation import DGPSpec, generate

# CI runs with --hypothesis-profile=ci, so a failing property prints the blob
# that reproduces it (@reproduce_failure); the default profile prints none
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def single_draw():
    """Mid-sized draw from the two-level family, with its latent record."""
    return generate(DGPSpec(family="single_binary_iv", n=20_000, seed=414))


@pytest.fixture(scope="session")
def single_table(single_draw):
    return single_draw[0]


@pytest.fixture(scope="session")
def single_fit(single_table):
    return fit_nuisance_set(single_table, FunctionalSpec.mean(), LearnerConfig())


@pytest.fixture(scope="session")
def dual_draw():
    return generate(DGPSpec(family="dual_binary_iv", n=20_000, seed=77))


@pytest.fixture(scope="session")
def dual_table(dual_draw):
    return dual_draw[0]


@pytest.fixture(scope="session")
def dual_fit(dual_table):
    return fit_nuisance_set(dual_table, FunctionalSpec.mean(), LearnerConfig())
