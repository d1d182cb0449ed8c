import numpy as np
import pytest

from gwi.distributions import ImmigrationLaw, OffspringLaw
from gwi.limitlaw import LimitParams
from gwi.process import ModelParams, _store, simulate_batch


@pytest.fixture(scope="session")
def ref_model() -> ModelParams:
    """Reference configuration: alpha=1.5, mu_A=0.5, Poisson offspring, c=0.3."""
    return ModelParams(
        offspring=OffspringLaw("poisson", 0.5),
        immigration=ImmigrationLaw(1.5, 0.3),
    )


@pytest.fixture(scope="session")
def ref_limit(ref_model) -> LimitParams:
    return LimitParams(alpha=ref_model.alpha, mu_A=ref_model.mu_A,
                       sigma_A2=ref_model.sigma_A2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def stored():
    """``stored(params, n, inits, rng)``: the (chains, n+1) paths of
    ``simulate_batch``, kept by ``_store``."""

    def run(params, n, inits, rng):
        paths, reduce = _store(n, len(inits))
        simulate_batch(params, n, inits, rng, reduce)
        return paths

    return run
