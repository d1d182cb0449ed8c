"""Simulation and inference for subcritical branching processes with
heavy-tailed immigration: process engine, CLS estimation of the
offspring mean, the bivariate stable limit law of the normalised sums,
and tail-process validators.
"""

from .distributions import (
    ImmigrationLaw,
    OffspringLaw,
    karamata_limit,
    karamata_ratio,
)
from .estimator import cls_estimate, replication_experiment
from .limitlaw import (
    LimitParams,
    cdf_ratio,
    cf_joint,
    cf_marginals,
    sample_limit_pairs,
)
from .process import (
    ModelParams,
    scaling,
    simulate,
    simulate_batch,
    stationary_init_many,
)
from .tailproc import (
    laplace_functional_gap,
    sample_tail_paths,
    validate_pseudo_tail,
)

__version__ = "0.1.0"
