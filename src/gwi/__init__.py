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
    ScalingInfo,
    scaling,
    simulate,
    simulate_batch,
    stationary_init_many,
)
from .tailproc import (
    ForwardTailXM,
    TailPath,
    laplace_functional_gap,
    sample_forward_tail_xm,
    sample_tail_path,
    validate_pseudo_tail,
)

__version__ = "0.1.0"
