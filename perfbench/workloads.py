"""Workload definitions: which ``gwi`` experiments a round runs, at what size.

Every workload runs at the reference model (alpha 1.5, mu_A 0.5,
Poisson offspring, c 0.3) except for the range probes of ``limit``.
Each stage is one ``cli.run`` call; its config is written to a file and
read back with ``cli.parse_config``, the path the ``gwi`` command takes.

- ``replicate``: the finite-n side of the main theorem.  Wide-bundle
  stepping (width 250) plus the online CLS reduction, split over two
  worker processes; ``limitlaw`` and ``quadrature`` do no work.
- ``limit``: the stable limit law.  The ratio-CDF stage (CF inversion
  on a 21-point grid plus four range probes) runs before the Poisson
  series sampler, whose 1 GB peak would otherwise slow it; ``process``
  does no work.
- ``longrun``: the same stepping layers used narrowly: one chain with a
  per-row CSV (width 1), stored paths at width 100, and observer-mode
  reduction at width 500.
"""

from __future__ import annotations

REFERENCE = {"alpha": 1.5, "mu_A": 0.5, "c": 0.3, "offspring": "poisson"}

# Range probes: (label, config overrides) each evaluating cdf_ratio at one x.
PROBES = (
    ("alpha1.01_x1", {"alpha": 1.01, "x_min": 1.0, "x_max": 1.0}),
    ("muA0.99_x1", {"mu_A": 0.99, "x_min": 1.0, "x_max": 1.0}),
    ("alpha1.99_x1", {"alpha": 1.99, "x_min": 1.0, "x_max": 1.0}),
    ("x100", {"x_min": 100.0, "x_max": 100.0}),
)

# Per-size stage configs.  "smoke" only exercises the code paths; its
# statistical checks are not expected to hold.
_SIZES = {
    "full": {
        "estimate": {"n": 20_000, "reps": 1000},
        "cdf": {"x_min": -5.0, "x_max": 5.0, "x_points": 21},
        "sample": {"reps": 10_000, "eps": 3.5e-3, "compensate": "true"},
        "simulate": {"n": 50_000},
        "tail": {"n": 5_000_000, "chains": 100},
        "laplace": {"n": 20_000, "reps": 500, "eps": 1.0,
                    "s_values": "0.5,1,2"},
    },
    "smoke": {
        "estimate": {"n": 300, "reps": 40},
        "cdf": {"x_min": -1.0, "x_max": 1.0, "x_points": 3},
        "sample": {"reps": 500, "eps": 3.5e-3, "compensate": "true"},
        "simulate": {"n": 1000},
        "tail": {"n": 2_000_000, "chains": 100},
        "laplace": {"n": 1000, "reps": 50, "eps": 1.0,
                    "s_values": "0.5,1,2"},
    },
}

WORKLOADS = ("replicate", "limit", "longrun")

# Worker processes for ``estimate``; traced rounds use 1 so that every
# span is recorded in the traced process (rows do not depend on it).
REPLICATE_WORKERS = 2


def stages(workload: str, size: str = "full") -> list[dict]:
    """Ordered stages of one round: name, experiment, config, workers."""
    s = _SIZES[size]

    def stage(name, experiment, cfg, workers=1, kind=None):
        return {"name": name, "experiment": experiment,
                "config": {**REFERENCE, **cfg}, "workers": workers,
                "kind": kind}

    if workload == "replicate":
        return [stage("estimate", "estimate", s["estimate"],
                      REPLICATE_WORKERS, "chain")]
    if workload == "limit":
        cdf = [stage("cdf", "cdf-table", s["cdf"], kind="cdf")]
        probes = [stage(f"probe.{label}", "cdf-table",
                        {**over, "x_points": 1}, kind="cdf")
                  for label, over in PROBES]
        return cdf + probes + [stage("sample", "limit-sample", s["sample"],
                                     kind="draws")]
    if workload == "longrun":
        return [stage("simulate", "simulate", s["simulate"], kind="chain"),
                stage("tail", "tail-validate", s["tail"], kind="chain"),
                stage("laplace", "laplace-validate", s["laplace"],
                      kind="chain")]
    raise ValueError(f"unknown workload {workload!r}")


def chain_steps(stage: dict) -> int:
    """Chain transitions a chain stage performs (initialisation excluded)."""
    cfg = stage["config"]
    if stage["experiment"] == "simulate":
        return cfg["n"]
    if stage["experiment"] == "tail-validate":
        return cfg["n"] // cfg["chains"] * cfg["chains"]
    return cfg["n"] * cfg["reps"]
