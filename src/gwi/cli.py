"""Experiment harness: seeded, reproducible runs emitting CSV/JSON.

Every experiment is fully determined by a flat key=value config file
plus the command-line seed; outputs are byte-stable across reruns
and worker counts, and each run writes a manifest recording the
effective config, seed table, and checksums of the emitted files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import time
from pathlib import Path

import click
import numpy as np
import scipy
from scipy import stats as sp_stats

from . import distributions as dist
from . import estimator, limitlaw, process, tailproc

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# Each key's value is parsed into the type of its default.
_DEFAULTS = {
    "alpha": 1.5,
    "mu_A": 0.5,
    "c": 0.3,
    "offspring": "poisson",
    "n": 1000,
    "reps": 100,
    "eps": 0.01,
    "seed": 0,
    "tol": 1e-6,
    "compensate": False,
    "quantile": 0.999,
    "chains": 100,
    "x_min": -5.0,
    "x_max": 5.0,
    "x_points": 101,
    "s_values": "0.5,1,2",
    "t_values": "0.5,1,2",
    "beta": 3.0,
    "x": 1000.0,
}

# Open intervals (lo, hi) the float keys must lie in, and the least
# value of each int key.
_OPEN_RANGES = {
    "alpha": (1.0, 2.0), "mu_A": (0.0, 1.0), "c": (0.0, 1.0),
    "eps": (0.0, math.inf), "tol": (0.0, 1.0), "quantile": (0.0, 1.0),
    "x": (0.0, math.inf), "beta": (-math.inf, math.inf),
    "x_min": (-math.inf, math.inf), "x_max": (-math.inf, math.inf),
}
_INT_MINIMA = {"n": 1, "reps": 1, "x_points": 1, "chains": 1, "seed": 0}


def _floats(spec: str) -> list[float]:
    """Comma-separated finite floats, at least one; else ``ValueError``."""
    vals = [float(v) for v in spec.split(",") if v.strip()]
    if not vals or not all(map(math.isfinite, vals)):
        raise ValueError(spec)
    return vals


_PARSERS = {bool: lambda word: _BOOL_WORDS[word.lower()], int: int,
            float: float, str: str}
_TYPE_NAMES = {bool: "one of true/false/1/0/yes/no", int: "of type int",
               float: "of type float"}


def parse_config(path: str | None) -> dict:
    """Flat key=value config; '#' starts a comment.

    Only the keys of ``_DEFAULTS`` are accepted, each parsed into the
    type of its default; an unknown key, a value of the wrong type or one
    outside its range raises ``click.UsageError`` naming the key.
    ``compensate`` is true/false/1/0/yes/no, in any case; ``offspring``
    is bernoulli, poisson or geometric; ``s_values`` and ``t_values``
    are non-empty lists of comma-separated finite floats.

    ``tol`` is the truncation tolerance of the stationary start (the mean
    remainder of its backward series).  It does not set the accuracy of
    ``cdf-table`` or ``cf-table``: their values are certified to the
    ``health.tol`` recorded in their manifest.
    """
    cfg = dict(_DEFAULTS)
    if path:
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"config line not key=value: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise click.UsageError(f"unknown config key {key!r}")
            kind = type(_DEFAULTS[key])
            try:
                cfg[key] = _PARSERS[kind](val)
            except (ValueError, KeyError):
                raise click.UsageError(
                    f"config key {key!r} must be {_TYPE_NAMES[kind]}, "
                    f"got {val!r}") from None
    for key, (lo, hi) in _OPEN_RANGES.items():
        if not lo < cfg[key] < hi:
            raise click.UsageError(f"config key {key!r} must lie in "
                                   f"({lo:g}, {hi:g}), got {cfg[key]!r}")
    for key, least in _INT_MINIMA.items():
        if cfg[key] < least:
            raise click.UsageError(f"config key {key!r} must be >= {least}, "
                                   f"got {cfg[key]}")
    if cfg["offspring"].lower() not in dist.OffspringLaw.FAMILIES:
        raise click.UsageError(
            f"config key 'offspring' must be one of "
            f"{'/'.join(dist.OffspringLaw.FAMILIES)}, got {cfg['offspring']!r}")
    for key in ("s_values", "t_values"):
        try:
            _floats(cfg[key])
        except ValueError:
            raise click.UsageError(f"config key {key!r} must be comma-separated"
                                   f" finite floats, got {cfg[key]!r}") from None
    return cfg


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path: Path, header: list[str] | tuple[str, ...], rows) -> Path:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_json(path: Path, record: dict) -> Path:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def _model(cfg) -> process.ModelParams:
    return process.ModelParams(
        offspring=dist.OffspringLaw(cfg["offspring"], cfg["mu_A"]),
        immigration=dist.ImmigrationLaw(cfg["alpha"], cfg["c"]),
    )


def _limit_params(cfg) -> limitlaw.LimitParams:
    off = dist.OffspringLaw(cfg["offspring"], cfg["mu_A"])
    return limitlaw.LimitParams(alpha=cfg["alpha"], mu_A=cfg["mu_A"],
                                sigma_A2=off.sigma_A2)


# ---------------------------------------------------------------------------
# experiments: fn(cfg, out_dir, workers) -> (files, seed_table, summary, health)

def _simulate(cfg, out_dir, workers):
    """One stationary path with its residuals (trajectory.csv)."""
    params = _model(cfg)
    seed = cfg["seed"]
    rng = np.random.default_rng([seed, 0])
    init = process.stationary_init_many(params, cfg["tol"], 1, rng)[0]
    x = process.simulate(params, cfg["n"], init, rng)
    m = process.residuals(params, x)
    path = out_dir / "trajectory.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("i,x,m\n")
        fh.write(f"0,{x[0]},\n")
        for i in range(1, len(x)):
            fh.write(f"{i},{x[i]},{_fmt(m[i - 1])}\n")
    meta = _write_json(out_dir / "trajectory_meta.json", {
        "alpha": cfg["alpha"], "mu_A": cfg["mu_A"], "c": cfg["c"],
        "offspring": cfg["offspring"], "mu_B": params.mu_B,
        "n": cfg["n"], "seed": seed, "init": int(init),
        "init_mode": "stationary-series", "tol": cfg["tol"],
    })
    return [path, meta], [seed], {"init": int(init)}, None


def _estimate(cfg, out_dir, workers):
    """CLS replications of the scaled estimation error (replications.csv)."""
    table = estimator.replication_experiment(
        _model(cfg), cfg["n"], cfg["reps"], cfg["seed"], init_tol=cfg["tol"],
        workers=workers)
    path = write_csv(out_dir / "replications.csv", table.dtype.names,
                     table.tolist())
    frac = float(np.mean(table["defined"]))
    return ([path], estimator.replication_seeds(cfg["reps"], cfg["seed"]),
            {"defined_fraction": frac}, {"defined_fraction": frac})


def _limit_sample(cfg, out_dir, workers):
    """(V1, V2) draws from the Poisson series (limit_samples.csv)."""
    p = _limit_params(cfg)
    rng = np.random.default_rng([cfg["seed"], 0])
    table = limitlaw.sample_limit_pairs(
        p, cfg["eps"], cfg["reps"], rng, compensate=cfg["compensate"])
    path = write_csv(out_dir / "limit_samples.csv", table.dtype.names,
                     table.tolist())
    mean_terms = float(np.mean(table["terms_used"]))
    v1_mean, v2_sd = limitlaw.truncation_bounds(p, cfg["eps"])
    health = {"eps": cfg["eps"], "compensate": cfg["compensate"],
              "trunc_v1_mean_bound": v1_mean, "trunc_v2_sd_bound": v2_sd,
              "mean_terms_used": mean_terms,
              "min_terms_used": int(np.min(table["terms_used"]))}
    return [path], [cfg["seed"]], {"mean_terms": mean_terms}, health


def _cdf_table(cfg, out_dir, workers):
    """CDF of V2/V1 on a grid, by CF inversion (cdf.csv)."""
    p = _limit_params(cfg)
    grid = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_points"])
    vals = [limitlaw.cdf_ratio(p, float(x)) for x in grid]
    path = write_csv(out_dir / "cdf.csv", ["x", "cdf"], zip(grid, vals))
    summary = {"cdf_at_zero": vals[len(grid) // 2] if len(grid) % 2 else None}
    health = {"tol": limitlaw.CDF_TOL, **limitlaw.cf_rule_health(p)}
    return [path], [], summary, health


def _cf_table(cfg, out_dir, workers):
    """Joint CF of (V1, V2) on an (s, t) grid (cf.csv)."""
    p = _limit_params(cfg)
    rows = []
    for s in _floats(cfg["s_values"]):
        for t in _floats(cfg["t_values"]):
            phi = limitlaw.cf_joint(p, s, t)
            rows.append((s, t, phi.real, phi.imag))
    path = write_csv(out_dir / "cf.csv", ["s", "t", "re", "im"], rows)
    health = {"tol": limitlaw.CF_RULE_TOL, **limitlaw.cf_rule_health(p)}
    return [path], [], {}, health


def _tail_validate(cfg, out_dir, workers):
    """Conditional laws after an exceedance vs the tail process."""
    params = _model(cfg)
    paths = tailproc.run_stationary_batch(
        params, cfg["n"], cfg["chains"], [cfg["seed"], 0], init_tol=cfg["tol"])
    report = tailproc.validate_pseudo_tail(
        params, paths, quantile=cfg["quantile"])
    path = _write_json(out_dir / "tail_report.json", {
        "statistic": "pseudo-tail conditional laws",
        **dataclasses.asdict(report),
        "analytic": {"mean_ratio": params.mu_A},
    })
    return [path], [cfg["seed"]], {"n_events": report.n_events}, None


def _laplace_validate(cfg, out_dir, workers):
    """Laplace functional of the exceedance point process vs its limit."""
    params = _model(cfg)
    a_n = process.scaling(params, cfg["n"]).a_n
    report = tailproc.laplace_functional_gap(
        params, cfg["eps"], _floats(cfg["s_values"]), cfg["n"], a_n,
        cfg["reps"], [cfg["seed"], 0], init_tol=cfg["tol"])
    path = _write_json(out_dir / "laplace_report.json", {
        "statistic": "exceedance Laplace functional",
        "eps": cfg["eps"], "n": cfg["n"], "a_n": a_n,
        "reps": cfg["reps"],
        "per_s": {str(k): v for k, v in report.items()},
    })
    return [path], [cfg["seed"]], {}, None


def _karamata(cfg, out_dir, workers):
    """Truncated-moment tail ratio of the exact Pareto law vs its limit."""
    alpha, beta, x = cfg["alpha"], cfg["beta"], cfg["x"]
    tail = dist.pareto_tail_cdf(alpha)
    mom = dist.pareto_truncated_moment(alpha, below=beta >= alpha)
    path = _write_json(out_dir / "karamata.json", {
        "statistic": "truncated-moment tail ratio (exact Pareto)",
        "alpha": alpha, "beta": beta, "x": x,
        "empirical": dist.karamata_ratio(beta, alpha, x, tail, mom),
        "analytic": dist.karamata_limit(beta, alpha),
    })
    return [path], [], {}, None


EXPERIMENTS = {
    "simulate": _simulate,
    "estimate": _estimate,
    "limit-sample": _limit_sample,
    "cdf-table": _cdf_table,
    "cf-table": _cf_table,
    "tail-validate": _tail_validate,
    "laplace-validate": _laplace_validate,
    "karamata": _karamata,
}


def _build_id() -> str:
    try:
        from importlib.metadata import version
        return "gwi " + version("gwi")
    except Exception:  # pragma: no cover
        return "gwi unknown"


def run(cfg: dict, experiment: str, out_dir: Path, workers: int = 1) -> dict:
    """Run one experiment of ``EXPERIMENTS``; returns a summary dict."""
    if experiment not in EXPERIMENTS:
        raise click.UsageError(f"unknown experiment {experiment!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    files, seed_table, summary, health = EXPERIMENTS[experiment](
        cfg, out_dir, workers)
    manifest = {
        "experiment": experiment,
        "config": {k: (v if isinstance(v, (int, float, str)) else str(v))
                   for k, v in sorted(cfg.items())},
        "build": _build_id(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "seed_table": seed_table,
        "wall_clock_s": time.time() - t0,
        "outputs": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in files},
    }
    if health is not None:
        manifest["health"] = health
    path = _write_json(out_dir / "manifest.json", manifest)
    summary["manifest"] = str(path)
    summary["outputs"] = [str(f) for f in files]
    return summary


@click.group()
def main():
    """Simulation and inference toolkit for heavy-tailed branching processes."""


def _env_workers() -> int:
    """Worker count from ``GWI_WORKERS`` (default 1); a positive int."""
    raw = os.environ.get("GWI_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise click.UsageError(
            f"GWI_WORKERS must be a positive int, got {raw!r}")
    return int(raw)


def _make_command(name):
    @main.command(name=name, help=EXPERIMENTS[name].__doc__)
    @click.option("--config", "config_path", type=click.Path(exists=True),
                  default=None, help="flat key=value config file")
    @click.option("--seed", type=click.IntRange(min=0), default=None,
                  help="master seed (overrides config)")
    @click.option("--out", "out_dir", type=click.Path(), default="out",
                  help="output directory")
    @click.option("--workers", type=click.IntRange(min=1), default=None,
                  help="worker processes (default: GWI_WORKERS or 1)")
    def command(config_path, seed, out_dir, workers):
        cfg = parse_config(config_path)
        if seed is not None:
            cfg["seed"] = seed
        if workers is None:
            workers = _env_workers()
        summary = run(cfg, name, Path(out_dir), workers=workers)
        click.echo(json.dumps(summary, indent=2, sort_keys=True))


for _name in EXPERIMENTS:
    _make_command(_name)


@main.command()
@click.argument("samples_a", type=click.Path(exists=True))
@click.argument("samples_b", type=click.Path(exists=True))
def compare(samples_a, samples_b):
    """Two-sample Kolmogorov-Smirnov comparison of one-column CSVs."""
    a = _load_column(samples_a)
    b = _load_column(samples_b)
    if len(a) < 500 or len(b) < 500:
        raise click.UsageError("each sample must hold at least 500 rows")
    res = sp_stats.ks_2samp(a, b, method="asymp")
    click.echo(json.dumps({
        "statistic": "two-sample KS",
        "distance": float(res.statistic),
        "p_value": float(res.pvalue),
        "n_a": len(a),
        "n_b": len(b),
    }, indent=2, sort_keys=True))


def _load_column(path: str) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()
    start = 0
    try:
        float(rows[0].split(",")[0])
    except ValueError:
        start = 1
    return np.array([float(r.split(",")[0]) for r in rows[start:]])


if __name__ == "__main__":
    main()
