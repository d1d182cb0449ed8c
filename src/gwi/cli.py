"""Experiment harness: seeded, reproducible runs emitting CSV/JSON.

Every experiment is fully determined by a flat key=value config file
plus the command-line overrides; outputs are byte-stable across reruns
and worker counts, and each run writes a manifest recording the
effective config, seed table, and checksums of the emitted files.
"""

from __future__ import annotations

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

_FLOAT_KEYS = {
    "alpha", "mu_A", "c", "eps", "tol", "quantile", "x_min", "x_max",
    "beta", "x",
}
_INT_KEYS = {"n", "reps", "seed", "x_points", "chains"}
_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# Open intervals (lo, hi) the float keys must lie in, and the least
# value of each int key.
_OPEN_RANGES = {
    "alpha": (1.0, 2.0), "mu_A": (0.0, 1.0), "c": (0.0, 1.0),
    "eps": (0.0, math.inf), "tol": (0.0, 1.0), "quantile": (0.0, 1.0),
}
_INT_MINIMA = {"n": 1, "reps": 1, "x_points": 1, "chains": 1, "seed": 0}

_DEFAULTS = {
    "alpha": 1.5,
    "mu_A": 0.5,
    "c": 0.3,
    "offspring": "poisson",
    "n": 1000,
    "reps": 100,
    "eps": 0.01,
    "seed": 0,
    "a_n_mode": "analytic",
    "tol": 1e-6,
    "compensate": "false",
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


def parse_config(path: str | None) -> dict:
    """Flat key=value config; '#' starts a comment.

    Only the keys of ``_DEFAULTS`` are accepted; an unknown key, a value
    of the wrong type or one outside its range raises ``click.UsageError``
    naming the key.  ``compensate`` is true/false/1/0/yes/no, in any case.
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
            cfg[key] = val
    for keys, kind in ((_FLOAT_KEYS, float), (_INT_KEYS, int)):
        for key in keys:
            try:
                cfg[key] = kind(cfg[key])
            except ValueError:
                raise click.UsageError(
                    f"config key {key!r} must be of type {kind.__name__}, "
                    f"got {cfg[key]!r}") from None
    word = str(cfg["compensate"]).lower()
    if word not in _BOOL_WORDS:
        raise click.UsageError(
            f"config key 'compensate' must be one of true/false/1/0/yes/no, "
            f"got {cfg['compensate']!r}")
    cfg["compensate"] = _BOOL_WORDS[word]
    for key, (lo, hi) in _OPEN_RANGES.items():
        if not lo < cfg[key] < hi:
            raise click.UsageError(f"config key {key!r} must lie in "
                                   f"({lo:g}, {hi:g}), got {cfg[key]!r}")
    for key, least in _INT_MINIMA.items():
        if cfg[key] < least:
            raise click.UsageError(f"config key {key!r} must be >= {least}, "
                                   f"got {cfg[key]}")
    return cfg


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _model(cfg) -> process.ModelParams:
    return process.ModelParams(
        offspring=dist.OffspringLaw(cfg["offspring"], cfg["mu_A"]),
        immigration=dist.ImmigrationLaw(cfg["alpha"], cfg["c"]),
    )


def _limit_params(cfg) -> limitlaw.LimitParams:
    off = dist.OffspringLaw(cfg["offspring"], cfg["mu_A"])
    return limitlaw.LimitParams(alpha=cfg["alpha"], mu_A=cfg["mu_A"],
                                sigma_A2=off.sigma_A2)


def _floats(spec) -> list[float]:
    if isinstance(spec, str):
        return [float(v) for v in spec.split(",") if v.strip()]
    return [float(v) for v in np.atleast_1d(spec)]


def _manifest(out_dir: Path, cfg: dict, experiment: str, files: list[Path],
              t0: float, seed_table, health: dict | None) -> Path:
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
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _build_id() -> str:
    try:
        from importlib.metadata import version
        return "gwi " + version("gwi")
    except Exception:  # pragma: no cover
        return "gwi unknown"


def run(cfg: dict, experiment: str, out_dir: Path, workers: int = 1) -> dict:
    """Dispatch one experiment; returns a summary dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    seed = cfg["seed"]
    files: list[Path] = []
    seed_table: object = [seed]
    summary: dict = {}
    health: dict | None = None

    if experiment == "simulate":
        params = _model(cfg)
        rng = np.random.default_rng([seed, 0])
        init = process.stationary_init(params, cfg["tol"], rng)
        traj = process.simulate(params, cfg["n"], init, rng, seed=seed)
        path = out_dir / "trajectory.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("i,x,m\n")
            fh.write(f"0,{traj.x[0]},\n")
            for i in range(1, len(traj.x)):
                fh.write(f"{i},{traj.x[i]},{_fmt(traj.m[i - 1])}\n")
        files.append(path)
        meta = out_dir / "trajectory_meta.json"
        meta.write_text(json.dumps({
            "alpha": cfg["alpha"], "mu_A": cfg["mu_A"], "c": cfg["c"],
            "offspring": cfg["offspring"], "mu_B": params.mu_B,
            "n": cfg["n"], "seed": seed, "init": int(init),
            "init_mode": "stationary-series", "tol": cfg["tol"],
        }, indent=2, sort_keys=True) + "\n")
        files.append(meta)
        summary["init"] = int(init)

    elif experiment == "estimate":
        params = _model(cfg)
        table = estimator.replication_experiment(
            params, cfg["n"], cfg["reps"], seed,
            a_n_mode=cfg["a_n_mode"], init_tol=cfg["tol"], workers=workers)
        path = out_dir / "replications.csv"
        write_csv(path,
                  ["rep", "n", "a_n", "mu_hat", "defined", "v1", "v2",
                   "scaled_error"],
                  ((r["rep"], r["n"], r["a_n"], r["mu_hat"], r["defined"],
                    r["v1"], r["v2"], r["scaled_error"]) for r in table))
        files.append(path)
        seed_table = estimator.replication_seeds(cfg["reps"], seed)
        summary["defined_fraction"] = float(np.mean(table["defined"]))

    elif experiment == "limit-sample":
        p = _limit_params(cfg)
        rng = np.random.default_rng([seed, 0])
        table = limitlaw.sample_limit_pairs(
            p, cfg["eps"], cfg["reps"], rng, compensate=cfg["compensate"])
        path = out_dir / "limit_samples.csv"
        write_csv(path, ["v1", "v2", "terms_used"],
                  ((r["v1"], r["v2"], r["terms_used"]) for r in table))
        files.append(path)
        summary["mean_terms"] = float(np.mean(table["terms_used"]))
        v1_mean, v2_sd = limitlaw.truncation_bounds(p, cfg["eps"])
        health = {"eps": cfg["eps"], "compensate": cfg["compensate"],
                  "trunc_v1_mean_bound": v1_mean, "trunc_v2_sd_bound": v2_sd,
                  "mean_terms_used": summary["mean_terms"],
                  "min_terms_used": int(np.min(table["terms_used"]))}

    elif experiment == "cdf-table":
        p = _limit_params(cfg)
        grid = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_points"])
        vals = [limitlaw.cdf_ratio(p, float(x)) for x in grid]
        path = out_dir / "cdf.csv"
        write_csv(path, ["x", "cdf"], zip(grid, vals))
        files.append(path)
        seed_table = []
        summary["cdf_at_zero"] = vals[len(grid) // 2] if len(grid) % 2 else None

    elif experiment == "cf-table":
        p = _limit_params(cfg)
        rows = []
        for s in _floats(cfg["s_values"]):
            for t in _floats(cfg["t_values"]):
                phi = limitlaw.cf_joint(p, s, t)
                rows.append((s, t, phi.real, phi.imag))
        path = out_dir / "cf.csv"
        write_csv(path, ["s", "t", "re", "im"], rows)
        files.append(path)
        seed_table = []

    elif experiment == "tail-validate":
        params = _model(cfg)
        paths = tailproc.run_stationary_batch(
            params, cfg["n"], cfg["chains"], [seed, 0], init_tol=cfg["tol"])
        report = tailproc.validate_pseudo_tail(
            params, paths, quantile=cfg["quantile"])
        path = out_dir / "tail_report.json"
        path.write_text(json.dumps({
            "statistic": "pseudo-tail conditional laws",
            "threshold": report.threshold,
            "n_events": report.n_events,
            "ks_w0_normal": report.ks_w0_normal,
            "mean_ratio": report.mean_ratio,
            "sd_ratio": report.sd_ratio,
            "ks_front_pareto": report.ks_front_pareto,
            "analytic": {"mean_ratio": params.mu_A},
        }, indent=2, sort_keys=True) + "\n")
        files.append(path)
        summary["n_events"] = report.n_events

    elif experiment == "laplace-validate":
        params = _model(cfg)
        a_n = process.scaling(params, cfg["n"]).a_n
        report = tailproc.laplace_functional_gap(
            params, cfg["eps"], _floats(cfg["s_values"]), cfg["n"], a_n,
            cfg["reps"], [seed, 0])
        path = out_dir / "laplace_report.json"
        path.write_text(json.dumps({
            "statistic": "exceedance Laplace functional",
            "eps": cfg["eps"], "n": cfg["n"], "a_n": a_n,
            "reps": cfg["reps"],
            "per_s": {str(k): v for k, v in report.items()},
        }, indent=2, sort_keys=True) + "\n")
        files.append(path)

    elif experiment == "karamata":
        alpha = cfg["alpha"]
        beta = cfg["beta"]
        x = cfg["x"]
        tail = dist.pareto_tail_cdf(alpha)
        below = beta >= alpha
        mom = dist.pareto_truncated_moment(alpha, below=below)
        ratio = dist.karamata_ratio(beta, alpha, x, tail, mom)
        path = out_dir / "karamata.json"
        path.write_text(json.dumps({
            "statistic": "truncated-moment tail ratio (exact Pareto)",
            "alpha": alpha, "beta": beta, "x": x,
            "empirical": ratio,
            "analytic": dist.karamata_limit(beta, alpha),
        }, indent=2, sort_keys=True) + "\n")
        files.append(path)
        seed_table = []

    else:
        raise click.UsageError(f"unknown experiment {experiment!r}")

    manifest = _manifest(out_dir, cfg, experiment, files, t0, seed_table,
                         health)
    summary["manifest"] = str(manifest)
    summary["outputs"] = [str(f) for f in files]
    return summary


def _common(func):
    func = click.option("--config", "config_path", type=click.Path(exists=True),
                        default=None, help="flat key=value config file")(func)
    func = click.option("--seed", type=click.IntRange(min=0), default=None,
                        help="master seed (overrides config)")(func)
    func = click.option("--out", "out_dir", type=click.Path(), default="out",
                        help="output directory")(func)
    func = click.option("--workers", type=int, default=None,
                        help="worker processes (default: GWI_WORKERS or 1)")(func)
    return func


def _dispatch(experiment, config_path, seed, out_dir, workers, **overrides):
    cfg = parse_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if workers is None:
        workers = int(os.environ.get("GWI_WORKERS", "1"))
    summary = run(cfg, experiment, Path(out_dir), workers=workers)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@click.group()
def main():
    """Simulation and inference toolkit for heavy-tailed branching processes."""


def _make_command(name):
    @_common
    def _cmd(config_path, seed, out_dir, workers):
        _dispatch(name, config_path, seed, out_dir, workers)

    _cmd.__name__ = name.replace("-", "_")
    return main.command(name=name)(_cmd)


for _name in ("simulate", "estimate", "limit-sample", "cdf-table", "cf-table",
              "tail-validate", "laplace-validate", "karamata"):
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
