"""Experiment harness: seeded, reproducible runs emitting CSV/JSON.

Every experiment is fully determined by a flat key=value config file,
which sets only keys its command reads, plus the command-line seed;
outputs are byte-stable across reruns and worker counts, and each run
writes a manifest recording the effective config, the RNG keys it
seeded, its health record and checksums of the emitted files.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from pathlib import Path

import click
import numpy as np
import scipy

from . import distributions as dist
from . import __version__, estimator, limitlaw, process, tailproc

# CSV rows formatted per %-operation.
_CSV_CHUNK = 2**16

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# Keys every command accepts, with their defaults; EXPERIMENTS adds more.
_SHARED = {"alpha": 1.5, "mu_A": 0.5, "c": 0.3, "offspring": "poisson",
           "seed": 0}


def _floats(spec: str) -> list[float]:
    """Comma-separated finite floats, at least one; else ``ValueError``."""
    vals = [float(v) for v in spec.split(",") if v.strip()]
    if not vals or not all(map(math.isfinite, vals)):
        raise ValueError(spec)
    return vals


def _checked(parse, ok):
    """A parser of ``parse(word)`` that raises ``ValueError`` unless ``ok``."""
    def parser(word: str):
        value = parse(word)
        if not ok(value):
            raise ValueError(word)
        return value
    return parser


_UNIT = _checked(float, lambda v: 0.0 < v < 1.0), "a float in (0, 1)"
_FINITE = _checked(float, math.isfinite), "a finite float"
_COUNT = _checked(int, lambda v: v >= 1), "an int >= 1"
_LIST = _checked(str, _floats), "comma-separated finite floats"

# Every config key: a parser raising ``ValueError`` on a bad value, and
# what a good value is.
_KEYS = {
    "alpha": (_checked(float, lambda v: 1.0 < v < 2.0), "a float in (1, 2)"),
    "mu_A": _UNIT, "c": _UNIT, "quantile": _UNIT,
    "eps": (_checked(float, lambda v: 0.0 < v < math.inf),
            "a float in (0, inf)"),
    "x_min": _FINITE, "x_max": _FINITE,
    "n": _COUNT, "reps": _COUNT, "x_points": _COUNT, "chains": _COUNT,
    "seed": (_checked(int, lambda v: v >= 0), "an int >= 0"),
    "offspring": (
        _checked(str, lambda w: w.lower() in dist.OffspringLaw.FAMILIES),
        f"one of {'/'.join(dist.OffspringLaw.FAMILIES)}"),
    "compensate": (_checked(lambda w: _BOOL_WORDS.get(w.lower()),
                            lambda v: v is not None),
                   "one of true/false/1/0/yes/no"),
    "s_values": _LIST, "t_values": _LIST,
}


def parse_config(path: str | None) -> dict:
    """The keys a flat key=value config file sets; '#' starts a comment.

    Each value is parsed by its key's entry in ``_KEYS``: a float, an
    int, an ``offspring`` family of ``OffspringLaw`` in any case (kept as
    written), a ``compensate`` bool from true/false/1/0/yes/no in any
    case, or ``s_values`` and ``t_values`` kept as strings of
    comma-separated finite floats.  An unknown key, a key set twice or a
    bad value raises ``click.UsageError`` naming the key.  ``run`` adds
    the experiment's defaults and rejects a key it does not read.
    """
    given = {}
    for raw in Path(path).read_text().splitlines() if path else ():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"config line not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise click.UsageError(f"unknown config key {key!r}")
        if key in given:
            raise click.UsageError(f"config key {key!r} is set twice")
        parse, what = _KEYS[key]
        try:
            given[key] = parse(val)
        except ValueError:
            raise click.UsageError(
                f"config key {key!r} must be {what}, got {val!r}") from None
    return given


def _write_rows(fh, columns) -> None:
    """Write the rows of equal-length numpy ``columns`` to ``fh``.

    One template serves every row: %d for int and bool columns, %.17g
    (which round-trips) for float columns.  It is filled one chunk of
    ``_CSV_CHUNK`` rows at a time.
    """
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d"
                   for c in columns) + "\n"
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        cells = np.stack([c[lo: lo + _CSV_CHUNK].astype(object)
                          for c in columns], axis=1)
        fh.write(row * len(cells) % tuple(cells.ravel()))


def _open(path: Path):
    """``path`` opened for writing, after making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="\n")


def write_csv(path: Path, header: list[str] | tuple[str, ...],
              columns: list[np.ndarray]) -> Path:
    """A CSV file with the given header row and numpy columns."""
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, columns)
    return path


def _write_trajectory(path: Path, x: np.ndarray, m: np.ndarray) -> Path:
    """trajectory.csv: the row ``i,X_i,M_i`` for each i, M_0 left empty."""
    with _open(path) as fh:
        fh.write(f"i,x,m\n0,{x[0]},\n")
        _write_rows(fh, [np.arange(1, len(x)), x[1:], m])
    return path


def _write_json(path: Path, record: dict) -> Path:
    with _open(path) as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
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
# experiments: fn(cfg, out_dir, workers) -> (files, rng_keys, health)

def _simulate(cfg, out_dir, workers):
    """One stationary path with its residuals (trajectory.csv)."""
    params = _model(cfg)
    seed = cfg["seed"]
    x = process.run_blocks(params, cfg["n"], 1, seed)[0]
    m = process.residuals(params, x)
    path = _write_trajectory(out_dir / "trajectory.csv", x, m)
    meta = _write_json(out_dir / "trajectory_meta.json", {
        "mu_B": params.mu_B, "init": int(x[0]),
        "init_mode": "stationary-series",
    })
    return [path, meta], process.block_keys(1, seed), {"init": int(x[0])}


def _estimate(cfg, out_dir, workers):
    """CLS replications of the scaled estimation error (replications.csv)."""
    table = estimator.replication_experiment(
        _model(cfg), cfg["n"], cfg["reps"], cfg["seed"], workers=workers)
    path = write_csv(out_dir / "replications.csv", table.dtype.names,
                     [table[k] for k in table.dtype.names])
    return ([path], process.block_keys(cfg["reps"], cfg["seed"]),
            {"defined_fraction": float(np.mean(table["defined"]))})


def _limit_sample(cfg, out_dir, workers):
    """(V1, V2) draws, the series truncated at eps (limit_samples.csv)."""
    p = _limit_params(cfg)
    rng = np.random.default_rng([cfg["seed"], 0])
    table = limitlaw.sample_limit_pairs(
        p, cfg["eps"], cfg["reps"], rng, compensate=cfg["compensate"])
    path = write_csv(out_dir / "limit_samples.csv", table.dtype.names,
                     [table[k] for k in table.dtype.names])
    v1_mean, v2_sd = limitlaw.truncation_bounds(p, cfg["eps"])
    health = {"trunc_v1_mean_bound": v1_mean, "trunc_v2_sd_bound": v2_sd,
              "mean_terms_used": float(np.mean(table["terms_used"])),
              "min_terms_used": int(np.min(table["terms_used"])),
              "points": int(table["terms_used"].sum())}
    return [path], [[cfg["seed"], 0]], health


def _cdf_table(cfg, out_dir, workers):
    """CDF of V2/V1 on a grid, by CF inversion (cdf.csv)."""
    p = _limit_params(cfg)
    grid = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_points"])
    vals = np.array([limitlaw.cdf_ratio(p, float(x)) for x in grid])
    path = write_csv(out_dir / "cdf.csv", ["x", "cdf"], [grid, vals])
    health = {"tol": limitlaw.CDF_TOL, **limitlaw.cf_rule_health(p)}
    return [path], [], health


def _cf_table(cfg, out_dir, workers):
    """Joint CF of (V1, V2) on an (s, t) grid (cf.csv)."""
    p = _limit_params(cfg)
    s, t = np.meshgrid(_floats(cfg["s_values"]), _floats(cfg["t_values"]),
                       indexing="ij")
    phi = limitlaw.cf_joint(p, s, t)
    path = write_csv(out_dir / "cf.csv", ["s", "t", "re", "im"],
                     [s.ravel(), t.ravel(), phi.real.ravel(), phi.imag.ravel()])
    health = {"tol": limitlaw.CF_RULE_TOL, **limitlaw.cf_rule_health(p)}
    return [path], [], health


def _tail_validate(cfg, out_dir, workers):
    """Conditional laws after an exceedance vs the tail process."""
    if cfg["n"] < cfg["chains"]:
        raise click.UsageError(
            f"config key 'n' must be at least 'chains' ({cfg['chains']}) "
            f"for tail-validate, got {cfg['n']}")
    # no more path values than this lie above the interpolated quantile
    n_values = cfg["chains"] * (cfg["n"] // cfg["chains"] + 1)
    bound = (n_values - 1) * (1.0 - cfg["quantile"]) + 1.0
    if bound < tailproc.MIN_EVENTS:
        raise click.UsageError(
            f"config keys 'n', 'chains' and 'quantile' leave at most "
            f"{bound:.1f} values above the quantile, fewer than the "
            f"{tailproc.MIN_EVENTS} events tail-validate needs")
    params = _model(cfg)
    paths = tailproc.run_stationary_batch(
        params, cfg["n"], cfg["chains"], cfg["seed"], workers=workers)
    try:
        report = tailproc.validate_pseudo_tail(
            params, paths, quantile=cfg["quantile"])
    except ValueError as exc:  # path values tied at the threshold
        raise click.UsageError(
            f"config keys 'n', 'chains' and 'quantile' gave too few "
            f"exceedances for tail-validate ({exc})") from None
    path = _write_json(out_dir / "tail_report.json", {
        "statistic": "pseudo-tail conditional laws",
        **report,
        "analytic": {"mean_ratio": params.mu_A},
    })
    keys = process.block_keys(cfg["chains"], cfg["seed"])
    return [path], keys, {"threshold": report["threshold"],
                          "n_events": report["n_events"]}


def _laplace_validate(cfg, out_dir, workers):
    """Laplace functional of the exceedances of a_n*eps vs its limit."""
    s_values = _floats(cfg["s_values"])
    if min(s_values) < 0.0:
        raise click.UsageError("config key 's_values' must be >= 0 for "
                               f"laplace-validate, got {cfg['s_values']!r}")
    if cfg["reps"] < 2:  # the stderr of the gap needs two chains
        raise click.UsageError("config key 'reps' must be >= 2 for "
                               f"laplace-validate, got {cfg['reps']}")
    params = _model(cfg)
    a_n = process.scaling(params, cfg["n"])
    level = a_n * cfg["eps"]
    # below one individual every nonzero step exceeds the level: ess ~ 1
    if level < 1.0:
        raise click.UsageError(
            f"config keys 'eps' and 'n' put the exceedance level a_n*eps at "
            f"{level:.4g}; laplace-validate needs at least 1")
    report = tailproc.laplace_functional_gap(
        params, cfg["eps"], s_values, cfg["n"], cfg["reps"], cfg["seed"],
        workers=workers)
    path = _write_json(out_dir / "laplace_report.json", {
        "statistic": "exceedance Laplace functional",
        "eps": cfg["eps"], "n": cfg["n"], "a_n": a_n, "reps": cfg["reps"],
        "per_s": {str(k): v for k, v in report.items()},
    })
    health = {"level": level,
              "min_ess": min(rec["ess"] for rec in report.values())}
    return [path], process.block_keys(cfg["reps"], cfg["seed"]), health


# name -> (fn, its own keys with their defaults); every command also
# accepts the keys of ``_SHARED``.
EXPERIMENTS = {
    "simulate": (_simulate, {"n": 1000}),
    "estimate": (_estimate, {"n": 1000, "reps": 100}),
    "limit-sample": (_limit_sample,
                     {"reps": 100, "eps": 0.01, "compensate": False}),
    "cdf-table": (_cdf_table, {"x_min": -5.0, "x_max": 5.0, "x_points": 101}),
    "cf-table": (_cf_table, {"s_values": "0.5,1,2", "t_values": "0.5,1,2"}),
    "tail-validate": (_tail_validate,
                      {"n": 2_000_000, "chains": 100, "quantile": 0.999}),
    "laplace-validate": (_laplace_validate,
                         {"n": 1000, "reps": 100, "eps": 1.0,
                          "s_values": "0.5,1,2"}),
}

# The experiments that map their blocks of chains over ``workers``
# processes; only these offer ``--workers``.
_PARALLEL = ("estimate", "tail-validate", "laplace-validate")


def run(cfg: dict, experiment: str, out_dir: Path, workers: int = 1) -> dict:
    """Run one experiment of ``EXPERIMENTS`` at ``cfg`` over its defaults.

    A key of ``cfg`` it does not read, and ``workers > 1`` for an
    experiment outside ``_PARALLEL``, are rejected before it runs.
    Returns the run's health record plus the manifest's path and the
    output paths.  Each writer makes ``out_dir`` when it opens its file,
    so a run that fails before its first write leaves nothing behind.
    """
    if experiment not in EXPERIMENTS:
        raise click.UsageError(f"unknown experiment {experiment!r}")
    fn, own = EXPERIMENTS[experiment]
    defaults = {**_SHARED, **own}
    for key in cfg:
        if key not in defaults:
            raise click.UsageError(
                f"config key {key!r} is not read by {experiment}, which "
                f"reads {', '.join(defaults)}")
    if workers > 1 and experiment not in _PARALLEL:
        raise click.UsageError(
            f"{experiment} runs in one process; workers apply only to "
            f"{', '.join(_PARALLEL)}")
    cfg = {**defaults, **cfg}
    t0 = time.perf_counter()
    files, rng_keys, health = fn(cfg, out_dir, workers)
    manifest = {
        "experiment": experiment,
        "config": dict(sorted(cfg.items())),
        "build": f"gwi {__version__}",
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "seed_table": rng_keys,
        "wall_clock_s": time.perf_counter() - t0,
        "outputs": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in files},
        "health": health,
    }
    path = _write_json(out_dir / "manifest.json", manifest)
    return {**health, "manifest": str(path),
            "outputs": [str(f) for f in files]}


@click.group()
def main():
    """Simulation and inference toolkit for heavy-tailed branching processes."""


def _make_command(name):
    keys = "\n".join(f"  {k} = {v}"
                     for k, v in {**_SHARED, **EXPERIMENTS[name][1]}.items())
    workers_option = click.option(
        "--workers", type=click.IntRange(min=1), default=1,
        help="worker processes (default 1)")

    @main.command(name=name, help=EXPERIMENTS[name][0].__doc__,
                  epilog=f"\b\nConfig keys, with their defaults:\n{keys}")
    @click.option("--config", "config_path", type=click.Path(exists=True),
                  default=None, help="flat key=value config file")
    @click.option("--seed", type=click.IntRange(min=0), default=None,
                  help="master seed (overrides config)")
    @click.option("--out", "out_dir", type=click.Path(file_okay=False),
                  default="out", help="output directory")
    @(workers_option if name in _PARALLEL else lambda command: command)
    def command(config_path, seed, out_dir, workers=1):
        cfg = parse_config(config_path)
        if seed is not None:
            cfg["seed"] = seed
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
    # imported here: scipy.stats would add about 0.7 s to every command
    from scipy import stats

    res = stats.ks_2samp(a, b, method="asymp")
    click.echo(json.dumps({
        "statistic": "two-sample KS",
        "distance": float(res.statistic),
        "p_value": float(res.pvalue),
        "n_a": len(a),
        "n_b": len(b),
    }, indent=2, sort_keys=True))


def _load_column(path: str) -> np.ndarray:
    """First CSV column as floats; a non-numeric first row is a header."""
    rows = Path(path).read_text().strip().splitlines()
    if not rows:
        raise click.UsageError(f"{path}: file holds no rows")
    start = 0
    try:
        float(rows[0].split(",")[0])
    except ValueError:
        start = 1
    values = []
    for line, row in enumerate(rows[start:], start + 1):
        field = row.split(",")[0]
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise click.UsageError(
                f"{path}, line {line}: {field.strip()!r} is not a finite number")
        values.append(value)
    return np.array(values)


if __name__ == "__main__":
    main()
