"""One benchmark round, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json round spec>'``.  The spec
names the workload, size, round seed, output directory, whether to
trace, and the monotonic clock reading run.py took just before the
process was started (``spawned_at``).  The round

1. imports ``gwi`` from the checkout's ``src``, writes each stage's
   config file, reads it back with ``cli.parse_config`` and builds the
   reference parameter objects -- ``setup_s`` ends here;
2. runs every stage through ``cli.run`` and times each call;
3. checks the outputs (untimed) and prints one JSON line.

A stage that raises is a failed operation, not a crashed round.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# ECDF check: DKW band at this false-alarm probability, plus the
# absolute tolerance cdf_ratio targets.
DKW_DELTA = 1e-3
CDF_TOL = 1e-4

# CLS is biased downward at finite n: the mean scaled error
# sqrt(a_n) (mu_hat - mu_A) measured -0.064 at n = 5e3, -0.044 to -0.053
# at 2e4 and -0.026 to -0.034 at 8e4 (1000 replications, two seeds each),
# about 5 standard errors at 1000 replications.  The mean check allows
# this much bias in scaled units on top of 4 standard errors.
SCALED_BIAS_ALLOWANCE = 0.1

# Per-layer metrics read from a round's output counts rather than spans.
COUNT_LAYERS = {
    "estimator.defined_fraction": "defined_fraction",
    "limitlaw.poisson_points": "poisson_points",
    "limitlaw.cdf_points_outside_unit": "cdf_points_outside_unit",
    "limitlaw.cdf_errors": "cdf_errors",
    "tailproc.events": "tail_events",
    "cli.bytes_written": "bytes_written",
}


def _import_gwi():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from gwi import cli, distributions, estimator, limitlaw, process, tailproc
    return cli, {"distributions": distributions, "process": process,
                 "estimator": estimator, "limitlaw": limitlaw,
                 "tailproc": tailproc}


def reference_model(modules):
    ref = workloads.REFERENCE
    dist = modules["distributions"]
    return modules["process"].ModelParams(
        offspring=dist.OffspringLaw(ref["offspring"], ref["mu_A"]),
        immigration=dist.ImmigrationLaw(ref["alpha"], ref["c"]))


def run_round(spec: dict) -> dict:
    cli, modules = _import_gwi()
    tracer = None
    if spec["traced"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, modules)

    out = Path(spec["out"])
    staged = []
    for i, st in enumerate(workloads.stages(spec["workload"], spec["size"])):
        d = out / st["name"]
        d.mkdir(parents=True, exist_ok=True)
        cfg_path = d / "run.cfg"
        cfg = {**st["config"], "seed": 16 * spec["seed"] + i}
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        staged.append((st, d, cli.parse_config(str(cfg_path))))
    model = reference_model(modules)
    setup_s = time.monotonic() - spec["spawned_at"]

    run = tracer.wrap(cli.run, "cli.run") if tracer else cli.run
    stages = []
    for st, d, cfg in staged:
        workers = 1 if spec["single_worker"] else st["workers"]
        error = None
        t0 = time.perf_counter()
        try:
            run(cfg, st["experiment"], d, workers=workers)
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        stages.append({**st, "dir": str(d), "s": elapsed, "error": error,
                       "workers": workers})

    result = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": bool(tracer),
        "setup_s": setup_s,
        "wall_s": sum(s["s"] for s in stages),
        "stages": stages,
        "peak_rss_mb": peak_rss_mb(),
    }
    result.update(evaluate(spec["workload"], stages, model))
    if tracer:
        result["layers"] = layers = spans.layer_metrics(tracer, "cli.run")
        counts = result["counts"]
        for name, key in COUNT_LAYERS.items():
            layers[name] = counts.get(key, 0)
        points = layers["limitlaw.poisson_points"]
        layers["limitlaw.ns_per_poisson_point"] = (
            layers["limitlaw.sample_s"] * 1e9 / points if points else 0.0)
    return result


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# output checks (not timed)

class Book:
    """Operations attempted, the checks on them, and exact work counts."""

    def __init__(self):
        self.ops: dict[str, str | None] = {}   # op -> first failure reason
        self.checks: list[dict] = []
        self.counts: dict[str, float] = {}

    def op(self, name, error=None):
        self.ops.setdefault(name, None)
        if error and self.ops[name] is None:
            self.ops[name] = error

    def check(self, name, op, ok, detail):
        ok = bool(ok)
        self.checks.append({"name": name, "op": op, "ok": ok, "detail": detail})
        self.op(op, None if ok else f"check {name} failed: {detail}")

    def result(self):
        failed = {k: v for k, v in self.ops.items() if v is not None}
        return {"attempted": len(self.ops), "failed": len(failed),
                "failures": failed, "checks": self.checks,
                "correct": all(c["ok"] for c in self.checks),
                "counts": self.counts}


def evaluate(workload: str, stages: list[dict], model) -> dict:
    """Check one round's outputs; returns ops, checks and work counts."""
    book = Book()
    book.counts["bytes_written"] = sum(
        f.stat().st_size for s in stages for f in Path(s["dir"]).iterdir()
        if f.name != "run.cfg")
    {"replicate": _check_replicate, "limit": _check_limit,
     "longrun": _check_longrun}[workload](book, stages, model)
    return book.result()


def _check_replicate(book, stages, model):
    (st,) = stages
    cfg = st["config"]
    book.op("estimate", st["error"])
    if st["error"]:
        return
    book.counts["chain_steps"] = workloads.chain_steps(st)
    rows = np.loadtxt(Path(st["dir"]) / "replications.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    rep, _, a_n, mu_hat, defined, _, _, err = rows.T
    defined = defined == 1
    reps, n = cfg["reps"], cfg["n"]
    book.check("rows_present", "estimate",
               len(rep) == reps and np.array_equal(rep, np.arange(reps)),
               f"{len(rep)} rows for {reps} replications")
    a_ref = (n * model.c / model.theta) ** (1.0 / model.alpha)
    book.check("a_n", "estimate", np.allclose(a_n, a_ref, rtol=1e-12, atol=0),
               f"a_n column vs (n c / theta)^(1/alpha) = {a_ref!r}")
    want = np.sqrt(a_n[defined]) * (mu_hat[defined] - model.mu_A)
    book.check("scaled_error", "estimate",
               np.allclose(err[defined], want, rtol=1e-12, atol=1e-300)
               and np.isnan(err[~defined]).all(),
               "scaled_error == sqrt(a_n) (mu_hat - mu_A) on defined rows")
    k = int(defined.sum())
    mean = float(mu_hat[defined].mean()) if k else math.nan
    se = float(mu_hat[defined].std(ddof=1)) / math.sqrt(k) if k > 1 else math.nan
    bound = 4.0 * se + SCALED_BIAS_ALLOWANCE / math.sqrt(a_ref)
    book.check("mean_mu_hat", "estimate", abs(mean - model.mu_A) <= bound,
               f"|mean mu_hat - mu_A| = {abs(mean - model.mu_A):.3g} vs "
               f"4 SE + {SCALED_BIAS_ALLOWANCE:g}/sqrt(a_n) = {bound:.3g}")
    book.counts["defined_fraction"] = k / len(rep) if len(rep) else 0.0


def _check_limit(book, stages, model):
    grid_x = grid_v = None
    points = outside = errors = 0
    for st in stages:
        d = Path(st["dir"])
        if st["experiment"] == "cdf-table":
            cfg = st["config"]
            xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_points"])
            label = st["name"] if st["name"] != "cdf" else None
            ops = [label or f"cdf x={x:g}" for x in xs]
            points += len(xs)
            if st["error"]:
                errors += len(xs)
                for op in ops:
                    book.op(op, st["error"])
                continue
            table = np.loadtxt(d / "cdf.csv", delimiter=",", skiprows=1,
                               ndmin=2)
            for op, v in zip(ops, table[:, 1]):
                in_unit = 0.0 <= v <= 1.0
                outside += not in_unit
                book.op(op, None if in_unit else f"cdf {v!r} outside [0, 1]")
            if label is None:
                grid_x, grid_v = table[:, 0], table[:, 1]
                at0 = np.flatnonzero(grid_x == 0.0)
                ok = len(at0) == 1 and abs(grid_v[at0[0]] - 0.5) <= CDF_TOL
                v0 = grid_v[at0[0]] if len(at0) else math.nan
                book.check("cdf_at_zero", "cdf x=0", ok,
                           f"cdf(0) = {v0!r} (0.5 +- {CDF_TOL:g})")
        else:  # limit-sample
            book.op("limit-sample", st["error"])
            if st["error"]:
                continue
            rows = np.loadtxt(d / "limit_samples.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            v1, v2, terms = rows.T
            size = st["config"]["reps"]
            book.check("draws_present", "limit-sample",
                       len(v1) == size and (v1 > 0).all() and (terms >= 0).all(),
                       f"{len(v1)} draws of {size}, all V1 > 0")
            book.counts["limit_draws"] = len(v1)
            book.counts["poisson_points"] = int(terms.sum())
            if grid_x is not None:
                ratio = np.sort(v2 / v1)
                ecdf = np.searchsorted(ratio, grid_x, side="right") / len(ratio)
                sup = float(np.max(np.abs(grid_v - ecdf)))
                band = math.sqrt(math.log(2.0 / DKW_DELTA) / (2 * len(ratio)))
                book.check("ecdf_sup", "limit-sample", sup <= band + CDF_TOL,
                           f"sup |cdf - ECDF(V2/V1)| = {sup:.4g} vs DKW "
                           f"{band:.4g} + {CDF_TOL:g}")
    book.counts["cdf_points"] = points
    book.counts["cdf_points_outside_unit"] = outside
    book.counts["cdf_errors"] = errors


def _check_longrun(book, stages, model):
    steps = 0
    for st in stages:
        op = st["experiment"]
        book.op(op, st["error"])
        if st["error"]:
            continue
        steps += workloads.chain_steps(st)
        d = Path(st["dir"])
        cfg = st["config"]
        if op == "simulate":
            lines = (d / "trajectory.csv").read_text().splitlines()
            x0 = int(lines[1].split(",")[1])
            rows = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
            x = np.concatenate([[x0], rows[:, 1]])
            want = x[1:] - model.mu_A * x[:-1] - model.mu_B
            meta = json.loads((d / "trajectory_meta.json").read_text())
            book.check("rows_present", op,
                       len(rows) == cfg["n"] and np.array_equal(
                           rows[:, 0], np.arange(1, cfg["n"] + 1)),
                       f"{len(rows)} transitions of {cfg['n']}")
            book.check("residuals", op,
                       np.allclose(rows[:, 2], want, rtol=1e-12, atol=1e-9)
                       and meta["init"] == x0 and (x >= 0).all(),
                       "m == x_i - mu_A x_(i-1) - mu_B, init matches x_0")
        elif op == "tail-validate":
            rep = json.loads((d / "tail_report.json").read_text())
            dev = abs(rep["mean_ratio"] - model.mu_A)
            # X_1/X_0 has a heavy right tail (a huge immigration right
            # after an exceedance): one such event in ~5000 moved the mean
            # by 0.054 while its SD rose from ~0.08 to 3.3.  The 0.02
            # bound of acceptance 08 widens to 4 standard errors then.
            tol = max(0.02, 4.0 * rep["sd_ratio"] / math.sqrt(rep["n_events"]))
            book.check("acceptance08", op,
                       rep["ks_w0_normal"] <= 0.05 and dev <= tol,
                       f"KS(W'0, N) = {rep['ks_w0_normal']:.4f} (0.05), "
                       f"|mean ratio - mu_A| = {dev:.4f} ({tol:.4f})")
            book.counts["tail_events"] = rep["n_events"]
        else:  # laplace-validate
            rep = json.loads((d / "laplace_report.json").read_text())
            worst = max(r["gap"] - (3.0 * r["stderr"] + 0.02)
                        for r in rep["per_s"].values())
            book.check("acceptance09", op, worst <= 0.0,
                       f"max gap - (3 SE + 0.02) = {worst:.4f} (<= 0)")
    book.counts["chain_steps"] = steps


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[1]))))
