"""End-to-end and per-layer benchmark of the ``gwi`` experiment harness.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``replicate`` (CLS replications),
``limit`` (ratio CDF by CF inversion, then the Poisson series sampler)
and ``longrun`` (one long chain, stored 100-chain paths, observer-mode
exceedance counts).  This process is the load generator: it runs the
workload as a closed loop of rounds, each a fresh ``worker.py`` process
that imports ``gwi``, runs the workload's stages through
``cli.parse_config`` + ``cli.run`` and checks every output.  It starts a
new round while the previous rounds suggest it will end within
``--seconds``, and always runs at least two.

``--trace 0`` reports the end-to-end metrics (medians over rounds):
``setup_s`` (process start to ready: ``import gwi`` plus the parameter
objects), ``wall_s`` (time inside ``cli.run`` calls) and ``peak_rss_mb``.
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics of the traced ones (see ``spans.py``), the tracing
overhead (traced minus untraced ``wall_s``), and the workload's
throughput and error rate from the untraced ones.  In trace mode
``replicate`` runs at one worker process, traced or not, so that every
span is recorded in-process; its rows do not depend on the worker count.

Lines before the last are a readable summary and one ``{"report": ...}``
JSON line with provenance, sizes, per-round timings, checks and counts.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0   # whole run, rounds included

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
RATE_UNITS = {"chain_steps_per_s": "1/s", "limit_draws_per_s": "1/s",
              "cdf_points_per_s": "1/s", "error_rate": "fraction"}
# Unit of every per-layer metric; the names are cited by later changes.
LAYER_UNITS = {
    **RATE_UNITS,
    "distributions.immigration_ns_per_draw": "ns",
    "distributions.offspring_ns_per_draw": "ns",
    "distributions.immigration_law_init_ms": "ms",
    "distributions.immigration_draws": "count",
    "distributions.offspring_draws": "count",
    "process.step_ns_per_chain_step.w1": "ns",
    "process.step_ns_per_chain_step.w100": "ns",
    "process.step_ns_per_chain_step.w250": "ns",
    "process.step_ns_per_chain_step.w500": "ns",
    "process.step_self_ns_per_chain_step": "ns",
    "process.stationary_init_s": "s",
    "process.chain_steps": "count",
    "estimator.replication_s": "s",
    "estimator.reduce_self_s": "s",
    "estimator.defined_fraction": "fraction",
    "limitlaw.sample_s": "s",
    "limitlaw.poisson_points": "count",
    "limitlaw.ns_per_poisson_point": "ns",
    "limitlaw.cdf_ms_per_point.p50": "ms",
    "limitlaw.cdf_ms_per_point.max": "ms",
    "limitlaw.cdf_points_outside_unit": "count",
    "limitlaw.cdf_errors": "count",
    "quadrature.gk_calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.gk_calls_per_cdf_point": "count",
    "quadrature.integrand_points_per_cdf_point": "count",
    "quadrature.euler_sum_calls": "count",
    "quadrature.self_s": "s",
    "tailproc.run_stationary_batch_s": "s",
    "tailproc.validate_s": "s",
    "tailproc.exceedance_counts_s": "s",
    "tailproc.events": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def spawn_round(spec: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    spec = {**spec, "spawned_at": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def throughput(rnd: dict) -> dict:
    """Work per second of the stages that do each kind of work."""
    def rate(kind, work):
        busy = sum(s["s"] for s in rnd["stages"] if s["kind"] == kind)
        return work / busy if busy and work else 0.0

    c = rnd["counts"]
    return {"chain_steps_per_s": rate("chain", c.get("chain_steps", 0)),
            "limit_draws_per_s": rate("draws", c.get("limit_draws", 0)),
            "cdf_points_per_s": rate("cdf", c.get("cdf_points", 0))}


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def aggregate(rounds: list[dict], trace: bool) -> tuple[dict, dict]:
    """Final result line and the summary of a run's rounds."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    summary = {"rounds": len(rounds), "error_rate": failed / attempted}
    for key in END_TO_END_UNITS:
        summary[key] = _median(plain, key)
    rates = [throughput(r) for r in plain]
    for key in ("chain_steps_per_s", "limit_draws_per_s", "cdf_points_per_s"):
        summary[key] = statistics.median(r[key] for r in rates)

    if trace:
        values = {k: summary[k] for k in RATE_UNITS}
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace.overhead_s"] = _median(traced, "wall_s") - summary["wall_s"]
        summary["traced_wall_s"] = _median(traced, "wall_s")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, summary


def provenance() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "click": version("click"),
            "git_revision": rev or "unknown (not a git checkout)"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: tiny sizes that only exercise the code paths")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "gwi" / "cli.py").is_file():
        print(f"error: no gwi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    round_seeds = random.Random(args.seed)
    work = HERE / "_work" / str(os.getpid())
    t_start = time.monotonic()
    rounds, durations = [], []
    try:
        while True:
            r = len(rounds)
            spec = {"workload": args.workload, "size": args.size,
                    "seed": round_seeds.randrange(2**24),
                    "traced": trace and r % 2 == 0, "single_worker": trace,
                    "out": str(work / f"round{r}")}
            t0 = time.monotonic()
            remaining = RUN_LIMIT_S - (t0 - t_start)
            rounds.append(spawn_round(spec, timeout=remaining))
            shutil.rmtree(spec["out"], ignore_errors=True)
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - t_start
            typical = statistics.median(durations)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    result, summary = aggregate(rounds, trace)
    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "measured_s": time.monotonic() - t_start,
        "provenance": provenance(),
        "stages": [{k: s[k] for k in ("name", "experiment", "config",
                                      "workers")}
                   for s in rounds[0]["stages"]],
        "summary": summary,
        "rounds": [{"seed": r["seed"], "traced": r["traced"],
                    "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                    "peak_rss_mb": r["peak_rss_mb"],
                    "stage_s": {s["name"]: s["s"] for s in r["stages"]},
                    "counts": r["counts"], "failures": r["failures"],
                    "checks": r["checks"]} for r in rounds],
    }
    if trace:
        idle = sorted(k for k, m in result["metrics"].items() if m["value"] == 0)
        report["notes"] = [
            "per-layer values are medians over traced rounds",
            "throughput and error_rate come from the untraced rounds",
            "0 because this workload does no such work (or no failures): "
            + ", ".join(idle),
        ]
        if args.workload == "replicate":
            report["notes"].append(
                "replicate ran at workers=1 in every round of this run so "
                "that spans are recorded in-process")
    for key in ("setup_s", "wall_s", "peak_rss_mb", "chain_steps_per_s",
                "limit_draws_per_s", "cdf_points_per_s", "error_rate"):
        unit = END_TO_END_UNITS.get(key) or RATE_UNITS[key]
        print(f"# {args.workload} {key} = {summary[key]:.6g} {unit}")
    for note in report.get("notes", []):
        print(f"# note: {note}")
    for c in (c for r in rounds for c in r["checks"] if not c["ok"]):
        print(f"# check failed: {c['name']} ({c['op']}): {c['detail']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
