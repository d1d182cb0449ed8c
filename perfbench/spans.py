"""In-memory span recorder for the traced benchmark rounds.

Spans are recorded only here, in the benchmark's own code: ``install``
replaces the public functions of each ``gwi`` module with thin wrappers
at the names their callers look them up by (``estimator.step_batch`` is
not the same binding as ``process.step_batch``).  Each span stores its
name, start, end, parent span and a work count; nothing is written until
the round ends, when ``layer_metrics`` derives durations and self times
(duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.ids: dict[str, int] = {}   # span name -> name id
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack: list[int] = []

    def wrap(self, fn, name, work=None):
        """Return ``fn`` recording one span per call.

        ``work(args, kwargs)`` gives the span's work count (draws,
        chain-steps, integrand points); it defaults to 0.
        """
        nid = self.ids.setdefault(name, len(self.ids))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.work.append(work(args, kwargs) if work else 0)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    def patch(self, module, attr, name, work=None):
        setattr(module, attr, self.wrap(getattr(module, attr), name, work))

    def table(self):
        """Per-span numpy columns: name id, duration, self time, work."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child_time = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "dur_ns": dur,
            "self_ns": dur - child_time,
            "work": np.frombuffer(self.work, dtype=np.int64),
        }


def _size(i=0, key=None):
    def work(args, kwargs):
        arr = kwargs[key] if key in kwargs else args[i]
        return int(np.size(arr))
    return work


def install(tracer: Tracer, modules) -> None:
    """Wrap every public layer function the workloads reach.

    ``modules`` maps module names (``process``, ``limitlaw`` ...) to the
    imported ``gwi`` modules.  The integrand handed to
    ``gauss_kronrod`` is wrapped too, so quadrature self time and
    integrand point counts come out exactly.
    """
    dist = modules["distributions"]
    proc = modules["process"]
    est = modules["estimator"]
    lim = modules["limitlaw"]
    tail = modules["tailproc"]

    tracer.patch(dist, "ImmigrationLaw", "distributions.ImmigrationLaw")
    tracer.patch(proc, "sample_immigration_many",
                 "distributions.sample_immigration_many", _size(1, "u"))
    tracer.patch(proc, "sample_aggregate_offspring_many",
                 "distributions.sample_aggregate_offspring_many",
                 _size(1, "parents"))

    for mod in (proc, est, tail):
        tracer.patch(mod, "stationary_init_many", "process.stationary_init_many")
    for mod in (proc, est):
        tracer.patch(mod, "step_batch", "process.step_batch", _size(1, "x"))
    for mod in (proc, tail):
        tracer.patch(mod, "simulate_batch", "process.simulate_batch")
    tracer.patch(proc, "simulate", "process.simulate")

    tracer.patch(est, "replication_experiment", "estimator.replication_experiment")

    tracer.patch(lim, "sample_limit_pairs", "limitlaw.sample_limit_pairs")
    tracer.patch(lim, "cdf_ratio", "limitlaw.cdf_ratio")
    tracer.patch(lim, "euler_accelerated_sum", "quadrature.euler_accelerated_sum")
    gk = lim.gauss_kronrod
    integrand = "quadrature.integrand"

    def gauss_kronrod(f, *args, **kwargs):
        return gk(tracer.wrap(f, integrand, _size(0)), *args, **kwargs)

    lim.gauss_kronrod = tracer.wrap(gauss_kronrod, "quadrature.gauss_kronrod")

    for attr in ("run_stationary_batch", "validate_pseudo_tail",
                 "laplace_functional_gap", "exceedance_counts"):
        tracer.patch(tail, attr, f"tailproc.{attr}")


WIDTHS = (1, 100, 250, 500)


def layer_metrics(tracer: Tracer, cli_span: str) -> dict[str, float]:
    """Per-layer timings and exact counts from one traced round.

    ``cli_span`` is the name of the spans the benchmark records around
    its own ``cli.run`` calls; their self time is the CLI's own work.
    """
    t = tracer.table()
    ids = tracer.ids

    def sel(name):
        return t["name"] == ids.get(name, -1)

    def total(name, col="dur_ns"):
        return int(t[col][sel(name)].sum())

    def count(name):
        return int(sel(name).sum())

    def per(num, den):
        return num / den if den else 0.0

    steps = sel("process.step_batch")
    step_work = t["work"][steps]
    out = {}
    imm_draws = total("distributions.sample_immigration_many", "work")
    off_draws = total("distributions.sample_aggregate_offspring_many", "work")
    out["distributions.immigration_draws"] = imm_draws
    out["distributions.offspring_draws"] = off_draws
    out["distributions.immigration_ns_per_draw"] = per(
        total("distributions.sample_immigration_many"), imm_draws)
    out["distributions.offspring_ns_per_draw"] = per(
        total("distributions.sample_aggregate_offspring_many"), off_draws)
    law = t["dur_ns"][sel("distributions.ImmigrationLaw")]
    out["distributions.immigration_law_init_ms"] = (
        float(np.median(law)) / 1e6 if len(law) else 0.0)

    for w in WIDTHS:
        at_w = step_work == w
        out[f"process.step_ns_per_chain_step.w{w}"] = per(
            int(t["dur_ns"][steps][at_w].sum()), int(step_work[at_w].sum()))
    out["process.step_self_ns_per_chain_step"] = per(
        int(t["self_ns"][steps].sum()), int(step_work.sum()))
    out["process.stationary_init_s"] = total("process.stationary_init_many") / 1e9
    out["process.chain_steps"] = int(step_work.sum())

    out["estimator.replication_s"] = total("estimator.replication_experiment") / 1e9
    out["estimator.reduce_self_s"] = total(
        "estimator.replication_experiment", "self_ns") / 1e9

    out["limitlaw.sample_s"] = total("limitlaw.sample_limit_pairs") / 1e9
    cdf = t["dur_ns"][sel("limitlaw.cdf_ratio")]
    n_cdf = len(cdf)
    out["limitlaw.cdf_ms_per_point.p50"] = (
        float(np.median(cdf)) / 1e6 if n_cdf else 0.0)
    out["limitlaw.cdf_ms_per_point.max"] = float(cdf.max()) / 1e6 if n_cdf else 0.0

    gk_calls = count("quadrature.gauss_kronrod")
    points = total("quadrature.integrand", "work")
    out["quadrature.gk_calls"] = gk_calls
    out["quadrature.integrand_points"] = points
    out["quadrature.gk_calls_per_cdf_point"] = per(gk_calls, n_cdf)
    out["quadrature.integrand_points_per_cdf_point"] = per(points, n_cdf)
    out["quadrature.euler_sum_calls"] = count("quadrature.euler_accelerated_sum")
    out["quadrature.self_s"] = total("quadrature.gauss_kronrod", "self_ns") / 1e9

    for attr, key in (("run_stationary_batch", "run_stationary_batch_s"),
                      ("validate_pseudo_tail", "validate_s"),
                      ("exceedance_counts", "exceedance_counts_s")):
        out[f"tailproc.{key}"] = total(f"tailproc.{attr}") / 1e9

    out["cli.self_s"] = total(cli_span, "self_ns") / 1e9
    out["trace.spans"] = len(t["dur_ns"])
    return out
