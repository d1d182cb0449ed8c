"""The benchmark's tracer finds every ``gwi`` name it patches.

``perfbench/spans.py`` wraps public functions at the names their callers
look them up by; removing or renaming one of them breaks the traced
benchmark rounds, so it must fail here too.  A changed signature breaks
them as well (a span's work count reads an argument by position), so
small runs of every stepping entry point must record
``process.step_batch`` spans, and work beyond one family per span, under
the installed tracer, and one ``cdf_ratio`` point must record
``quadrature.gauss_kronrod`` spans and integrand spans with work.

Every stage config the benchmark writes, at the stage's worker count,
must also pass ``gwi``'s config checks: a rejected stage is a failed
operation in every round.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwi import cli

_ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import spans
from gwi import distributions, estimator, limitlaw, process, tailproc
tracer = spans.Tracer()
spans.install(tracer, {
    "distributions": distributions, "estimator": estimator,
    "limitlaw": limitlaw, "process": process, "tailproc": tailproc,
})
"""

_STEP = _INSTALL + """
import numpy as np
params = process.ModelParams(distributions.OffspringLaw("poisson", 0.5),
                             distributions.ImmigrationLaw(1.5, 0.3))
rng = np.random.default_rng(1)
inits = np.arange(1, 6)


def step_spans():
    t = tracer.table()
    sel = t["name"] == tracer.ids["process.step_batch"]
    return np.array([sel.sum(), t["work"][sel].sum()])


for name, run in (
    ("stored", lambda: process.run_blocks(params, 20, 5, 1)),
    ("reduced", lambda: process.simulate_batch(params, 20, inits, rng,
                                               lambda w: None)),
    ("stationary", lambda: process.stationary_init_many(params, 5, rng)),
    ("replications", lambda: estimator.replication_experiment(params, 50, 3, 1)),
):
    before = step_spans()
    run()
    spans_added, work = step_spans() - before
    # work is the live family count, read from ``x`` by position: a
    # moved ``x`` would record one per span
    assert work > spans_added > 0, (name, spans_added, work)
"""


_QUAD = _INSTALL + """
import numpy as np
p = limitlaw.LimitParams(alpha=1.5, mu_A=0.5, sigma_A2=0.5)
limitlaw.cdf_ratio(p, 1.0)
t = tracer.table()
gk = t["name"] == tracer.ids["quadrature.gauss_kronrod"]
integrand = t["name"] == tracer.ids["quadrature.integrand"]
# the integrand's work is its point count; the benchmark's wrapper wraps
# the first positional argument, so a moved ``f`` breaks the call
assert gk.sum() > 0 and integrand.sum() > 0, (gk.sum(), integrand.sum())
assert np.all(t["work"][integrand] > 0), t["work"][integrand]
"""


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), str(_ROOT / "perfbench"),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_spans_install_finds_every_name():
    result = _run(_INSTALL)
    assert result.returncode == 0, result.stderr


def test_traced_stepping_records_work():
    result = _run(_STEP)
    assert result.returncode == 0, result.stderr


def test_traced_cdf_records_quadrature():
    result = _run(_QUAD)
    assert result.returncode == 0, result.stderr


def _workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "workloads", _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_stage_configs_accepted(tmp_path, monkeypatch, size):
    # each stage's config file as the benchmark worker writes it, read
    # back and run (by a stub of its experiment) through ``cli.run``
    for name, (_, own) in list(cli.EXPERIMENTS.items()):
        monkeypatch.setitem(cli.EXPERIMENTS, name,
                            (lambda cfg, out, workers: ([], [], {}), own))
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for i, st in enumerate(workloads.stages(workload, size)):
            cfg = {**st["config"], "seed": 16 * 7 + i}
            out = tmp_path / workload / st["name"]
            out.mkdir(parents=True)
            (out / "run.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in cfg.items()))
            parsed = cli.parse_config(str(out / "run.cfg"))
            assert set(parsed) == set(cfg), (workload, st["name"])
            cli.run(parsed, st["experiment"], out, workers=st["workers"])
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["seed"] == 16 * 7 + i
