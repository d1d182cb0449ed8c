"""The benchmark's tracer finds every ``gwi`` name it patches.

``perfbench/spans.py`` wraps public functions at the names their callers
look them up by; removing or renaming one of them breaks the traced
benchmark rounds, so it must fail here too.  A changed signature breaks
them as well (a span's work count reads an argument by position), so
small runs of every stepping entry point must record
``process.step_batch`` spans, and work beyond one family per span, under
the installed tracer, and one ``cdf_ratio`` point must record
``quadrature.gauss_kronrod`` spans and integrand spans with work.
"""

import os
import subprocess
import sys
from pathlib import Path

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
    ("stored", lambda: process.simulate_batch(params, 20, inits, rng)),
    ("reduced", lambda: process.simulate_batch(params, 20, inits, rng,
                                               reduce=lambda w: None)),
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
