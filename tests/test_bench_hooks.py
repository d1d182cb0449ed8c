"""The benchmark's tracer finds every ``gwi`` name it patches.

``perfbench/spans.py`` wraps public functions at the names their callers
look them up by; removing or renaming one of them breaks the traced
benchmark rounds, so it must fail here too.
"""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import spans
from gwi import distributions, estimator, limitlaw, process, tailproc
spans.install(spans.Tracer(), {
    "distributions": distributions, "estimator": estimator,
    "limitlaw": limitlaw, "process": process, "tailproc": tailproc,
})
"""


def test_spans_install_finds_every_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), str(_ROOT / "perfbench"),
                    env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _INSTALL], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
