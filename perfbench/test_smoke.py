"""Smoke test of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the
repository root (the default test paths do not include this directory).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = _declared("per_layer" if trace else "end_to_end")
    got = result["metrics"]
    assert set(got) == set(want)
    for name, unit in want.items():
        assert got[name]["unit"] == unit, name
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)


def test_failed_check_counts_in_error_rate():
    out = HERE / "_work" / f"smoke-{os.getpid()}"
    try:
        rnd = worker.run_round({
            "workload": "replicate", "size": "smoke", "seed": 5,
            "traced": False, "single_worker": True, "out": str(out),
            "spawned_at": time.monotonic()})
        assert rnd["failed"] == 0
        _, clean = run.aggregate([rnd], trace=False)
        assert clean["error_rate"] == 0.0

        csv = Path(rnd["stages"][0]["dir"]) / "replications.csv"
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(lines[:-1]))   # drop one replication
        model = worker.reference_model(worker._import_gwi()[1])
        rnd.update(worker.evaluate("replicate", rnd["stages"], model))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if not any(out.parent.iterdir()):
            out.parent.rmdir()
    result, summary = run.aggregate([rnd], trace=False)
    assert result["failed"] == 1 and result["attempted"] == 1
    assert result["correct"] is False
    assert summary["error_rate"] == 1.0
    assert "rows_present" in rnd["failures"]["estimate"]
