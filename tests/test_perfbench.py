"""Smoke test of the benchmark: one round of each workload, traced and not.

The tracer wraps package functions by name, so a rename or deletion in the
package shows up here rather than only in a traced benchmark run.  The
untraced run is the one whose metrics are compared across commits.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_round_is_correct(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    if not trace:
        assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
