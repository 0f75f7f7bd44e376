"""Smoke test of the benchmark: one traced round of each workload.

The tracer wraps package functions by name, so a rename or deletion in the
package shows up here rather than only in a traced benchmark run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_round_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
