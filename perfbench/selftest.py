"""Shows that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs rounds of a workload with one expected value perturbed at a time and
requires each perturbation to add exactly the failed operations it should.
Exits 1 if any check stayed silent.  Takes about half a minute.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qddsim.circuit  # noqa: E402
import qddsim.coeff  # noqa: E402,F401
import qddsim.gates  # noqa: E402,F401
import qddsim.measure  # noqa: E402,F401
import qddsim.stabtrack  # noqa: E402,F401

import oracle  # noqa: E402
import workloads  # noqa: E402
from circuits import WORKLOADS, make_specs  # noqa: E402


def failed_ops(workload: str, edit_specs=None, edit_work=None) -> int:
    """Failed operations in one round, after optional edits to the inputs'
    facts or to the workload's expected amplitudes."""
    specs = make_specs(workload, 7)
    if edit_specs:
        edit_specs(specs)
    circuits = [qddsim.circuit.parse_qasm(s.qasm()) for s in specs]
    work = workloads.Workload(workload, WORKLOADS[workload], 7, specs, circuits, qddsim)
    if edit_work:
        edit_work(work)
    with contextlib.redirect_stderr(io.StringIO()):
        return work.run_round().failed


def failed_with(module, name, value, workload: str) -> int:
    """Failed operations in one round with ``module.name`` replaced."""
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        return failed_ops(workload)
    finally:
        setattr(module, name, old)


def scale_top_amplitude(work) -> None:
    i, v = work.amps["grover-3"][0]
    work.amps["grover-3"][0] = (i, v * 1.001 + 1e-3)


def shift_octant(specs) -> None:
    specs[-1].facts["octant"] += 1


def main() -> int:
    work = "ct-evdd-exact"
    base = failed_ops(work)
    cases = [  # (what is perturbed, extra failed operations, expected)
        ("nothing", base, 0),
        ("one oracle amplitude of grover-3",
         failed_ops(work, edit_work=scale_top_amplitude) - base, 1),
        ("Grover closed form sin^2((2k+1) asin 2^(-m/2))",
         failed_with(oracle, "grover_success", lambda m, k: 0.5, work) - base, 1),
        ("binomial bound of both sampling calls",
         failed_with(oracle, "within_binomial", lambda c, s, p: False, work) - base, 2),
        ("every float comparison (4 simulations)",
         failed_with(workloads, "TOL", -1.0, work) - base, 4),
        ("GHZ phase omega^k of |1..1>", failed_ops(work, edit_specs=shift_octant), 1),
        ("exact rational reads (4 norms, 8 W and 4 GHZ marginals)",
         failed_with(oracle, "exact_rational", lambda x: None, work) - base, 16),
    ]
    bad = 0
    for label, got, want in cases:
        bad += got != want
        print(f"[{'PASS' if got == want else 'FAIL'}] {label}: "
              f"{got} failed operation(s), want {want}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
