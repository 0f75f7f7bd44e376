"""Benchmark of exact Clifford+T simulation with qddsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, so
nothing needs installing.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (see BENCHMARK.json); with --trace 1 every
call into qddsim is traced and the metrics are the per-layer ones, and the
spans are written under perfbench/out/.  Workloads and metrics are
described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = (6, 5)  # set-up probes before and after the timed rounds
REF_REPEATS = 8  # reference-loop runs before each round


def setup_probe(workload: str, seed: int) -> float:
    """What a fresh process does before its first simulate: import the
    package, generate the workload's qasm text and parse it."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qddsim.circuit
    from circuits import make_specs

    for spec in make_specs(workload, seed):
        qddsim.circuit.parse_qasm(spec.qasm())
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up times of fresh interpreter processes, run one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def reference_loop() -> float:
    """Time of a fixed piece of pure-Python work in the style of the exact
    ring: Fraction arithmetic, tuple keys and dict lookups."""
    from fractions import Fraction
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(1500):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        b = Fraction(i % 5 + 1, i % 11 + 3)
        x = a * b + a / b - b
        key = (x.numerator % 97, x.denominator % 89)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    from circuits import WORKLOADS, make_specs

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "qddsim" / "__init__.py").is_file():
        print(f"error: no qddsim package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed,
                                                       SETUP_REPEATS[0])
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import qddsim.circuit
    import qddsim.coeff
    import qddsim.gates
    import qddsim.measure
    import qddsim.stabtrack
    from workloads import TIMES, Workload, fastest

    specs = make_specs(args.workload, args.seed)
    circuits = [qddsim.circuit.parse_qasm(spec.qasm()) for spec in specs]
    work = Workload(args.workload, WORKLOADS[args.workload], args.seed, specs, circuits, qddsim)

    # Each round starts from the same heap: the garbage of the last round is
    # collected, and what set-up left is frozen out of later collections.
    gc.collect()
    gc.freeze()
    rounds = []
    ref: list[float] = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        gc.collect()
        ref.extend(reference_loop() for _ in range(REF_REPEATS))
        rounds.append(work.run_round(tracer))
    first = rounds[0]
    correct = all(r.facts == first.facts for r in rounds)
    if not correct:
        print("error: rounds disagree on deterministic results", file=sys.stderr)

    if not tracer:
        setup_times += measure_setup(args.workload, args.seed, SETUP_REPEATS[1])
    times = fastest(rounds)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{first.attempted} operations each, tracing {'on' if tracer else 'off'}")
    for (metric, name), _ in first.op_s.items():
        if metric == "sim_s":
            print(f"# circuit {name}: sim_s {min(min(r.op_s[metric, name]) for r in rounds):.4f}")
    print(f"# reference {min(ref):.6f} {statistics.median(ref):.6f}")
    print("# " + " ".join(f"{k} {times[k]:.4f}" for k in TIMES)
          + " " + " ".join(f"{k} {v}" for k, v in first.sizes.items()))

    if tracer:
        values = tracer.layer_metrics(len(rounds))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-seed{args.seed}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Times in refs: the host's speed drifts by up to half over minutes
        # and slows the reference loop as much as qddsim, so the quotient
        # keeps only what qddsim itself costs.
        ref_s = min(ref)
        values = {"setup_s": statistics.median(setup_times),
                  **{k.replace("_s", "_ref"): v / ref_s for k, v in times.items()},
                  **first.sizes,
                  "peak_rss_mb": rss_mb}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if tracer else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           "BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
