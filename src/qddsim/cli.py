"""Command-line front end.

Exit codes: 0 on success, 1 for usage, file or parse problems, 2 when a
requested runtime check (--check-coeffs / --check-bounds) was violated.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal

from .circuit import (
    Circuit,
    QasmParseError,
    gen_grover,
    gen_random,
    gen_wstate,
    parse_qasm,
)
from .coeff import CoeffPolicy, RingValue, render
from .ddcore import GC_CAPACITY, DDStore, State
from .gates import RunStats, simulate
from .measure import (
    ZeroStateError,
    measurement_probability,
    probability_as_decimal,
    sample_counts,
)
from .stabtrack import BoundReport, track, whole


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        raise _UsageError(message)


def _add_policy_args(sp: argparse.ArgumentParser, with_coeffs: bool = True) -> None:
    sp.add_argument("--backend", choices=("limdd", "evdd"), default="limdd")
    if with_coeffs:
        sp.add_argument("--coeffs", choices=("exact", "float"), default="exact")
    sp.add_argument(
        "--tolerance", type=float, default=None,
        help="float-backend comparison tolerance (default 1e-14)",
    )
    sp.add_argument("--norm-rule", choices=("low", "l2"), default="low")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qddsim", description="Clifford+T simulation on decision diagrams")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a qasm file and report the state")
    sim.add_argument("qasm", help="input file, or - for stdin")
    _add_policy_args(sim)
    sim.add_argument("--qubit", type=int, default=0, help="qubit whose p0 to report")
    sim.add_argument("--shots", type=int, default=0)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--check-coeffs", action="store_true")
    sim.add_argument("--check-bounds", action="store_true")
    sim.add_argument("--stats", default=None, help="also write the JSON report here")
    sim.add_argument("--dot", default=None, help="write the final diagram as Graphviz")
    sim.add_argument("--gc-capacity", type=int, default=GC_CAPACITY)
    sim.set_defaults(func=cmd_simulate)

    bnd = sub.add_parser("bounds", help="stabilizer-tableau width ceilings")
    bnd.add_argument("qasm", help="input file, or - for stdin")
    bnd.add_argument(
        "--native-ccx", action="store_true",
        help="track ccx as one tableau update instead of its 7-T expansion",
    )
    bnd.set_defaults(func=cmd_bounds)

    cmp_ = sub.add_parser("compare", help="exact versus float backend on one circuit")
    cmp_.add_argument("qasm", help="input file, or - for stdin")
    _add_policy_args(cmp_, with_coeffs=False)
    cmp_.set_defaults(func=cmd_compare)

    ben = sub.add_parser("bench", help="run a generated circuit family, emit CSV")
    ben.add_argument("family", choices=("wstate", "grover", "random"))
    ben.add_argument("--sizes", required=True, help="comma-separated register sizes")
    ben.add_argument("--depth", type=int, default=30, help="random family depth")
    ben.add_argument("--seeds", type=int, default=1, help="runs per size (seeds 0..s-1)")
    ben.add_argument("--max-t", type=int, default=None)
    _add_policy_args(ben, with_coeffs=False)
    ben.add_argument("--out", default=None, help="CSV path, appended to (default stdout)")
    ben.set_defaults(func=cmd_bench)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _decimal_str(value: Decimal) -> str:
    text = format(value, "f")
    return text if "." in text else text + ".0"


def _bound_json(report: BoundReport, native_ccx: bool) -> dict:
    return {**report._asdict(), "native_ccx": native_ccx}


def _run_report(
    circuit: Circuit,
    store: DDStore,
    *,
    qubit: int = 0,
    shots: int = 0,
    seed: int | None = None,
    check_coeffs: bool = False,
    check_bounds: bool = False,
) -> tuple[State, RunStats, dict]:
    state, run = simulate(
        circuit, check_coeffs=check_coeffs, check_bounds=check_bounds, store=store
    )
    p0 = measurement_probability(state, qubit)
    samples = None
    if shots:
        zeros, ones = sample_counts(state, qubit, shots, seed)
        samples = {"shots": shots, "zeros": zeros, "ones": ones, "seed": seed}
    checks = {"coeff_bound": run.coeff_check, "width_bound": run.bound_check}
    report = {
        "mode": store.mode,
        "policy": {
            "coeffs": store.policy.backend,
            "tolerance": store.policy.tolerance,
            "norm_rule": store.norm_rule,
        },
        "circuit": {
            "n_qubits": circuit.n_qubits,
            "gates_raw": len(circuit.gates),
            "gates_compiled": run.counts.total,
            "t_count": run.counts.t_count,
            "h_count": run.counts.h_count,
            "cz_count": run.counts.cz_count,
            "ops_applied": run.ops_applied,
        },
        "state": {
            "node_count": run.node_count,
            "final_nodes": run.final_nodes,
            "peak_nodes": run.peak_nodes,
            "max_coeff_bits": run.max_coeff_bits,
            "width_per_level": list(run.width_per_level),
        },
        "measurement": {
            "qubit": qubit,
            "p0": _decimal_str(probability_as_decimal(p0)),
            "p0_float": float(probability_as_decimal(p0)),
            "p0_symbolic": render(p0) if isinstance(p0, RingValue) else None,
            "samples": samples,
        },
        "checks": checks,
        "violations": sorted(name for name, ok in checks.items() if ok is False),
        "bound_report": (
            _bound_json(run.bound_report, True) if check_bounds else None
        ),
        "gc_runs": run.gc_runs,
        "runtime_ms": run.runtime_ms,
    }
    return state, run, report


def _format_lim(state: State, edge) -> str:
    ops = state.store.ops
    if state.store.is_zero(edge):
        return "0"
    if ops.backend == "exact":
        scalar = render(edge.lim.factor)
    else:
        scalar = repr(complex(edge.lim.factor))
    if state.store.mode == "limdd" and not edge.lim.string.is_identity():
        return f"({scalar})*{edge.lim.string.render()}"
    return scalar


def to_dot(state: State) -> str:
    """Graphviz rendering of the reachable diagram (deterministic order)."""
    store = state.store
    n = state.n_qubits
    lines = [
        "digraph qdd {",
        "  rankdir=TB;",
        '  root [shape=none, label=""];',
    ]
    nodes = store.reachable([state.root])
    for node_id in sorted(nodes):
        node = nodes[node_id]
        if node.level == 0:
            lines.append(f"  n{node_id} [shape=box, label={json.dumps('1')}];")
        else:
            lines.append(f"  n{node_id} [label={json.dumps(f'q{n - node.level}')}];")
    lines.append(f"  root -> n{state.root.node.id} [label={json.dumps(_format_lim(state, state.root))}];")
    for node_id in sorted(nodes):
        node = nodes[node_id]
        if node.level == 0:
            continue
        for edge, style in ((node.low, "dashed"), (node.high, "solid")):
            label = json.dumps(_format_lim(state, edge))
            lines.append(
                f"  n{node_id} -> n{edge.node.id} [style={style}, label={label}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    circuit = parse_qasm(_read_text(args.qasm))
    whole(args.qubit, "--qubit", 0, circuit.n_qubits)  # before the simulation runs
    # an explicit tolerance is forwarded so exact + nonzero is rejected
    policy = CoeffPolicy(args.coeffs, args.tolerance)
    state, _, report = _run_report(
        circuit,
        DDStore(policy, args.backend, args.norm_rule, args.gc_capacity),
        qubit=args.qubit,
        shots=args.shots,
        seed=args.seed,
        check_coeffs=args.check_coeffs,
        check_bounds=args.check_bounds,
    )
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(state))
    return 2 if report["violations"] else 0


def cmd_bounds(args) -> int:
    circuit = parse_qasm(_read_text(args.qasm))
    report = track(circuit, native_ccx=args.native_ccx)
    print(json.dumps(_bound_json(report, args.native_ccx), sort_keys=True, indent=2))
    return 0


def _exact_and_float(circuit: Circuit, args) -> list[dict]:
    """The exact report, under the low rule, and the float report, under
    --norm-rule and --tolerance."""
    runs = (
        (CoeffPolicy("exact"), "low"),
        (CoeffPolicy("float", args.tolerance), args.norm_rule),
    )
    return [
        _run_report(circuit, DDStore(policy, args.backend, rule))[2]
        for policy, rule in runs
    ]


def cmd_compare(args) -> int:
    circuit = parse_qasm(_read_text(args.qasm))
    exact_report, float_report = _exact_and_float(circuit, args)
    ref = exact_report["measurement"]["p0_float"]
    got = float_report["measurement"]["p0_float"]
    if ref != 0.0:
        deviation = abs(got - ref) / abs(ref)
    else:
        deviation = 0.0 if got == 0.0 else float("inf")
    report = {
        "mode": args.backend,
        "tolerance": float_report["policy"]["tolerance"],
        "exact": exact_report,
        "float": float_report,
        "node_delta": float_report["state"]["final_nodes"] - exact_report["state"]["final_nodes"],
        "p0_abs_delta": abs(got - ref),
        "relative_deviation": deviation,
        "incorrect": deviation > 0.05,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _bench_circuit(args, size: int, seed: int) -> tuple[str, Circuit, int | None]:
    if args.family == "wstate":
        return f"wstate-{size}", gen_wstate(size), None
    if args.family == "grover":
        marked = seed % (1 << size)
        return f"grover-{size}", gen_grover(size, marked), seed
    name = f"random-{size}-d{args.depth}"
    return name, gen_random(size, args.depth, seed, max_t=args.max_t), seed


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"bad --sizes value {args.sizes!r}")
    if not sizes:
        raise _UsageError("no sizes given")
    whole(args.seeds, "--seeds", 1)
    fields = [
        "name", "backend", "coeffs", "tolerance", "n_qubits", "gates",
        "t_count", "h_count", "cz_count", "final_nodes", "peak_nodes",
        "max_coeff_bits", "p0", "runtime_ms", "seed",
    ]
    rows = []
    for size in sizes:
        for seed in range(args.seeds):
            name, circuit, used_seed = _bench_circuit(args, size, seed)
            for report in _exact_and_float(circuit, args):
                counts, state = report["circuit"], report["state"]
                rows.append({
                    "name": name,
                    "backend": args.backend,
                    "coeffs": report["policy"]["coeffs"],
                    "tolerance": report["policy"]["tolerance"],
                    "n_qubits": circuit.n_qubits,
                    "gates": counts["gates_compiled"],
                    "t_count": counts["t_count"],
                    "h_count": counts["h_count"],
                    "cz_count": counts["cz_count"],
                    "final_nodes": state["final_nodes"],
                    "peak_nodes": state["peak_nodes"],
                    "max_coeff_bits": state["max_coeff_bits"],
                    "p0": report["measurement"]["p0"],
                    "runtime_ms": f"{report['runtime_ms']:.3f}",
                    "seed": "" if used_seed is None else used_seed,
                })
    if args.out is None:
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        return 0
    fresh = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
    with open(args.out, "a", newline="", encoding="utf-8") as out:
        writer = csv.DictWriter(out, fieldnames=fields)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, QasmParseError, ZeroStateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        # The diagram walks recurse once per qubit, so a deep register can
        # exhaust the stack; a wide diagram can exhaust memory.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
