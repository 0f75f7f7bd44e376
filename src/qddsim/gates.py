"""Gate compilation and application on diagram states.

The simulator applies h, the diagonal phase family (t, tdg, s, sdg, z), the
Paulis, cz, cx and swap directly as diagram operations; ccx runs as the
standard seven-T network with native cx.  ``apply_gate`` takes the primitive
set, which has no cx.  ``compile_gate`` still expands every gate into that
set (cx as h-cz-h), and the gate counts in reports count that expansion.

Applications are structural recursions over hash-consed nodes, memoized in
the store's operation cache; a node's result never goes stale because nodes
are immutable, so the cache is cleared only to reclaim memory.  In limdd
mode Pauli gates reduce to one label multiplication at the root, and gates
commute through edge labels on the way down (diagonal gates flip to their
adjoint across an X component and emit a global phase; Clifford gates
conjugate the label).  cx with the control above the target flips the target
on the control's high branch; with the target above, and for swap, the
branches at the upper level are regrouped by the value of the lower bit,
using projections that an X in a label redirects to the other value.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .coeff import within_coeff_bound
from .ddcore import DDStore, Edge, State
from .pauli import (
    DIAG_OCTANT,
    PauliLIM,
    commute_phase_past_lim,
    conjugate_lim,
    lim_mul,
    lim_scale,
    row_lim_mul,
)
from .stabtrack import StabilizerTableau


@dataclass(frozen=True)
class GateInstance:
    """One named gate on register indices (index 0 is the top qubit)."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(
                f"{self.kind} expects {arity} qubit(s), got {len(self.qubits)}"
            )
        if arity > 1 and len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} qubits must be distinct")


GATE_ARITY = {
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1,
    "x": 1, "y": 1, "z": 1,
    "cz": 2, "cx": 2, "swap": 2,
    "ccx": 3,
}

PRIMITIVE_KINDS = frozenset(
    {"h", "t", "tdg", "s", "sdg", "x", "y", "z", "cz", "swap"}
)


class GateCounts(NamedTuple):
    total: int
    t_count: int
    h_count: int
    cz_count: int


# ccx(a, b, t) as the standard seven-T network; indices pick from (a, b, t).
_CCX_NETWORK = (
    ("h", (2,)), ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)), ("t", (2,)),
    ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)), ("t", (1,)), ("t", (2,)),
    ("cx", (0, 1)), ("h", (2,)), ("t", (0,)), ("tdg", (1,)), ("cx", (0, 1)),
)


def _native_ops(gate: GateInstance) -> tuple[GateInstance, ...]:
    """The gate as ``simulate`` applies it: primitives and cx."""
    if gate.kind != "ccx":
        return (gate,)
    q = gate.qubits
    return tuple(
        GateInstance(kind, tuple(q[i] for i in idx)) for kind, idx in _CCX_NETWORK
    )


def compile_gate(gate: GateInstance) -> tuple[GateInstance, ...]:
    """Expand one gate into primitives."""
    if gate.kind in PRIMITIVE_KINDS:
        return (gate,)
    if gate.kind == "cx":
        c, t = gate.qubits
        return (
            GateInstance("h", (t,)),
            GateInstance("cz", (c, t)),
            GateInstance("h", (t,)),
        )
    if gate.kind == "ccx":
        return compile_sequence(_native_ops(gate))
    raise ValueError(f"cannot compile gate kind {gate.kind!r}")


def compile_sequence(gates: Iterable[GateInstance]) -> tuple[GateInstance, ...]:
    out: list[GateInstance] = []
    for g in gates:
        out.extend(compile_gate(g))
    return tuple(out)


def count_gates(primitives: Iterable[GateInstance]) -> GateCounts:
    total = t = h = cz = 0
    for g in primitives:
        total += 1
        if g.kind in ("t", "tdg"):
            t += 1
        elif g.kind == "h":
            h += 1
        elif g.kind == "cz":
            cz += 1
    return GateCounts(total, t, h, cz)


# -- application internals -------------------------------------------------


def _compose(store: DDStore, lim: PauliLIM, sub: Edge) -> Edge:
    if store.is_zero(sub):
        return store.zero_edge(lim.string.n)
    return Edge(lim_mul(store.ops, lim, sub.lim), sub.node)


def _scale_edge(store: DDStore, scalar: object, edge: Edge) -> Edge:
    if store.is_zero(edge):
        return edge
    return Edge(lim_scale(store.ops, scalar, edge.lim), edge.node)


def _neg_edge(store: DDStore, edge: Edge) -> Edge:
    return _scale_edge(store, store.ops.neg(store.ops.one), edge)


def _check_bits(n: int, bits: tuple[int, ...]) -> None:
    for b in bits:
        if not 0 <= b < n:
            raise ValueError(f"gate bit {b} out of range for {n} qubits")


def _apply_diag(store: DDStore, edge: Edge, p: int, bit: int) -> Edge:
    if store.is_zero(edge):
        return edge
    if store.mode == "limdd":
        scal, p = commute_phase_past_lim(p, bit, edge.lim)
    else:
        scal = 0
    lim = edge.lim
    if scal:
        lim = lim_scale(store.ops, store.ops.omega(scal), lim)
    return _compose(store, lim, _diag_node(store, edge.node, p, bit))


def _diag_node(store: DDStore, node, p: int, bit: int) -> Edge:
    key = ("diag", p, bit, node.id)
    hit = store.op_cache.get(key)
    if hit is not None:
        return hit
    if node.level - 1 == bit:
        high = node.high
        if not store.is_zero(high):
            high = Edge(lim_scale(store.ops, store.ops.omega(p), high.lim), high.node)
        res = store.make_edge(node.low, high)
    else:
        res = store.make_edge(
            _apply_diag(store, node.low, p, bit),
            _apply_diag(store, node.high, p, bit),
        )
    store.op_cache[key] = res
    return res


def _apply_pauli(store: DDStore, edge: Edge, kind: str, bit: int) -> Edge:
    """x, y or z at ``bit``; in limdd mode one multiply of the root label."""
    if store.is_zero(edge):
        return edge
    if store.mode == "limdd":
        m = 1 << bit
        row = (0, 0 if kind == "z" else m, 0 if kind == "x" else m)
        return Edge(row_lim_mul(store.ops, row, edge.lim), edge.node)
    if kind == "z":
        return _apply_diag(store, edge, 4, bit)
    return _compose(store, edge.lim, _pauli_node_evdd(store, edge.node, kind, bit))


def _pauli_node_evdd(store: DDStore, node, kind: str, bit: int) -> Edge:
    key = ("pauli", kind, bit, node.id)
    hit = store.op_cache.get(key)
    if hit is not None:
        return hit
    if node.level - 1 == bit:
        if kind == "x":
            res = store.make_edge(node.high, node.low)
        else:  # y
            ops = store.ops
            res = store.make_edge(
                _scale_edge(store, ops.i_power(3), node.high),
                _scale_edge(store, ops.i_power(1), node.low),
            )
    else:
        res = store.make_edge(
            _apply_pauli(store, node.low, kind, bit),
            _apply_pauli(store, node.high, kind, bit),
        )
    store.op_cache[key] = res
    return res


def project(store: DDStore, edge: Edge, bit: int, value: int) -> Edge:
    """The part of the state in which ``bit`` reads ``value`` (unnormalized;
    a zero edge if there is none).  An X or Y at the bit in a label turns
    the projector below it into the other one."""
    if store.is_zero(edge):
        return edge
    value ^= (edge.lim.string.x >> bit) & 1
    return _compose(store, edge.lim, _project_node(store, edge.node, bit, value))


def _project_node(store: DDStore, node, bit: int, value: int) -> Edge:
    key = ("proj", bit, value, node.id)
    hit = store.op_cache.get(key)
    if hit is not None:
        return hit
    if node.level - 1 == bit:
        zero = store.zero_edge(bit)
        low, high = (zero, node.high) if value else (node.low, zero)
    else:
        low = project(store, node.low, bit, value)
        high = project(store, node.high, bit, value)
    if store.is_zero(low) and store.is_zero(high):
        res = store.zero_edge(node.level)
    else:
        res = store.make_edge(low, high)
    store.op_cache[key] = res
    return res


def _split(store: DDStore, edge: Edge, bit: int) -> tuple[Edge, Edge]:
    return project(store, edge, bit, 0), project(store, edge, bit, 1)


def _h_at(store: DDStore, node, bit: int) -> Edge:
    r0 = store.add(node.low, node.high)
    r1 = store.add(node.low, _neg_edge(store, node.high))
    return _scale_edge(store, store.ops.invsqrt2, store.make_edge(r0, r1))


def _cz_at(store: DDStore, node, hi: int, lo: int) -> Edge:
    return store.make_edge(node.low, _apply_diag(store, node.high, 4, lo))


def _cx_at(store: DDStore, node, control: int, target: int) -> Edge:
    if control > target:
        return store.make_edge(node.low, _apply_pauli(store, node.high, "x", target))
    # |0>(P0 e0 + P1 e1) + |1>(P1 e0 + P0 e1), P_b projecting the control
    a0, a1 = _split(store, node.low, control)
    b0, b1 = _split(store, node.high, control)
    return store.make_edge(store.add(a0, b1), store.add(a1, b0))


def _swap_at(store: DDStore, node, hi: int, lo: int) -> Edge:
    # |0>(P0 e0 + X P0 e1) + |1>(X P1 e0 + P1 e1), P_b and X at lo
    a0, a1 = _split(store, node.low, lo)
    b0, b1 = _split(store, node.high, lo)
    return store.make_edge(
        store.add(a0, _apply_pauli(store, b0, "x", lo)),
        store.add(_apply_pauli(store, a1, "x", lo), b1),
    )


# What a Clifford gate does to a node at the level of its highest bit.
_AT_LEVEL = {"h": _h_at, "cz": _cz_at, "cx": _cx_at, "swap": _swap_at}


def _apply_clifford(store: DDStore, edge: Edge, kind: str, bits: tuple[int, ...]) -> Edge:
    """h, cz, cx or swap; cz and swap take their higher bit first."""
    if store.is_zero(edge):
        return edge
    lim = edge.lim
    if store.mode == "limdd":
        lim = conjugate_lim(store.ops, lim, kind, bits)
    return _compose(store, lim, _clifford_node(store, edge.node, kind, bits))


def _clifford_node(store: DDStore, node, kind: str, bits: tuple[int, ...]) -> Edge:
    key = (kind, bits, node.id)
    hit = store.op_cache.get(key)
    if hit is not None:
        return hit
    if node.level - 1 == max(bits):
        res = _AT_LEVEL[kind](store, node, *bits)
    else:
        res = store.make_edge(
            _apply_clifford(store, node.low, kind, bits),
            _apply_clifford(store, node.high, kind, bits),
        )
    store.op_cache[key] = res
    return res


def apply_gate(store: DDStore, edge: Edge, kind: str, bits: tuple[int, ...]) -> Edge:
    """Apply one primitive gate; ``bits`` are internal positions (top = n-1)."""
    _check_bits(edge.lim.string.n, bits)
    if kind in ("x", "y", "z"):
        return _apply_pauli(store, edge, kind, bits[0])
    if kind in DIAG_OCTANT:
        return _apply_diag(store, edge, DIAG_OCTANT[kind], bits[0])
    if kind in ("h", "cz", "swap"):
        return _apply_clifford(store, edge, kind, tuple(sorted(bits, reverse=True)))
    raise ValueError(f"not a primitive gate kind: {kind!r}")


# -- full-circuit driver ---------------------------------------------------


@dataclass
class RunStats:
    n_qubits: int
    counts: GateCounts
    node_count: int
    final_nodes: int  # node_count plus the terminal
    peak_nodes: int
    max_coeff_bits: int
    width_per_level: tuple[int, ...]
    coeff_check: bool | None
    bound_check: bool | None
    gc_runs: int
    runtime_ms: float


def verify_coeff_bound(store: DDStore, root: Edge, n: int, t_count: int) -> bool:
    """All bulk labels, and the squared magnitude of the root label, obey the
    integer-size bound that grows with qubit and T-gate count.  The root label
    itself is exempt: it absorbs the normalization of every h gate, and only
    its magnitude is constrained."""
    k = 2 * n + 2 * t_count + 1
    if not within_coeff_bound(root.lim.factor.abs2(), k):
        return False
    for node in store.reachable([root]).values():
        if node.level == 0:
            continue
        for e in (node.low, node.high):
            if not within_coeff_bound(e.lim.factor, k):
                return False
    return True


def simulate(
    circuit,
    policy=None,
    mode: str = "limdd",
    norm_rule: str = "low",
    *,
    check_coeffs: bool = False,
    check_bounds: bool = False,
    clear_caches: bool = True,
    gc_capacity: int | None = None,
    gc_ratio: float | None = None,
    store: DDStore | None = None,
) -> tuple[State, RunStats]:
    """Run a circuit from the all-zero state and report structural stats.

    ``circuit`` needs ``n_qubits`` and ``gates`` attributes.  The diagram
    applies cx natively; ``RunStats.counts`` counts the compiled primitive
    set of ``compile_gate``.  When ``check_bounds`` is set, a stabilizer
    tableau tracks the circuit and the diagram width is compared against
    the predicted ceiling after every gate; ``check_coeffs`` (exact backend
    only) verifies the label-size bound the same way.
    """
    t0 = time.perf_counter()
    n = circuit.n_qubits
    if store is None:
        kwargs = {}
        if gc_capacity is not None:
            kwargs["gc_capacity"] = gc_capacity
        if gc_ratio is not None:
            kwargs["gc_ratio"] = gc_ratio
        store = DDStore(policy=policy, mode=mode, norm_rule=norm_rule, **kwargs)
    root = store.zero_state(n)
    tableau = StabilizerTableau(n) if check_bounds else None
    coeff_ok: bool | None = True if check_coeffs else None
    bound_ok: bool | None = True if check_bounds else None
    if check_coeffs and store.ops.backend != "exact":
        coeff_ok = None
    t_seen = 0
    for gate in circuit.gates:
        for op in _native_ops(gate):
            bits = tuple(n - 1 - q for q in op.qubits)
            if op.kind == "cx":  # not a primitive, so not for apply_gate
                _check_bits(n, bits)
                root = _apply_clifford(store, root, "cx", bits)
            else:
                root = apply_gate(store, root, op.kind, bits)
            if op.kind in ("t", "tdg"):
                t_seen += 1
        if tableau is not None:
            tableau.apply_gate(gate.kind, tuple(n - 1 - q for q in gate.qubits))
            width = max(store.stats(root, n).width_per_level, default=0)
            if store.mode == "limdd":
                ceiling = 1 << tableau.nullity()
            else:
                ceiling = 1 << tableau.local_nullity()
            if width > ceiling:
                bound_ok = False
        if coeff_ok is True and not verify_coeff_bound(store, root, n, t_seen):
            coeff_ok = False
        if clear_caches:
            store.clear_op_caches()
        store.maybe_collect([root])
    stats = store.stats(root, n)
    counts = count_gates(compile_sequence(circuit.gates))
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    run = RunStats(
        n_qubits=n,
        counts=counts,
        node_count=stats.node_count,
        final_nodes=stats.node_count + 1,
        peak_nodes=store.peak_nodes,
        max_coeff_bits=stats.max_coeff_bits,
        width_per_level=stats.width_per_level,
        coeff_check=coeff_ok,
        bound_check=bound_ok,
        gc_runs=store.gc_runs,
        runtime_ms=runtime_ms,
    )
    return State(store, root, n), run
