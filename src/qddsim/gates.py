"""Gate compilation and application on diagram states.

The simulator applies every gate of the set directly as a diagram
operation: h, the diagonal phase family (t, tdg, s, sdg, z), the Paulis, cz,
cx, swap and ccx.  ``apply_gate`` takes the primitive set, which has no cx
or ccx.  ``compile_gate`` still expands every gate into that set (cx as
h-cz-h, ccx as the standard seven-T network), and the gate counts in reports
count that expansion.

Every diagram operation is a hashable ``(kind, bits, arg)`` run by one
driver.  ``_apply`` moves the operation past an edge's label, and the
memoized ``_apply_node`` recurses over hash-consed nodes down to the level of
the operation's highest bit, where one function per kind builds the result
(``_AT_LEVEL``).  A node's result never goes stale because nodes are
immutable, so the operation cache is cleared only to reclaim memory.

``diag`` multiplies the |1> branch of a bit by omega**arg (t, tdg, s, sdg
and z), ``proj`` keeps the part of the state in which a bit reads arg, and
h, cz, cx, swap, ccx, x and y take arg 0.  Past a label with an X at the
bit, a diagonal phase flips to its adjoint and emits a global phase, and a
projection keeps the other value; Clifford kinds conjugate the label.  ccx
is not Clifford: past a label P it leaves a Clifford behind, ccx P = P C ccx,
which the driver applies to the node's result with the Clifford kinds.
Identity strings, which include every evdd label, commute with everything,
and an identity label passes the node's result through unchanged.
In limdd mode Pauli gates reduce to one label multiplication at the root.
cx with the control above the target flips the target on the control's high
branch, and ccx with a control on top applies cx on that branch; with the
target above, and for swap, the branches at the upper level are regrouped
by the value of the lower bits through projections.
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
    PauliString,
    commute_phase_past_lim,
    conjugate_lim,
    lim_mul,
    lim_scale,
    row_lim_mul,
    row_mul,
    times_i,
)
from .stabtrack import BoundReport, t_weight, track


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
        q = gate.qubits
        return compile_sequence(
            GateInstance(kind, tuple(q[i] for i in idx)) for kind, idx in _CCX_NETWORK
        )
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


def _scale_edge(store: DDStore, scalar: object, edge: Edge) -> Edge:
    if store.is_zero(edge):
        return edge
    return Edge(lim_scale(store.ops, scalar, edge.lim), edge.node)


def _check_bits(n: int, bits: tuple[int, ...]) -> None:
    for b in bits:
        if not 0 <= b < n:
            raise ValueError(f"gate bit {b} out of range for {n} qubits")


def _apply(store: DDStore, edge: Edge, op: tuple) -> Edge:
    """The operation applied to the edge's state: moved past the edge's
    label, then applied to its node."""
    if store.is_zero(edge):
        return edge
    lim = edge.lim
    s = lim.string
    then: Iterable[tuple] = ()
    if s.x or s.z:
        kind, bits, arg = op
        if kind == "diag":
            scal, p = commute_phase_past_lim(arg, bits[0], lim)
            if scal:
                lim = lim_scale(store.ops, store.ops.omega(scal), lim)
                op = (kind, bits, p)
        elif kind == "proj":
            op = (kind, bits, arg ^ ((s.x >> bits[0]) & 1))
        elif kind == "ccx":
            lim, then = _ccx_past_lim(store, lim, bits)
        else:
            lim = conjugate_lim(store.ops, lim, kind, bits)
    sub = _apply_node(store, edge.node, op)
    for clifford in then:
        sub = _apply(store, sub, clifford)
    if store.is_zero(sub):
        return store.zero_edge(lim.string.n)
    if not (s.x or s.z) and lim.factor == store.ops.one:
        return sub
    return Edge(lim_mul(store.ops, lim, sub.lim), sub.node)


def _ccx_past_lim(store: DDStore, lim: PauliLIM, bits) -> tuple[PauliLIM, list]:
    """Move ccx(a, b, t) right past the label lim = c * P: ccx P = P Q K ccx,
    where, from P's X bits xa, xb at the controls and its Z bit zt at the
    target, the Pauli part Q = (-1)**(zt xa xb) Z_b**(zt xa) Z_a**(zt xb)
    X_t**(xa xb) and the Clifford part K = CZ(a, b)**zt CX(b->t)**xa
    CX(a->t)**xb; all these factors commute.  Returns the label c * P Q and
    the operations of K, to apply after ccx."""
    a, b, t = bits
    s = lim.string
    xa, xb, zt = (s.x >> a) & 1, (s.x >> b) & 1, (s.z >> t) & 1
    then = []
    if zt:
        then.append(("cz", (a, b), 0))
    if xa:
        then.append(("cx", (b, t), 0))
    if xb:
        then.append(("cx", (a, t), 0))
    if zt or xa & xb:
        q = (2 * (zt & xa & xb), (xa & xb) << t, ((zt & xa) << b) | ((zt & xb) << a))
        k, x, z = row_mul((0, s.x, s.z), q)
        lim = PauliLIM(times_i(store.ops, lim.factor, k), PauliString(s.n, x, z))
    return lim, then


def _apply_node(store: DDStore, node, op: tuple) -> Edge:
    key = (op, node.id)
    hit = store.op_cache.get(key)
    if hit is not None:
        return hit
    kind, bits, arg = op
    if node.level - 1 == max(bits):
        res = _AT_LEVEL[kind](store, node, bits, arg)
    else:
        res = store.make_edge(_apply(store, node.low, op), _apply(store, node.high, op))
    store.op_cache[key] = res
    return res


def _apply_pauli(store: DDStore, edge: Edge, kind: str, bit: int) -> Edge:
    """x, y or z at ``bit``; in limdd mode one multiply of the root label."""
    if store.mode == "limdd":
        if store.is_zero(edge):
            return edge
        m = 1 << bit
        row = (0, 0 if kind == "z" else m, 0 if kind == "x" else m)
        return Edge(row_lim_mul(store.ops, row, edge.lim), edge.node)
    if kind == "z":
        return _apply(store, edge, ("diag", (bit,), 4))
    return _apply(store, edge, (kind, (bit,), 0))


def project(store: DDStore, edge: Edge, bit: int, value: int) -> Edge:
    """The part of the state in which ``bit`` reads ``value`` (unnormalized;
    a zero edge if there is none)."""
    return _apply(store, edge, ("proj", (bit,), value))


def _split(store: DDStore, edge: Edge, bit: int) -> tuple[Edge, Edge]:
    return project(store, edge, bit, 0), project(store, edge, bit, 1)


# What each operation does to a node at the level of its highest bit.  The
# two-bit kinds other than cx take their higher bit first, and ccx takes its
# higher control first.


def _diag_at(store: DDStore, node, bits, p: int) -> Edge:
    return store.make_edge(node.low, _scale_edge(store, store.ops.omega(p), node.high))


def _proj_at(store: DDStore, node, bits, value: int) -> Edge:
    zero = store.zero_edge(bits[0])
    low, high = (zero, node.high) if value else (node.low, zero)
    return store.make_edge(low, high)


def _x_at(store: DDStore, node, bits, arg) -> Edge:
    return store.make_edge(node.high, node.low)


def _y_at(store: DDStore, node, bits, arg) -> Edge:
    ops = store.ops
    return store.make_edge(
        _scale_edge(store, ops.i_power(3), node.high),
        _scale_edge(store, ops.i_power(1), node.low),
    )


def _h_at(store: DDStore, node, bits, arg) -> Edge:
    ops = store.ops
    r0 = store.add(node.low, node.high)
    r1 = store.add(node.low, _scale_edge(store, ops.neg(ops.one), node.high))
    return _scale_edge(store, ops.invsqrt2, store.make_edge(r0, r1))


def _cz_at(store: DDStore, node, bits, arg) -> Edge:
    return store.make_edge(node.low, _apply(store, node.high, ("diag", bits[1:], 4)))


def _cx_at(store: DDStore, node, bits, arg) -> Edge:
    control, target = bits
    if control > target:
        return store.make_edge(node.low, _apply_pauli(store, node.high, "x", target))
    # |0>(P0 e0 + P1 e1) + |1>(P1 e0 + P0 e1), P_b projecting the control
    a0, a1 = _split(store, node.low, control)
    b0, b1 = _split(store, node.high, control)
    return store.make_edge(store.add(a0, b1), store.add(a1, b0))


def _swap_at(store: DDStore, node, bits, arg) -> Edge:
    # |0>(P0 e0 + X P0 e1) + |1>(X P1 e0 + P1 e1), P_b and X at lo
    lo = bits[1]
    a0, a1 = _split(store, node.low, lo)
    b0, b1 = _split(store, node.high, lo)
    return store.make_edge(
        store.add(a0, _apply_pauli(store, b0, "x", lo)),
        store.add(_apply_pauli(store, a1, "x", lo), b1),
    )


def _ccx_at(store: DDStore, node, bits, arg) -> Edge:
    a, b, t = bits
    if a > t:
        return store.make_edge(node.low, _apply(store, node.high, ("cx", (b, t), 0)))
    # |0>(e0 + d) + |1>(e1 - d), d = P11 e1 - P11 e0, P11 projecting both controls
    ops = store.ops
    minus = ops.neg(ops.one)

    def p11(e: Edge) -> Edge:
        return project(store, project(store, e, a, 1), b, 1)

    d = store.add(p11(node.high), _scale_edge(store, minus, p11(node.low)))
    return store.make_edge(
        store.add(node.low, d), store.add(node.high, _scale_edge(store, minus, d))
    )


_AT_LEVEL = {
    "diag": _diag_at, "proj": _proj_at, "x": _x_at, "y": _y_at,
    "h": _h_at, "cz": _cz_at, "cx": _cx_at, "swap": _swap_at, "ccx": _ccx_at,
}


def apply_gate(store: DDStore, edge: Edge, kind: str, bits: tuple[int, ...]) -> Edge:
    """Apply one primitive gate; ``bits`` are internal positions (top = n-1)."""
    _check_bits(edge.lim.string.n, bits)
    if kind in ("x", "y", "z"):
        return _apply_pauli(store, edge, kind, bits[0])
    if kind in DIAG_OCTANT:
        return _apply(store, edge, ("diag", (bits[0],), DIAG_OCTANT[kind]))
    if kind in ("h", "cz", "swap"):
        return _apply(store, edge, (kind, tuple(sorted(bits, reverse=True)), 0))
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
    bound_report: BoundReport | None  # the tableau's, when bounds were checked
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
    mode: str | None = None,
    norm_rule: str | None = None,
    *,
    check_coeffs: bool = False,
    check_bounds: bool = False,
    store: DDStore | None = None,
) -> tuple[State, RunStats]:
    """Run a circuit from the all-zero state and report structural stats.

    ``circuit`` needs ``n_qubits`` and ``gates`` attributes.  Each gate is
    one diagram operation, cx and ccx included; ``RunStats.counts`` counts
    the compiled primitive set of ``compile_gate`` (27 primitives per ccx).
    When ``check_bounds`` is set, the stabilizer tableau of ``track``
    (native ccx) predicts a width ceiling for every gate and the diagram
    width is compared against it after that gate; ``check_coeffs`` (exact
    backend only) verifies the label-size bound the same way, counting a
    ccx as the 7 T gates of its network.  A given ``store`` supplies the
    coefficient policy, diagram mode, normalization rule and garbage
    collection settings, and a ``policy``, ``mode`` or ``norm_rule`` given
    with it must match the store's; without one, a fresh store with the
    default collector is used, in limdd mode with the low rule unless
    ``mode`` and ``norm_rule`` say otherwise.
    """
    t0 = time.perf_counter()
    n = circuit.n_qubits
    if store is None:
        store = DDStore(
            policy,
            "limdd" if mode is None else mode,
            "low" if norm_rule is None else norm_rule,
        )
    else:
        for name, given, have in (
            ("policy", policy, store.policy),
            ("mode", mode, store.mode),
            ("norm_rule", norm_rule, store.norm_rule),
        ):
            if given is not None and given != have:
                raise ValueError(f"{name} {given!r} conflicts with the store's {have!r}")
    root = store.zero_state(n)
    report = track(circuit) if check_bounds else None
    coeff_ok: bool | None = True if check_coeffs else None
    bound_ok: bool | None = True if check_bounds else None
    if check_coeffs and store.ops.backend != "exact":
        coeff_ok = None
    t_seen = 0
    for i, gate in enumerate(circuit.gates):
        bits = tuple(n - 1 - q for q in gate.qubits)
        if gate.kind in ("cx", "ccx"):  # not primitives, so not for apply_gate
            _check_bits(n, bits)
            if gate.kind == "ccx":  # higher control first, as _ccx_at expects
                bits = (max(bits[:2]), min(bits[:2]), bits[2])
            root = _apply(store, root, (gate.kind, bits, 0))
        else:
            root = apply_gate(store, root, gate.kind, bits)
        t_seen += t_weight(gate.kind)
        if report is not None:
            width = max(store.stats(root, n).width_per_level, default=0)
            nullity, local_nullity = report.per_gate[i]
            if width > 1 << (nullity if store.mode == "limdd" else local_nullity):
                bound_ok = False
        if coeff_ok is True and not verify_coeff_bound(store, root, n, t_seen):
            coeff_ok = False
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
        bound_report=report,
        gc_runs=store.gc_runs,
        runtime_ms=runtime_ms,
    )
    return State(store, root, n), run
