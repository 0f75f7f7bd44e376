"""Gate compilation and application on diagram states.

The simulator applies every gate of the set directly as a diagram
operation: h, the diagonal phase family (t, tdg, s, sdg, z), the Paulis, cz,
cx, swap and ccx; ``apply_gate`` takes any one of them as the one operation
``simulate`` makes of it.  ``compile_gate`` still expands every gate into
the primitive set, which has no cx or ccx (cx as h-cz-h, ccx as the
standard seven-T network of ``stabtrack``).  The gate counts in reports
count that expansion, but ``count_gates`` reads each kind's share of it
from a table, so no circuit is compiled to be counted.

Every diagram operation is a hashable ``(kind, bits, arg)`` run by one
driver function, ``_apply``, with one stack frame per level.  It moves the
operation past an edge's label, then recurses over hash-consed nodes,
memoizing each node's result, down to the level of the operation's highest
bit, where one function per kind builds the result (``_AT_LEVEL``).  A
node's result never goes stale because nodes are immutable, so the
operation cache is cleared only to reclaim memory.

Single-qubit gates are one kind, ``run``: its arg is a tuple of steps, in
application order, that all act on one bit.  A step is ``("diag", p)``,
which multiplies the bit's |1> branch by omega**p (t, tdg, s, sdg and z), or
``("h", 0)``, ``("x", 0)`` or ``("y", 0)``.  ``simulate`` applies each
maximal run of adjacent single-qubit gates on one qubit as one operation, so
the run costs one pass and one new node per level however many gates it
holds; adjacent diag steps add their octants.  With per-gate checks every
gate is its own run, so each check sees the state right after its gate.
``proj`` keeps the part of the state in which a bit reads arg, and cz, cx,
swap and ccx take arg 0.  Past a label with an X at the bit, a diagonal
phase flips to its adjoint and emits a global phase, and a projection keeps
the other value; Clifford kinds and steps conjugate the label.  ccx is not
Clifford: past a label P it leaves a Clifford behind, ccx P = P C ccx, which
the driver applies to the node's result with the Clifford kinds.  Identity
strings, which include every evdd label, commute with everything, and an
identity label whose factor is the interned ``ops.one`` passes the node's
result through unchanged.  In limdd mode Pauli gates reduce to one label
multiplication at the root, so they end a run rather than join it.
cx with the control above the target flips the target on the control's high
branch, and ccx with a control on top applies cx on that branch; with the
target above, and for swap, the branches at the upper level are regrouped
by the value of the lower bits through projections.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
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
from .stabtrack import _CCX_NETWORK, GATE_ARITY, GATE_COUNTS, BoundReport, gate_support, track


@dataclass(frozen=True)
class GateInstance:
    """One named gate on register indices (index 0 is the top qubit); a
    ``Circuit`` bounds the indices by its register."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        gate_support(self.kind, self.qubits, sys.maxsize)


PRIMITIVE_KINDS = frozenset(
    {"h", "t", "tdg", "s", "sdg", "x", "y", "z", "cz", "swap"}
)


class GateCounts(NamedTuple):
    total: int
    t_count: int
    h_count: int
    cz_count: int


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
    q = gate.qubits  # ccx, the one kind left that a GateInstance can hold
    return compile_sequence(
        GateInstance(kind, tuple(q[i] for i in idx)) for kind, idx in _CCX_NETWORK
    )


def compile_sequence(gates: Iterable[GateInstance]) -> tuple[GateInstance, ...]:
    out: list[GateInstance] = []
    for g in gates:
        out.extend(compile_gate(g))
    return tuple(out)


def count_gates(gates: Iterable[GateInstance]) -> GateCounts:
    """Counts of the compiled primitive set; compiled or raw gates give the
    same counts."""
    kinds = Counter(g.kind for g in gates)
    return GateCounts(*(sum(GATE_COUNTS[k][i] * m for k, m in kinds.items()) for i in range(4)))


# -- application internals -------------------------------------------------


def _scale_edge(store: DDStore, scalar: object, edge: Edge) -> Edge:
    if store.is_zero(edge):
        return edge
    return Edge(lim_scale(store.ops, scalar, edge.lim), edge.node)


def _apply(store: DDStore, edge: Edge, op: tuple) -> Edge:
    """The operation applied to the edge's state: moved past the edge's
    label, then applied to its node, whose result is memoized under
    ``(op, node.id)``."""
    if store.is_zero(edge):
        return edge
    lim = edge.lim
    s = lim.string
    kind, bits, arg = op
    then: Iterable[tuple] = ()
    if s.x or s.z:
        if kind == "run":
            lim, arg = _run_past_lim(store, lim, bits[0], arg)
            op = (kind, bits, arg)
        elif kind == "proj":
            arg ^= (s.x >> bits[0]) & 1
            op = (kind, bits, arg)
        elif kind == "ccx":
            lim, then = _ccx_past_lim(store, lim, bits)
        else:
            lim = conjugate_lim(store.ops, lim, kind, bits)
    node = edge.node
    key = (op, node.id)
    sub = store.op_cache.get(key)
    if sub is None:
        # The recursion descends one level at a time from above the highest
        # bit, so the first level that holds a bit holds the highest.
        if node.level - 1 in bits:
            sub = _AT_LEVEL[kind](store, node, bits, arg)
        else:
            sub = store.make_edge(_apply(store, node.low, op), _apply(store, node.high, op))
        store.op_cache[key] = sub
    for clifford in then:
        sub = _apply(store, sub, clifford)
    if store.is_zero(sub):
        return store.zero_edge(lim.string.n)
    if not (s.x or s.z) and lim.factor is store.ops.one:
        return sub
    return Edge(lim_mul(store.ops, lim, sub.lim), sub.node)


def _run_past_lim(
    store: DDStore, lim: PauliLIM, bit: int, steps: tuple
) -> tuple[PauliLIM, tuple]:
    """Move a run right past the label lim, one step at a time in application
    order: U_k..U_1 P = P' U'_k..U'_1.  Returns P' and the steps U'."""
    s = lim.string
    if not ((s.x | s.z) >> bit) & 1:
        return lim, steps
    moved = []
    for name, arg in steps:
        if name == "diag":
            scal, arg = commute_phase_past_lim(arg, bit, lim)
            if scal:
                lim = lim_scale(store.ops, store.ops.omega(scal), lim)
        else:
            lim = conjugate_lim(store.ops, lim, name, (bit,))
        moved.append((name, arg))
    return lim, tuple(moved)


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


def _apply_pauli(store: DDStore, edge: Edge, kind: str, bit: int) -> Edge:
    """x, y or z at ``bit``; in limdd mode one multiply of the root label."""
    if store.mode == "limdd":
        if store.is_zero(edge):
            return edge
        m = 1 << bit
        row = (0, 0 if kind == "z" else m, 0 if kind == "x" else m)
        return Edge(row_lim_mul(store.ops, row, edge.lim), edge.node)
    return _apply(store, edge, ("run", (bit,), (_STEP[kind],)))


def project(store: DDStore, edge: Edge, bit: int, value: int) -> Edge:
    """The part of the state in which ``bit`` reads ``value`` (unnormalized;
    a zero edge if there is none)."""
    return _apply(store, edge, ("proj", (bit,), value))


def _split(store: DDStore, edge: Edge, bit: int) -> tuple[Edge, Edge]:
    return project(store, edge, bit, 0), project(store, edge, bit, 1)


# What each operation does to a node at the level of its highest bit.  The
# two-bit kinds other than cx take their higher bit first, and ccx takes its
# higher control first.


def _run_at(store: DDStore, node, bits, steps) -> Edge:
    """The steps on the branch pair, then one new node; the 1/sqrt2 of every
    h is collected into one scale applied last."""
    ops = store.ops
    e0, e1 = node.low, node.high
    scale = None
    for name, arg in steps:
        if name == "diag":
            e1 = _scale_edge(store, ops.omega(arg), e1)
        elif name == "h":
            minus_e1 = _scale_edge(store, ops.neg(ops.one), e1)
            e0, e1 = store.add(e0, e1), store.add(e0, minus_e1)
            scale = ops.invsqrt2 if scale is None else ops.mul(scale, ops.invsqrt2)
        elif name == "x":
            e0, e1 = e1, e0
        else:  # y
            e0, e1 = (_scale_edge(store, ops.i_power(3), e1),
                      _scale_edge(store, ops.i_power(1), e0))
    res = store.make_edge(e0, e1)
    return res if scale is None else _scale_edge(store, scale, res)


def _proj_at(store: DDStore, node, bits, value: int) -> Edge:
    zero = store.zero_edge(bits[0])
    low, high = (zero, node.high) if value else (node.low, zero)
    return store.make_edge(low, high)


def _cz_at(store: DDStore, node, bits, arg) -> Edge:
    z = ("run", bits[1:], (("diag", 4),))
    return store.make_edge(node.low, _apply(store, node.high, z))


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
    "run": _run_at, "proj": _proj_at,
    "cz": _cz_at, "cx": _cx_at, "swap": _swap_at, "ccx": _ccx_at,
}

# The run step of each single-qubit gate.
_STEP = {"h": ("h", 0), "x": ("x", 0), "y": ("y", 0)}
_STEP.update((kind, ("diag", p)) for kind, p in DIAG_OCTANT.items())


def apply_gate(store: DDStore, edge: Edge, kind: str, bits: tuple[int, ...]) -> Edge:
    """Apply one gate of the set as the one operation ``_operations`` makes
    of it; ``bits`` are internal positions (top = n-1).  A gate that fails
    ``gate_support`` raises ``ValueError``: the kind must be known and take
    as many distinct integer positions in [0, n) as ``bits`` holds."""
    gate = (kind, tuple(bits))
    _, op = next(_operations((gate,), edge.lim.string.n, store.mode == "limdd", False))
    if op[0] in ("x", "y", "z"):  # limdd
        return _apply_pauli(store, edge, kind, op[1][0])
    return _apply(store, edge, op)


# -- full-circuit driver ---------------------------------------------------


def _operations(gates, n: int, limdd: bool, fuse: bool):
    """The gates, ``(kind, bits)`` pairs on internal positions that must
    pass ``gate_support``, as top-level operations ``(i, (kind, bits,
    arg))``, i being the index of the operation's last gate.  With ``fuse``,
    each maximal run of adjacent single-qubit gates on one qubit is one
    ``run`` (limdd Paulis are label multiplies and end it); adjacent diag
    steps add their octants, and a run whose steps cancel is left out.
    Otherwise every single-qubit gate is a run of its own.  The other kinds
    keep their gate name, and cz, swap and ccx take the higher of their
    first two bits first."""
    run_bit, steps, last = None, [], -1
    for i, (kind, bits) in enumerate(gates):
        gate_support(kind, bits, n)
        step = None if limdd and kind in ("x", "y", "z") else _STEP.get(kind)
        if step is not None and fuse and bits[0] == run_bit:
            if step[0] == "diag" and steps and steps[-1][0] == "diag":
                p = (steps.pop()[1] + step[1]) % 8
                if p:
                    steps.append(("diag", p))
            else:
                steps.append(step)
            last = i
            continue
        if steps:
            yield last, ("run", (run_bit,), tuple(steps))
        run_bit, steps, last = None, [], i
        if step is not None:
            run_bit, steps = bits[0], [step]
        elif kind in ("cz", "swap", "ccx"):
            yield i, (kind, (max(bits[:2]), min(bits[:2])) + bits[2:], 0)
        else:
            yield i, (kind, bits, 0)
    if steps:
        yield last, ("run", (run_bit,), tuple(steps))


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
    ops_applied: int  # top-level diagram operations, fused runs counting one


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
    one diagram operation, cx and ccx included, except that a run of
    adjacent single-qubit gates on one qubit is one operation (see
    ``_operations``); ``RunStats.ops_applied`` counts these operations, and
    ``peak_nodes`` and ``gc_runs`` see the state only between them.
    ``RunStats.counts`` counts the compiled primitive set of
    ``compile_gate`` (27 primitives per ccx).  Either check turns fusion
    off, so that it sees the state after every gate.  When ``check_bounds``
    is set, the stabilizer tableau of ``track``
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
    t_seen = ops_applied = 0
    limdd = store.mode == "limdd"
    fuse = not (check_coeffs or check_bounds)
    gates = ((g.kind, tuple(n - 1 - q for q in g.qubits)) for g in circuit.gates)
    for i, op in _operations(gates, n, limdd, fuse):
        kind, bits, _ = op
        if kind in PRIMITIVE_KINDS:  # cz, swap and the limdd Paulis
            root = apply_gate(store, root, kind, bits)
        else:
            root = _apply(store, root, op)
        ops_applied += 1
        if report is not None:
            levels = Counter(node.level for node in store.reachable([root]).values())
            width = max((m for level, m in levels.items() if level), default=0)
            nullity, local_nullity = report.per_gate[i]
            if width > 1 << (nullity if limdd else local_nullity):
                bound_ok = False
        if coeff_ok is True:  # unfused, so the operation is gate i
            t_seen += GATE_COUNTS[circuit.gates[i].kind][1]
            coeff_ok = verify_coeff_bound(store, root, n, t_seen)
        store.clear_op_caches()
        store.maybe_collect([root])
    stats = store.stats(root, n)
    counts = count_gates(circuit.gates)
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
        ops_applied=ops_applied,
    )
    return State(store, root, n), run
