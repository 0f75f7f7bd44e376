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
operation past an edge's label by the label rule below, then recurses over
hash-consed nodes, memoizing each node's result, down to the level of the
operation's highest bit, where one function per kind other than ``run``
builds the result (``_AT_LEVEL``).  A node's result never goes stale
because nodes are immutable.

The label rule, ``_past``, moves an operation right past a limdd label
c * P: op P = omega**phase P' K op'.  A Clifford kind or run step, the
even diag octants (s, z, sdg) among them, conjugates P and stays as it is.
Under an X at its bit an odd octant (t, tdg) flips to its adjoint and adds
its octant to the phase, and a projection keeps the other value.  ccx
leaves a Clifford K of cz and cx behind, applied to the node's result, and
puts a Pauli and a power of i into the label.  The rule spends no ring
multiply: what keeps the moved operation multiplies omega**phase into the
label once.  Identity strings, every evdd label among them, commute with
everything, and an identity label whose factor is the interned ``ops.one``
passes the node's result through unchanged.

``simulate`` hands its operations to the diagram in segments, each one
descent with one frame per level (``_apply_segment``).  At a node, the
segment's operations that act below its level pass to both children
together, so the levels above an operation's highest bit are rebuilt once
per segment, not once per operation.  At the level of an operation's
highest bit, the operations before it go to the children first, that
operation runs through ``_apply``, and the rest continue from the result
in the same frame.  A label moves through the segment's operations by the
label rule, in order; the first that it changes or that leaves a Clifford
behind runs alone through ``_apply`` between the parts around it.
Stretches of a segment are memoized per node under their places in the
segment, so the operation cache is cleared when each segment starts.
Segments double in length from one operation, and start again at one
after a collection or when the unique table has no room for about eight
more segments growing as the last one did.

Single-qubit gates are one kind, ``run``: its bits run from highest to
lowest, and its arg holds one tuple of steps per bit, in application order.
A step is ``("diag", p)``, which multiplies the bit's |1> branch by
omega**p (t, tdg, s, sdg and z), ``("h", 0)``, ``("x", 0)``, ``("y", 0)``
or ``("proj", v)``, which keeps the part of the state in which the bit
reads v (``project`` is a run of that one step).  ``simulate`` lets
single-qubit gates wait and applies all that wait as one run (see
``_operations``); in both modes a run spans any number of qubits, so a
layer of them costs one descent however many gates and qubits it holds.
Adjacent diag steps on a qubit add their octants.  At the level of its
top bit, a run applies the rest of itself to both branches and then that
bit's steps to the pair, all from the one frame of that level.  With
per-gate checks every gate is its own run and its own segment, so each
check sees the state right after its gate.  A run that the label rule
changes could become a different operation under each label, one more
descent per pattern, so a run of several bits that would change is
applied one bit at a time from that edge instead; every other run keeps
one cache entry per node whatever the labels.  cz, cx, swap and ccx take
arg 0.  In limdd mode a Pauli gate on a qubit with no waiting steps is one
label multiplication at the root, also inside a segment; on a qubit with
waiting steps it joins them.
cx with the control above the target flips the target on the control's high
branch, and ccx with a control on top applies cx on that branch.  With the
target above, and for swap, the node's branch pair goes through one
paired descent, ``DDStore.mix``, which builds both new branches at once:
cx and ccx exchange the parts of the two branches in which the controls
read 1, and swap regroups the pair by the value of its lower bit.  An h
step gives the pair's sum and difference the same way.
"""
from __future__ import annotations

import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, NamedTuple

from .coeff import within_coeff_bound
from .ddcore import DDStore, Edge, State
from .pauli import (
    DIAG_OCTANT,
    PauliLIM,
    PauliString,
    commute_phase_past_lim,
    conjugate_lim,
    lim_scale,
    row_lim_mul,
    row_mul,
)
from .stabtrack import _CCX_NETWORK, GATE_COUNTS, BoundReport, gate_support, track


@dataclass(frozen=True)
class GateInstance:
    """One named gate on register indices (index 0 is the top qubit); a
    ``Circuit`` bounds the indices by its register."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        gate_support(self.kind, self.qubits, sys.maxsize)


class GateCounts(NamedTuple):
    total: int
    t_count: int
    h_count: int
    cz_count: int


def compile_gate(gate: GateInstance) -> tuple[GateInstance, ...]:
    """Expand one gate into primitives: cx as h-cz-h, ccx as the network of
    ``stabtrack``; any other gate is its own."""
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
    return (gate,)


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


def _apply(store: DDStore, edge: Edge, op: tuple) -> Edge:
    """The operation applied to the edge's state: moved past the edge's
    label by ``_past``, then applied to its node, whose result is memoized
    under ``(op, node.id)``."""
    if store.is_zero(edge):
        return edge
    lim = edge.lim
    s = lim.string
    then = ()
    if s.x or s.z:
        lim, moved, then, phase = _past(store, lim, op)
        if moved is not op:
            if len(op[1]) > 1:  # a changed run: a new op per label pattern
                for bit, steps in zip(op[1], op[2]):
                    edge = _apply(store, edge, ("run", (bit,), (steps,)))
                return edge
            op = moved
        if phase & 7:
            lim = lim_scale(store.ops, store.ops.omega(phase), lim)
    kind, bits, arg = op
    node = edge.node
    key = (op, node.id)
    sub = store.op_cache.get(key)
    if sub is None:
        # The recursion descends one level at a time from above the highest
        # bit, so the first level that holds a bit holds the highest, which
        # a run lists first.
        level = node.level - 1
        if kind == "run" and level == bits[0]:
            # The rest of the run on both branches, from this frame so that
            # a run of many bits takes one frame per level too, then this
            # bit's steps on the pair.
            e0, e1 = node.low, node.high
            if len(bits) > 1:
                rest = (kind, bits[1:], arg[1:])
                e0, e1 = _apply(store, e0, rest), _apply(store, e1, rest)
            sub = _steps_on_pair(store, e0, e1, arg[0])
        elif kind != "run" and level in bits:
            sub = _AT_LEVEL[kind](store, node, bits, arg)
        else:
            sub = store.make_edge(_apply(store, node.low, op), _apply(store, node.high, op))
        store.op_cache[key] = sub
    for clifford in then:
        sub = _apply(store, sub, clifford)
    return store.under(lim, sub)


def _past(store: DDStore, lim: PauliLIM, op: tuple) -> tuple[PauliLIM, tuple, list, int]:
    """The label rule (see the module docstring): op lim = omega**phase
    lim' K op'.  Returns lim', op', which is op itself unless it changed,
    the operations of the Clifford K, which only a ccx leaves, and phase
    in eighth turns; spends no ring multiply.  A run's steps move one at a
    time in application order, since an h turns a Z into an X."""
    kind, bits, arg = op
    s = lim.string
    if kind == "ccx":
        # ccx(a, b, t) P = P Q K ccx, where, from P's X bits xa, xb at the
        # controls and its Z bit zt at the target, Q = (-1)**(zt xa xb)
        # Z_b**(zt xa) Z_a**(zt xb) X_t**(xa xb) and K = CZ(a, b)**zt
        # CX(b->t)**xa CX(a->t)**xb; all these factors commute.
        a, b, t = bits
        xa, xb, zt = (s.x >> a) & 1, (s.x >> b) & 1, (s.z >> t) & 1
        then = []
        if zt:
            then.append(("cz", (a, b), 0))
        if xa:
            then.append(("cx", (b, t), 0))
        if xb:
            then.append(("cx", (a, t), 0))
        phase = 0
        if zt or xa & xb:
            q = (2 * (zt & xa & xb), (xa & xb) << t, ((zt & xa) << b) | ((zt & xb) << a))
            k, x, z = row_mul((0, s.x, s.z), q)
            lim, phase = PauliLIM(lim.factor, PauliString(s.n, x, z)), 2 * k
        return lim, op, then, phase
    if kind != "run":
        return conjugate_lim(store.ops, lim, kind, bits), op, [], 0
    mask = s.x | s.z
    phase = 0
    moved = []
    for bit, steps in zip(bits, arg):
        if (mask >> bit) & 1:
            new = []
            for name, p in steps:
                if name == "diag" and p & 1:
                    scal, p = commute_phase_past_lim(p, bit, lim)
                    phase += scal
                elif name == "proj":  # P_v X = X P_(1-v); Z commutes
                    p ^= (lim.string.x >> bit) & 1
                else:
                    lim = conjugate_lim(store.ops, lim, _CLIFFORD.get((name, p), name), (bit,))
                new.append((name, p))
            steps = tuple(new)
        moved.append(steps)
    moved = tuple(moved)
    return lim, op if moved == arg else (kind, bits, moved), [], phase


def _apply_pauli(store: DDStore, edge: Edge, kind: str, bit: int) -> Edge:
    """x, y or z at ``bit``; in limdd mode one multiply of the root label."""
    if store.mode == "limdd":
        if store.is_zero(edge):
            return edge
        m = 1 << bit
        row = (0, 0 if kind == "z" else m, 0 if kind == "x" else m)
        return Edge(row_lim_mul(store.ops, row, edge.lim), edge.node)
    return _apply(store, edge, ("run", (bit,), ((_STEP[kind],),)))


def project(store: DDStore, edge: Edge, bit: int, value: int) -> Edge:
    """The part of the state in which ``bit`` reads ``value`` (unnormalized;
    a zero edge if there is none)."""
    return _apply(store, edge, ("run", (bit,), ((("proj", value),),)))


# What each operation other than a run does to a node at the level of its
# highest bit.  The two-bit kinds other than cx take their higher bit first,
# and ccx takes its higher control first.


def _steps_on_pair(store: DDStore, e0: Edge, e1: Edge, steps: tuple) -> Edge:
    """One bit's steps on the branch pair, then one new node; the 1/sqrt2 of
    every h is collected into one scale applied last."""
    ops = store.ops
    scale = None
    for name, arg in steps:
        if name == "diag":
            e1 = store.scaled(ops.omega(arg), e1)
        elif name == "h":
            e0, e1 = store.mix(e0, e1, ("h", ()))
            scale = ops.invsqrt2 if scale is None else ops.mul(scale, ops.invsqrt2)
        elif name == "x":
            e0, e1 = e1, e0
        elif name == "proj":
            zero = store.zero_edge(e0.lim.string.n)
            e0, e1 = (zero, e1) if arg else (e0, zero)
        else:  # y
            e0, e1 = store.scaled(ops.i_power(3), e1), store.scaled(ops.i_power(1), e0)
    res = store.make_edge(e0, e1)
    return res if scale is None else store.scaled(scale, res)


def _cz_at(store: DDStore, node, bits, arg) -> Edge:
    z = ("run", bits[1:], ((("diag", 4),),))
    return store.make_edge(node.low, _apply(store, node.high, z))


def _cx_at(store: DDStore, node, bits, arg) -> Edge:
    control, target = bits
    if control > target:
        return store.make_edge(node.low, _apply_pauli(store, node.high, "x", target))
    return store.make_edge(*store.mix(node.low, node.high, ("x", ((control, 1),))))


def _swap_at(store: DDStore, node, bits, arg) -> Edge:
    return store.make_edge(*store.mix(node.low, node.high, ("swap", bits[1])))


def _ccx_at(store: DDStore, node, bits, arg) -> Edge:
    a, b, t = bits
    if a > t:
        return store.make_edge(node.low, _apply(store, node.high, ("cx", (b, t), 0)))
    return store.make_edge(*store.mix(node.low, node.high, ("x", ((a, 1), (b, 1)))))


_AT_LEVEL = {"cz": _cz_at, "cx": _cx_at, "swap": _swap_at, "ccx": _ccx_at}

# The run step of each single-qubit gate, and the Clifford gate of each diag
# step of even octant (s, z, sdg).
_STEP = {"h": ("h", 0), "x": ("x", 0), "y": ("y", 0)}
_STEP.update((kind, ("diag", p)) for kind, p in DIAG_OCTANT.items())
_CLIFFORD = {_STEP[kind]: kind for kind in ("s", "z", "sdg")}
_PAULIS = ("x", "y", "z")  # the kinds of limdd Pauli operations


def apply_gate(store: DDStore, edge: Edge, kind: str, bits: tuple[int, ...]) -> Edge:
    """Apply one gate of the set as the one operation ``_operations`` makes
    of it; ``bits`` are internal positions (top = n-1).  A gate that fails
    ``gate_support`` raises ``ValueError``: the kind must be known and take
    as many distinct integer positions in [0, n) as ``bits`` holds."""
    gate = (kind, tuple(bits))
    ops = _operations((gate,), edge.lim.string.n, store.mode == "limdd")
    return _apply_segment(store, edge, tuple(ops))


# -- full-circuit driver ---------------------------------------------------


def _operations(gates, n: int, limdd: bool):
    """The gates, ``(kind, bits)`` pairs on internal positions that must
    pass ``gate_support``, as top-level operations ``(kind, bits, arg)``.

    Single-qubit gates wait, one list of steps per qubit in which adjacent
    diag steps add their octants (a qubit whose steps cancel drops out),
    and all that wait leave together as one ``run`` over their qubits, in
    both modes.  They leave before a multi-qubit gate that touches a
    waiting qubit, and at the end; a multi-qubit gate on other qubits
    commutes with them and leaves first.  The exception is a limdd Pauli
    (a label multiply) on a qubit with no waiting steps, which leaves
    first; on a waiting qubit it joins the steps.  So operations can leave
    in another order than their gates; one gate alone is one operation.
    The kinds other than ``run`` keep their gate name, and cz, swap and ccx
    take the higher of their first two bits first."""
    waiting: dict[int, list] = {}
    for kind, bits in gates:
        gate_support(kind, bits, n)
        step = _STEP.get(kind)
        if step is None or (limdd and kind in _PAULIS and bits[0] not in waiting):
            if step is None and not waiting.keys().isdisjoint(bits):
                yield _run_of(waiting)
                waiting = {}
            if kind in ("cz", "swap", "ccx"):
                bits = (max(bits[:2]), min(bits[:2])) + bits[2:]
            yield kind, bits, 0
        else:
            steps = waiting.setdefault(bits[0], [])
            if step[0] == "diag" and steps and steps[-1][0] == "diag":
                p = (steps.pop()[1] + step[1]) % 8
                if p:
                    steps.append(("diag", p))
                elif not steps:
                    del waiting[bits[0]]
            else:
                steps.append(step)
    if waiting:
        yield _run_of(waiting)


def _run_of(waiting: dict[int, list]) -> tuple:
    """One run of the waiting steps, its bits from highest to lowest."""
    bits = sorted(waiting, reverse=True)
    return ("run", tuple(bits), tuple(tuple(waiting[b]) for b in bits))


def _apply_segment(store: DDStore, root: Edge, ops: tuple) -> Edge:
    """The top-level operations ``ops`` applied to the root in order, in one
    descent with one frame per level.  ``descend(edge, i, j)`` applies
    ops[i:j], which all act at or below the edge's top bit.  It moves them
    past the edge's label in order, up to and including the first one whose
    highest bit is that top bit, and memoizes what they do to the node
    under ``(i, end, node.id)``: the ones before pass to both children
    together, then that one runs through ``_apply``.  The rest continue
    from the result in a loop in the same frame.  The label moves by
    ``_past``, which spends no multiply; the first operation that it
    changes or that leaves a Clifford behind runs alone through ``_apply``
    between the parts before and after it.  A limdd Pauli is one multiply
    of the root label between the descents of the parts around it."""
    n = root.lim.string.n
    tops = [max(bits) for _, bits, _ in ops]
    supports = [sum(1 << b for b in bits) for _, bits, _ in ops]
    at_level: list[list[int]] = [[] for _ in range(n)]
    for k, top in enumerate(tops):
        at_level[top].append(k)
    # Keys name operations by their place in the segment, so no key of an
    # earlier segment, or of a run that raised part-way, may remain.
    store.clear_op_caches()
    cache = store.op_cache
    is_zero = store.is_zero

    def descend(edge: Edge, i: int, j: int) -> Edge:
        level = edge.lim.string.n - 1
        here = at_level[level]
        while i < j and not is_zero(edge):
            p = bisect_left(here, i)
            end = here[p] + 1 if p < len(here) and here[p] < j else j
            lim = edge.lim
            s = lim.string
            if s.x or s.z:
                k = i
                while k < end:
                    if (s.x | s.z) & supports[k]:
                        past, moved, then, _ = _past(store, lim, ops[k])
                        if moved is not ops[k] or then:
                            break  # the phase is 0 until here
                        lim, s = past, past.string
                    k += 1
                if k == i:
                    edge = _apply(store, edge, ops[i])
                    i += 1
                    continue
                end = k
            node = edge.node
            key = (i, end, node.id)
            sub = cache.get(key)
            if sub is None:
                below = end - 1 if tops[end - 1] == level else end
                if below > i:
                    sub = store.make_edge(
                        descend(node.low, i, below), descend(node.high, i, below)
                    )
                else:
                    sub = Edge(store.identity_lim(level + 1), node)
                if below < end:
                    sub = _apply(store, sub, ops[below])
                cache[key] = sub
            edge = store.under(lim, sub)
            i = end
        return edge

    i = 0
    for k, (kind, bits, _) in enumerate(ops):
        if kind in _PAULIS:
            root = _apply_pauli(store, descend(root, i, k), kind, bits[0])
            i = k + 1
    return descend(root, i, len(ops))


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
    *,
    check_coeffs: bool = False,
    check_bounds: bool = False,
    store: DDStore | None = None,
) -> tuple[State, RunStats]:
    """Run a circuit from the all-zero state and report structural stats.

    ``circuit`` needs ``n_qubits`` and ``gates`` attributes.  Each gate is
    one diagram operation, cx and ccx included, except that single-qubit
    gates wait and leave together as one operation over all their qubits,
    in both modes, before the next multi-qubit gate that touches one of
    those qubits (see ``_operations``), so gates on disjoint qubits may be
    applied out of circuit order.  The operations reach the diagram in
    segments, one descent each (see ``_apply_segment``): a segment is one
    operation at first, after a collection and when the unique table has
    no room for about eight more segments growing at the last one's rate,
    and otherwise twice as long as the one before.
    ``RunStats.ops_applied`` counts the operations, and ``peak_nodes`` and
    ``gc_runs`` see the state only between segments.
    ``RunStats.counts`` counts the compiled primitive set of
    ``compile_gate`` (27 primitives per ccx).  Either check turns fusion
    off and makes every segment one gate, so that it sees the state after
    every gate.  When ``check_bounds`` is set, the stabilizer tableau of
    ``track`` (native ccx) predicts a width ceiling for every gate and the
    diagram width is compared against it after that gate; ``check_coeffs`` (exact
    backend only) verifies the label-size bound the same way, counting a
    ccx as the 7 T gates of its network.  The run uses either a fresh
    store, built from ``policy`` and ``mode`` (limdd by default) with the
    low rule and the default collector, or the given ``store``, which then
    carries every setting: a ``policy`` or ``mode`` given with it raises
    ``ValueError``.
    """
    t0 = time.perf_counter()
    n = circuit.n_qubits
    if store is None:
        store = DDStore(policy, "limdd" if mode is None else mode)
    elif policy is not None or mode is not None:
        raise ValueError("a given store carries its own policy and mode")
    root = store.zero_state(n)
    report = track(circuit) if check_bounds else None
    coeff_ok: bool | None = True if check_coeffs and store.ops.backend == "exact" else None
    bound_ok: bool | None = True if check_bounds else None
    t_seen = ops_applied = 0
    limdd = store.mode == "limdd"
    fuse = not (check_coeffs or check_bounds)
    gates = ((g.kind, tuple(n - 1 - q for q in g.qubits)) for g in circuit.gates)
    batches = (gates,) if fuse else ((g,) for g in gates)  # checks: one gate each
    operations = chain.from_iterable(_operations(b, n, limdd) for b in batches)
    length = 1
    while segment := tuple(islice(operations, length)):
        size = len(store.unique)
        root = _apply_segment(store, root, segment)
        ops_applied += len(segment)
        i = ops_applied - 1  # with checks, the one operation is gate i
        if report is not None:
            levels = Counter(node.level for node in store.reachable([root]).values())
            width = max((m for level, m in levels.items() if level), default=0)
            nullity, local_nullity = report.per_gate[i]
            if width > 1 << (nullity if limdd else local_nullity):
                bound_ok = False
        if coeff_ok is True:
            t_seen += GATE_COUNTS[circuit.gates[i].kind][1]
            coeff_ok = verify_coeff_bound(store, root, n, t_seen)
        grown = len(store.unique) - size
        collected = store.maybe_collect([root])
        room = store.gc_capacity - 1 - len(store.unique)
        length = 2 * length if fuse and not collected and room >= 8 * grown else 1
    store.clear_op_caches()  # the last segment's memo serves no later call
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
