"""Gate compilation, primitive application, and the circuit driver."""
from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from qddsim import (
    Circuit,
    GateInstance,
    StabilizerTableau,
    dense_simulate,
    gen_grover,
    gen_random,
    gen_wstate,
    simulate,
    track,
)
from qddsim import gates
from qddsim.coeff import ONE, ZERO, CoeffPolicy
from qddsim.ddcore import DDStore, Edge
from qddsim.gates import (
    GATE_ARITY,
    PRIMITIVE_KINDS,
    _apply,
    apply_gate,
    compile_gate,
    compile_sequence,
    count_gates,
    project,
)
from qddsim.measure import (
    collapse,
    measure_qubit,
    measurement_probability,
    sample,
    sample_counts,
)

from conftest import assert_matches_dense
from test_acceptance import _ccx_corpus


# -- gate records ----------------------------------------------------------

def test_gate_instance_validation():
    with pytest.raises(ValueError):
        GateInstance("rx", (0,))
    with pytest.raises(ValueError):
        GateInstance("h", (0, 1))
    with pytest.raises(ValueError):
        GateInstance("cx", (0,))
    with pytest.raises(ValueError):
        GateInstance("cx", (1, 1))
    with pytest.raises(ValueError):
        GateInstance("ccx", (0, 2, 2))


def test_arity_table_covers_primitives():
    assert PRIMITIVE_KINDS <= set(GATE_ARITY)
    assert GATE_ARITY["ccx"] == 3 and GATE_ARITY["cx"] == 2


# -- compilation -----------------------------------------------------------

def test_compile_primitive_passthrough():
    g = GateInstance("t", (1,))
    assert compile_gate(g) == (g,)


def test_compile_cx_is_h_cz_h():
    out = compile_gate(GateInstance("cx", (0, 2)))
    assert [g.kind for g in out] == ["h", "cz", "h"]
    assert out[0].qubits == (2,) and out[2].qubits == (2,)
    assert out[1].qubits == (0, 2)


def test_compile_ccx_counts():
    prims = compile_gate(GateInstance("ccx", (0, 1, 2)))
    assert all(g.kind in PRIMITIVE_KINDS for g in prims)
    counts = count_gates(prims)
    assert counts.total == 27
    assert counts.t_count == 7
    assert counts.h_count == 14
    assert counts.cz_count == 6


def test_compile_sequence_concatenates():
    seq = compile_sequence(
        [GateInstance("h", (0,)), GateInstance("cx", (0, 1))]
    )
    assert [g.kind for g in seq] == ["h", "h", "cz", "h"]
    assert count_gates(seq) == (4, 0, 3, 1)
    # count_gates reads each kind's share from a table; raw and compiled agree
    for kind, arity in GATE_ARITY.items():
        raw = (GateInstance(kind, tuple(range(arity))),)
        assert count_gates(raw) == count_gates(compile_sequence(raw)), kind
    for circ in _ccx_corpus():
        assert count_gates(circ.gates) == count_gates(compile_sequence(circ.gates))


# -- primitive semantics ---------------------------------------------------

def test_ccx_truth_table():
    """Target flips exactly when both controls are set; index bit n-1 is the
    top register qubit."""
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                gates = []
                if a:
                    gates.append(GateInstance("x", (0,)))
                if b:
                    gates.append(GateInstance("x", (1,)))
                if c:
                    gates.append(GateInstance("x", (2,)))
                gates.append(GateInstance("ccx", (0, 1, 2)))
                state, _ = simulate(Circuit(3, tuple(gates)))
                vec = state.to_vector()
                expect = (a << 2) | (b << 1) | (c ^ (a & b))
                assert vec[expect] == ONE
                assert all(v == ZERO for i, v in enumerate(vec) if i != expect)


ALL_KINDS = [
    ("h", (0,)), ("t", (1,)), ("tdg", (2,)), ("s", (0,)), ("sdg", (1,)),
    ("x", (2,)), ("y", (0,)), ("z", (1,)),
    ("cx", (0, 2)), ("cz", (1, 2)), ("swap", (0, 1)), ("ccx", (2, 0, 1)),
]


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
@pytest.mark.parametrize("kind,qubits", ALL_KINDS)
def test_each_gate_matches_dense(mode, kind, qubits):
    prefix = [
        GateInstance("h", (0,)), GateInstance("t", (0,)),
        GateInstance("h", (1,)), GateInstance("s", (2,)),
        GateInstance("cx", (1, 2)),
    ]
    circ = Circuit(3, tuple(prefix) + (GateInstance(kind, qubits),))
    assert_matches_dense(circ, mode)


def _random_root(store: DDStore, seed: int):
    root = store.zero_state(3)
    rng = random.Random(seed)
    for _ in range(6):
        kind = rng.choice(["h", "t", "s"])
        root = apply_gate(store, root, kind, (rng.randrange(3),))
    return root


SELF_INVERSE = [
    ("h", (0,)), ("x", (1,)), ("y", (2,)), ("z", (0,)),
    ("cx", (0, 1)), ("cz", (1, 2)), ("swap", (0, 2)), ("ccx", (0, 1, 2)),
]


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
@pytest.mark.parametrize("kind,qubits", SELF_INVERSE)
def test_self_inverse_round_trips(mode, kind, qubits):
    """Applying a self-inverse gate twice restores the node; the root label
    may differ only by a symmetry of that node, so vectors must agree."""
    store = DDStore(mode=mode)
    before = _random_root(store, seed=7)
    after = before
    for g in compile_gate(GateInstance(kind, qubits)) * 2:
        bits = tuple(3 - 1 - q for q in g.qubits)
        after = apply_gate(store, after, g.kind, bits)
    assert after.node is before.node
    assert store.to_vector(after) == store.to_vector(before)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_adjoint_pairs_cancel(mode):
    store = DDStore(mode=mode)
    before = _random_root(store, seed=11)
    for a, b in (("t", "tdg"), ("s", "sdg"), ("tdg", "t"), ("sdg", "s")):
        e = apply_gate(store, before, a, (1,))
        e = apply_gate(store, e, b, (1,))
        assert e == before


def test_phase_gate_power_identities():
    store = DDStore()
    base = _random_root(store, seed=3)
    two_t = apply_gate(store, apply_gate(store, base, "t", (1,)), "t", (1,))
    assert two_t == apply_gate(store, base, "s", (1,))
    two_s = apply_gate(store, apply_gate(store, base, "s", (2,)), "s", (2,))
    assert two_s == apply_gate(store, base, "z", (2,))
    e = base
    for _ in range(8):
        e = apply_gate(store, e, "t", (0,))
    assert e == base


MALFORMED_GATES = [
    ("rz", (0,)),  # unknown kind
    ("t", ()), ("h", (0, 1)), ("cz", (0,)), ("ccx", (0, 1)),  # wrong arity
    ("cz", (1, 1)), ("swap", (1, 1)), ("ccx", (0, 0, 1)),  # repeated bit
    ("h", (3,)), ("cx", (0, 5)), ("h", (-1,)), ("swap", (-1, 0)),  # out of range
    ("h", (0.5,)), ("h", (1.0,)), ("cz", ("1", 0)),  # not an integer
]


def test_both_apply_gate_entry_points_share_one_contract():
    """The diagram, in both modes, the tableau and a 3-qubit circuit's gates
    reject the same malformed gates, and the diagram applies cx and ccx as
    the operation ``simulate`` makes of them."""
    for kind, bits in MALFORMED_GATES:
        with pytest.raises(ValueError):
            StabilizerTableau(3).apply_gate(kind, bits)
        with pytest.raises(ValueError):  # GateInstance raises unless only the range is wrong
            Circuit(3, (GateInstance(kind, bits),))
    for mode in ("limdd", "evdd"):
        store = DDStore(mode=mode)
        root = _random_root(store, seed=5)
        for kind, bits in MALFORMED_GATES:
            with pytest.raises(ValueError):
                apply_gate(store, root, kind, bits)
        for kind in ("cx", "ccx"):
            for bits in itertools.permutations(range(3), GATE_ARITY[kind]):
                ((_, op),) = gates._operations(((kind, bits),), 3, mode == "limdd", False)
                assert apply_gate(store, root, kind, bits) == _apply(store, root, op)


# -- native cx, swap and projection ----------------------------------------

def compiled_cx_or_swap(store: DDStore, edge, kind: str, bits: tuple[int, int]):
    """Reference: cx as h-cz-h, swap as three such cx."""
    a, b = bits
    for c, t in ([(a, b)] if kind == "cx" else [(a, b), (b, a), (a, b)]):
        edge = apply_gate(store, edge, "h", (t,))
        edge = apply_gate(store, edge, "cz", (c, t))
        edge = apply_gate(store, edge, "h", (t,))
    return edge


def _entangled_states(store: DDStore, count: int, seed: int):
    """Exact states on 2-5 qubits built from h, cz and single-qubit gates
    only, so no native cx or swap goes into making them."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        circ = gen_random(
            n, rng.randint(6, 24), seed=rng.randrange(1 << 30), max_t=3,
            kinds=("h", "t", "tdg", "s", "x", "y", "z", "cz"),
        )
        root = store.zero_state(n)
        for g in circ.gates:
            root = apply_gate(store, root, g.kind, tuple(n - 1 - q for q in g.qubits))
        yield n, root


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_native_cx_and_swap_match_compiled(mode):
    store = DDStore(mode=mode)
    for n, root in _entangled_states(store, 10, seed=4411):
        for a, b in itertools.permutations(range(n), 2):
            for kind in ("cx", "swap"):
                native = apply_gate(store, root, kind, (a, b))
                ref = compiled_cx_or_swap(store, root, kind, (a, b))
                assert native.node is ref.node, (kind, a, b)
                assert store.to_vector(native) == store.to_vector(ref)
                store.check_invariants(native)


def ccx_network(store: DDStore, edge, bits: tuple[int, int, int]):
    """Reference: ccx written out as its 15 native gates (h, t, tdg, cx)."""
    for kind, idx in gates._CCX_NETWORK:
        edge = apply_gate(store, edge, kind, tuple(bits[i] for i in idx))
    return edge


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_native_ccx_matches_network(monkeypatch, mode, backend):
    """Every ordered triple on 3-5 qubits; past a label the driver leaves a
    Clifford behind, and each of its factors gets exercised in limdd."""
    real = gates._ccx_past_lim
    branches: set[str] = set()

    def spy(store, lim, bits):
        a, b, t = bits
        s = lim.string
        xa, xb, zt = (s.x >> a) & 1, (s.x >> b) & 1, (s.z >> t) & 1
        branches.update(
            name for name, hit in (("xa", xa), ("xb", xb), ("xa*xb", xa & xb), ("zt", zt))
            if hit
        )
        return real(store, lim, bits)

    monkeypatch.setattr(gates, "_ccx_past_lim", spy)
    store = DDStore(policy=CoeffPolicy(backend), mode=mode)
    triples = 0
    for n, root in _entangled_states(store, 12, seed=6607):
        for a, b, t in itertools.permutations(range(n), 3):
            triples += 1
            native = apply_gate(store, root, "ccx", (a, b, t))
            ref = ccx_network(store, root, (a, b, t))
            if backend == "exact":
                assert native.node is ref.node, (a, b, t)
                assert store.to_vector(native) == store.to_vector(ref)
                store.check_invariants(native)
            else:
                got, want = store.to_vector(native), store.to_vector(ref)
                assert max(abs(complex(u) - complex(v)) for u, v in zip(got, want)) < 1e-9
                assert (store.stats(native, n).node_count
                        <= store.stats(ref, n).node_count), (a, b, t)
    assert triples > 100
    if mode == "limdd":
        assert branches == {"xa", "xb", "xa*xb", "zt"}
    else:
        assert not branches  # evdd labels are identity strings


def _with_ccx_written_out(circ: Circuit) -> Circuit:
    out = []
    for g in circ.gates:
        if g.kind == "ccx":
            out.extend(
                GateInstance(kind, tuple(g.qubits[i] for i in idx))
                for kind, idx in gates._CCX_NETWORK
            )
        else:
            out.append(g)
    return Circuit(circ.n_qubits, tuple(out))


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
@pytest.mark.parametrize("n_search", [4, 6])
def test_grover_native_ccx_keeps_bounds_and_nodes(monkeypatch, mode, n_search):
    circ = gen_grover(n_search, 5)
    t_counts: list[int] = []
    real = gates.verify_coeff_bound

    def spy(store, root, n, t_count):
        t_counts.append(t_count)
        return real(store, root, n, t_count)

    monkeypatch.setattr(gates, "verify_coeff_bound", spy)
    state, run = simulate(circ, mode=mode, check_coeffs=True, check_bounds=True)
    assert run.coeff_check is True and run.bound_check is True
    # the coefficient bound counts each ccx as its network's 7 T gates
    want, seen = [], 0
    for g in circ.gates:
        seen += count_gates(compile_gate(g)).t_count
        want.append(seen)
    assert t_counts == want and seen == run.counts.t_count
    _, ref = simulate(_with_ccx_written_out(circ), mode=mode)
    assert run.final_nodes == ref.final_nodes
    assert run.peak_nodes <= ref.peak_nodes
    if n_search == 4:
        assert state.to_vector() == dense_simulate(circ)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_ccx_on_bottom_of_deep_register(mode):
    n = 400
    circ = Circuit(n, (
        GateInstance("x", (n - 3,)), GateInstance("x", (n - 2,)),
        GateInstance("ccx", (n - 3, n - 2, n - 1)),
        GateInstance("ccx", (n - 1, n - 2, n - 3)),
    ))
    state, _ = simulate(circ, mode=mode)
    assert state.amplitude(0b011) == ONE  # the second ccx turned q[n-3] off
    assert state.amplitude(0b111) == ZERO


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_project_matches_dense(mode):
    store = DDStore(mode=mode)
    for n, root in _entangled_states(store, 10, seed=5150):
        vec = store.to_vector(root)
        for bit, value in itertools.product(range(n), (0, 1)):
            proj = project(store, root, bit, value)
            want = [v if (i >> bit) & 1 == value else ZERO for i, v in enumerate(vec)]
            assert store.to_vector(proj) == want
            store.check_invariants(proj)


def _tracer_gate_groups() -> dict:
    """``GATE_GROUPS`` of the benchmark's tracer, read without installing it."""
    pytest.importorskip("numpy")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GATE_GROUPS


def test_only_traced_kinds_reach_apply_gate(monkeypatch):
    """``simulate`` hands ``apply_gate`` no run, cx or ccx, with or without
    per-gate checks, and measurement never calls it: the benchmark's tracer
    names each ``apply_gate`` call after its kind from ``GATE_GROUPS``."""
    groups = _tracer_gate_groups()
    real = gates.apply_gate
    seen: list[str] = []

    def spy(store, edge, kind, bits):
        seen.append(kind)
        return real(store, edge, kind, bits)

    for name, mod in list(sys.modules.items()):
        if name == "qddsim" or name.startswith("qddsim."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)
    circ = Circuit(4, tuple(GateInstance(k, q) for k, q in ALL_KINDS + [
        ("cx", (3, 1)), ("swap", (3, 0)), ("ccx", (3, 1, 2)),
    ]))
    for mode in ("limdd", "evdd"):
        simulate(circ, mode=mode, check_bounds=True)  # unfused
        for backend in ("exact", "float"):
            state, _ = simulate(circ, policy=CoeffPolicy(backend), mode=mode)
            for q in range(4):
                measurement_probability(state, q)
                sample(state, q, rng=q)
                sample_counts(state, q, shots=8, rng=q)
                if backend == "float":
                    collapse(state, q, sample(state, q, rng=q))
                    measure_qubit(state, q, rng=q)
    assert seen
    assert set(seen) <= set(groups)


# -- driver stats ----------------------------------------------------------

def test_runstats_fields_bell():
    circ = Circuit(2, (GateInstance("h", (0,)), GateInstance("cx", (0, 1))))
    state, run = simulate(circ, check_coeffs=True, check_bounds=True)
    assert run.n_qubits == 2
    assert run.counts.total == 4  # cx compiles to h cz h
    assert run.counts.t_count == 0
    assert run.final_nodes == run.node_count + 1
    assert run.peak_nodes >= run.node_count
    assert run.width_per_level == (0, 1, 1)  # level 0 is the terminal
    assert run.coeff_check is True
    assert run.bound_check is True
    assert run.gc_runs >= 0
    assert run.runtime_ms >= 0.0
    assert state.to_vector() == dense_simulate(circ)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_bound_check_holds_each_gate_to_its_mode_ceiling(monkeypatch, mode):
    """Width after each gate against 2**nullity in limdd mode and
    2**local_nullity in evdd mode, from one tableau run that RunStats keeps."""
    circ = gen_wstate(4)  # width 2 in both modes
    report = track(circ)
    _, run = simulate(circ, mode=mode, check_bounds=True)
    assert run.bound_check is True and run.bound_report == report
    own = 0 if mode == "limdd" else 1
    for tight in (0, 1):
        per_gate = tuple((0, 9) if tight == 0 else (9, 0) for _ in report.per_gate)
        monkeypatch.setattr(gates, "track", lambda c: report._replace(per_gate=per_gate))
        _, run = simulate(circ, mode=mode, check_bounds=True)
        assert run.bound_check is (tight != own)


def test_runstats_checks_default_to_none():
    circ = Circuit(1, (GateInstance("h", (0,)),))
    _, run = simulate(circ)
    assert run.coeff_check is None
    assert run.bound_check is None
    assert run.bound_report is None


def test_coeff_check_skipped_for_float_backend():
    from qddsim.coeff import CoeffPolicy

    circ = Circuit(1, (GateInstance("h", (0,)),))
    _, run = simulate(circ, policy=CoeffPolicy("float"), check_coeffs=True)
    assert run.coeff_check is None


def test_gc_kwargs_respected():
    circ = Circuit(4, tuple(
        GateInstance(k, (q,))
        for q in range(4)
        for k in ("h", "t", "h", "t", "h")
    ))
    _, run = simulate(circ, store=DDStore(gc_capacity=8))
    assert run.gc_runs >= 1
    for kwargs in ({"gc_capacity": -3}, {"gc_capacity": 0}):
        with pytest.raises(ValueError):
            simulate(circ, store=DDStore(**kwargs))


def test_simulate_rejects_settings_that_conflict_with_its_store():
    circ = gen_wstate(2)
    with pytest.raises(ValueError, match="policy"):
        simulate(circ, CoeffPolicy("float"), "evdd", store=DDStore())
    for kwargs in ({"mode": "evdd"}, {"norm_rule": "l2"}, {"policy": CoeffPolicy("float")}):
        with pytest.raises(ValueError):
            simulate(circ, store=DDStore(), **kwargs)
    float_l2 = dict(policy=CoeffPolicy("float"), mode="evdd", norm_rule="l2")
    state, _ = simulate(circ, store=DDStore(**float_l2), **float_l2)
    assert state.store.norm_rule == "l2"
    state, _ = simulate(circ, CoeffPolicy(), "limdd", "low", store=DDStore())
    assert state.to_vector() == dense_simulate(circ)
    state, _ = simulate(circ, mode="evdd")
    assert (state.store.mode, state.store.norm_rule) == ("evdd", "low")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_identity_label_passes_the_node_result_through(mode, backend):
    store = DDStore(CoeffPolicy(backend), mode)
    state, _ = simulate(gen_random(4, 30, seed=8, max_t=4), store=store)
    nodes = [v for v in store.reachable([state.root]).values() if v.level > 1]
    assert nodes
    for node in nodes:
        edge = Edge(store.identity_lim(node.level), node)
        for op in (
            ("run", (0,), (("h", 0),)),
            ("run", (node.level - 1,), (("diag", 1), ("h", 0), ("y", 0))),
            ("cz", (1, 0), 0),
        ):
            assert _apply(store, edge, op) is store.op_cache[(op, node.id)]


# Calls during exact-LIMDD simulate(gen_wstate(8)) before the fast paths for
# stored children, identity labels, unit ring operands and the per-pair joint
# basis went in: 1057, 216 and 313; before runs of single-qubit gates were
# fused: 193, 158 and 117.
WSTATE8_CALL_CEILINGS = {"mul": 174, "labels": 97, "joint": 70}


def _call_counter(counts: dict):
    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    return counted


def test_wstate8_call_counts_stay_at_their_ceilings(monkeypatch):
    """A lost fast path shows here as more ring multiplies, label
    canonicalizations or joint bases."""
    from qddsim import coeff, ddcore

    counts = dict.fromkeys(WSTATE8_CALL_CEILINGS, 0)
    counted = _call_counter(counts)
    monkeypatch.setattr(coeff.RingValue, "__mul__", counted("mul", coeff.RingValue.__mul__))
    monkeypatch.setattr(DDStore, "_get_labels", counted("labels", DDStore._get_labels))
    monkeypatch.setattr(ddcore, "joint_echelon", counted("joint", ddcore.joint_echelon))
    state, _ = simulate(gen_wstate(8))
    assert all(counts[k] <= WSTATE8_CALL_CEILINGS[k] for k in counts), counts
    state.check()


# Python-level calls during exact-EVDD simulate(gen_wstate(8)) before unit
# tests went by identity and ring equality took its typed path: 709, 1104
# and 229.
WSTATE8_EVDD_CALL_CEILINGS = {"eq": 65, "hash": 1104, "make_node": 229}


def test_wstate8_evdd_call_counts_stay_at_their_ceilings(monkeypatch):
    """A unit test that compares by value again shows here as more ring
    equality calls; a lost table shortcut as more hashes or node builds."""
    from qddsim import coeff

    counts = dict.fromkeys(WSTATE8_EVDD_CALL_CEILINGS, 0)
    counted = _call_counter(counts)
    monkeypatch.setattr(coeff.RingValue, "__eq__", counted("eq", coeff.RingValue.__eq__))
    monkeypatch.setattr(coeff.RingValue, "__hash__", counted("hash", coeff.RingValue.__hash__))
    monkeypatch.setattr(DDStore, "_make_node", counted("make_node", DDStore._make_node))
    state, _ = simulate(gen_wstate(8), mode="evdd")
    assert all(counts[k] <= WSTATE8_EVDD_CALL_CEILINGS[k] for k in counts), counts
    state.check()


# -- runs of single-qubit gates --------------------------------------------

_STEP_CHOICES = (("diag", 1), ("diag", 6), ("h", 0), ("x", 0), ("y", 0))


def _step_matrix(ops, step):
    name, arg = step
    zero, one = ops.zero, ops.one
    if name == "diag":
        return ((one, zero), (zero, ops.omega(arg)))
    if name == "h":
        r = ops.invsqrt2
        return ((r, r), (r, ops.neg(r)))
    if name == "x":
        return ((zero, one), (one, zero))
    return ((zero, ops.i_power(3)), (ops.i_power(1), zero))  # y


def _dense_step(ops, vec, bit, step):
    m = _step_matrix(ops, step)
    out = list(vec)
    for i in range(len(vec)):
        if not (i >> bit) & 1:
            j = i | 1 << bit
            out[i] = ops.add(ops.mul(m[0][0], vec[i]), ops.mul(m[0][1], vec[j]))
            out[j] = ops.add(ops.mul(m[1][0], vec[i]), ops.mul(m[1][1], vec[j]))
    return out


def test_run_under_every_phased_pauli_label_matches_dense():
    """A run of 1-3 steps on an edge labelled c * P, for each of the 16 c in
    {1, i, -1, -i} and P in {I, X, Y, Z} at the run's bit, equals the dense
    product of its steps."""
    from qddsim.pauli import PauliLIM, PauliString

    store = DDStore()
    ops = store.ops
    node = _random_root(store, seed=5).node
    runs = [
        steps for k in (1, 2, 3) for steps in itertools.product(_STEP_CHOICES, repeat=k)
    ]
    for bit in (0, 2):
        for k, (px, pz) in itertools.product(range(4), ((0, 0), (1, 0), (1, 1), (0, 1))):
            lim = PauliLIM(ops.i_power(k), PauliString(3, px << bit, pz << bit))
            edge = Edge(lim, node)
            vec = store.to_vector(edge)
            for steps in runs:
                got = gates._apply(store, edge, ("run", (bit,), steps))
                want = vec
                for step in steps:
                    want = _dense_step(ops, want, bit, step)
                assert store.to_vector(got) == want, (bit, k, px, pz, steps)
            store.check_invariants(got)


def _run_rich_circuits(count: int, seed: int):
    """3-7 qubits, mostly runs of 1-4 single-qubit gates on one qubit, with
    a multi-qubit gate in between now and then."""
    rng = random.Random(seed)
    one_qubit = ("h", "t", "tdg", "s", "sdg", "x", "y", "z")
    for _ in range(count):
        n = rng.randint(3, 7)
        out = []
        while len(out) < 40:
            if rng.random() < 0.3:
                kind = rng.choice(("cx", "cz", "swap", "ccx"))
                qubits = tuple(rng.sample(range(n), GATE_ARITY[kind]))
                out.append(GateInstance(kind, qubits))
            else:
                q = rng.randrange(n)
                out.extend(GateInstance(rng.choice(one_qubit), (q,))
                           for _ in range(rng.randint(1, 4)))
        yield Circuit(n, tuple(out))


FUSION_CONFIGS = [
    ("limdd", "exact", "low"), ("evdd", "exact", "low"),
    ("limdd", "float", "low"), ("evdd", "float", "low"), ("evdd", "float", "l2"),
]


@pytest.mark.parametrize("mode,backend,norm_rule", FUSION_CONFIGS)
def test_fused_runs_match_per_gate_application(mode, backend, norm_rule):
    """simulate fuses runs; a per-gate check turns that off, so the checked
    run is the unfused reference."""
    fused_ops = ref_ops = 0
    for circ in _run_rich_circuits(12, seed=2718):
        kw = dict(policy=CoeffPolicy(backend), mode=mode, norm_rule=norm_rule)
        state, run = simulate(circ, **kw)
        ref_state, ref = simulate(circ, check_bounds=True, **kw)
        state.check()
        ref_state.check()
        assert run.peak_nodes <= ref.peak_nodes
        fused_ops += run.ops_applied
        ref_ops += ref.ops_applied
        assert ref.ops_applied == len(circ.gates)
        if backend == "exact":
            assert state.to_vector() == ref_state.to_vector()
            assert (run.final_nodes, run.width_per_level, run.max_coeff_bits) == (
                ref.final_nodes, ref.width_per_level, ref.max_coeff_bits)
        else:
            got, want = state.to_vector(), ref_state.to_vector()
            assert max(abs(u - v) for u, v in zip(got, want)) < 1e-12
    assert fused_ops < ref_ops


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_float_run_keeps_its_norm(mode):
    """Float LIMDD once returned the zero vector on this circuit, and float
    EVDD lost a sixth of its squared norm."""
    from qddsim.measure import squared_norm

    circ = gen_random(12, 200, 2, max_t=12)
    state, _ = simulate(circ, CoeffPolicy("float"), mode)
    exact, _ = simulate(circ, mode=mode)
    assert abs(squared_norm(state.store, state.root) - 1) < 1e-9
    got, want = state.to_vector(), exact.to_vector()
    assert max(abs(u - v.to_complex()) for u, v in zip(got, want)) < 1e-9
    state.check()
