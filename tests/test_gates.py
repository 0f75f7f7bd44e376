"""Gate compilation, primitive application, and the circuit driver."""
from __future__ import annotations

import itertools
import random
import sys

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
from qddsim.coeff import INV_SQRT2, ONE, ZERO, CoeffPolicy, RingValue
from qddsim.ddcore import DDStore, Edge
from qddsim.gates import (
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
from qddsim.stabtrack import GATE_ARITY

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
    assert not {g.kind for g in prims} & {"cx", "ccx"}
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
                (op,) = gates._operations(((kind, bits),), 3, mode == "limdd")
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
    real = gates._past
    branches: set[str] = set()

    def spy(store, lim, op):
        kind, bits, _ = op
        if kind == "ccx":
            a, b, t = bits
            s = lim.string
            xa, xb, zt = (s.x >> a) & 1, (s.x >> b) & 1, (s.z >> t) & 1
            branches.update(
                name for name, hit in (("xa", xa), ("xb", xb), ("xa*xb", xa & xb), ("zt", zt))
                if hit
            )
        return real(store, lim, op)

    monkeypatch.setattr(gates, "_past", spy)
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


def test_only_traced_kinds_reach_apply_gate(monkeypatch):
    """``simulate``, with or without per-gate checks, and measurement hand
    ``apply_gate`` nothing: segments apply every operation, cz, swap and
    the limdd Paulis included, without it.  So no run, cx or ccx reaches
    the benchmark's tracer, which names each ``apply_gate`` call after its
    kind from ``GATE_GROUPS``."""
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
    assert not seen


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


def test_verify_coeff_bound_rejects_large_labels():
    """One qubit and no T give the bound 2**3: a root whose squared
    magnitude is past it fails the check, and so does a bulk label."""
    store = DDStore(mode="evdd")
    one = store.terminal_edge(ONE)
    small = store.make_edge(one, one)
    assert gates.verify_coeff_bound(store, small, 1, 0)
    assert not gates.verify_coeff_bound(store, store.scaled(RingValue(16), small), 1, 0)
    wide = store.make_edge(one, store.terminal_edge(RingValue(16)))
    assert wide.lim.factor == ONE and wide.node.high.lim.factor == RingValue(16)
    assert not gates.verify_coeff_bound(store, wide, 1, 0)
    assert gates.verify_coeff_bound(store, wide, 1, 2)  # 2**7 admits 16


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


def test_store_policy_must_be_a_coeff_policy():
    """A policy given by its backend name, or as anything else that is not a
    ``CoeffPolicy``, raises ``ValueError`` naming the type it needs."""
    for policy in ("exact", "float", 0):
        with pytest.raises(ValueError, match="CoeffPolicy"):
            DDStore(policy)
        with pytest.raises(ValueError, match="CoeffPolicy"):
            simulate(gen_wstate(2), policy)


def test_simulate_takes_a_store_alone():
    """A given store carries every setting, so a policy or mode given with
    it is refused, even one that matches the store's."""
    circ = gen_wstate(2)
    with pytest.raises(ValueError, match="store"):
        simulate(circ, CoeffPolicy("float"), "evdd", store=DDStore())
    for kwargs in (
        {"mode": "evdd"}, {"mode": "limdd"},
        {"policy": CoeffPolicy("float")}, {"policy": CoeffPolicy()},
    ):
        with pytest.raises(ValueError, match="store"):
            simulate(circ, store=DDStore(), **kwargs)
    with pytest.raises(TypeError):
        simulate(circ, CoeffPolicy(), "limdd", "low")  # no norm_rule parameter
    store = DDStore(CoeffPolicy("float"), "evdd", "l2")
    state, _ = simulate(circ, store=store)
    assert state.store is store
    state, _ = simulate(circ, CoeffPolicy(), "limdd")
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
            ("run", (0,), ((("h", 0),),)),
            ("run", (node.level - 1,), ((("diag", 1), ("h", 0), ("y", 0)),)),
            ("cz", (1, 0), 0),
        ):
            assert _apply(store, edge, op) is store.op_cache[(op, node.id)]


# Calls during exact-LIMDD simulate(gen_wstate(8)) before the fast paths for
# stored children, identity labels, unit ring operands and the per-pair joint
# basis went in: 1057, 216 and 313; before runs of single-qubit gates were
# fused: 193, 158 and 117.  Ring multiplies and divisions before labels
# with the identity string skipped the group work and the general label
# product and quotient, and before the equal-children scalar choice was
# memoized: 162 and 65; before the steps that mix a node's two branches
# took one paired descent without projections or extra sums: 131 and 31.
WSTATE8_CALL_CEILINGS = {"mul": 107, "div": 25, "labels": 97, "joint": 70}
# Stabilizer groups built by elimination and joint bases during exact-LIMDD
# simulate(gen_grover(3, 5)) before labels with the identity string skipped
# the group work: 23 and 22.
GROVER3_CALL_CEILINGS = {"groups": 19, "joint": 14}


def _call_counter(counts: dict):
    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    return counted


def _limdd_call_counts(monkeypatch, circuit) -> dict:
    """Calls during exact-LIMDD ``simulate(circuit)``: ring multiplies and
    divisions, label canonicalizations, stabilizer groups built by
    elimination and joint bases.  The final state is checked afterwards."""
    from qddsim import coeff, ddcore

    counts = dict.fromkeys(("mul", "div", "labels", "groups", "joint"), 0)
    counted = _call_counter(counts)
    monkeypatch.setattr(coeff.RingValue, "__mul__", counted("mul", coeff.RingValue.__mul__))
    monkeypatch.setattr(coeff.RingValue, "__truediv__",
                        counted("div", coeff.RingValue.__truediv__))
    monkeypatch.setattr(DDStore, "_get_labels", counted("labels", DDStore._get_labels))
    monkeypatch.setattr(ddcore, "echelon", counted("groups", ddcore.echelon))
    monkeypatch.setattr(ddcore, "joint_echelon", counted("joint", ddcore.joint_echelon))
    state, _ = simulate(circuit)
    out = dict(counts)
    state.check()
    return out


def test_wstate8_call_counts_stay_at_their_ceilings(monkeypatch):
    """A lost fast path shows here as more ring multiplies or divisions,
    label canonicalizations or joint bases."""
    counts = _limdd_call_counts(monkeypatch, gen_wstate(8))
    assert all(counts[k] <= v for k, v in WSTATE8_CALL_CEILINGS.items()), counts


def test_grover3_label_group_counts_stay_at_their_ceilings(monkeypatch):
    """Group work run for a label with the identity string shows here as
    more stabilizer groups or joint bases."""
    counts = _limdd_call_counts(monkeypatch, gen_grover(3, 5))
    assert all(counts[k] <= v for k, v in GROVER3_CALL_CEILINGS.items()), counts


# Python-level calls during exact-EVDD simulate(gen_wstate(8)) before unit
# tests went by identity and ring equality took its typed path: 709, 1104
# and 229; node keys built before the stored-children probe handed its key
# on to the node it misses: 354; all four before operations were applied
# in segments, one descent each: 65, 1100, 228 and 289; the last three
# before the paired descent: 946, 199 and 254.
WSTATE8_EVDD_CALL_CEILINGS = {"eq": 54, "hash": 834, "make_node": 183, "node_key": 226}


def test_wstate8_evdd_call_counts_stay_at_their_ceilings(monkeypatch):
    """A unit test that compares by value again shows here as more ring
    equality calls; a lost table shortcut as more hashes, node builds or
    node keys."""
    from qddsim import coeff

    counts = dict.fromkeys(WSTATE8_EVDD_CALL_CEILINGS, 0)
    counted = _call_counter(counts)
    monkeypatch.setattr(coeff.RingValue, "__eq__", counted("eq", coeff.RingValue.__eq__))
    monkeypatch.setattr(coeff.RingValue, "__hash__", counted("hash", coeff.RingValue.__hash__))
    monkeypatch.setattr(DDStore, "_make_node", counted("make_node", DDStore._make_node))
    monkeypatch.setattr(DDStore, "_node_key", counted("node_key", DDStore._node_key))
    state, _ = simulate(gen_wstate(8), mode="evdd")
    assert all(counts[k] <= WSTATE8_EVDD_CALL_CEILINGS[k] for k in counts), counts
    state.check()


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_pair_steps_build_no_projection_and_no_sum(monkeypatch, mode):
    """h, cx and ccx with the target above their controls, and swap, mix a
    node's two branches in one paired descent: no projected copy of either
    branch and no separate sum."""
    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(DDStore, "add", forbidden)
    monkeypatch.setattr(gates, "project", forbidden)
    g = GateInstance
    mixed = Circuit(5, (g("h", (4,)), g("h", (3,)), g("t", (3,)), g("cx", (4, 0)),
                        g("ccx", (3, 4, 1)), g("swap", (0, 3)), g("h", (2,)),
                        g("ccx", (0, 4, 2)), g("cx", (2, 1)), g("swap", (4, 1))))
    for circ in (gen_wstate(8), gen_grover(3, 5), mixed,
                 gen_random(6, 60, 4, max_t=8, kinds=("h", "t", "cx", "swap", "ccx"))):
        state, _ = simulate(circ, mode=mode)
        assert state.to_vector() == dense_simulate(circ)


# make_edge calls during exact-EVDD simulate of h, a cx ladder down 24 qubits
# and t on the bottom qubit, before operations were applied in segments: 624.
LADDER24_EVDD_MAKE_EDGE_CEILING = 175


def test_cx_ladder_segments_rebuild_no_path_per_operation(monkeypatch):
    """Each cx of the ladder used to rebuild every level above its control;
    a segment passes the cx below a node to its children together."""
    n = 24
    calls = {"make_edge": 0}
    monkeypatch.setattr(DDStore, "make_edge",
                        _call_counter(calls)("make_edge", DDStore.make_edge))
    circuit = Circuit(n, (GateInstance("h", (0,)),)
                      + tuple(GateInstance("cx", (q, q + 1)) for q in range(n - 1))
                      + (GateInstance("t", (n - 1,)),))
    state, _ = simulate(circuit, mode="evdd")
    assert calls["make_edge"] <= LADDER24_EVDD_MAKE_EDGE_CEILING, calls
    assert state.amplitude(0) == INV_SQRT2
    state.check()


# -- runs of single-qubit gates --------------------------------------------

_STEP_CHOICES = (
    ("diag", 1), ("diag", 6), ("h", 0), ("x", 0), ("y", 0), ("proj", 0), ("proj", 1),
)


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
    if name == "proj":
        return ((zero if arg else one, zero), (zero, one if arg else zero))
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
    """A run of 1-3 steps, projections among them, on an edge labelled
    c * P, for each of the 16 c in {1, i, -1, -i} and P in {I, X, Y, Z} at
    the run's bit, equals the dense product of its steps, and so does a run
    over bits 2 and 0 under c times any Pauli at each, applied as one run
    and as a segment of one-bit runs."""
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
                got = gates._apply(store, edge, ("run", (bit,), (steps,)))
                want = vec
                for step in steps:
                    want = _dense_step(ops, want, bit, step)
                assert store.to_vector(got) == want, (bit, k, px, pz, steps)
            store.check_invariants(got)
    rng = random.Random(5)
    paulis = ((0, 0), (1, 0), (1, 1), (0, 1))
    for k, (x2, z2), (x0, z0) in itertools.product(range(4), paulis, paulis):
        lim = PauliLIM(ops.i_power(k), PauliString(3, x2 << 2 | x0, z2 << 2 | z0))
        edge = Edge(lim, node)
        vec = store.to_vector(edge)
        for _ in range(4):
            arg = tuple(tuple(rng.choices(_STEP_CHOICES, k=rng.randint(1, 3))) for _ in "ab")
            got = gates._apply(store, edge, ("run", (2, 0), arg))
            want = vec
            for bit, steps in zip((2, 0), arg):
                for step in steps:
                    want = _dense_step(ops, want, bit, step)
            assert store.to_vector(got) == want, (k, x2, z2, x0, z0, arg)
            store.check_invariants(got)
            # The same steps as a segment of one-bit runs, the lower bit's
            # first and last, so a label that changes one splits it there.
            seg = (("run", (0,), (arg[1],)), ("run", (2,), (arg[0],)),
                   ("run", (0,), (arg[1],)))
            got = gates._apply_segment(store, edge, seg)
            want = vec
            for bit, steps in ((0, arg[1]), (2, arg[0]), (0, arg[1])):
                for step in steps:
                    want = _dense_step(ops, want, bit, step)
            assert store.to_vector(got) == want, (k, x2, z2, x0, z0, arg)
            store.check_invariants(got)


def _past_cases():
    """Every run step on each of 3 bits, runs of two steps that an h links,
    one run over all three bits, and cz, cx, swap and ccx in every bit
    order."""
    steps = [gates._STEP[kind] for kind in ("h", "s", "sdg", "x", "y", "z", "t", "tdg")]
    steps += [("proj", 0), ("proj", 1)]
    for bit in range(3):
        yield from (("run", (bit,), ((step,),)) for step in steps)
    for step in (("h", 0), ("diag", 1), ("proj", 1)):
        yield ("run", (1,), ((("h", 0), step),))
        yield ("run", (1,), ((step, ("h", 0)),))
    yield ("run", (2, 1, 0), ((("diag", 1),), (("h", 0), ("diag", 7)), (("proj", 0),)))
    for kind in ("cz", "cx", "swap", "ccx"):
        size = 3 if kind == "ccx" else 2
        yield from ((kind, bits, 0) for bits in itertools.permutations(range(3), size))


def _past_labels(ops):
    """i**k * P for every k in 0..3 and every P in {I, X, Y, Z}**3."""
    from qddsim.pauli import PauliLIM, PauliString

    for k, x, z in itertools.product(range(4), range(8), range(8)):
        yield PauliLIM(ops.i_power(k), PauliString(3, x, z))


def _basis_image(ops, op, i: int) -> dict:
    """The operation, or a label, applied to the basis state |i>, as a
    sparse vector {index: amplitude}; bit b of an index is position b."""
    from qddsim.pauli import PauliLIM

    if isinstance(op, PauliLIM):  # c * i**(x & z) X**x Z**z, since Y = iXZ
        s = op.string
        k = (s.x & s.z).bit_count() + 2 * (s.z & i).bit_count()
        return {i ^ s.x: ops.mul(op.factor, ops.i_power(k))}
    kind, bits, arg = op
    out = {i: ops.one}
    if kind == "run":
        for bit, steps in zip(bits, arg):
            for step in steps:
                m = _step_matrix(ops, step)
                new: dict = {}
                for j, c in out.items():
                    v = (j >> bit) & 1
                    for w in (0, 1):
                        if not ops.is_zero(m[w][v]):
                            u = j ^ ((v ^ w) << bit)
                            new[u] = ops.add(new.get(u, ops.zero), ops.mul(m[w][v], c))
                out = new
        return out
    on = [(i >> b) & 1 for b in bits]
    if kind == "cz":
        return {i: ops.neg(ops.one) if on[0] & on[1] else ops.one}
    if kind == "swap":
        a, b = bits
        return {i ^ ((on[0] ^ on[1]) * ((1 << a) | (1 << b))): ops.one}
    return {i ^ (all(on[:-1]) << bits[-1]): ops.one}  # cx, ccx


def _dense_product(ops, factors, i: int) -> dict:
    """The product of the factors, applied rightmost first, on |i>."""
    vec = {i: ops.one}
    for factor in reversed(factors):
        new: dict = {}
        for j, c in vec.items():
            for u, d in _basis_image(ops, factor, j).items():
                new[u] = ops.add(new.get(u, ops.zero), ops.mul(c, d))
        vec = new
    return {j: c for j, c in vec.items() if not ops.is_zero(c)}


def test_past_obeys_the_label_rule():
    """For every operation of ``_past_cases`` under every label of
    ``_past_labels``, ``_past`` returns (lim', op', K, phase) with op lim =
    omega**phase lim' K op' as dense 8x8 matrices, K applied after op', and
    op' is op itself unless it differs from op."""
    from qddsim.pauli import lim_scale

    store = DDStore()
    ops = store.ops
    seen = set()
    for op in _past_cases():
        for lim in _past_labels(ops):
            moved_lim, moved, then, phase = gates._past(store, lim, op)
            assert moved is op or moved != op
            right = [lim_scale(ops, ops.omega(phase), moved_lim), *reversed(then), moved]
            for i in range(8):
                assert (_dense_product(ops, [op, lim], i)
                        == _dense_product(ops, right, i)), (op, lim, i)
            seen.add((op[0], moved is op, bool(then), phase % 8))
    assert ("run", False, False, 1) in seen and ("run", False, False, 0) in seen
    assert ("ccx", True, True, 2) in seen and ("ccx", True, True, 0) in seen


def test_past_spends_no_ring_multiply(monkeypatch):
    from qddsim import coeff

    calls = []
    real = coeff.RingValue.__mul__
    monkeypatch.setattr(coeff.RingValue, "__mul__", lambda x, y: calls.append(1) or real(x, y))
    store = DDStore()
    labels = list(_past_labels(store.ops))
    for op in _past_cases():
        for lim in labels:
            gates._past(store, lim, op)
    assert not calls


def _close(ops, got, want) -> bool:
    """An exact vector equals the wanted one; a float one is within 1e-9 of
    it, whose entries may be ring values."""
    if ops.backend == "exact":
        return got == want
    want = [v if isinstance(v, complex) else v.to_complex() for v in want]
    return max(abs(u - v) for u, v in zip(got, want)) < 1e-9


def _on_low_branch(n: int, k: int, x: int, z: int) -> tuple:
    """Gates that apply i**k * P(x, z), P on bits below the top, where the
    top qubit reads 0: Z before X at each bit, as Y = iXZ."""
    g = GateInstance
    bits = range(n - 1)
    return ((g("x", (0,)),)
            + tuple(g("cz", (0, n - 1 - b)) for b in bits if (z >> b) & 1)
            + tuple(g("cx", (0, n - 1 - b)) for b in bits if (x >> b) & 1)
            + (g("s", (0,)),) * ((k + (x & z).bit_count()) % 4)
            + (g("x", (0,)),))


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_pair_steps_under_every_phased_pauli_label_match_dense(mode, backend):
    """``DDStore.mix`` on a branch pair whose first branch carries c * P,
    for every c in {1, i, -1, -i} and, in limdd, every Pauli string P,
    X and Y on a control or on lo among them: h, cx with the target on top
    and the control at every lower bit, swap of the top with every lower
    bit and ccx with both controls below.  Then every cx, swap and ccx
    through the gate driver, ccx with one control above the target among
    them."""
    from qddsim.pauli import PauliLIM, PauliString, lim_mul

    n = 4
    store = DDStore(CoeffPolicy(backend), mode)
    ops = store.ops
    # Branches on two distinct nodes, of widths 2 and 1 in limdd.
    prep = gen_random(n, 40, seed=15, max_t=10).gates
    root, _ = simulate(Circuit(n, prep), store=store)
    e0, e1 = store.follow(root.root, 0), store.follow(root.root, 1)
    assert not (store.is_zero(e0) or store.is_zero(e1)) and e0.node is not e1.node
    below = range(n - 1)
    steps = [(("h", ()), ("h", (0,)))]
    steps += [(("x", ((c, 1),)), ("cx", (n - 1 - c, 0))) for c in below]
    steps += [(("swap", lo), ("swap", (0, n - 1 - lo))) for lo in below]
    steps += [(("x", ((a, 1), (b, 1))), ("ccx", (n - 1 - a, n - 1 - b, 0)))
              for a, b in itertools.combinations(reversed(below), 2)]
    strings = range(1 << (n - 1)) if mode == "limdd" else (0,)
    for k, x, z in itertools.product(range(4), strings, strings):
        lim = PauliLIM(ops.i_power(k), PauliString(n - 1, x, z))
        first = Edge(lim_mul(ops, lim, e0.lim), e0.node)
        labelled = prep + _on_low_branch(n, k, x, z)
        assert _close(ops, store.to_vector(store.make_edge(first, e1)),
                      dense_simulate(Circuit(n, labelled)))
        for step, (kind, qubits) in steps:
            got = store.make_edge(*store.mix(first, e1, step))
            if kind == "h":
                got = store.scaled(ops.invsqrt2, got)
            want = dense_simulate(Circuit(n, labelled + (GateInstance(kind, qubits),)))
            assert _close(ops, store.to_vector(got), want), (k, x, z, step)
            store.check_invariants(got)
        # Two multiples of one node, so the pair's relative label may be a
        # scalar.
        u, v = store.to_vector(first), store.to_vector(e0)
        r0, r1 = store.mix(first, e0, ("h", ()))
        assert _close(ops, store.to_vector(r0), [ops.add(a, b) for a, b in zip(u, v)])
        assert _close(ops, store.to_vector(r1), [ops.sub(a, b) for a, b in zip(u, v)])
    for kind in ("cx", "swap", "ccx"):
        for qubits in itertools.permutations(range(n), GATE_ARITY[kind]):
            bits = tuple(n - 1 - q for q in qubits)
            got = apply_gate(store, root.root, kind, bits)
            want = dense_simulate(Circuit(n, prep + (GateInstance(kind, qubits),)))
            assert _close(ops, store.to_vector(got), want), (kind, qubits)
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


def _layered_circuits(count: int, seed: int):
    """4-7 qubits in layers.  Each layer puts 1-3 single-qubit gates, Paulis
    among them, on each of 3 or more qubits, then a Pauli on an idle qubit
    when there is one, a multi-qubit gate that misses the layer's qubits
    when it can (about half the time), and one more gate on each of two
    layer qubits, which then straddle that gate.  The third layer is
    followed by a cx ladder down or up the whole register."""
    rng = random.Random(seed)
    one_qubit = ("h", "t", "tdg", "s", "sdg", "x", "y", "z")
    for _ in range(count):
        n = rng.randint(4, 7)
        out = []
        for layer_index in range(6):
            layer = rng.sample(range(n), rng.randint(3, n))
            idle = [q for q in range(n) if q not in layer]
            for q in layer:
                out.extend(GateInstance(rng.choice(one_qubit), (q,))
                           for _ in range(rng.randint(1, 3)))
            if idle:
                out.append(GateInstance(rng.choice(("x", "y", "z")), (rng.choice(idle),)))
            kind = rng.choice(("cx", "cz", "swap", "ccx"))
            pool = idle if len(idle) >= GATE_ARITY[kind] and rng.random() < 0.5 else range(n)
            out.append(GateInstance(kind, tuple(rng.sample(pool, GATE_ARITY[kind]))))
            out.extend(GateInstance(rng.choice(one_qubit), (q,)) for q in layer[:2])
            if layer_index == 2:
                order = list(range(n))[::rng.choice((1, -1))]
                out.extend(GateInstance("cx", pair) for pair in zip(order, order[1:]))
        yield Circuit(n, tuple(out))


@pytest.mark.parametrize("mode,backend,norm_rule", FUSION_CONFIGS)
def test_fused_runs_match_per_gate_application(mode, backend, norm_rule):
    """simulate fuses single-qubit gates and applies the operations in
    segments; a per-gate check turns both off, so the checked run is the
    one-gate reference.  The layered circuits add layers over several
    qubits, limdd Paulis inside runs and on idle qubits (so inside
    segments), runs that let a multi-qubit gate on other qubits pass, and
    cx ladders; t gates and ccx meet limdd labels that change them inside
    segments in both sets.  Since a run spans a layer, the layered
    circuits' runs must at least halve the operations."""
    for circuits, ratio in (
        (_run_rich_circuits(12, seed=2718), 1), (_layered_circuits(10, seed=1618), 2),
    ):
        fused_ops = ref_ops = 0
        for circ in circuits:
            settings = (CoeffPolicy(backend), mode, norm_rule)
            state, run = simulate(circ, store=DDStore(*settings))
            ref_state, ref = simulate(circ, check_bounds=True, store=DDStore(*settings))
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
        assert ratio * fused_ops < ref_ops


@pytest.mark.xfail(strict=True, reason="limdd orders children by node id, a store's "
                   "creation order, so two stores can label one state differently")
def test_limdd_coefficient_bits_do_not_depend_on_the_store():
    """One state built in two fresh stores, in segments and gate by gate:
    the nodes per level agree, but make_edge orders a node's children by
    node id, so the two stores create the level-2 nodes in another order,
    label the level-3 node with omega and its conjugate, and the root with
    1/2 and X omega/2, whose sizes are 2 and 3 bits."""
    circ = gen_random(3, 11, 363, kinds=("h", "t", "s", "x", "cx", "ccx", "cz"))
    state, run = simulate(circ, store=DDStore(mode="limdd"))
    ref_state, ref = simulate(circ, check_bounds=True, store=DDStore(mode="limdd"))
    assert state.to_vector() == ref_state.to_vector()
    assert run.width_per_level == ref.width_per_level
    assert run.max_coeff_bits == ref.max_coeff_bits


# Operations of simulate.  A limdd run spans a layer as an evdd run does, but
# limdd Paulis on idle qubits stay label multiplies of their own.
OPS_CEILINGS = {
    ("limdd", "grover"): 25, ("evdd", "grover"): 17,
    ("limdd", "random"): 55, ("evdd", "random"): 34,
}


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_single_qubit_layers_are_one_operation(mode):
    circuits = {"grover": gen_grover(3, 5), "random": gen_random(8, 80, 2, max_t=6)}
    for name, circ in circuits.items():
        _, run = simulate(circ, mode=mode)
        assert run.ops_applied <= OPS_CEILINGS[mode, name], name
    n = 12
    layer = Circuit(n, tuple(GateInstance("h", (q,)) for q in range(n)))
    state, run = simulate(layer, mode=mode)
    assert run.ops_applied == 1
    assert state.to_vector() == dense_simulate(layer)


def test_limdd_runs_do_not_multiply_descents():
    """h on the lower half, cx from each lower qubit to its partner in the
    upper half, then s, or t, on every qubit: a state of width 1 whose
    node at the middle level is reached under 2**m labels.  The s layer is
    one run that conjugates each label and stays one operation, so each
    node is descended once.  The t layer meets an X in those labels and
    would become 2**m different runs; it falls back to one bit at a time
    from each such edge, which keeps the descents of the per-gate runs."""
    m = 16
    n = 2 * m

    def descents(layer, **checks):
        circuit = Circuit(n, tuple(
            [GateInstance("h", (q,)) for q in range(m)]
            + [GateInstance("cx", (q, m + q)) for q in range(m)]
            + [GateInstance(layer, (q,)) for q in range(n)]
        ))
        store = DDStore(mode="limdd")
        total = 0
        clear = store.clear_op_caches

        def counting_clear():
            nonlocal total
            total += len(store.op_cache)
            clear()

        store.clear_op_caches = counting_clear
        _, run = simulate(circuit, store=store, **checks)
        assert max(run.width_per_level) == 1
        return total

    for layer in ("s", "t"):
        assert descents(layer) <= descents(layer, check_bounds=True), layer


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_float_run_keeps_its_norm(mode):
    """Float LIMDD once returned the zero vector on the first circuit, and
    float EVDD lost a sixth of its squared norm there.  On the other two,
    float EVDD's low rule divided by a low weight that was rounding noise
    and kept 0.795 and 0.523 of the squared norm."""
    from qddsim.measure import squared_norm

    for circ in (
        gen_random(12, 200, 2, max_t=12),
        gen_random(10, 200, 2, max_t=12),
        gen_random(12, 300, 0, max_t=14),
    ):
        state, _ = simulate(circ, CoeffPolicy("float"), mode)
        exact, _ = simulate(circ, mode=mode)
        assert abs(squared_norm(state.store, state.root) - 1) < 1e-9
        got, want = state.to_vector(), exact.to_vector()
        assert max(abs(u - v.to_complex()) for u, v in zip(got, want)) < 1e-9
        state.check()
