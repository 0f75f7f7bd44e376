"""Diagram store: canonical node construction, stabilizer groups, addition,
traversal and garbage collection."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qddsim import (
    Circuit,
    GateInstance,
    dense_simulate,
    gen_grover,
    gen_random,
    gen_wstate,
    simulate,
)
from qddsim.coeff import (
    EXACT_OPS,
    I_UNIT,
    MINUS_ONE,
    OMEGA,
    ONE,
    SQRT2,
    ZERO,
    CoeffPolicy,
    RingValue,
    omega_power,
)
from qddsim.ddcore import DDStore, DiagramError, Edge
from qddsim.gates import _apply
from qddsim.pauli import PauliLIM, PauliString, joint_echelon, lim_mul, string_key

from conftest import random_corpus


def fresh(mode="limdd", **kw) -> DDStore:
    return DDStore(mode=mode, **kw)


def edge_vec(store: DDStore, edge: Edge) -> list:
    return store.to_vector(edge)


# -- store construction validation --------------------------------------------

def test_store_validation():
    with pytest.raises(ValueError):
        DDStore(mode="qmdd")
    with pytest.raises(ValueError):
        DDStore(norm_rule="l1")
    with pytest.raises(ValueError):
        DDStore(mode="evdd", norm_rule="l2")  # l2 needs the float backend
    with pytest.raises(ValueError):
        DDStore(mode="limdd", norm_rule="l2", policy=CoeffPolicy("float", 1e-12))
    DDStore(mode="evdd", norm_rule="l2", policy=CoeffPolicy("float", 1e-12))
    # settings under which maybe_collect would double the capacity forever
    for kwargs in ({"gc_capacity": 0}, {"gc_capacity": -3}):
        with pytest.raises(ValueError):
            DDStore(**kwargs)
    DDStore(gc_capacity=1)


def test_zero_state_tower():
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        root = store.zero_state(3)
        vec = edge_vec(store, root)
        assert vec[0] == ONE and all(v == ZERO for v in vec[1:])
        stats = store.stats(root, 3)
        assert stats.node_count == 3
        assert stats.width_per_level[1:] == (1, 1, 1)


# -- make_edge pinned cases ----------------------------------------------------

def test_make_edge_uniform_pair():
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        e = store.make_edge(store.terminal_edge(ONE), store.terminal_edge(ONE))
        assert e.lim.factor == ONE
        assert e.lim.string.is_identity()
        node = e.node
        assert node.low.lim.factor == ONE and node.high.lim.factor == ONE
        assert edge_vec(store, e) == [ONE, ONE]


def test_make_edge_zero_high():
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        e = store.make_edge(store.terminal_edge(ONE), store.zero_edge(0))
        node = e.node
        assert e.lim.factor == ONE and e.lim.string.is_identity()
        assert node.high == store.zero_edge(0)
        assert edge_vec(store, e) == [ONE, ZERO]


def test_make_edge_zero_low_redirect():
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        e = store.make_edge(store.zero_edge(0), store.terminal_edge(RingValue(2)))
        assert edge_vec(store, e) == [ZERO, RingValue(2)]


def test_make_edge_both_zero_gives_zero_edge():
    for mode, backend in itertools.product(("limdd", "evdd"), ("exact", "float")):
        store = fresh(mode, policy=CoeffPolicy(backend))
        for m in range(3):
            z = store.make_edge(store.zero_edge(m), store.zero_edge(m))
            assert z == store.zero_edge(m + 1), (mode, backend, m)


def test_make_edge_evdd_low_factoring():
    store = fresh("evdd")
    e = store.make_edge(
        store.terminal_edge(RingValue(2)), store.terminal_edge(RingValue(-2))
    )
    assert e.lim.factor == RingValue(2)
    assert e.node.low.lim.factor == ONE
    assert e.node.high.lim.factor == MINUS_ONE
    assert edge_vec(store, e) == [RingValue(2), RingValue(-2)]



@pytest.mark.parametrize("rule", ["low", "l2"])
def test_float_evdd_weight_read_as_zero_drops_its_branch(rule):
    """A normalized weight below the tolerance, from weights that are not,
    gives the zero child on the terminal, as a zero weight would."""
    store = fresh("evdd", policy=CoeffPolicy("float", 1e-14), norm_rule=rule)
    one = store.terminal_edge(1 + 0j)
    v0 = store.make_edge(one, store.terminal_edge(0.5 + 0j)).node
    v1 = store.make_edge(one, store.terminal_edge(-1 + 0j)).node

    def weighted(w: complex, node) -> Edge:
        return Edge(PauliLIM(w, PauliString(1, 0, 0)), node)

    big, tiny = 1e3 + 0j, 1e-12 + 0j
    cases = [(weighted(big, v0), weighted(tiny, v1), 0)]
    if rule == "l2":  # the low weight normalizes by the same norm
        cases.append((weighted(tiny, v0), weighted(big, v1), 1))
    for low, high, kept in cases:
        e = store.make_edge(low, high)
        store.check_invariants(e)
        dropped = e.node.high if kept == 0 else e.node.low
        assert dropped == store.zero_edge(1)
        want = (low, high)[kept]
        assert e.lim == PauliLIM(want.lim.factor, PauliString(2, 0, 0))
        assert (e.node.low, e.node.high)[kept] == Edge(store.identity_lim(1), want.node)


FAST_PATH_CONFIGS = [
    ("limdd", "exact"), ("evdd", "exact"), ("limdd", "float"), ("evdd", "float"),
]


def _seeded_states(mode: str, backend: str, norm_rule: str = "low"):
    rng = random.Random(2027)
    for _ in range(24):
        store = DDStore(CoeffPolicy(backend), mode, norm_rule)
        circ = gen_random(rng.randint(2, 6), rng.randint(5, 40),
                          seed=rng.randrange(1 << 30), max_t=4)
        state, _ = simulate(circ, store=store)
        yield store, state.root


@pytest.mark.parametrize("mode,backend", FAST_PATH_CONFIGS)
def test_stored_children_give_their_node_without_canonicalizing(monkeypatch, mode, backend):
    states = list(_seeded_states(mode, backend))
    slow = []
    for name in ("_get_labels", "_make_node", "_make_edge_evdd"):
        monkeypatch.setattr(DDStore, name, lambda *a, name=name: slow.append(name))
    checked = 0
    for store, root in states:
        for node in store.reachable([root]).values():
            # an evdd node with a zero low child goes the ordinary way
            if node.level and not store.is_zero(node.low):
                edge = store.make_edge(node.low, node.high)
                assert edge.node is node
                assert edge.lim is store.identity_lim(node.level)
                checked += 1
    assert checked > 50 and slow == []


def test_stored_children_under_l2_give_their_node_within_tolerance():
    """The l2 rule stores a low weight other than one, so its children go
    the slow way; they still come back to their node."""
    for store, root in _seeded_states("evdd", "float", "l2"):
        ops = store.ops
        for node in store.reachable([root]).values():
            if node.level:
                edge = store.make_edge(node.low, node.high)
                assert edge.node is node
                assert edge.lim.string.is_identity() and ops.eq(edge.lim.factor, ops.one)


def test_identity_factors_are_the_backend_one():
    for backend in ("exact", "float"):
        store = fresh(policy=CoeffPolicy(backend))
        for n in range(4):
            assert store.identity_lim(n) is store.identity_lim(n)
            assert store.identity_lim(n).factor is store.ops.one
            assert store.zero_edge(n) is store.zero_edge(n)


@pytest.mark.parametrize("backend,tol", [("exact", None), ("float", 0.0), ("float", 1e-14)])
def test_edge_zero_test_is_the_backend_zero_test(backend, tol):
    """``store.is_zero`` answers as the backend's test of the edge's factor,
    at and around the tolerance, for ring zeros built by arithmetic and for
    terminal edges."""
    store = fresh(mode="evdd", policy=CoeffPolicy(backend, tol))
    ops = store.ops
    if backend == "exact":
        x = RingValue(F(3, 7), 1, F(-2, 5), 4)
        zeros = [x - x, ONE - ONE, x * (I_UNIT - I_UNIT), ZERO]
        assert all(z == ZERO for z in zeros) and zeros[0] is not ZERO
        factors = zeros + [x, ONE, MINUS_ONE, RingValue(0, 0, 0, F(1, 1 << 40))]
        want = [True] * len(zeros) + [False] * 4
    else:
        t = ops.tolerance
        factors = [0j, complex(-0.0, -0.0), (1 + 2j) - (1 + 2j),
                   complex(t / 2), complex(-t / 2), complex(0, t / 2), complex(t), complex(0, -t),
                   complex(5e-324), complex(2 * t), complex(0, -2 * t), 1 + 0j]
        # 5e-324 is the least positive double
        want = [True] * 8 + [t > 0, t == 0, t == 0, False]
    node = store.zero_state(2).node
    for f, expected in zip(factors, want):
        assert ops.is_zero(f) == expected, f
        if backend == "exact":
            assert ops.is_zero(f) == f.is_zero() == (not f)
        for edge in (store.terminal_edge(f), Edge(PauliLIM(f, PauliString(2, 0, 0)), node)):
            assert store.is_zero(edge) == ops.is_zero(edge.lim.factor), f


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_unit_equal_to_one_but_not_interned_gives_the_same_result(mode):
    """Unit tests go by identity with ``ops.one``; a ring value equal to one
    that is another object takes the general path to the same edges."""
    store = fresh(mode=mode)
    one_copy = RingValue(1)
    assert one_copy == ONE and one_copy is not ONE
    root = simulate(gen_random(4, 30, seed=3, max_t=3), store=store)[0].root
    checked = 0
    for node in store.reachable([root]).values():
        if node.level < 2 or store.is_zero(node.low):
            continue
        checked += 1
        low = node.low
        copy = Edge(PauliLIM(one_copy, low.lim.string), low.node)
        assert store.make_edge(copy, node.high) == store.make_edge(low, node.high)
        op = ("run", (node.level - 2,), (("h", 0),))
        assert _apply(store, copy, op) == _apply(store, low, op)
    assert checked >= 3


def _trivial_group_node(store: DDStore, scale: int) -> Edge:
    """Single-qubit node reached from |0> + scale*omega|1>; its Pauli
    stabilizer group is trivial, and distinct scales intern distinct nodes
    (canonicalization folds phases, but not magnitudes, into the root)."""
    return store.make_edge(
        store.terminal_edge(ONE), store.terminal_edge(RingValue(scale) * OMEGA)
    )


def test_get_labels_trivial_groups_positive_real():
    store = fresh("limdd")
    e0 = _trivial_group_node(store, 1)  # node for (1, w)
    e1 = _trivial_group_node(store, 3)  # node for (1, w^7/3)
    assert e0.node is not e1.node
    lam = RingValue(3)
    e = store.make_edge(e0, Edge(PauliLIM(lam, PauliString(1, 0, 0)), e1.node))
    assert e.lim.factor == ONE and e.lim.string.is_identity()
    assert e.node.high.lim.factor == lam
    assert e.node.high.node is e1.node
    third = RingValue(F(1, 3))
    assert edge_vec(store, e) == [
        ONE, OMEGA, RingValue(3), RingValue(3) * third * omega_power(7)
    ]


def test_get_labels_sign_flip_moves_to_root_z():
    store = fresh("limdd")
    e0 = _trivial_group_node(store, 1)
    e1 = _trivial_group_node(store, 3)
    e = store.make_edge(
        e0, Edge(PauliLIM(MINUS_ONE, PauliString(1, 0, 0)), e1.node)
    )
    assert e.node.high.lim.factor == ONE
    assert e.lim.factor == ONE
    assert e.lim.string.code_at(1) == 3  # Z on the top qubit
    third = RingValue(F(1, 3))
    assert edge_vec(store, e) == [ONE, OMEGA, -ONE, -(third * omega_power(7))]


def test_get_labels_same_child_picks_inverse_scalar():
    store = fresh("limdd")
    e0 = _trivial_group_node(store, 1)
    lam = RingValue(2)
    e = store.make_edge(e0, Edge(PauliLIM(lam, PauliString(1, 0, 0)), e0.node))
    assert e.node.high.lim.factor == RingValue(F(1, 2))
    assert e.node.high.node is e0.node
    assert e.lim.factor == RingValue(2)
    assert e.lim.string.code_at(1) == 1  # X on the top qubit
    assert edge_vec(store, e) == [ONE, omega_power(1), RingValue(2), omega_power(1) * RingValue(2)]


# -- semantic composition ------------------------------------------------------

@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_make_edge_concatenates_subvectors(mode):
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        store = fresh(mode)
        c0 = gen_random(n, rng.randint(3, 12), seed=rng.randrange(1 << 30), max_t=3)
        c1 = gen_random(n, rng.randint(3, 12), seed=rng.randrange(1 << 30), max_t=3)
        s0, _ = simulate(c0, mode=mode, store=store)
        s1, _ = simulate(c1, mode=mode, store=store)
        combined = store.make_edge(s0.root, s1.root)
        assert edge_vec(store, combined) == edge_vec(store, s0.root) + edge_vec(store, s1.root)
        store.check_invariants(combined)


# -- follow and amplitudes -----------------------------------------------------

def test_follow_identity_and_x():
    store = fresh("limdd")
    e0 = _trivial_group_node(store, 1)
    e1 = _trivial_group_node(store, 3)
    e = store.make_edge(e0, e1)
    low = store.follow(e, 0)
    assert edge_vec(store, low) == edge_vec(store, e0)
    # an X on the top qubit swaps which child a basis bit selects
    flipped = Edge(
        lim_mul(EXACT_OPS, PauliLIM(ONE, PauliString(2, 0b10, 0)), e.lim), e.node
    )
    assert edge_vec(store, store.follow(flipped, 0)) == edge_vec(store, e1)
    assert edge_vec(store, store.follow(flipped, 1)) == edge_vec(store, e0)


def test_follow_y_phase():
    store = fresh("limdd")
    e0 = _trivial_group_node(store, 1)
    e1 = _trivial_group_node(store, 3)
    e = store.make_edge(e0, e1)
    lim = PauliLIM(I_UNIT, PauliString(2, 0b10, 0b10))
    carried = Edge(lim_mul(EXACT_OPS, lim, e.lim), e.node)
    # <1|Y = +i<0|, so bit 1 selects the low child scaled by i*i = -1
    got = store.follow(carried, 1)
    assert edge_vec(store, got) == [-v for v in edge_vec(store, e0)]


def test_eval_amplitude_against_vector():
    rng = random.Random(77)
    for mode in ("limdd", "evdd"):
        circ = gen_random(3, 20, seed=404, max_t=4)
        state, _ = simulate(circ, mode=mode)
        dense = dense_simulate(circ)
        for idx in range(8):
            assert state.amplitude(idx) == dense[idx]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_amplitude_index_outside_the_register_raises(mode, backend):
    bell = Circuit(2, (GateInstance("h", (0,)), GateInstance("cx", (0, 1))))
    state, _ = simulate(bell, policy=CoeffPolicy(backend), mode=mode)
    assert state.amplitude(0) == state.amplitude(3) != state.amplitude(1)
    for index in (-1, 4, -4, 1 << 70, 2.0, 0.5, "1"):
        with pytest.raises(ValueError):
            state.amplitude(index)


def test_follow_below_terminal_raises():
    store = fresh()
    with pytest.raises(DiagramError):
        store.follow(store.terminal_edge(ONE), 0)


# -- addition ------------------------------------------------------------------

def test_add_terminal_and_zero():
    store = fresh()
    a = store.terminal_edge(RingValue(F(1, 2)))
    b = store.terminal_edge(RingValue(F(1, 3)))
    assert store.add(a, b).lim.factor == RingValue(F(5, 6))
    z = store.zero_edge(0)
    assert store.add(a, z) == a
    assert store.add(z, a) == a


def test_add_basis_states():
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        ket0 = store.make_edge(store.terminal_edge(ONE), store.zero_edge(0))
        ket1 = store.make_edge(store.zero_edge(0), store.terminal_edge(ONE))
        plus = store.add(ket0, ket1)
        assert edge_vec(store, plus) == [ONE, ONE]
        assert plus.lim.factor == ONE


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_add_random_semantics(mode):
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 3)
        store = fresh(mode)
        c0 = gen_random(n, rng.randint(3, 15), seed=rng.randrange(1 << 30), max_t=3)
        c1 = gen_random(n, rng.randint(3, 15), seed=rng.randrange(1 << 30), max_t=3)
        s0, _ = simulate(c0, mode=mode, store=store)
        s1, _ = simulate(c1, mode=mode, store=store)
        total = store.add(s0.root, s1.root)
        want = [
            a + b
            for a, b in zip(edge_vec(store, s0.root), edge_vec(store, s1.root))
        ]
        assert edge_vec(store, total) == want
        store.check_invariants(total)


def test_add_cache_transparency():
    store = fresh("limdd")
    c0 = gen_random(3, 12, seed=11, max_t=3)
    c1 = gen_random(3, 12, seed=12, max_t=3)
    s0, _ = simulate(c0, mode="limdd", store=store)
    s1, _ = simulate(c1, mode="limdd", store=store)
    first = store.add(s0.root, s1.root)
    store.clear_op_caches()
    second = store.add(s0.root, s1.root)
    assert first == second  # same node object and label after cache clears


# -- stabilizer generator sets -------------------------------------------------

def brute_force_group(vec: list) -> set:
    n = (len(vec) - 1).bit_length()
    found = set()
    for x in range(1 << n):
        for z in range(1 << n):
            for sign_exp in (0, 2, 4, 6):
                phase = omega_power(sign_exp)
                # apply phase * (Pauli with bits x,z) densely
                img = [ZERO] * len(vec)
                ok = True
                for i, v in enumerate(vec):
                    j = i ^ x
                    # Z part sign, Y phases: P = i^{|x&z|} X^x Z^z convention
                    val = v
                    minus = bin(i & z).count("1") & 1
                    if minus:
                        val = -val
                    img[j] = img[j] + val
                ys = bin(x & z).count("1") % 4
                scaled = [phase * w.times_i_power(ys) for w in img]
                if scaled == vec:
                    found.add((x, z, sign_exp))
    return found


def expand_generators(store: DDStore, node) -> set:
    """The whole group the node's cached rows generate, as (x, z, omega
    exponent) triples, closed under ``lim_mul`` rather than the kernel's own
    row product (small groups only)."""
    n = node.level
    exps = {ONE: 0, I_UNIT: 2, MINUS_ONE: 4, -I_UNIT: 6}
    elems = {(0, 0, 0)} | {(x, z, 2 * k) for _, (k, x, z) in store.stab_gens(node)}
    changed = True
    while changed:
        changed = False
        current = list(elems)
        for (x1, z1, e1) in current:
            for (x2, z2, e2) in current:
                l1 = PauliLIM(omega_power(e1), PauliString(n, x1, z1))
                l2 = PauliLIM(omega_power(e2), PauliString(n, x2, z2))
                prod = lim_mul(EXACT_OPS, l1, l2)
                key = (prod.string.x, prod.string.z, exps[prod.factor])
                if key not in elems:
                    elems.add(key)
                    changed = True
    return elems


def test_stab_gens_pinned():
    store = fresh("limdd")
    assert store.stab_gens(store.terminal) == ()
    ket0 = store.make_edge(store.terminal_edge(ONE), store.zero_edge(0))
    rows = store.stab_gens(ket0.node)
    assert [(PauliString(1, x, z).render(), k) for _, (k, x, z) in rows] == [("Z", 0)]
    assert [key for key, _ in rows] == [string_key(0, 1)]
    assert expand_generators(store, ket0.node) == {(0, 0, 0), (0, 1, 0)}


def test_stab_gens_bell_pair():
    store = fresh("limdd")
    # |00> + |11> built by hand: node(|0>, X-labelled |0>)
    ket0 = store.make_edge(store.terminal_edge(ONE), store.zero_edge(0))
    bell = store.make_edge(
        ket0, Edge(PauliLIM(ONE, PauliString(1, 1, 0)), ket0.node)
    )
    assert edge_vec(store, bell) == [ONE, ZERO, ZERO, ONE]
    group = expand_generators(store, bell.node)
    # {II, XX, -YY, ZZ}
    assert group == {(0, 0, 0), (3, 0, 0), (3, 3, 4), (0, 3, 0)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stab_gens_match_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(1, 3)
        store = fresh("limdd")
        circ = gen_random(n, rng.randint(4, 18), seed=rng.randrange(1 << 30), max_t=3)
        state, _ = simulate(circ, mode="limdd", store=store)
        node = state.root.node
        if node.level == 0:
            continue
        vec = edge_vec(store, Edge(store.identity_lim(node.level), node))
        assert expand_generators(store, node) == brute_force_group(vec)


def test_cached_rows_have_distinct_descending_leads():
    for seed in (4, 5, 6):
        rng = random.Random(seed)
        store = fresh("limdd")
        for _ in range(8):
            n = rng.randint(1, 4)
            circ = gen_random(n, rng.randint(4, 20), seed=rng.randrange(1 << 30), max_t=3)
            state, _ = simulate(circ, mode="limdd", store=store)
            store.stab_gens(state.root.node)
        assert len(store.stab_cache) > 1
        nodes = {node.id: node for node in store.unique.values()}
        for node_id, rows in store.stab_cache.items():
            leads = [key.bit_length() - 1 for key, _ in rows]
            assert leads == sorted(set(leads), reverse=True)
            for key, (k, x, z) in rows:
                assert key == string_key(x, z) and k in (0, 2)
            node = nodes.get(node_id)
            if node is not None and 0 < node.level <= 3:
                vec = edge_vec(store, Edge(store.identity_lim(node.level), node))
                assert expand_generators(store, node) == brute_force_group(vec)


def _group_lims(vec: list) -> list:
    n = (len(vec) - 1).bit_length()
    return [PauliLIM(omega_power(e), PauliString(n, x, z)) for x, z, e in brute_force_group(vec)]


def _root_node(store: DDStore, n: int, seed: int):
    # few T gates keep the stabilizer groups large
    circ = gen_random(n, 10, seed=seed, max_t=seed % 3)
    state, _ = simulate(circ, mode="limdd", store=store)
    node = state.root.node
    return node, edge_vec(store, Edge(store.identity_lim(n), node))


def _min_string(lims):
    return min(string_key(l.string.x, l.string.z) for l in lims)


scale_st = st.sampled_from([ONE, RingValue(2), RingValue(F(1, 3)), SQRT2 + ONE,
                            RingValue(F(1, 2), F(1, 2))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 1 << 30), scale_st, st.integers(0, 7),
       st.integers(0, 7), st.integers(0, 7))
def test_coset_min_is_least_member_of_coset(n, seed, scale, e, x, z):
    store = fresh("limdd")
    w, vec = _root_node(store, n, seed)
    mask = (1 << n) - 1
    c = PauliLIM(scale * omega_power(e), PauliString(n, x & mask, z & mask))
    coset = [lim_mul(EXACT_OPS, c, g) for g in _group_lims(vec)]
    least = _min_string(coset)
    want = [l for l in coset if string_key(l.string.x, l.string.z) == least]
    assert len(want) == 1  # one member per string
    assert store._coset_min(c, w) == want[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 1 << 30), st.integers(0, 1 << 30), st.booleans(),
       scale_st, st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
@example(2, 22, 0, False, ONE, 0, 2, 1)  # g0 = -1 * (a two-qubit string): root sign -1
def test_get_labels_matches_brute_force(n, seed0, seed1, same, scale, e, x, z):
    store = fresh("limdd")
    v0, vec0 = _root_node(store, n, seed0)
    v1, vec1 = (v0, vec0) if same else _root_node(store, n, seed1)
    mask = (1 << n) - 1
    a_hat = PauliLIM(scale * omega_power(e), PauliString(n, x & mask, z & mask))
    c_hat, root = store._get_labels(a_hat, v0, v1, store.identity_lim(n))
    # stage 1: every g0 * a_hat * g1, kept at the least string
    products = [lim_mul(EXACT_OPS, g0, lim_mul(EXACT_OPS, a_hat, g1))
                for g0 in _group_lims(vec0) for g1 in _group_lims(vec1)]
    least = _min_string(products)
    best = [l for l in products if string_key(l.string.x, l.string.z) == least]
    # stage 2: a Z flip, and with equal children an X swap, on each factor
    candidates = []
    for lam in {l.factor for l in best}:
        candidates += [lam, -lam] + ([ONE / lam, -(ONE / lam)] if v0 is v1 else [])
    mu = min(candidates, key=EXACT_OPS.argmin_key)
    assert c_hat == PauliLIM(mu, best[0].string)
    # the root label undoes the canonicalization
    node = store._make_node(n + 1, Edge(store.identity_lim(n), v0), Edge(c_hat, v1))
    twisted = Edge(a_hat, v1)
    assert edge_vec(store, Edge(root, node)) == vec0 + edge_vec(store, twisted)


# -- canonicity ----------------------------------------------------------------

def test_identity_circuits_restore_root():
    base = gen_random(3, 14, seed=21, max_t=3)
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        s0, _ = simulate(base, mode=mode, store=store)
        for tail in (
            [GateInstance("h", (1,))] * 2,
            [GateInstance("s", (2,))] * 4,
            [GateInstance("t", (0,))] * 8,
            [GateInstance("cx", (0, 2))] * 2,
            [GateInstance("swap", (0, 1))] * 2,
        ):
            circ = Circuit(3, base.gates + tuple(tail))
            s1, _ = simulate(circ, mode=mode, store=store)
            assert s1.root == s0.root  # identical node and label


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_equal_states_intern_to_same_node(mode):
    store = fresh(mode)
    c = gen_random(3, 16, seed=99, max_t=4)
    s0, _ = simulate(c, mode=mode, store=store)
    s1, _ = simulate(c, mode=mode, store=store)
    assert s0.root == s1.root


def test_check_invariants_rejects_corrupted_store():
    store = fresh("limdd")
    circ = gen_random(2, 10, seed=5, max_t=2)
    state, _ = simulate(circ, mode="limdd", store=store)
    node = state.root.node
    if node.level == 0:
        pytest.skip("degenerate state")
    # break the low-canonicity rule behind the store's back
    node.low = Edge(PauliLIM(RingValue(2), node.low.lim.string), node.low.node)
    with pytest.raises(DiagramError):
        store.check_invariants(state.root)
    # a zero child that points at its sibling's node instead of the terminal
    for mode in ("limdd", "evdd"):
        store = fresh(mode)
        root = store.zero_state(2)
        store.check_invariants(root)
        top = root.node
        top.high = Edge(top.high.lim, top.low.node)
        with pytest.raises(DiagramError):
            store.check_invariants(root)


# -- stats and GC --------------------------------------------------------------

def test_stats_widths_sum_to_node_count(small_corpus):
    for circ in small_corpus[:10]:
        for mode in ("limdd", "evdd"):
            state, _ = simulate(circ, mode=mode)
            stats = state.stats()
            assert sum(stats.width_per_level) == stats.node_count


def test_gc_preserves_live_roots():
    store = fresh("limdd")
    keep_c = gen_random(3, 18, seed=31, max_t=4)
    drop_c = gen_random(3, 18, seed=32, max_t=4)
    kept, _ = simulate(keep_c, mode="limdd", store=store)
    dropped_state, _ = simulate(drop_c, mode="limdd", store=store)
    before_vec = kept.to_vector()
    table_before = len(store.unique)
    freed = store.collect([kept.root])
    assert freed == table_before - len(store.unique) > 0
    assert kept.to_vector() == before_vec
    store.check_invariants(kept.root)
    # idempotent
    assert store.collect([kept.root]) == 0


def test_gc_then_rebuild_is_consistent():
    store = fresh("limdd")
    c = gen_random(3, 15, seed=41, max_t=3)
    s0, _ = simulate(c, mode="limdd", store=store)
    store.collect([s0.root])
    s1, _ = simulate(c, mode="limdd", store=store)
    assert s0.root == s1.root


def test_maybe_collect_triggers_and_grows_capacity():
    store = fresh("limdd", gc_capacity=8)
    roots = []
    state, _ = simulate(gen_random(4, 25, seed=77, max_t=4), mode="limdd", store=store)
    roots.append(state.root)
    engaged = store.maybe_collect(roots)
    # with such a tiny capacity the collector must have engaged at least once
    assert engaged or store.gc_runs > 0 or len(store.unique) + 1 < 8



def test_collect_keeps_only_live_child_pairs():
    store = fresh("limdd")
    kept, _ = simulate(gen_random(4, 30, seed=31, max_t=4), store=store)
    simulate(gen_random(4, 30, seed=32, max_t=4), store=store)
    before = set(store.joint_cache)
    store.collect([kept.root])
    live = store.reachable([kept.root])
    assert store.joint_cache and set(store.joint_cache) < before
    assert all(v0 in live and v1 in live for v0, v1 in store.joint_cache)
    # the memo stays exact for the pairs it keeps
    for (v0, v1), hit in store.joint_cache.items():
        want = joint_echelon(store.stab_gens(live[v0]), store.stab_gens(live[v1]))
        assert hit == want
    store.check_invariants(kept.root)

# (final_nodes, peak_nodes, gc_runs) on exact coefficients with gc_capacity=64
GC_PINNED = {
    ("limdd", "wstate-32"): (63, 168, 36),
    ("evdd", "wstate-32"): (64, 186, 45),
    ("limdd", "grover-6"): (16, 72, 21),
    ("evdd", "grover-6"): (16, 72, 40),
}


@pytest.mark.parametrize("mode,circuit", list(GC_PINNED))
def test_gc_engaged_runs_pinned(mode, circuit):
    """Runs whose collector engages many times keep their node counts."""
    circ = gen_wstate(32) if circuit == "wstate-32" else gen_grover(6, 5)
    state, run = simulate(circ, store=DDStore(mode=mode, gc_capacity=64))
    assert (run.final_nodes, run.peak_nodes, run.gc_runs) == GC_PINNED[mode, circuit]
    state.check()
