"""End-to-end acceptance checks.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or in failure output) and enforces its own runtime budget.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from qddsim import (
    Circuit,
    GateInstance,
    dense_simulate,
    gen_random,
    gen_wstate,
    simulate,
)
from qddsim.circuit import dense_probability_zero
from qddsim.coeff import (
    ONE,
    ZERO,
    CoeffPolicy,
    RingValue,
    bit_size,
    in_sqrt2_lattice,
    omega_power,
    within_coeff_bound,
)
from qddsim.ddcore import DDStore
from qddsim.gates import (
    apply_gate,
    compile_gate,
    compile_sequence,
    verify_coeff_bound,
)
from qddsim.measure import measurement_probability
from qddsim.stabtrack import GATE_ARITY, StabilizerTableau, track

from conftest import LEADING, MOTIVATING, dyadic_ring, random_corpus
from test_stabtrack import apply_row, local_nullity_oracle, run_tableau


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


# -- shared corpora --------------------------------------------------------

NO_ENTANGLERS = ("h", "t", "tdg", "s", "sdg", "x", "y", "z", "cz")
CLIFFORD_ONLY = ("h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap")


@pytest.fixture(scope="module")
def corpus_main() -> list[Circuit]:
    return random_corpus(
        300, seed=20240711, n_range=(2, 10), depth_range=(10, 40), max_t=6
    )


@pytest.fixture(scope="module")
def corpus_hsparse() -> list[Circuit]:
    return random_corpus(
        300, seed=20240712, n_range=(2, 10), depth_range=(10, 40), max_t=6,
        max_h=5, kinds=NO_ENTANGLERS,
    )


@pytest.fixture(scope="module")
def dense_cache():
    cache: dict[Circuit, list[RingValue]] = {}

    def get(circ: Circuit) -> list[RingValue]:
        if circ not in cache:
            cache[circ] = dense_simulate(circ)
        return cache[circ]

    return get


def _stepped(circ: Circuit, mode: str):
    """Apply the compiled primitives one by one, yielding cumulative gate
    counts and diagram stats after each primitive."""
    store = DDStore(mode=mode)
    n = circ.n_qubits
    root = store.zero_state(n)
    t_seen = h_seen = cz_seen = 0
    for prim in compile_sequence(circ.gates):
        bits = tuple(n - 1 - q for q in prim.qubits)
        root = apply_gate(store, root, prim.kind, bits)
        if prim.kind in ("t", "tdg"):
            t_seen += 1
        elif prim.kind == "h":
            h_seen += 1
        elif prim.kind == "cz":
            cz_seen += 1
        yield store, root, t_seen, h_seen, cz_seen
        store.clear_op_caches()


# -- criteria --------------------------------------------------------------

def test_c01_two_qubit_interference_collapses_to_three_nodes():
    t0 = time.perf_counter()
    state, run = simulate(MOTIVATING, store=DDStore(mode="evdd", norm_rule="low"))
    quotient = state.root.node.high.lim.factor
    elapsed = time.perf_counter() - t0
    ok = run.final_nodes == 3 and quotient == ZERO and elapsed < 1.0
    _line(1, ok, (
        f"interference example: {run.final_nodes} final nodes, "
        f"root high-edge quotient {quotient!r} ({elapsed:.3f}s; budget 1s)"
    ))


def test_c02_root_label_magnitude_and_stepwise_label_bound():
    t0 = time.perf_counter()
    target = RingValue(F(1, 4), F(1, 8))
    abs2 = {}
    bulk_ok = True
    for mode in ("limdd", "evdd"):
        for store, root, t_seen, _, _ in _stepped(LEADING, mode):
            if not verify_coeff_bound(store, root, LEADING.n_qubits, t_seen):
                bulk_ok = False
        abs2[mode] = root.lim.factor.abs2()
    elapsed = time.perf_counter() - t0
    ok = (abs2["limdd"] == target and abs2["evdd"] == target
          and bulk_ok and elapsed < 1.0)
    _line(2, ok, (
        f"root |label|^2 = {abs2['limdd']!r} (both modes), stepwise label "
        f"bound {'clean' if bulk_ok else 'violated'} ({elapsed:.3f}s; budget 1s)"
    ))


def test_c03_label_size_bound_over_random_corpus():
    t0 = time.perf_counter()
    circuits = random_corpus(
        200, seed=20240713, n_range=(2, 8), depth_range=(10, 60), max_t=6
    )
    violations = 0
    for circ in circuits:
        _, run = simulate(circ, check_coeffs=True)
        if run.coeff_check is not True:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _line(3, ok, (
        f"label-size check on {len(circuits)} circuits: {violations} violations "
        f"({elapsed:.1f}s; budget 120s)"
    ))


def test_c04_scaled_density_entries_stay_in_lattice(dense_cache):
    t0 = time.perf_counter()
    circuits = random_corpus(
        200, seed=20240714, n_range=(1, 5), depth_range=(6, 30), max_t=4
    )
    bad = 0
    for circ in circuits:
        n = circ.n_qubits
        t = circ.counts().t_count
        vec = dense_cache(circ)
        scale = RingValue(1 << n)
        for a in vec:
            row = scale * a
            for b in vec:
                if not in_sqrt2_lattice(row * b.conj(), n, t):
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    _line(4, ok, (
        f"density entries of {len(circuits)} circuits: {bad} outside the "
        f"lattice ({elapsed:.1f}s; budget 120s)"
    ))


def test_c05_pauli_label_width_bound(corpus_main):
    t0 = time.perf_counter()
    bad = 0
    for circ in corpus_main:
        n = circ.n_qubits
        for store, root, t_seen, _, _ in _stepped(circ, "limdd"):
            st = store.stats(root, n)
            if (max(st.width_per_level) > (1 << t_seen)
                    or st.node_count > n * (1 << t_seen)):
                bad += 1
                break
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300.0
    _line(5, ok, (
        f"width/node ceilings on {len(corpus_main)} circuits: {bad} violations "
        f"({elapsed:.1f}s; budget 300s)"
    ))


def test_c06_scalar_label_width_bound(corpus_hsparse):
    t0 = time.perf_counter()
    bad = 0
    for circ in corpus_hsparse:
        n = circ.n_qubits
        for store, root, t_seen, h_seen, cz_seen in _stepped(circ, "evdd"):
            ceiling = 1 << min(h_seen, 2 * cz_seen + t_seen)
            if max(store.stats(root, n).width_per_level) > ceiling:
                bad += 1
                break
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300.0
    _line(6, ok, (
        f"h-sparse width ceiling on {len(corpus_hsparse)} circuits: {bad} "
        f"violations ({elapsed:.1f}s; budget 300s)"
    ))


def _ccx_corpus() -> list[Circuit]:
    rng = random.Random(777888)
    out = []
    for _ in range(40):
        n = rng.randint(3, 8)
        gates = []
        for _ in range(rng.randint(2, 10)):
            if rng.random() < 0.35:
                gates.append(GateInstance("ccx", tuple(rng.sample(range(n), 3))))
            else:
                kind = rng.choice(CLIFFORD_ONLY)
                gates.append(
                    GateInstance(kind, tuple(rng.sample(range(n), GATE_ARITY[kind])))
                )
        out.append(Circuit(n, tuple(gates)))
    return out


def test_track_per_gate_matches_local_nullity_oracle():
    """``track``'s per-gate pairs on the ccx corpus, against the tableau
    stepped by hand and the defining weight-one reduction."""
    for circ in _ccx_corpus():
        n = circ.n_qubits
        for native in (True, False):
            tab = StabilizerTableau(n)
            want = []
            for gate in circ.gates:
                steps = compile_gate(gate) if gate.kind == "ccx" and not native else (gate,)
                for g in steps:
                    tab.apply_gate(g.kind, tuple(n - 1 - q for q in g.qubits))
                want.append((tab.nullity(), local_nullity_oracle(tab)))
            assert track(circ, native_ccx=native).per_gate == tuple(want)


def test_c07_tracked_group_soundness(corpus_main, corpus_hsparse, dense_cache):
    t0 = time.perf_counter()
    prefix_bad = toffoli_bad = dense_bad = 0
    for circ in corpus_main + corpus_hsparse:
        report = track(circ)
        seen = 0
        for gate, (nullity, _) in zip(circ.gates, report.per_gate):
            seen += 1 if gate.kind in ("t", "tdg") else 0
            if nullity > seen:
                prefix_bad += 1
                break
    for circ in _ccx_corpus():
        report = track(circ, native_ccx=True)
        prev = 0
        weighted = 0
        for gate, (nullity, _) in zip(circ.gates, report.per_gate):
            weighted += 7 if gate.kind == "ccx" else 0
            if gate.kind == "ccx" and nullity - prev > 3:
                toffoli_bad += 1
                break
            if nullity > weighted:
                prefix_bad += 1
                break
            prev = nullity
    for circ in corpus_main:
        if circ.n_qubits > 8:
            continue
        tab = run_tableau(circ)
        vec = dense_cache(circ)
        for sign, x, z in tab.rows:
            if apply_row(circ.n_qubits, sign, x, z, vec) != vec:
                dense_bad += 1
                break
    elapsed = time.perf_counter() - t0
    ok = prefix_bad == toffoli_bad == dense_bad == 0
    _line(7, ok, (
        f"group tracking: {prefix_bad} prefix-count breaches, {toffoli_bad} "
        f"three-row breaches, {dense_bad} generator mismatches ({elapsed:.1f}s)"
    ))


def test_c08_diagram_matches_dense_reference(corpus_main, dense_cache):
    t0 = time.perf_counter()
    exact_bad = float_bad = checked = 0
    for circ in corpus_main:
        if circ.n_qubits > 8:
            continue
        checked += 1
        vec = dense_cache(circ)
        p0_ref = dense_probability_zero(vec, 0)
        for mode in ("limdd", "evdd"):
            state, _ = simulate(circ, mode=mode)
            if (state.to_vector() != vec
                    or measurement_probability(state, 0) != p0_ref):
                exact_bad += 1
        statef, _ = simulate(circ, policy=CoeffPolicy("float"))
        ref = [a.to_complex() for a in vec]
        got = statef.to_vector()
        if (max(abs(a - b) for a, b in zip(got, ref)) > 1e-9
                or abs(measurement_probability(statef, 0)
                       - float(p0_ref.to_complex().real)) > 1e-9):
            float_bad += 1
        # the l2 rule, which only float evdd takes
        statel2, _ = simulate(circ, store=DDStore(CoeffPolicy("float"), "evdd", "l2"))
        statel2.check()
        if max(abs(a - b) for a, b in zip(statel2.to_vector(), ref)) > 1e-12:
            float_bad += 1
    elapsed = time.perf_counter() - t0
    ok = exact_bad == 0 and float_bad == 0 and checked > 0
    _line(8, ok, (
        f"dense agreement on {checked} circuits: {exact_bad} exact, "
        f"{float_bad} float mismatches ({elapsed:.1f}s)"
    ))


def test_c09_probability_lattice_membership(corpus_main):
    t0 = time.perf_counter()
    bad = 0
    for circ in corpus_main:
        n = circ.n_qubits
        t = circ.counts().t_count
        state, _ = simulate(circ)
        p0 = measurement_probability(state, 0)
        if not in_sqrt2_lattice(p0, 2 * n, 2 * n + t):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    _line(9, ok, (
        f"measured-probability lattice membership on {len(corpus_main)} "
        f"circuits: {bad} failures ({elapsed:.1f}s)"
    ))


def test_c10_single_excitation_state_scales_linearly():
    t0 = time.perf_counter()
    sizes = [2, 4, 8, 16, 32]
    nodes = {}
    for n in sizes:
        _, run = simulate(gen_wstate(n), mode="evdd")
        nodes[n] = run.final_nodes
    c = max(nodes[n] / n for n in sizes)
    ratios = [nodes[2 * n] / nodes[n] for n in sizes[:-1]]
    elapsed = time.perf_counter() - t0
    ok = (all(nodes[n] <= 2 * n for n in sizes)
          and max(ratios) <= 2.5 and elapsed < 300.0)
    _line(10, ok, (
        f"single-excitation family nodes {nodes}, c = {c:.2f} (<= 2), "
        f"doubling ratios {[f'{r:.2f}' for r in ratios]} "
        f"({elapsed:.1f}s; budget 300s)"
    ))


def test_c11_ring_arithmetic_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(515253)
    assert omega_power(8) == ONE
    assert omega_power(1) * omega_power(1) == omega_power(2)
    assert omega_power(2) == RingValue(0, 0, 1)
    bad = 0
    for _ in range(10_000):
        a = dyadic_ring(rng)
        b = dyadic_ring(rng)
        c = a - b
        laws = (
            a + b == b + a
            and a * b == b * a
            and (a + b) + c == a + (b + c)
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a + ZERO == a
            and a * ONE == a
            and a - a == ZERO
        )
        if not laws:
            bad += 1
            continue
        budget = 4 * (bit_size(a) + bit_size(b)) + 8
        for value in (a + b, a - b, a * b):
            if bit_size(value) > budget:
                bad += 1
                break
        else:
            if b != ZERO:
                q = a / b
                if q * b != a or bit_size(q) > budget:
                    bad += 1
                elif a != ZERO and (a * b) / b != a:
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _line(11, ok, (
        f"ring laws / round trips / growth on 10000 pairs: {bad} failures "
        f"({elapsed:.1f}s; budget 30s)"
    ))


def test_c12_clifford_circuits_stay_width_one():
    t0 = time.perf_counter()
    circuits = random_corpus(
        100, seed=20240715, n_range=(2, 10), depth_range=(10, 40),
        kinds=CLIFFORD_ONLY,
    )
    bad = 0
    for circ in circuits:
        state, _ = simulate(circ, mode="limdd")
        widths = state.stats().width_per_level
        if any(w != 1 for w in widths[1:]):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    _line(12, ok, (
        f"tower form on {len(circuits)} clifford circuits: {bad} "
        f"non-unit widths ({elapsed:.1f}s)"
    ))
