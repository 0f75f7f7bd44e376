"""Stabilizer tableau tracking and diagram-width ceilings."""
from __future__ import annotations

import random
import re

import pytest

from qddsim import (
    Circuit, GateInstance, dense_simulate, gen_grover, gen_random, gen_wstate, simulate,
)
from qddsim.circuit import dense_probability_zero
from qddsim.coeff import I_UNIT, MINUS_ONE, ONE, ZERO, CoeffPolicy
from qddsim.ddcore import DDStore
from qddsim.measure import collapse, measurement_probability, sample_counts
from qddsim.pauli import echelon, reduce_key, string_key
from qddsim.stabtrack import _CCX_NETWORK, GATE_ARITY, BoundReport, StabilizerTableau, track

from conftest import bell_pair

_MATS = {
    (0, 0): ((ONE, ZERO), (ZERO, ONE)),          # I
    (1, 0): ((ZERO, ONE), (ONE, ZERO)),          # X
    (0, 1): ((ONE, ZERO), (ZERO, MINUS_ONE)),    # Z
    (1, 1): ((ZERO, -I_UNIT), (I_UNIT, ZERO)),   # Y
}


def apply_row(n: int, k: int, x: int, z: int, vec: list) -> list:
    """Dense action of a tableau row i**k * P (x&z bits on a qubit mean Y)."""
    out = list(vec)
    for b in range(n):
        m = _MATS[((x >> b) & 1, (z >> b) & 1)]
        new = [ZERO] * len(out)
        for i in range(len(out)):
            ib = (i >> b) & 1
            for jb in (0, 1):
                j = (i & ~(1 << b)) | (jb << b)
                if m[ib][jb] != ZERO:
                    new[i] = new[i] + m[ib][jb] * out[j]
        out = new
    return [v.times_i_power(k) for v in out]


def run_tableau(circ: Circuit) -> StabilizerTableau:
    tab = StabilizerTableau(circ.n_qubits)
    for g in circ.gates:
        tab.apply_gate(g.kind, tuple(circ.n_qubits - 1 - q for q in g.qubits))
    return tab


# -- the integer rule ------------------------------------------------------

def test_every_count_and_index_obeys_one_rule():
    """Each entry point takes an integer, not a bool, in [low, high) (no
    upper bound when high is None), and raises ``ValueError`` naming what
    it takes and the value it got for anything else."""
    exact, _ = simulate(gen_wstate(2))
    floating, _ = simulate(gen_wstate(2), policy=CoeffPolicy("float"))
    vec = dense_simulate(gen_wstate(2))
    entries = [
        ("register size", Circuit, 1, None),
        ("measured qubit", lambda v: Circuit(2, (), ((v, 0),)), 0, 2),
        ("classical bit", lambda v: Circuit(2, (), ((0, v),)), 0, None),
        ("register size", gen_wstate, 1, None),
        ("search qubit count", lambda v: gen_grover(v, 0), 1, None),
        ("marked state", lambda v: gen_grover(2, v), 0, 4),
        ("iterations", lambda v: gen_grover(2, 1, v), 0, None),
        ("register size", lambda v: gen_random(v, 3, 0), 1, None),
        ("depth", lambda v: gen_random(3, v, 0), 0, None),
        ("gate ceilings: max_t", lambda v: gen_random(3, 2, 0, max_t=v), 0, None),
        ("gate ceilings: max_h", lambda v: gen_random(3, 2, 0, max_h=v), 0, None),
        ("qubit", lambda v: dense_probability_zero(vec, v), 0, 2),
        ("qubit count", StabilizerTableau, 1, None),
        ("gc_capacity", lambda v: DDStore(gc_capacity=v), 1, None),
        ("basis index", exact.amplitude, 0, 4),
        ("qubit", lambda v: measurement_probability(exact, v), 0, 2),
        ("qubit", lambda v: sample_counts(exact, v), 0, 2),
        ("shots", lambda v: sample_counts(exact, 0, v), 0, None),
        ("qubit", lambda v: collapse(floating, v, 0), 0, 2),
        ("outcome", lambda v: collapse(floating, 0, v), 0, 2),
    ]
    for what, call, low, high in entries:
        call(low)
        if high is not None:
            call(high - 1)
        bad = [True, False, 2.0, 2.5, "3", -1, low - 1] + ([high] if high is not None else [])
        for value in bad:
            message = f"^{re.escape(what)} .*{re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                call(value)


# -- basic tableau behavior ------------------------------------------------

def test_initial_group_is_all_z():
    tab = StabilizerTableau(3)
    assert tab.rows == [(0, 0, 1), (0, 0, 2), (0, 0, 4)]
    assert tab.nullity() == 0 and tab.local_nullity() == 0
    for k in range(3):
        assert tab.contains(0, 0, 1 << k)
        assert not tab.contains(1, 0, 1 << k)
    assert not tab.contains(0, 1, 0)
    with pytest.raises(ValueError):
        StabilizerTableau(0)


def test_clifford_gates_never_drop_rows():
    tab = StabilizerTableau(3)
    for kind, bits in (
        ("h", (0,)), ("s", (1,)), ("sdg", (1,)), ("x", (2,)), ("y", (0,)),
        ("z", (1,)), ("cx", (0, 1)), ("cz", (1, 2)), ("swap", (0, 2)),
    ):
        assert tab.apply_gate(kind, bits) == 0
    assert tab.nullity() == 0


def test_t_drops_only_anticommuting_rows():
    tab = StabilizerTableau(2)
    assert tab.apply_gate("t", (0,)) == 0  # Z_0 commutes with a diagonal gate
    assert tab.nullity() == 0
    tab.apply_gate("h", (0,))
    assert tab.apply_gate("t", (0,)) == 1  # the X_0 row cannot survive
    assert tab.nullity() == 1
    assert tab.apply_gate("t", (0,)) == 0  # nothing left to drop there
    assert tab.nullity() == 1


def test_tableau_rejects_untrackable_kind():
    with pytest.raises(ValueError):
        StabilizerTableau(2).apply_gate("rz", (0,))


# -- toffoli special cases -------------------------------------------------

def test_ccx_pinned_control_is_clifford():
    # both controls pinned to |0>: nothing happens
    tab = StabilizerTableau(3)
    assert tab.apply_gate("ccx", (2, 1, 0)) == 0
    assert tab.nullity() == 0

    # one control pinned to |1>: degenerates to cx on the rest
    tab = StabilizerTableau(3)
    tab.apply_gate("x", (2,))
    assert tab.apply_gate("ccx", (2, 1, 0)) == 0
    other = StabilizerTableau(3)
    other.apply_gate("x", (2,))
    other.apply_gate("cx", (1, 0))
    assert sorted(tab.rows) == sorted(other.rows)


def test_ccx_pinned_target_is_clifford():
    """With the controls in superposition, so that neither is pinned, a
    target in the +1 x eigenstate leaves the group as it is, and one in the
    -1 x eigenstate applies a cz to the controls."""
    for target_prep, then in ((("h",), ()), (("h", "z"), (("cz", (2, 1)),))):
        tab, other = StabilizerTableau(3), StabilizerTableau(3)
        for t in (tab, other):
            t.apply_gate("h", (2,))
            t.apply_gate("h", (1,))
            for kind in target_prep:
                t.apply_gate(kind, (0,))
        assert tab.apply_gate("ccx", (2, 1, 0)) == 0
        for kind, bits in then:
            other.apply_gate(kind, bits)
        assert sorted(tab.rows) == sorted(other.rows)


def test_ccx_generic_drops_three():
    tab = StabilizerTableau(3)
    tab.apply_gate("h", (2,))
    tab.apply_gate("h", (1,))
    assert tab.apply_gate("ccx", (2, 1, 0)) == 3
    assert tab.nullity() == 3


def test_single_ccx_never_drops_more_than_three():
    rng = random.Random(1234)
    for _ in range(30):
        n = rng.randint(3, 5)
        prefix = gen_random(n, rng.randint(0, 12), seed=rng.randrange(1 << 20),
                            max_t=0)
        qubits = tuple(rng.sample(range(n), 3))
        circ = Circuit(n, prefix.gates + (GateInstance("ccx", qubits),))
        for native in (True, False):
            report = track(circ, native_ccx=native)
            assert report.nullity <= 3
            assert report.dropped_rows <= 3


# -- local nullity -----------------------------------------------------------

def local_nullity_oracle(tab: StabilizerTableau) -> int:
    """The defining count: qubits for which none of the three weight-one
    strings reduces to nothing against an echelon basis of the rows."""
    basis = echelon(tab.rows)
    pinned = 0
    for k in range(tab.n):
        for x, z in ((1 << k, 0), (1 << k, 1 << k), (0, 1 << k)):
            if reduce_key(basis, string_key(x, z))[0] == 0:
                pinned += 1
                break
    return tab.n - pinned


def test_local_nullity_matches_oracle_on_random_tableaux():
    rng = random.Random(8086)
    kinds = ("h", "s", "sdg", "x", "z", "cx", "cz", "swap", "t", "tdg")
    for _ in range(60):
        n = rng.randint(1, 9)
        tab = StabilizerTableau(n)
        for _ in range(rng.randint(0, 40)):
            kind = rng.choice(kinds if n > 1 else kinds[:5] + kinds[8:])
            arity = 2 if kind in ("cx", "cz", "swap") else 1
            tab.apply_gate(kind, tuple(rng.sample(range(n), arity)))
            assert tab.local_nullity() == local_nullity_oracle(tab)
    for _ in range(300):  # arbitrary, possibly dependent, rows
        n = rng.randint(1, 9)
        tab = StabilizerTableau(n)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(2 * rng.randint(0, n + 2))]
        tab.rows = [(0, x, z) for x, z in zip(masks[::2], masks[1::2])]
        assert tab.local_nullity() == local_nullity_oracle(tab)


def test_incremental_local_nullity_matches_oracle_after_every_gate():
    """The pinned and dirty masks against the defining count, after every
    tableau update, ccx taken both natively and through its network."""
    rng = random.Random(4242)
    for _ in range(160):
        n = rng.randint(1, 12)
        usable = sorted(k for k, arity in GATE_ARITY.items() if arity <= n)
        for native in (True, False):
            tab = StabilizerTableau(n)
            for _ in range(rng.randint(0, 50)):
                kind = rng.choice(usable)
                bits = tuple(rng.sample(range(n), GATE_ARITY[kind]))
                steps = ((kind, bits),)
                if kind == "ccx" and not native:
                    steps = tuple((k, tuple(bits[i] for i in idx)) for k, idx in _CCX_NETWORK)
                for step in steps:
                    tab.apply_gate(*step)
                    if rng.random() < 0.7:  # let dirt pile up across some gates
                        assert tab.local_nullity() == local_nullity_oracle(tab)
            assert tab.local_nullity() == local_nullity_oracle(tab)


def test_local_nullity_update_rules():
    # t on a qubit pinned by Z drops nothing and keeps the pin
    tab = StabilizerTableau(3)
    tab.apply_gate("h", (2,))
    tab.apply_gate("cx", (2, 1))
    assert tab.local_nullity() == 2 and tab.pinned == 0b001
    assert tab.apply_gate("t", (0,)) == 0
    assert (tab.pinned, tab.dirty) == (0b001, 0)
    assert tab.local_nullity() == local_nullity_oracle(tab) == 2

    # a drop on a dirty qubit settles that qubit and leaves the other dirty
    tab = StabilizerTableau(2)
    tab.apply_gate("h", (1,))
    tab.apply_gate("cx", (1, 0))
    assert tab.dirty == 0b11
    assert tab.apply_gate("t", (0,)) == 1
    assert tab.dirty == 0b10 and not tab.pinned & 0b01
    assert tab.local_nullity() == local_nullity_oracle(tab) == 2

    # a swap of a pinned qubit with an unpinned one moves the pin
    tab = StabilizerTableau(3)
    tab.apply_gate("h", (2,))
    tab.apply_gate("cx", (2, 1))
    tab.local_nullity()
    tab.apply_gate("swap", (0, 2))
    assert (tab.pinned, tab.dirty) == (0b100, 0)
    assert tab.local_nullity() == local_nullity_oracle(tab) == 2

    # rows assigned after some gates mark every qubit dirty
    tab = StabilizerTableau(3)
    for kind, bits in (("h", (0,)), ("cx", (0, 2)), ("t", (1,))):
        tab.apply_gate(kind, bits)
    assert tab.local_nullity() == local_nullity_oracle(tab) == 2
    tab.rows = [(0, 0b011, 0b000), (0, 0b000, 0b100)]  # X1 X0 and Z2
    assert tab.dirty == 0b111
    assert tab.local_nullity() == local_nullity_oracle(tab) == 2
    tab.apply_gate("cx", (1, 0))  # X1 X0 -> X1: qubit 1 becomes pinned
    assert tab.local_nullity() == local_nullity_oracle(tab) == 1


# -- track() reports -------------------------------------------------------

def test_track_report_shape():
    circ = bell_pair()
    report = track(circ)
    assert isinstance(report, BoundReport)
    assert report.n_qubits == 2
    assert report.gate_count == 2
    assert report.t_count == 0
    # XX and ZZ stabilize the pair but neither qubit is pinned on its own,
    # so the sum-diagram ceiling is loose while the label-diagram one is 1
    assert report.nullity == 0 and report.local_nullity == 2
    assert report.limdd_width_bound == 1
    assert report.evdd_width_bound == 4
    assert report.per_gate == ((0, 0), (0, 2))


def test_track_counts_ccx_as_seven_t():
    circ = Circuit(3, (GateInstance("ccx", (0, 1, 2)),))
    for native in (True, False):
        assert track(circuit=circ, native_ccx=native).t_count == 7


def test_native_ccx_can_beat_compiled():
    """A Toffoli whose controls are classical after a Clifford prefix is a
    Clifford for the native update, while the compiled seven-T expansion
    still loses a generator."""
    sep = Circuit(5, (
        GateInstance("s", (3,)),
        GateInstance("cx", (0, 2)),
        GateInstance("cz", (1, 4)),
        GateInstance("cx", (0, 2)),
        GateInstance("ccx", (2, 0, 4)),
    ))
    native = track(sep, native_ccx=True)
    compiled = track(sep, native_ccx=False)
    assert native.nullity == 0 and native.limdd_width_bound == 1
    assert compiled.nullity == 1 and compiled.limdd_width_bound == 2
    assert native.per_gate[-1] == (0, 0)
    assert compiled.per_gate[-1] == (1, 1)
    # both ceilings stay sound against the realized diagram
    state, _ = simulate(sep)
    assert max(state.stats().width_per_level) <= native.limdd_width_bound


def test_bounds_hold_against_simulated_widths():
    rng = random.Random(777)
    for _ in range(12):
        n = rng.randint(2, 5)
        circ = gen_random(n, rng.randint(5, 25), seed=rng.randrange(1 << 20),
                          max_t=4)
        report = track(circ)
        for mode, bound in (("limdd", report.limdd_width_bound),
                            ("evdd", report.evdd_width_bound)):
            state, _ = simulate(circ, mode=mode)
            assert max(state.stats().width_per_level) <= bound


def test_nullity_never_exceeds_t_count_per_prefix():
    rng = random.Random(31337)
    for _ in range(10):
        n = rng.randint(2, 5)
        circ = gen_random(n, rng.randint(5, 30), seed=rng.randrange(1 << 20),
                          max_t=5)
        report = track(circ)
        seen_t = 0
        for gate, (nullity, local) in zip(circ.gates, report.per_gate):
            seen_t += 1 if gate.kind in ("t", "tdg") else 0
            assert nullity <= seen_t
            assert local >= nullity  # weight-one pins only remove rows


def test_generators_stabilize_dense_state():
    rng = random.Random(90210)
    for _ in range(15):
        n = rng.randint(2, 4)
        circ = gen_random(n, rng.randint(4, 16), seed=rng.randrange(1 << 20),
                          max_t=3)
        tab = run_tableau(circ)
        vec = dense_simulate(circ)
        for k, x, z in tab.rows:
            assert apply_row(n, k, x, z, vec) == vec


# -- pinned reports --------------------------------------------------------

def dressed_ghz(n: int) -> Circuit:
    """GHZ by an h and a cx ladder, with a t or tdg on every fourth qubit
    right after the ladder reaches it."""
    gates = [GateInstance("h", (0,))]
    for q in range(1, n):
        gates.append(GateInstance("cx", (q - 1, q)))
        if q % 4 == 3:
            gates.append(GateInstance("t" if q % 8 == 3 else "tdg", (q,)))
    return Circuit(n, tuple(gates))


# name -> (report fields before per_gate, per_gate as (pair, repeat) runs)
PINNED_REPORTS = {
    "grover-3": (
        (4, 43, 56, 4, 4, 16, 16, 4),
        (((0, 0), 4), ((3, 3), 1), ((3, 4), 1), ((4, 4), 37)),
    ),
    "wstate-8": (
        (8, 57, 14, 7, 8, 128, 256, 7),
        (((0, 0), 3), ((1, 1), 5), ((1, 2), 3), ((2, 3), 8), ((3, 4), 8),
         ((4, 5), 8), ((5, 6), 8), ((6, 7), 8), ((7, 8), 6)),
    ),
    "random-8-d80-s2": (
        (8, 80, 6, 2, 6, 4, 64, 2),
        (((0, 0), 48), ((1, 1), 1), ((2, 2), 5), ((2, 3), 12), ((2, 4), 13),
         ((2, 6), 1)),
    ),
    "ghz-24": (
        (24, 30, 6, 1, 24, 2, 16777216, 1),
        (((0, 0), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1), ((1, 4), 1),
         ((1, 5), 1), ((1, 6), 1), ((1, 7), 1), ((1, 8), 2), ((1, 9), 1),
         ((1, 10), 1), ((1, 11), 1), ((1, 12), 2), ((1, 13), 1), ((1, 14), 1),
         ((1, 15), 1), ((1, 16), 2), ((1, 17), 1), ((1, 18), 1), ((1, 19), 1),
         ((1, 20), 2), ((1, 21), 1), ((1, 22), 1), ((1, 23), 1), ((1, 24), 2)),
    ),
}


@pytest.mark.parametrize("native", [True, False])
@pytest.mark.parametrize("name,circ", [
    ("grover-3", gen_grover(3, 5)),
    ("wstate-8", gen_wstate(8)),
    ("random-8-d80-s2", gen_random(8, 80, 2, max_t=6)),
    ("ghz-24", dressed_ghz(24)),
])
def test_track_reports_are_pinned(name, circ, native):
    fields, runs = PINNED_REPORTS[name]
    per_gate = tuple(pair for pair, repeat in runs for _ in range(repeat))
    assert track(circ, native_ccx=native) == BoundReport(*fields, per_gate)
