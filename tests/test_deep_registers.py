"""Deep registers: every diagram walk takes about one stack frame per level."""
from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from qddsim import Circuit, GateInstance, simulate
from qddsim.coeff import INV_SQRT2, OMEGA, ONE, ZERO, RingValue
from qddsim.ddcore import DDStore
from qddsim.measure import measurement_probability, sample_counts, squared_norm


def _spanning_circuit(n: int) -> Circuit:
    """Gates of every kind on the bottom bits and between the top and the
    bottom qubits.  With a = q[0], d = q[n-3], b = q[n-2] and c = q[n-1],
    it ends in (|0000> - |1111>)/sqrt2 on (a, d, b, c), every other qubit
    at |0>; the comments give the state after each group."""
    a, d, b, c = 0, n - 3, n - 2, n - 1

    def g(kind, *qubits):
        return GateInstance(kind, qubits)

    return Circuit(n, (
        g("h", c), g("t", c),  # |0000> + w|0001>, w = omega
        g("cx", c, b),  # |0000> + w|0011>
        g("cx", b, a),  # |0000> + w|1011>
        g("cx", a, d),  # |0000> + w|1111>
        g("swap", b, c), g("swap", a, c),  # symmetric: unchanged
        g("cz", b, c), g("cz", a, c),  # two sign flips: unchanged
        g("ccx", d, b, c),  # |0000> + w|1110>
        g("ccx", a, b, c),  # |0000> + w|1111>
        g("ccx", c, d, a),  # |0000> + w|0111>
        g("cx", d, a),  # |0000> + w|1111>
        g("t", c), g("s", c), g("h", c), g("h", c),  # |0000> - |1111>
    ))


HALF = RingValue(Fraction(1, 2))


def _check_spanning_state(state, n: int) -> None:
    top = 1 << (n - 1)
    assert state.amplitude(0) == INV_SQRT2
    assert state.amplitude(top | 0b111) == -INV_SQRT2
    for index in (top, 0b111, top | 0b011, 1 << (n // 2)):
        assert state.amplitude(index) == ZERO
    assert squared_norm(state.store, state.root) == ONE
    assert measurement_probability(state, n - 1) == HALF
    assert measurement_probability(state, 0) == HALF
    assert measurement_probability(state, n // 2) == ONE
    zeros, ones = sample_counts(state, n - 1, 100, rng=7)
    assert zeros + ones == 100 and zeros and ones


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_public_operations_take_one_frame_per_level(mode):
    """Under a recursion limit of n frames plus a fixed margin, so that a
    walk taking two frames per level fails."""
    n = 200
    circuit = _spanning_circuit(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n + 40)
    try:
        state, _ = simulate(circuit, mode=mode)
        _check_spanning_state(state, n)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_layer_of_every_qubit_takes_one_frame_per_level(mode):
    """An h on every qubit is one run over all n bits, whose descent must
    not add a frame per bit on top of the frame per level.  h on every
    qubit, cz between the top and the bottom qubits and h on every qubit
    again leave (|0..0> + |10..0> + |0..01> - |10..01>)/2."""
    n = 200
    layer = tuple(GateInstance("h", (q,)) for q in range(n))
    circuit = Circuit(n, layer + (GateInstance("cz", (0, n - 1)),) + layer)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n + 40)
    try:
        state, run = simulate(circuit, mode=mode)
    finally:
        sys.setrecursionlimit(limit)
    assert run.ops_applied == 3
    top = 1 << (n - 1)
    for index in (0, top, 1):
        assert state.amplitude(index) == HALF
    assert state.amplitude(top | 1) == -HALF
    for index in (2, top >> 1, top | 2):
        assert state.amplitude(index) == ZERO
    assert squared_norm(state.store, state.root) == ONE


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_wide_register_runs_end_to_end(mode):
    n = 800
    state, run = simulate(_spanning_circuit(n), mode=mode)
    _check_spanning_state(state, n)
    # One node per level in limdd; evdd keeps the |0...0> and |1...1>
    # branches apart below the top qubit.
    assert run.final_nodes == (n + 1 if mode == "limdd" else 2 * n)


def _ghz_ladder(n: int) -> Circuit:
    """h on the top qubit, cx down the register and t on the bottom qubit:
    (|0..0> + omega|1..1>)/sqrt2."""
    return Circuit(n, (GateInstance("h", (0,)),)
                   + tuple(GateInstance("cx", (q, q + 1)) for q in range(n - 1))
                   + (GateInstance("t", (n - 1,)),))


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_cx_ladder_segments_take_one_frame_per_level(mode):
    """The ladder reaches the diagram in segments of up to 64 operations
    and more, each one descent; a descent that took a frame per operation
    of its segment, or two per level, fails under n frames plus a fixed
    margin."""
    n = 200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n + 40)
    try:
        state, run = simulate(_ghz_ladder(n), mode=mode)
    finally:
        sys.setrecursionlimit(limit)
    assert run.ops_applied == n + 1
    assert state.amplitude(0) == INV_SQRT2
    assert state.amplitude((1 << n) - 1) == OMEGA * INV_SQRT2
    assert state.amplitude(1) == state.amplitude(1 << (n - 1)) == ZERO
    assert run.final_nodes == (n + 1 if mode == "limdd" else 2 * n)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_store_reused_after_a_run_raised_gives_exact_results(mode):
    """A run that raises part-way leaves the memo of its segment behind,
    keyed by the operations' places in that segment.  Here the segment
    [h on the bottom qubit, cx up to the top] of ``first`` stores the h on
    the all-zero state below the top qubit, then runs out of frames in
    the cx; ``second`` starts on that very node with h and s in the same
    place, so a memo kept across the two calls would answer its first
    segment with the h alone."""
    n = 60
    g = GateInstance
    first = Circuit(n, (g("h", (0,)), g("cz", (0, 1)), g("cz", (0, 1)),
                        g("h", (n - 1,)), g("cx", (n - 1, 0))))
    second = Circuit(n - 1, (g("h", (n - 2,)), g("s", (n - 2,))))
    want = simulate(second, mode=mode)[0]
    raised = 0
    for margin in range(n - 10, n + 30):
        store = DDStore(mode=mode)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + margin)
        try:
            simulate(first, store=store)
        except RecursionError:
            raised += 1
        else:
            continue
        finally:
            sys.setrecursionlimit(limit)
        got = simulate(second, store=store)[0]
        for index in (0, 1, 2):
            assert got.amplitude(index) == want.amplitude(index), (margin, index)
    assert raised
