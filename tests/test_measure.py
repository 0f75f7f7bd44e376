"""Norms, measurement probabilities, sampling and collapse."""
from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from qddsim import Circuit, GateInstance, gen_wstate, simulate
from qddsim.coeff import INV_SQRT2, ONE, ZERO, CoeffPolicy, RingValue
from qddsim.ddcore import DDStore, State
from qddsim.measure import (
    ZeroStateError,
    collapse,
    measure_qubit,
    measurement_probability,
    probability_as_decimal,
    sample,
    sample_counts,
    squared_norm,
)

from conftest import bell_pair, random_corpus
from test_gates import compiled_cx_or_swap


# -- probabilities ---------------------------------------------------------

def test_w2_amplitudes_and_probabilities():
    state, _ = simulate(gen_wstate(2))
    assert state.to_vector() == [ZERO, INV_SQRT2, INV_SQRT2, ZERO]
    assert measurement_probability(state, 0) == RingValue(F(1, 2))
    assert measurement_probability(state, 1) == RingValue(F(1, 2))


def test_w4_every_qubit_reads_one_quarter():
    state, _ = simulate(gen_wstate(4))
    for q in range(4):
        assert measurement_probability(state, q) == RingValue(F(3, 4))


def test_bell_pair_probability():
    state, _ = simulate(bell_pair())
    assert measurement_probability(state, 0) == RingValue(F(1, 2))


def test_qubit_out_of_range():
    """A measured qubit must be an integer index into the register."""
    exact, _ = simulate(gen_wstate(2))
    floating, _ = simulate(gen_wstate(2), policy=CoeffPolicy("float"))
    for qubit in (2, -1, 1.5, 1.0, "1"):
        for state in (exact, floating):
            with pytest.raises(ValueError):
                measurement_probability(state, qubit)
            with pytest.raises(ValueError):
                sample_counts(state, qubit, shots=4, rng=0)
        with pytest.raises(ValueError):
            collapse(floating, qubit, 0)


def test_zero_state_raises():
    store = DDStore()
    state = State(store, store.zero_edge(2), 2)
    with pytest.raises(ZeroStateError):
        measurement_probability(state, 0)


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_squared_norm_stays_one(mode):
    for circ in random_corpus(6, seed=5150, n_range=(2, 4), depth_range=(6, 18)):
        state, _ = simulate(circ, mode=mode)
        assert squared_norm(state.store, state.root) == ONE
        statef, _ = simulate(circ, policy=CoeffPolicy("float"), mode=mode)
        assert abs(squared_norm(statef.store, statef.root) - 1.0) < 1e-9


def _swap_to_top_probability(state: State, qubit: int) -> object:
    """Reference marginal: swap the qubit to the top as three h-cz-h cx,
    then split the top qubit."""
    store, n = state.store, state.n_qubits
    root = state.root
    if qubit:
        root = compiled_cx_or_swap(store, root, "swap", (n - 1, n - 1 - qubit))
    s0 = squared_norm(store, store.follow(root, 0))
    s1 = squared_norm(store, store.follow(root, 1))
    return store.ops.div(s0, store.ops.add(s0, s1))


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_marginal_pass_matches_swap_reference(mode, backend):
    for circ in random_corpus(8, seed=6021, n_range=(2, 5), depth_range=(8, 30), max_t=4):
        state, _ = simulate(circ, policy=CoeffPolicy(backend), mode=mode)
        for q in range(circ.n_qubits):
            got = measurement_probability(state, q)
            want = _swap_to_top_probability(state, q)
            if backend == "exact":
                assert got == want
            else:
                assert abs(got - want) < 1e-12


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_ghz24_bottom_marginal_is_one_half(mode):
    gates = (GateInstance("h", (0,)),) + tuple(
        GateInstance("cx", (q, q + 1)) for q in range(23)
    )
    state, _ = simulate(Circuit(24, gates), mode=mode)
    assert measurement_probability(state, 23) == RingValue(F(1, 2))


# -- decimal rendering -----------------------------------------------------

def test_probability_as_decimal():
    assert probability_as_decimal(RingValue(F(1, 2))) == Decimal("0.5")
    mixed = probability_as_decimal(RingValue(F(1, 4), F(1, 8)), digits=20)
    assert str(mixed) == "0.42677669529663688110"
    assert probability_as_decimal(0.25) == Decimal("0.25")
    assert probability_as_decimal(complex(0.5, 0.0)) == Decimal("0.5")


# -- sampling --------------------------------------------------------------

def test_sampling_is_seed_deterministic():
    state, _ = simulate(gen_wstate(4))
    a = [sample(state, 0, rng=s) for s in range(20)]
    b = [sample(state, 0, rng=random.Random(s)) for s in range(20)]
    assert a == b
    assert set(a) <= {0, 1}


def test_sample_does_not_mutate_state():
    state, _ = simulate(gen_wstate(4))
    before = state.to_vector()
    for s in range(5):
        sample(state, 1, rng=s)
    assert state.to_vector() == before


def test_sample_counts_shape_and_distribution():
    state, _ = simulate(gen_wstate(4), policy=CoeffPolicy("float"))
    zeros, ones = sample_counts(state, 0, shots=2000, rng=424242)
    assert zeros + ones == 2000
    # p(one) is exactly 1/4; a 2000-shot draw stays well inside +-5 points
    assert abs(ones / 2000 - 0.25) < 0.05
    # frozen regression for the fixed seed
    assert (zeros, ones) == (1498, 502)
    assert sample_counts(state, 0, shots=0) == (0, 0)
    with pytest.raises(ValueError):
        sample_counts(state, 0, shots=-5)


def test_sample_counts_matches_per_shot_draws():
    state, _ = simulate(gen_wstate(4))
    rng = random.Random(2024)
    ones = 0
    for _ in range(256):
        p0 = probability_as_decimal(measurement_probability(state, 2))
        ones += Decimal(repr(rng.random())) >= p0
    assert sample_counts(state, 2, shots=256, rng=2024) == (256 - ones, ones)
    # counts of the per-shot implementation this replaced, seed 2024
    assert (256 - ones, ones) == (196, 60)


def test_certain_outcomes():
    plain = Circuit(2, (GateInstance("x", (0,)),))
    state, _ = simulate(plain)
    assert measurement_probability(state, 0) == ZERO
    assert measurement_probability(state, 1) == ONE
    assert all(sample(state, 0, rng=s) == 1 for s in range(10))
    assert all(sample(state, 1, rng=s) == 0 for s in range(10))


# -- collapse --------------------------------------------------------------

def test_collapse_requires_float_backend():
    state, _ = simulate(gen_wstate(2))
    with pytest.raises(ValueError):
        collapse(state, 0, 0)


def test_collapse_validates_arguments():
    state, _ = simulate(gen_wstate(2), policy=CoeffPolicy("float"))
    with pytest.raises(ValueError):
        collapse(state, 5, 0)
    with pytest.raises(ValueError):
        collapse(state, 0, 2)


def _close(vec, target, tol=1e-9):
    return all(abs(a - b) < tol for a, b in zip(vec, target))


def test_collapse_w2_both_outcomes():
    state, _ = simulate(gen_wstate(2), policy=CoeffPolicy("float"))
    up = collapse(state, 0, 1)
    assert _close(up.to_vector(), [0, 0, 1, 0])  # q0=1, q1=0
    down = collapse(state, 0, 0)
    assert _close(down.to_vector(), [0, 1, 0, 0])  # q0=0, q1=1
    # original state is untouched
    assert _close(state.to_vector(), [0, 2 ** -0.5, 2 ** -0.5, 0])


def test_collapse_impossible_outcome():
    plain = Circuit(2, (GateInstance("x", (0,)),))
    state, _ = simulate(plain, policy=CoeffPolicy("float"))
    with pytest.raises(ZeroStateError):
        collapse(state, 0, 0)


def test_measure_qubit_collapses_consistently():
    state, _ = simulate(gen_wstate(4), policy=CoeffPolicy("float"))
    for seed in range(6):
        outcome, after = measure_qubit(state, 2, rng=seed)
        p0 = measurement_probability(after, 2)
        assert abs(p0 - (1.0 if outcome == 0 else 0.0)) < 1e-9
        assert abs(squared_norm(after.store, after.root) - 1.0) < 1e-9
