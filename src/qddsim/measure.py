"""Norms, measurement probabilities and sampling on diagram states.

Pauli strings and the canonical labels preserve the two-norm, so the squared
norm of a node is just the sum over its children, cached per node.  The
marginal of any qubit is one memoized pass over those norms: each node
splits its squared norm by the qubit's value, and a label with an X at the
qubit swaps the two parts.  No gate runs and no node is built.  Exact
probabilities are ratios of ring values; sampling compares them against a
uniform draw through Decimal arithmetic so the exact backend never rounds
through binary floating point.  ``collapse`` projects the root with the
same projection the native cx and swap use.
"""
from __future__ import annotations

import random
from decimal import Decimal

from .coeff import RingValue, real_decimal
from .ddcore import DDStore, Edge, State
from .gates import project
from .pauli import lim_scale
from .stabtrack import gate_support


class ZeroStateError(Exception):
    """The state has no norm left to condition on."""


def _edge_snorm(store: DDStore, edge: Edge) -> object:
    """The edge's squared norm: its factor's times its node's, which is
    cached per node."""
    ops = store.ops
    if store.is_zero(edge):
        return ops.zero
    node = edge.node
    snorm = ops.one if node.level == 0 else store.snorm_cache.get(node.id)
    if snorm is None:
        snorm = ops.add(_edge_snorm(store, node.low), _edge_snorm(store, node.high))
        store.snorm_cache[node.id] = snorm
    return ops.mul(ops.abs2(edge.lim.factor), snorm)


def squared_norm(store: DDStore, edge: Edge) -> object:
    return _edge_snorm(store, edge)


def _split_snorm(store: DDStore, edge: Edge, bit: int, memo: dict) -> tuple:
    """Squared norms of the edge's state where ``bit`` reads 0 and 1;
    ``memo`` holds each node's pair."""
    ops = store.ops
    if store.is_zero(edge):
        return ops.zero, ops.zero
    node = edge.node
    pair = memo.get(node.id)
    if pair is None:
        if node.level - 1 == bit:
            pair = (_edge_snorm(store, node.low), _edge_snorm(store, node.high))
        else:
            l0, l1 = _split_snorm(store, node.low, bit, memo)
            h0, h1 = _split_snorm(store, node.high, bit, memo)
            pair = (ops.add(l0, h0), ops.add(l1, h1))
        memo[node.id] = pair
    s0, s1 = pair
    if (edge.lim.string.x >> bit) & 1:
        s0, s1 = s1, s0
    w = ops.abs2(edge.lim.factor)
    return ops.mul(w, s0), ops.mul(w, s1)


def _bit(state: State, qubit: int) -> int:
    """The qubit's internal bit; the qubit must be valid where a one-qubit
    gate is (``gate_support``)."""
    gate_support("z", (qubit,), state.n_qubits)
    return state.n_qubits - 1 - qubit


def measurement_probability(state: State, qubit: int = 0) -> object:
    """Probability that the qubit reads 0; exact ring value or float."""
    ops = state.store.ops
    s0, s1 = _split_snorm(state.store, state.root, _bit(state, qubit), {})
    total = ops.add(s0, s1)
    if ops.is_zero(total):
        raise ZeroStateError("cannot measure a zero state")
    return ops.div(s0, total)


def probability_as_decimal(p: object, digits: int = 30) -> Decimal:
    if isinstance(p, RingValue):
        return real_decimal(p, digits)
    return Decimal(repr(float(abs(p)) if isinstance(p, complex) else float(p)))


def sample(state: State, qubit: int = 0, rng: random.Random | int | None = None) -> int:
    """Draw one measurement outcome for the qubit; the state is not changed."""
    return sample_counts(state, qubit, 1, rng)[1]


def sample_counts(
    state: State, qubit: int = 0, shots: int = 1, rng: random.Random | int | None = None
) -> tuple[int, int]:
    """(zeros, ones) over ``shots`` draws.  The probability is computed once;
    each shot reads 1 when its uniform draw is not below p0."""
    if shots < 0:
        raise ValueError(f"shots must not be negative, got {shots}")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    p0 = probability_as_decimal(measurement_probability(state, qubit))
    ones = sum(Decimal(repr(rng.random())) >= p0 for _ in range(shots))
    return shots - ones, ones


def collapse(state: State, qubit: int, outcome: int) -> State:
    """Project onto an outcome and renormalize (float backend only: the
    exact ring has no square roots for general norms)."""
    store = state.store
    if store.ops.backend != "float":
        raise ValueError(
            "collapse requires the float backend; exact states are immutable"
        )
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    bit = _bit(state, qubit)
    total = squared_norm(store, state.root)
    if store.ops.is_zero(total):
        raise ZeroStateError("cannot measure a zero state")
    kept = project(store, state.root, bit, outcome)
    p = squared_norm(store, kept)
    if store.ops.is_zero(p):
        raise ZeroStateError(f"outcome {outcome} has zero probability")
    scale = (abs(complex(total)) / abs(complex(p))) ** 0.5
    kept = Edge(lim_scale(store.ops, complex(scale), kept.lim), kept.node)
    return State(store, kept, state.n_qubits)


def measure_qubit(
    state: State, qubit: int = 0, rng: random.Random | int | None = None
) -> tuple[int, State]:
    """Sample an outcome and return it with the collapsed state."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    outcome = sample(state, qubit, rng)
    return outcome, collapse(state, qubit, outcome)
