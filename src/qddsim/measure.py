"""Norms, measurement probabilities and sampling on diagram states.

Pauli strings and the canonical labels preserve the two-norm, so the squared
norm of a node is just the sum over its children, cached per node.  Exact
probabilities are ratios of ring values; sampling compares them against a
uniform draw through Decimal arithmetic so the exact backend never rounds
through binary floating point.
"""
from __future__ import annotations

import random
from decimal import Decimal

from .coeff import RingValue, real_decimal
from .ddcore import DDStore, Edge, State
from .gates import apply_gate


class ZeroStateError(Exception):
    """The state has no norm left to condition on."""


def _node_snorm(store: DDStore, node) -> object:
    if node.level == 0:
        return store.ops.one
    cached = store.snorm_cache.get(node.id)
    if cached is None:
        cached = store.ops.add(
            _edge_snorm(store, node.low), _edge_snorm(store, node.high)
        )
        store.snorm_cache[node.id] = cached
    return cached


def _edge_snorm(store: DDStore, edge: Edge) -> object:
    ops = store.ops
    if store.is_zero(edge):
        return ops.zero
    return ops.mul(ops.abs2(edge.lim.factor), _node_snorm(store, edge.node))


def squared_norm(store: DDStore, edge: Edge) -> object:
    return _edge_snorm(store, edge)


def _top_probability(store: DDStore, root: Edge) -> object:
    s0 = squared_norm(store, store.follow(root, 0))
    s1 = squared_norm(store, store.follow(root, 1))
    total = store.ops.add(s0, s1)
    if store.ops.is_zero(total):
        raise ZeroStateError("cannot measure a zero state")
    return store.ops.div(s0, total)


def _rotated_root(state: State, qubit: int) -> Edge:
    """Root with the named qubit swapped to the top (a fresh edge; the
    original state is untouched)."""
    root = state.root
    if qubit != 0:
        n = state.n_qubits
        root = apply_gate(state.store, root, "swap", (n - 1, n - 1 - qubit))
    return root


def measurement_probability(state: State, qubit: int = 0) -> object:
    """Probability that the qubit reads 0; exact ring value or float."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return _top_probability(state.store, _rotated_root(state, qubit))


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
    root = _rotated_root(state, qubit)
    n = state.n_qubits
    f0 = store.follow(root, 0)
    f1 = store.follow(root, 1)
    kept = f1 if outcome else f0
    p = squared_norm(store, kept)
    total = store.ops.add(p, squared_norm(store, f1 if not outcome else f0))
    if store.ops.is_zero(total):
        raise ZeroStateError("cannot measure a zero state")
    if store.ops.is_zero(p):
        raise ZeroStateError(f"outcome {outcome} has zero probability")
    scale = (abs(complex(total)) / abs(complex(p))) ** 0.5
    kept = Edge(
        type(kept.lim)(store.ops.mul(kept.lim.factor, complex(scale)), kept.lim.string),
        kept.node,
    )
    zero = store.zero_edge(n - 1)
    root = store.make_edge(kept, zero) if outcome == 0 else store.make_edge(zero, kept)
    if qubit != 0:
        root = apply_gate(store, root, "swap", (n - 1, n - 1 - qubit))
    return State(store, root, n)


def measure_qubit(
    state: State, qubit: int = 0, rng: random.Random | int | None = None
) -> tuple[int, State]:
    """Sample an outcome and return it with the collapsed state."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    outcome = sample(state, qubit, rng)
    return outcome, collapse(state, qubit, outcome)
