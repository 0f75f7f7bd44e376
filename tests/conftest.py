"""Shared corpus builders and cross-checking helpers."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qddsim import Circuit, GateInstance, dense_simulate, gen_random, simulate
from qddsim.coeff import RingValue


def dyadic_ring(rng: random.Random, max_num: int = 64, max_exp: int = 6) -> RingValue:
    # the simulator only ever produces power-of-two denominators
    def frac() -> Fraction:
        return Fraction(rng.randint(-max_num, max_num), 1 << rng.randint(0, max_exp))

    return RingValue(frac(), frac(), frac(), frac())


def random_corpus(
    count: int,
    *,
    seed: int,
    n_range: tuple[int, int],
    depth_range: tuple[int, int],
    max_t: int | None = None,
    max_h: int | None = None,
    kinds: tuple[str, ...] | None = None,
) -> list[Circuit]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        depth = rng.randint(*depth_range)
        out.append(
            gen_random(
                n,
                depth,
                seed=rng.randrange(1 << 30),
                max_t=max_t,
                max_h=max_h,
                kinds=kinds,
            )
        )
    return out


def assert_matches_dense(circuit: Circuit, mode: str) -> None:
    state, _ = simulate(circuit, mode=mode)
    assert state.to_vector() == dense_simulate(circuit)
    state.check()


@pytest.fixture(scope="session")
def small_corpus() -> list[Circuit]:
    return random_corpus(
        40, seed=90125, n_range=(2, 5), depth_range=(8, 30), max_t=5
    )


def bell_pair() -> Circuit:
    return Circuit(2, (GateInstance("h", (0,)), GateInstance("cx", (0, 1))))


MOTIVATING = Circuit(2, (
    GateInstance("h", (0,)),
    GateInstance("t", (0,)),
    GateInstance("t", (0,)),
    GateInstance("sdg", (0,)),
    GateInstance("h", (0,)),
    GateInstance("cx", (0, 1)),
))

LEADING = Circuit(2, (
    GateInstance("h", (0,)),
    GateInstance("h", (1,)),
    GateInstance("cz", (0, 1)),
    GateInstance("t", (0,)),
    GateInstance("h", (0,)),
    GateInstance("t", (1,)),
))
