"""Benchmark inputs: Clifford+T circuits written out as OpenQASM 2.0 text.

The generators live here rather than in ``qddsim.circuit`` so that a change
to the package's own generators cannot change what the benchmark feeds it.
Each circuit is kept twice: as a gate list for the independent oracle and
as qasm text for ``qddsim.circuit.parse_qasm``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

ARITY = {
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1, "x": 1, "y": 1, "z": 1,
    "cz": 2, "cx": 2, "swap": 2, "ccx": 3,
}
T_WEIGHT = {"t": 1, "tdg": 1, "ccx": 7}

Gate = tuple[str, tuple[int, ...]]


@dataclass
class Spec:
    """One generated circuit and the facts its closed-form checks need."""

    name: str
    n: int
    gates: list[Gate]
    facts: dict = field(default_factory=dict)

    @property
    def t_count(self) -> int:
        return sum(T_WEIGHT.get(kind, 0) for kind, _ in self.gates)

    def qasm(self) -> str:
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{self.n}];"]
        lines += [f"{k} " + ", ".join(f"q[{q}]" for q in qs) + ";" for k, qs in self.gates]
        return "\n".join(lines) + "\n"


def _controlled_h(c: int, t: int) -> list[Gate]:
    # s-h-t / cx / tdg-h-sdg is exactly controlled-H with two T gates.
    return [("s", (t,)), ("h", (t,)), ("t", (t,)), ("cx", (c, t)),
            ("tdg", (t,)), ("h", (t,)), ("sdg", (t,))]


def wstate(n: int) -> Spec:
    """Uniform single-excitation state on a power-of-two register, built by
    repeated doubling (controlled-H, then cx back)."""
    gates: list[Gate] = [("x", (0,))]
    m = 1
    while m < n:
        for i in range(m):
            gates += _controlled_h(i, i + m)
            gates.append(("cx", (i + m, i)))
        m *= 2
    return Spec(f"wstate-{n}", n, gates)


def _flip_all_ones(m: int) -> list[Gate]:
    """Phase flip on |1..1> of q[0..m-1], with a ccx ladder through the
    ancillas q[m..2m-3] (m >= 3)."""
    chain: list[Gate] = [("ccx", (0, 1, m))]
    for j in range(2, m - 1):
        chain.append(("ccx", (m + j - 2, j, m + j - 1)))
    return chain + [("cz", (2 * m - 3, m - 1))] + chain[::-1]


def grover(m: int, marked: int) -> Spec:
    """Grover search over m >= 3 qubits for one marked basis state (q[0] is
    its most significant bit), with the optimal iteration count."""
    k = math.floor(math.pi / 4 * math.sqrt(2 ** m))
    mask: list[Gate] = [("x", (j,)) for j in range(m) if not (marked >> (m - 1 - j)) & 1]
    flip = _flip_all_ones(m)
    hs: list[Gate] = [("h", (j,)) for j in range(m)]
    xs: list[Gate] = [("x", (j,)) for j in range(m)]
    gates = list(hs)
    for _ in range(k):
        gates += mask + flip + mask + hs + xs + flip + xs + hs
    return Spec(f"grover-{m}", 2 * m - 2, gates,
                {"m": m, "marked": marked, "iterations": k})


def random_ct(n: int, depth: int, seed: int, max_t: int) -> Spec:
    """Seeded random Clifford+T circuit.  The draws follow the same sequence
    as ``qddsim.circuit.gen_random(n, depth, seed, max_t=max_t)``, so seed k
    here is the circuit that ``qddsim bench random`` calls seed k."""
    pool = ["h", "t", "tdg", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"]
    rng = random.Random(seed)
    t_used = 0
    gates: list[Gate] = []
    for _ in range(depth):
        allowed = [k for k in pool if not (k in ("t", "tdg") and t_used >= max_t)]
        kind = rng.choice(allowed)
        gates.append((kind, tuple(rng.sample(range(n), ARITY[kind]))))
        if kind in ("t", "tdg"):
            t_used += 1
    return Spec(f"random-{n}-d{depth}-s{seed}", n, gates)


def dressed_ghz(n: int, dressed: list[int], rng: random.Random) -> Spec:
    """GHZ state on n qubits by an h and a cx ladder, with a T or Tdg gate,
    drawn from rng, on each qubit of ``dressed`` right after the ladder
    reaches it.  Every gate after the h only moves phase onto the |1..1>
    branch, so the state stays (|0..0> + omega^k |1..1>)/sqrt(2) and every
    marginal is exactly 1/2."""
    kinds = {q: rng.choice(("t", "tdg")) for q in dressed}
    gates: list[Gate] = [("h", (0,))]
    for q in range(1, n):
        gates.append(("cx", (q - 1, q)))
        if q in kinds:
            gates.append((kinds[q], (q,)))
    octant = sum(1 if k == "t" else -1 for k in kinds.values()) % 8
    return Spec(f"ghz-{n}", n, gates, {"octant": octant})


# -- workload inputs -------------------------------------------------------

WORKLOADS = {  # name -> diagram mode; both run on the exact backend
    "ct-limdd-exact": "limdd",
    "ct-evdd-exact": "evdd",
}
# The circuits' shapes are the same in every run: a Grover search's cost
# depends on its marked state by up to 25%, a random circuit's on its
# generator seed several fold, and a dressed GHZ state's on where its T gates
# sit by 25%.  A seed that chose them would swamp run-to-run comparisons.
GROVER = (3, 5)  # search qubits, marked state
WSTATE = 8
RANDOM = (8, 80, 2, 6)  # qubits, depth, generator seed, most T gates
GHZ_QUBITS = 24
GHZ_DRESSED = list(range(3, GHZ_QUBITS, 4))  # 6 T or Tdg gates, one every 4 qubits


def make_specs(workload: str, seed: int) -> list[Spec]:
    """The circuits, the same for every workload; --seed picks whether each
    GHZ dressing gate is a T or a Tdg, which changes the phase of |1..1> but
    not the cost."""
    return [grover(*GROVER), wstate(WSTATE), random_ct(*RANDOM),
            dressed_ghz(GHZ_QUBITS, GHZ_DRESSED, random.Random(seed))]
