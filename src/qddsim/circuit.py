"""Circuits: representation, a qasm-2 subset parser, family generators and a
dense reference evaluator.

Register index 0 is the top qubit everywhere; basis-state integers carry
qubit ``q[j]`` in bit ``n-1-j``, so ``q[0]`` is the most significant bit.
The dense evaluator applies the gate list as written (cx, ccx and swap as
index permutations) over exact ring amplitudes, deliberately sharing no code
with the diagram simulator so the two can check each other.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from .coeff import INV_SQRT2, ONE, ZERO, RingValue, omega_power
from .gates import GateCounts, GateInstance, count_gates
from .stabtrack import GATE_ARITY, gate_support, whole


class QasmParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[GateInstance, ...] = ()
    measurements: tuple[tuple[int, int], ...] = ()  # (qubit, classical bit)

    def __post_init__(self) -> None:
        n = whole(self.n_qubits, "register size", 1)
        for g in self.gates:
            gate_support(g.kind, g.qubits, n)
        for q, c in self.measurements:
            whole(q, "measured qubit", 0, n)
            whole(c, "classical bit")

    def counts(self) -> GateCounts:
        return count_gates(self.gates)


# -- qasm subset -----------------------------------------------------------

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_REF = rf"{_ID}\s*\[\s*\d+\s*\]"
_REF_RE = re.compile(rf"({_ID})\s*\[\s*(\d+)\s*\]")
_DECL_RE = re.compile(rf"[qc]reg\s+({_ID})\s*\[\s*(\d+)\s*\]")
_MEASURE_RE = re.compile(rf"measure\s+({_REF})\s*->\s*({_REF})")
_GATE_RE = re.compile(r"([a-z]+)\s+(.*)", re.S)
_INCLUDE_RE = re.compile(r'include\s+"[^"]+"')


def parse_qasm(text: str) -> Circuit:
    """Parse the supported qasm-2 subset: one qreg, one optional creg, the
    gate set of this package, and measure statements."""
    clean = re.sub(r"//[^\n]*", lambda m: " " * len(m.group(0)), text)

    def err(message: str, offset: int):
        line = text.count("\n", 0, offset) + 1
        raise QasmParseError(message, line, offset - text.rfind("\n", 0, offset))

    def index(operand: str, reg: tuple[str, int], what: str, offset: int) -> int:
        ref = _REF_RE.fullmatch(operand)
        if ref is None:
            err(f"malformed operand {operand!r}", offset)
        if ref.group(1) != reg[0]:
            err(f"unknown register {ref.group(1)!r}", offset)
        i = int(ref.group(2))
        if i >= reg[1]:
            err(f"{what} index {i} out of range", offset)
        return i

    *bodies, tail = clean.split(";")
    if tail.strip():
        err("statement missing ';'", len(clean) - len(tail.lstrip()))

    regs: dict[str, tuple[str, int]] = {}  # "qreg" / "creg" -> (name, size)
    gates: list[GateInstance] = []
    measurements: list[tuple[int, int]] = []
    start = 0
    for body in bodies:
        stmt, off = body.strip(), start + len(body) - len(body.lstrip())
        start += len(body) + 1
        if not stmt:
            continue
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            if stmt.split() != ["OPENQASM", "2.0"]:
                err("only OPENQASM 2.0 is supported", off)
        elif head in ("qreg", "creg"):
            m = _DECL_RE.fullmatch(stmt)
            if m is None:
                err(f"malformed {head} declaration", off)
            if head in regs:
                err(f"only one {head} is supported", off)
            if head == "qreg" and int(m.group(2)) < 1:
                err("qreg must hold at least one qubit", off)
            regs[head] = (m.group(1), int(m.group(2)))
        elif head == "measure":
            m = _MEASURE_RE.fullmatch(stmt)
            if m is None:
                err("malformed measure statement", off)
            if "qreg" not in regs:
                err("measure before qreg declaration", off)
            if "creg" not in regs:
                err("measure requires a creg", off)
            q = index(m.group(1), regs["qreg"], "qubit", off)
            measurements.append((q, index(m.group(2), regs["creg"], "classical", off)))
        elif head == "include":
            if _INCLUDE_RE.fullmatch(stmt) is None:
                err("malformed include statement", off)
        else:
            m = _GATE_RE.fullmatch(stmt)
            if m is None or m.group(1) not in GATE_ARITY:
                err(f"unsupported statement {head!r}", off)
            if "qreg" not in regs:
                err("gate before qreg declaration", off)
            args = m.group(2).split(",")
            qubits = tuple(index(a.strip(), regs["qreg"], "qubit", off) for a in args)
            try:
                gates.append(GateInstance(m.group(1), qubits))
            except ValueError:  # checked against no register; name this one's range
                try:
                    gate_support(m.group(1), qubits, regs["qreg"][1])
                except ValueError as exc:
                    err(str(exc), off)

    if "qreg" not in regs:
        raise QasmParseError("no qreg declaration", 1, 1)
    return Circuit(regs["qreg"][1], tuple(gates), tuple(measurements))


def emit_qasm(circuit: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    if circuit.measurements:
        width = max(c for _, c in circuit.measurements) + 1
        lines.append(f"creg c[{width}];")
    for g in circuit.gates:
        args = ", ".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.kind} {args};")
    for q, c in circuit.measurements:
        lines.append(f"measure q[{q}] -> c[{c}];")
    return "\n".join(lines) + "\n"


# -- generators ------------------------------------------------------------


def _controlled_h(control: int, target: int) -> list[GateInstance]:
    # s-h-t / cx / tdg-h-sdg sandwich; exactly controlled-H, two T gates.
    return [
        GateInstance("s", (target,)),
        GateInstance("h", (target,)),
        GateInstance("t", (target,)),
        GateInstance("cx", (control, target)),
        GateInstance("tdg", (target,)),
        GateInstance("h", (target,)),
        GateInstance("sdg", (target,)),
    ]


def gen_wstate(n: int) -> Circuit:
    """Uniform single-excitation state over a power-of-two register by
    repeated doubling: each round splits every excitation between a held
    position and a fresh one via controlled-H then cx back."""
    if whole(n, "register size", 1) & (n - 1):
        raise ValueError(f"register size must be a power of two, got {n!r}")
    gates: list[GateInstance] = [GateInstance("x", (0,))]
    m = 1
    while m < n:
        for i in range(m):
            gates.extend(_controlled_h(i, i + m))
            gates.append(GateInstance("cx", (i + m, i)))
        m *= 2
    return Circuit(n, tuple(gates))


def _controlled_z_all(m: int) -> list[GateInstance]:
    """Phase flip on |1...1> of the first m qubits, using the ancilla block
    that starts at index m."""
    if m == 1:
        return [GateInstance("z", (0,))]
    if m == 2:
        return [GateInstance("cz", (0, 1))]
    chain = [GateInstance("ccx", (0, 1, m))]
    for j in range(2, m - 1):
        chain.append(GateInstance("ccx", (m + j - 2, j, m + j - 1)))
    out = list(chain)
    out.append(GateInstance("cz", (2 * m - 3, m - 1)))
    out.extend(reversed(chain))
    return out


def gen_grover(n_search: int, marked: int, iterations: int | None = None) -> Circuit:
    """Search circuit for one marked basis state; bit n_search-1-j of
    ``marked`` is carried by q[j].  Ancillas (max(0, n_search-2) of them)
    sit after the search register and return to zero."""
    m = whole(n_search, "search qubit count", 1)
    whole(marked, "marked state", 0, 1 << m)
    n = m + max(0, m - 2)
    if iterations is None:
        iterations = max(1, math.floor(math.pi / 4 * math.sqrt(2**m)))
    whole(iterations, "iterations")
    mask = [
        GateInstance("x", (j,))
        for j in range(m)
        if not (marked >> (m - 1 - j)) & 1
    ]
    flip = _controlled_z_all(m)
    gates: list[GateInstance] = [GateInstance("h", (j,)) for j in range(m)]
    for _ in range(iterations):
        gates.extend(mask)
        gates.extend(flip)
        gates.extend(mask)
        gates.extend(GateInstance("h", (j,)) for j in range(m))
        gates.extend(GateInstance("x", (j,)) for j in range(m))
        gates.extend(flip)
        gates.extend(GateInstance("x", (j,)) for j in range(m))
        gates.extend(GateInstance("h", (j,)) for j in range(m))
    return Circuit(n, tuple(gates))


def gen_random(
    n: int,
    depth: int,
    seed: int,
    max_t: int | None = None,
    max_h: int | None = None,
    kinds: tuple[str, ...] | None = None,
) -> Circuit:
    """Seeded random circuit; optional ceilings on t-family and h gates."""
    whole(n, "register size", 1)
    whole(depth, "depth")
    for name, ceiling in (("max_t", max_t), ("max_h", max_h)):
        if ceiling is not None:
            whole(ceiling, f"gate ceilings: {name}")
    if kinds is None:
        pool = ["h", "t", "tdg", "s", "sdg", "x", "y", "z"]
        if n >= 2:
            pool += ["cx", "cz", "swap"]
    elif isinstance(kinds, str):  # it would be read one letter at a time
        raise ValueError(f"kinds must be a collection of gate kinds, not the string {kinds!r}")
    else:
        for k in kinds:
            if k not in GATE_ARITY:
                raise ValueError(f"unknown gate kind {k!r}")
        pool = [k for k in kinds if GATE_ARITY[k] <= n]
        if not pool:
            raise ValueError("no usable gate kinds")
    rng = random.Random(seed)
    t_used = h_used = 0
    gates: list[GateInstance] = []
    for _ in range(depth):
        allowed = [
            k
            for k in pool
            if not (k in ("t", "tdg") and max_t is not None and t_used >= max_t)
            and not (k == "h" and max_h is not None and h_used >= max_h)
        ]
        if not allowed:
            break
        kind = rng.choice(allowed)
        qubits = tuple(rng.sample(range(n), GATE_ARITY[kind]))
        gates.append(GateInstance(kind, qubits))
        if kind in ("t", "tdg"):
            t_used += 1
        elif kind == "h":
            h_used += 1
    return Circuit(n, tuple(gates))


# -- dense reference evaluation --------------------------------------------

_DENSE_CAP = 12


def dense_simulate(circuit: Circuit, max_qubits: int = _DENSE_CAP) -> list[RingValue]:
    """Exact full-vector evaluation of the gate list as written."""
    n = circuit.n_qubits
    if n > max_qubits:
        raise ValueError(f"dense evaluation capped at {max_qubits} qubits")
    dim = 1 << n
    vec: list[RingValue] = [ZERO] * dim
    vec[0] = ONE
    for gate in circuit.gates:
        bits = tuple(n - 1 - q for q in gate.qubits)
        kind = gate.kind
        if kind in ("h", "x", "y"):
            b = 1 << bits[0]
            for i in range(dim):
                if i & b:
                    continue
                j = i | b
                lo, hi = vec[i], vec[j]
                if kind == "h":
                    vec[i] = (lo + hi) * INV_SQRT2
                    vec[j] = (lo - hi) * INV_SQRT2
                elif kind == "x":
                    vec[i], vec[j] = hi, lo
                else:
                    vec[i] = hi.times_i_power(3)
                    vec[j] = lo.times_i_power(1)
        elif kind in ("z", "s", "sdg", "t", "tdg"):
            p = {"z": 4, "s": 2, "sdg": 6, "t": 1, "tdg": 7}[kind]
            w = omega_power(p)
            b = 1 << bits[0]
            for i in range(dim):
                if i & b:
                    vec[i] = vec[i] * w
        elif kind == "cz":
            mask = (1 << bits[0]) | (1 << bits[1])
            for i in range(dim):
                if i & mask == mask:
                    vec[i] = -vec[i]
        elif kind == "cx":
            c, t = 1 << bits[0], 1 << bits[1]
            for i in range(dim):
                if i & c and not i & t:
                    j = i | t
                    vec[i], vec[j] = vec[j], vec[i]
        elif kind == "swap":
            a, b = 1 << bits[0], 1 << bits[1]
            for i in range(dim):
                if i & a and not i & b:
                    j = (i ^ a) | b
                    vec[i], vec[j] = vec[j], vec[i]
        elif kind == "ccx":
            c1, c2, t = (1 << bits[0]), (1 << bits[1]), (1 << bits[2])
            cc = c1 | c2
            for i in range(dim):
                if i & cc == cc and not i & t:
                    j = i | t
                    vec[i], vec[j] = vec[j], vec[i]
        else:  # pragma: no cover - gate table and parser agree
            raise ValueError(f"unknown gate kind {kind!r}")
    return vec


def dense_probability_zero(vec: list[RingValue], qubit: int = 0) -> RingValue:
    """Probability that the qubit, an integer in [0, n), reads 0, from a
    dense vector of 2**n amplitudes, n >= 1."""
    n = (len(vec) - 1).bit_length()
    if len(vec) != 1 << n or n < 1:
        raise ValueError(f"need 2**n amplitudes with n >= 1, got {len(vec)}")
    b = 1 << (n - 1 - whole(qubit, "qubit", 0, n))
    total = ZERO
    kept = ZERO
    for i, amp in enumerate(vec):
        a2 = amp.abs2()
        total = total + a2
        if not i & b:
            kept = kept + a2
    if total.is_zero():
        raise ValueError("zero vector")
    return kept / total
