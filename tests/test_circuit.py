"""Circuit records, the qasm subset, generators, and the dense reference."""
from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
from qddsim.circuit import (
    QasmParseError,
    dense_probability_zero,
    emit_qasm,
    parse_qasm,
)
from qddsim.coeff import ONE, ZERO, RingValue

from conftest import bell_pair, random_corpus


# -- circuit records -------------------------------------------------------

def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError):
        Circuit(2, (GateInstance("h", (2,)),))
    with pytest.raises(ValueError):
        Circuit(2, (), ((3, 0),))
    with pytest.raises(ValueError):  # a bool is no qubit position
        Circuit(2, (GateInstance("cx", (False, True)),))
    for measurement in ((0.5, 0), (1.0, 0), (0, -1), (0, 1.0), (0, "1"), (True, 0), (0, False)):
        with pytest.raises(ValueError):
            Circuit(2, (), (measurement,))


def test_circuit_counts():
    assert bell_pair().counts() == (4, 0, 3, 1)
    assert Circuit(3, (GateInstance("ccx", (0, 1, 2)),)).counts().t_count == 7


# -- qasm parsing ----------------------------------------------------------

GOOD = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[2];
h q[0];
cx q[0], q[1];  // entangle
ccx q[0], q[1], q[2];
measure q[0] -> c[0];
measure q[2] -> c[1];
"""


def test_parse_minimal_program():
    circ = parse_qasm(GOOD)
    assert circ.n_qubits == 3
    assert [g.kind for g in circ.gates] == ["h", "cx", "ccx"]
    assert circ.gates[1].qubits == (0, 1)
    assert circ.measurements == ((0, 0), (2, 1))


def test_parse_emit_round_trip():
    skipping = Circuit(2, (GateInstance("h", (1,)),), ((1, 3), (0, 0)))
    for circ in [bell_pair(), parse_qasm(GOOD), skipping] + random_corpus(
        6, seed=8128, n_range=(1, 5), depth_range=(0, 20)
    ):
        assert parse_qasm(emit_qasm(circ)) == circ
    # emit o parse is a fixpoint on emitted text
    text = emit_qasm(parse_qasm(GOOD))
    assert emit_qasm(parse_qasm(text)) == text


def test_parse_tolerates_layout():
    circ = parse_qasm("qreg  q [ 2 ] ;\n\n  h   q[ 1 ]\n;cz q[0],q[1];")
    assert circ == Circuit(
        2, (GateInstance("h", (1,)), GateInstance("cz", (0, 1)))
    )


BAD_PROGRAMS = [  # (text, label, expected message)
    ("", "no qreg", "no qreg declaration"),
    ("qreg q[2]", "missing ';'", "statement missing ';'"),
    ("OPENQASM 3.0;\nqreg q[1];", "version", "only OPENQASM 2.0 is supported"),
    ("qreg q[0];", "empty register", "qreg must hold at least one qubit"),
    ("qreg q[2]; qreg r[2];", "second qreg", "only one qreg is supported"),
    ("qreg q[];", "malformed qreg", "malformed qreg declaration"),
    ("creg c[x];\nqreg q[1];", "malformed creg", "malformed creg declaration"),
    ("qreg q[1]; creg c[1]; creg d[1];", "second creg", "only one creg is supported"),
    ("measure q[0] -> c[0];", "measure before qreg", "measure before qreg declaration"),
    ("qreg q[1]; measure q[0] -> c[0];", "measure without creg", "measure requires a creg"),
    ("qreg q[1]; creg c[1]; measure r[0] -> c[0];", "unknown register", "unknown register 'r'"),
    ("qreg q[1]; creg c[1]; measure q[1] -> c[0];", "qubit range", "qubit index 1 out of range"),
    ("qreg q[1]; creg c[1]; measure q[0] -> c[9];", "classical range",
     "classical index 9 out of range"),
    ("qreg q[1]; creg c[1]; measure q -> c[0];", "malformed measure", "malformed measure statement"),
    ("qreg q[2]; foo q[0];", "unsupported gate", "unsupported statement 'foo'"),
    ("h q[0]; qreg q[1];", "gate before qreg", "gate before qreg declaration"),
    ("qreg q[2]; h q;", "malformed operand", "malformed operand 'q'"),
    ("qreg q[2]; h r[0];", "unknown register in gate", "unknown register 'r'"),
    ("qreg q[2]; h q[5];", "gate qubit range", "qubit index 5 out of range"),
    ("qreg q[2]; cx q[0];", "arity",
     "cx takes 2 distinct integer position(s) in [0, 2), got (0,)"),
    ("qreg q[2]; cx q[1], q[1];", "duplicate qubits",
     "cx takes 2 distinct integer position(s) in [0, 2), got (1, 1)"),
    ("qreg q[1]; include 5 6 7;", "include without a file", "malformed include statement"),
    ("qreg q[1]; include;", "bare include", "malformed include statement"),
]


@pytest.mark.parametrize(
    "text,label,message", BAD_PROGRAMS, ids=[b[1] for b in BAD_PROGRAMS]
)
def test_parse_rejects(text, label, message):
    with pytest.raises(QasmParseError) as exc:
        parse_qasm(text)
    assert exc.value.line >= 1 and exc.value.col >= 1
    assert exc.value.message == message


@pytest.mark.parametrize("gap", ["  ", "\t", "\n"], ids=["two spaces", "tab", "newline"])
def test_header_takes_any_whitespace(gap):
    assert parse_qasm(GOOD.replace("OPENQASM 2.0", f"OPENQASM{gap}2.0")) == parse_qasm(GOOD)


def test_parse_error_location():
    with pytest.raises(QasmParseError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\n  foo q[0];\n")
    assert (exc.value.line, exc.value.col) == (3, 3)
    assert "foo" in str(exc.value)


def test_comments_do_not_shift_locations():
    with pytest.raises(QasmParseError) as exc:
        parse_qasm("// header\nqreg q[1];\nh q[3]; // oops\n")
    assert exc.value.line == 3


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
               max_size=120))
def test_parser_never_panics(text):
    try:
        circ = parse_qasm(text)
    except QasmParseError:
        return
    assert isinstance(circ, Circuit)


# -- generators ------------------------------------------------------------

def test_wstate_shapes():
    assert gen_wstate(1).gates == (GateInstance("x", (0,)),)
    w4 = gen_wstate(4)
    assert w4.n_qubits == 4
    assert w4.counts().t_count == 6  # 2 per controlled-H, n-1 of them
    vec = dense_simulate(w4)
    half = RingValue(F(1, 2))
    hot = {1 << k for k in range(4)}
    assert all(
        v == (half if i in hot else ZERO) for i, v in enumerate(vec)
    )
    for bad in (0, 3, 6, -2):
        with pytest.raises(ValueError):
            gen_wstate(bad)


def test_grover_amplifies_marked_state():
    circ = gen_grover(3, 5)
    assert circ.n_qubits == 4  # one ancilla for the 3-control phase flip
    vec = dense_simulate(circ)
    amps = [abs(v.to_complex()) ** 2 for v in vec]
    n = circ.n_qubits

    def idx(search: int) -> int:
        i = 0
        for j in range(3):
            if (search >> (3 - 1 - j)) & 1:
                i |= 1 << (n - 1 - j)
        return i

    assert amps[idx(5)] == pytest.approx(0.9453125)
    # ancillas are returned to zero: no weight outside the search block
    support = {idx(s) for s in range(8)}
    assert sum(a for i, a in enumerate(amps) if i not in support) == 0.0


def test_grover_validation():
    with pytest.raises(ValueError):
        gen_grover(0, 0)
    with pytest.raises(ValueError):
        gen_grover(2, 4)
    one = gen_grover(1, 1, iterations=1)
    assert one.n_qubits == 1


def test_gen_random_caps_and_determinism():
    a = gen_random(4, 30, seed=5, max_t=3, max_h=2)
    b = gen_random(4, 30, seed=5, max_t=3, max_h=2)
    assert a == b
    kinds = [g.kind for g in a.gates]
    assert sum(k in ("t", "tdg") for k in kinds) <= 3
    assert kinds.count("h") <= 2
    only = gen_random(3, 20, seed=9, kinds=("h", "cz"))
    assert {g.kind for g in only.gates} <= {"h", "cz"}
    single = gen_random(1, 10, seed=2)
    assert all(len(g.qubits) == 1 for g in single.gates)
    with pytest.raises(ValueError):
        gen_random(0, 5, seed=1)
    with pytest.raises(ValueError):
        gen_random(2, -1, seed=1)
    with pytest.raises(ValueError):
        gen_random(1, 5, seed=1, kinds=("cx",))  # nothing fits one qubit
    with pytest.raises(ValueError, match="unknown gate kind"):
        gen_random(3, 5, seed=0, kinds=("rx",))
    for kinds in ("cx", "hx", "xyz", "h"):  # a string of letters that are all kinds too
        with pytest.raises(ValueError, match="not the string"):
            gen_random(3, 5, seed=0, kinds=kinds)
    for ceilings in ({"max_t": -2}, {"max_h": -1}):
        with pytest.raises(ValueError):
            gen_random(3, 10, seed=1, **ceilings)


# -- dense reference -------------------------------------------------------

def test_dense_cap_guards_memory():
    with pytest.raises(ValueError):
        dense_simulate(Circuit(13))
    assert dense_simulate(Circuit(13), max_qubits=13)[0] == ONE


def test_dense_probability_zero():
    vec = dense_simulate(gen_wstate(4))
    assert dense_probability_zero(vec, 0) == RingValue(F(3, 4))
    assert dense_probability_zero(vec, 3) == RingValue(F(3, 4))
    basis = dense_simulate(Circuit(2, (GateInstance("x", (0,)),)))
    assert dense_probability_zero(basis, 0) == ZERO
    assert dense_probability_zero(basis, 1) == ONE
    for qubit in (-1, 2, 1.0):
        with pytest.raises(ValueError):
            dense_probability_zero(basis, qubit)
    with pytest.raises(ValueError):
        dense_probability_zero(vec[:6])
    with pytest.raises(ValueError, match="zero vector"):
        dense_probability_zero([ZERO, ZERO])


@pytest.mark.parametrize("mode", ["limdd", "evdd"])
def test_dense_agrees_with_diagram_on_generators(mode):
    for circ in (gen_wstate(2), gen_wstate(4), gen_grover(2, 1), bell_pair()):
        state, _ = simulate(circ, mode=mode)
        assert state.to_vector() == dense_simulate(circ)
