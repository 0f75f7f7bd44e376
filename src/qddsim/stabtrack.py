"""Stabilizer-rank tracking for diagram-width ceilings.

A tableau follows the circuit from the all-zero state.  It holds the state's
stabilizer group S and, beside it, generators L such that S and L together
span S⊥, the Pauli strings that commute with every member of S.  Clifford
gates conjugate every generator exactly.  A non-Clifford gate cannot keep
the whole group, so it keeps the subgroup that commutes with it.  The
nullity (qubits minus rows of S) upper-bounds the log of the widest diagram
level in limdd mode; the local nullity (qubits not pinned by a weight-one
string in S) plays the same role for evdd mode.

The generators are stored by column, bit r of every mask for generator r:
per qubit q an x mask and a z mask of the generators' bits at q, one sign
mask, ``stab`` for the rows of S and ``comm`` for the generators that span
S⊥.  A Clifford gate is a few integer operations on the columns of its
qubits, with the sign rules of ``pauli.conj_bits``.

- Pin rule.  A weight-one string at q is in S iff it commutes with every
  generator of S⊥, because S = (S⊥)⊥.  So q is pinned iff its x column or
  its z column is zero (Z_q or X_q is in S) or the two are equal (Y_q is),
  read over ``comm``.  A gate can change the pin only of a qubit it acts
  on, since U† P_p U = P_p off its support, and a single-qubit Clifford
  maps the weight-one strings on its qubit to weight-one strings there; so
  ``cx``, ``cz``, ``swap`` and a discard recheck their qubits, nothing else.
- Discard rule.  A t or tdg at q keeps the members of S with no x bit at q.
  The first row of S that has one, the pivot, is multiplied into the other
  rows that have one, their phases from a bit-sliced count mod 4 over the
  pivot's support.  The pivot then leaves S for L, and Z_q joins L: the
  kept group's commutant is the old one plus Z_q.  A ccx that does not
  reduce to a Clifford discards the x bit at each control the same way and
  the z bit at its target, where X_t joins L instead.

The tableau starts from |0...0>, where generator k is Z_k, and gates are
its only way in.  ``rows`` reads S back as kernel rows (k, x, z) of
``pauli`` with k in {0, 2}: i**k times the string, in the order the rows
were made, which is the order in which the pivot is chosen.  Stabilizer
groups are abelian and never contain minus identity, so every member is
fixed by its string; membership with a sign reduces the string against the
rows' echelon basis.
"""
from __future__ import annotations

from numbers import Integral
from typing import NamedTuple

from .pauli import Basis, Row, combine, echelon, reduce_key, string_key

GATE_ARITY = {
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1,
    "x": 1, "y": 1, "z": 1,
    "cz": 2, "cx": 2, "swap": 2,
    "ccx": 3,
}


def whole(value, what: str, low: int = 0, high: int | None = None) -> int:
    """``value`` when it is an integer, not a bool, in [low, high), with no
    upper bound when ``high`` is None; anything else raises ``ValueError``
    naming ``what`` and the value.  Every count and index the API takes
    passes this rule; ``gate_support`` applies the same rule to each
    position with its own loop, since it runs once per gate."""
    if type(value) is int or isinstance(value, Integral) and type(value) is not bool:
        if low <= value and (high is None or value < high):
            return value
    bounds = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


def gate_support(kind: str, bits: tuple[int, ...], n: int) -> int:
    """The support mask of a well-formed gate: a known kind on as many
    distinct positions as that kind takes, each passing ``whole``'s rule
    for [0, n).  Register indices and internal bits pass or fail alike.
    Raises ``ValueError`` for anything else."""
    arity = GATE_ARITY.get(kind)
    if arity is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    support = 0
    try:
        for bit in bits:
            if bit >= n or type(bit) is bool:  # before the shift, costly for a huge bit
                break
            support |= 1 << bit  # a negative bit raises ValueError, a non-integer TypeError
        else:
            if support.bit_count() == len(bits) == arity:
                return support
    except (TypeError, ValueError):
        pass
    raise ValueError(
        f"{kind} takes {arity} distinct integer position(s) in [0, {n}), got {bits!r}"
    )


# ccx(a, b, t) as the standard seven-T network; indices pick from (a, b, t).
_CCX_NETWORK = (
    ("h", (2,)), ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)), ("t", (2,)),
    ("cx", (1, 2)), ("tdg", (2,)), ("cx", (0, 2)), ("t", (1,)), ("t", (2,)),
    ("cx", (0, 1)), ("h", (2,)), ("t", (0,)), ("tdg", (1,)), ("cx", (0, 1)),
)

# Each kind's share (total, t, h, cz) of the primitive set that
# ``gates.compile_gate`` expands it into: cx as h-cz-h, ccx as the network.
GATE_COUNTS = {kind: (1, 0, 0, 0) for kind in GATE_ARITY}
GATE_COUNTS.update(
    t=(1, 1, 0, 0), tdg=(1, 1, 0, 0), h=(1, 0, 1, 0), cz=(1, 0, 0, 1),
    cx=(3, 0, 2, 1), ccx=(27, 7, 14, 6),
)


def _sign_in(basis: Basis, x: int, z: int) -> int | None:
    """The sign s with which (-1)**s times the string is in the group with
    this echelon basis, or None when the string is not.  The group is
    abelian, so a product of its rows carries i**0 or i**2."""
    key, used = reduce_key(basis, string_key(x, z))
    return None if key else combine(basis, used)[0] >> 1


def _bits(mask: int):
    """The positions of the mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class StabilizerTableau:
    """The tracked state's stabilizer group S and its commutant S⊥, held
    by column: ``x[q]`` and ``z[q]`` have bit r set when generator r has an
    x or z bit at qubit q, ``sign`` when it carries a minus sign.  ``stab``
    marks the generators that are rows of S and ``comm`` those that span
    S⊥; ``pinned`` marks the qubits with a weight-one string in S."""

    def __init__(self, n_qubits: int) -> None:
        n = self.n = whole(n_qubits, "qubit count", 1)
        # generator k is Z_k, a row of S; S⊥ = S, and every qubit is pinned
        self.x, self.z = [0] * n, [1 << k for k in range(n)]
        self.sign, self.size = 0, n
        self.stab = self.comm = self.pinned = (1 << n) - 1

    def _repin(self, qubits) -> None:
        """Recheck the pin of each qubit: a weight-one string at q is in S
        iff it commutes with all of S⊥, since S = (S⊥)⊥.  X_q does iff no
        generator of S⊥ has a z bit at q, Z_q iff none has an x bit, and Y_q
        iff each has both or neither."""
        comm, pinned = self.comm, self.pinned
        for q in qubits:
            x, z = self.x[q] & comm, self.z[q] & comm
            if x and z and x != z:
                pinned &= ~(1 << q)
            else:
                pinned |= 1 << q
        self.pinned = pinned

    @property
    def rows(self) -> list[Row]:
        """The rows of S as kernel rows, in the order they were made."""
        index = list(_bits(self.stab))
        xs, zs = dict.fromkeys(index, 0), dict.fromkeys(index, 0)
        for q in range(self.n):
            for r in _bits(self.x[q] & self.stab):
                xs[r] |= 1 << q
            for r in _bits(self.z[q] & self.stab):
                zs[r] |= 1 << q
        return [((self.sign >> r & 1) << 1, xs[r], zs[r]) for r in index]

    # -- membership --------------------------------------------------------

    def contains(self, sign: int, x: int, z: int) -> bool:
        return _sign_in(echelon(self.rows), x, z) == sign

    # -- gate updates ------------------------------------------------------

    def apply_gate(self, kind: str, bits: tuple[int, ...]) -> int:
        """Update for one gate on internal bit positions; returns how many
        rows were dropped.  A gate that fails ``gate_support`` raises
        ``ValueError``: the kind must be known and take as many distinct
        integer bits in [0, n) as ``bits`` holds.

        Clifford gates conjugate every generator at once, with the sign
        rules of ``pauli.conj_bits``.  A single-qubit Clifford keeps every
        pin, since it maps the weight-one strings on its qubit to weight-one
        strings there; the two-qubit ones recheck their qubits."""
        gate_support(kind, bits, self.n)
        xs, zs = self.x, self.z
        q = bits[0]
        if kind in ("t", "tdg"):
            return self._discard(q, xs, zs)
        if kind == "ccx":
            return self._apply_toffoli(*bits)
        if kind == "h":
            self.sign ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif kind == "s":
            self.sign ^= xs[q] & zs[q]
            zs[q] ^= xs[q]
        elif kind == "sdg":
            self.sign ^= xs[q] & ~zs[q]
            zs[q] ^= xs[q]
        elif kind == "x":
            self.sign ^= zs[q]
        elif kind == "y":
            self.sign ^= xs[q] ^ zs[q]
        elif kind == "z":
            self.sign ^= xs[q]
        else:
            b = bits[1]
            if kind == "cx":
                self.sign ^= xs[q] & zs[b] & ~(xs[b] ^ zs[q])
                xs[b] ^= xs[q]
                zs[q] ^= zs[b]
            elif kind == "cz":
                self.sign ^= xs[q] & xs[b] & (zs[q] ^ zs[b])
                zs[q] ^= xs[b]
                zs[b] ^= xs[q]
            else:  # swap
                xs[q], xs[b] = xs[b], xs[q]
                zs[q], zs[b] = zs[b], zs[q]
            self._repin(bits)
        return 0

    def _discard(self, q: int, marks: list[int], joins: list[int]) -> int:
        """Keep the members of S with no ``marks`` bit at q: the x bits
        for a diagonal gate, the z bits for an x-diagonal one.

        The first row that has one, the pivot, is multiplied into the
        others that have one and then leaves S.  ``comm`` keeps all it
        had, since the kept group's commutant holds the old one, and gains
        the weight-one string at q whose ``joins`` bit is set (Z_q or X_q),
        which commutes with every member kept."""
        hit = self.stab & marks[q]
        if not hit:
            return 0
        pivot = hit & -hit
        self._multiply(hit ^ pivot, pivot)
        self.stab ^= pivot
        bit = 1 << self.size
        self.size += 1
        self.comm |= bit
        joins[q] |= bit
        self._repin((q,))
        return 1

    def _multiply(self, rows: int, pivot: int) -> None:
        """Multiply the pivot into each generator the mask ``rows`` marks,
        ``pauli.row_mul(row, pivot)`` for all of them at once.  On each
        qubit of the pivot's support a row's letter times the pivot's adds
        a quarter turn when the row's letter comes just before the pivot's
        in the cycle X, Y, Z, and takes one away when it comes just after;
        ``lo`` and ``hi`` count the turns mod 4, bit r for row r.  Rows
        that commute with the pivot end with an even count."""
        if not rows:
            return
        xs, zs = self.x, self.z
        lo = hi = 0
        for q in range(self.n):
            px, pz = xs[q] & pivot, zs[q] & pivot
            if not (px or pz):
                continue
            rx, rz = xs[q] & rows, zs[q] & rows
            if px and pz:  # XY = iZ, ZY = -iX
                up, down = rx & ~rz, rz & ~rx
            elif px:  # ZX = iY, YX = -iZ
                up, down = rz & ~rx, rx & rz
            else:  # YZ = iX, XZ = -iY
                up, down = rx & rz, rx & ~rz
            hi ^= lo & up
            lo ^= up
            hi ^= down & ~lo
            lo ^= down
            if px:
                xs[q] ^= rows
            if pz:
                zs[q] ^= rows
        self.sign ^= hi ^ (rows if self.sign & pivot else 0)

    def _pinned_sign(self, q: int, x: int, z: int) -> int | None:
        """The sign s with which (-1)**s times the weight-one string (x, z)
        at q is in S, or None.  The pin rule decides membership from the
        columns; only a member needs the rows' echelon basis for its sign."""
        if (self.z if x else self.x)[q] & self.comm:
            return None
        return _sign_in(echelon(self.rows), x, z)

    def _apply_toffoli(self, c1: int, c2: int, t: int) -> int:
        # The gate degenerates to a Clifford whenever a control is pinned to
        # a basis value or the target is pinned to an x eigenstate.
        for bit, other in ((c1, c2), (c2, c1)):
            sign = self._pinned_sign(bit, 0, 1 << bit)
            if sign is not None:
                if sign:
                    self.apply_gate("cx", (other, t))
                return 0
        sign = self._pinned_sign(t, 1 << t, 0)
        if sign is not None:
            if sign:
                self.apply_gate("cz", (c1, c2))
            return 0
        xs, zs = self.x, self.z
        return self._discard(c1, xs, zs) + self._discard(c2, xs, zs) + self._discard(t, zs, xs)

    # -- bounds ------------------------------------------------------------

    def nullity(self) -> int:
        return self.n - self.stab.bit_count()

    def local_nullity(self) -> int:
        """Qubits not pinned by any weight-one string in the group."""
        return self.n - self.pinned.bit_count()


class BoundReport(NamedTuple):
    n_qubits: int
    gate_count: int
    t_count: int
    nullity: int
    local_nullity: int
    limdd_width_bound: int
    evdd_width_bound: int
    dropped_rows: int
    per_gate: tuple[tuple[int, int], ...]  # (nullity, local nullity) after each gate


def track(circuit, native_ccx: bool = True) -> BoundReport:
    """Run the tableau over a circuit and report width ceilings.

    With ``native_ccx`` the tableau consumes ccx gates directly (each drops
    at most three generators); otherwise they are expanded into the seven-T
    Clifford+T sequence first, which loosens the ceiling to match what a
    structural gate-by-gate argument would give.
    """
    n = circuit.n_qubits
    tab = StabilizerTableau(n)
    dropped = 0
    t_count = 0
    trace: list[tuple[int, int]] = []
    for gate in circuit.gates:
        bits = tuple(n - 1 - q for q in gate.qubits)
        if gate.kind == "ccx" and not native_ccx:
            for kind, idx in _CCX_NETWORK:
                dropped += tab.apply_gate(kind, tuple(bits[i] for i in idx))
        else:
            dropped += tab.apply_gate(gate.kind, bits)
        t_count += GATE_COUNTS[gate.kind][1]
        trace.append((tab.nullity(), tab.local_nullity()))
    nullity = tab.nullity()
    local = tab.local_nullity()
    return BoundReport(
        n_qubits=n,
        gate_count=len(circuit.gates),
        t_count=t_count,
        nullity=nullity,
        local_nullity=local,
        limdd_width_bound=1 << nullity,
        evdd_width_bound=1 << local,
        dropped_rows=dropped,
        per_gate=tuple(trace),
    )
