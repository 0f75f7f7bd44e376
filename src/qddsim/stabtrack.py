"""Stabilizer-rank tracking for diagram-width ceilings.

A tableau of signed Pauli rows follows the circuit from the all-zero state.
Clifford gates conjugate every row exactly.  A non-Clifford gate cannot keep
the whole group, so it keeps the subgroup that commutes with it: rows are
combined so that at most a few carry the offending component, those few are
discarded, and the rest survive unchanged.  The nullity (qubits minus
surviving rows) upper-bounds the log of the widest diagram level in limdd
mode; the local nullity (qubits minus positions still pinned by a weight-one
row in the string span) plays the same role for evdd mode.

Rows are kernel rows (k, x, z) of ``pauli`` with k in {0, 2}: i**k times
the string.  Stabilizer groups are abelian and never contain minus identity,
so products are order-independent and every member is fixed by its string.
Membership reduces strings against the group's echelon basis.  The nullities
are ranks, so they do not depend on the key order.

The local nullity is kept incrementally in two qubit masks: ``pinned``, the
qubits with a weight-one string in the group, and ``dirty``, the qubits whose
status is unknown.  A gate changes only what it touches:

- h, s, sdg, x, y, z keep both masks: a single-qubit Clifford maps the
  weight-one strings on its qubit to weight-one strings on that qubit.
- swap exchanges its two bits in both masks.
- cx and cz mark both qubits dirty.
- A qubit outside a gate's support keeps its status, since U† P_q U = P_q.
- A discard that drops a row at q unpins q and clears its dirty bit: were a
  weight-one string at q in the group, every member would commute with it
  and none would carry the discarded component.  Other pins survive, since a
  weight-one string elsewhere has no bit at q; a discard that drops nothing
  leaves the group as it was.

``local_nullity`` rechecks only the dirty qubits, and assigning ``rows``
marks every qubit dirty.
"""
from __future__ import annotations

from typing import NamedTuple

from .pauli import Basis, Row, combine, conj_bits, echelon, reduce_key, row_mul, string_key

GATE_ARITY = {
    "h": 1, "t": 1, "tdg": 1, "s": 1, "sdg": 1,
    "x": 1, "y": 1, "z": 1,
    "cz": 2, "cx": 2, "swap": 2,
    "ccx": 3,
}


def gate_support(kind: str, bits: tuple[int, ...], n: int) -> int:
    """The support mask of a well-formed gate: a known kind on as many
    distinct integer positions as that kind takes, each in [0, n).  Register
    indices and internal bits pass or fail alike.  Raises ``ValueError`` for
    anything else."""
    arity = GATE_ARITY.get(kind)
    if arity is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    support = 0
    try:
        for bit in bits:
            if bit >= n:  # tested before the shift, which a huge bit would make costly
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


_CLIFFORD_KINDS = frozenset({"h", "s", "sdg", "x", "y", "z", "cz", "cx", "swap"})

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


def _signed_in(basis: Basis, sign: int, x: int, z: int) -> bool:
    """Whether (-1)**sign times the string is in the group with this
    echelon basis."""
    key, used = reduce_key(basis, string_key(x, z))
    return key == 0 and combine(basis, used)[0] == 2 * sign


class StabilizerTableau:
    """Signed stabilizer rows of the tracked state's surviving group."""

    def __init__(self, n_qubits: int) -> None:
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n = n_qubits
        self._rows: list[Row] = [(0, 0, 1 << k) for k in range(n_qubits)]
        self.pinned = (1 << n_qubits) - 1  # each Z_k is a row
        self.dirty = 0

    @property
    def rows(self) -> list[Row]:
        return self._rows

    @rows.setter
    def rows(self, rows: list[Row]) -> None:
        self._rows = rows
        self.dirty = (1 << self.n) - 1

    # -- membership --------------------------------------------------------

    def contains(self, sign: int, x: int, z: int) -> bool:
        return _signed_in(echelon(self._rows), sign, x, z)

    # -- gate updates ------------------------------------------------------

    def apply_gate(self, kind: str, bits: tuple[int, ...]) -> int:
        """Update for one gate on internal bit positions; returns how many
        rows were dropped.  A gate that fails ``gate_support`` raises
        ``ValueError``: the kind must be known and take as many distinct
        integer bits in [0, n) as ``bits`` holds."""
        support = gate_support(kind, bits, self.n)
        if kind in _CLIFFORD_KINDS:
            rows: list[Row] = []
            for row in self._rows:  # a row off the support conjugates to itself
                k, x, z = row
                if (x | z) & support:
                    x, z, flip = conj_bits(kind, bits, x, z)
                    row = (k ^ (flip << 1), x, z)
                rows.append(row)
            self._rows = rows
            if kind == "swap":  # exchanging two bits flips both iff they differ
                a, b = bits
                self.pinned ^= support * ((self.pinned >> a ^ self.pinned >> b) & 1)
                self.dirty ^= support * ((self.dirty >> a ^ self.dirty >> b) & 1)
            elif kind in ("cx", "cz"):
                self.dirty |= support
            return 0
        if kind in ("t", "tdg"):
            return self._discard_component(x_mask=support, z_mask=0)
        return self._apply_toffoli(*bits)  # ccx

    def _discard_component(self, x_mask: int, z_mask: int) -> int:
        """Drop the (at most one-dimensional) part of the group that fails
        to commute with a gate, marked by a single x- or z-bit."""
        pivot = None
        kept: list[Row] = []
        for row in self._rows:
            if (row[1] & x_mask) or (row[2] & z_mask):
                if pivot is None:
                    pivot = row
                else:
                    kept.append(row_mul(row, pivot))
            else:
                kept.append(row)
        self._rows = kept
        if pivot is None:
            return 0
        self.pinned &= ~(x_mask | z_mask)
        self.dirty &= ~(x_mask | z_mask)
        return 1

    def _apply_toffoli(self, c1: int, c2: int, t: int) -> int:
        basis = echelon(self._rows)
        # The gate degenerates to a Clifford whenever a control is pinned to
        # a basis value or the target is pinned to an x eigenstate.
        for bit, other in ((c1, c2), (c2, c1)):
            if _signed_in(basis, 0, 0, 1 << bit):
                return 0
            if _signed_in(basis, 1, 0, 1 << bit):
                self.apply_gate("cx", (other, t))
                return 0
        if _signed_in(basis, 0, 1 << t, 0):
            return 0
        if _signed_in(basis, 1, 1 << t, 0):
            self.apply_gate("cz", (c1, c2))
            return 0
        dropped = 0
        for x_mask, z_mask in ((1 << c1, 0), (1 << c2, 0), (0, 1 << t)):
            dropped += self._discard_component(x_mask, z_mask)
        return dropped

    # -- bounds ------------------------------------------------------------

    def nullity(self) -> int:
        return self.n - len(self._rows)

    def local_nullity(self) -> int:
        """Qubits not pinned by any weight-one string in the group.

        O(1) unless some qubit is dirty; then only the dirty qubits are
        rechecked, on rows written as vectors x | z << n.  One elimination
        takes each vector's lead from its bits outside the dirty qubits while
        it has any, so the rows led inside span the members supported on the
        dirty qubits.  Fully reduced, each of those leads is set in its own
        row only, so such a member equals the sum of the rows whose leads it
        has.  A weight-one string at qubit q has bits q and q + n only: it is
        in the group iff one of the (at most two) rows leading there, or
        their sum, has no other bit."""
        dirty = self.dirty
        if dirty:
            n = self.n
            outside = ~(dirty | dirty << n)
            rows: dict[int, int] = {}  # lead bit -> vector
            for _, x, z in self._rows:
                vec = x | z << n
                while vec:
                    lead = ((vec & outside) or vec).bit_length() - 1
                    have = rows.get(lead)
                    if have is None:
                        rows[lead] = vec
                        break
                    vec ^= have
            leads = sorted(lead for lead in rows if not outside >> lead & 1)
            for i, lead in enumerate(leads):
                bit, vec = 1 << lead, rows[lead]
                for above in leads[i + 1:]:
                    if rows[above] & bit:
                        rows[above] ^= vec
            pinned = self.pinned & ~dirty
            while dirty:
                q = dirty.bit_length() - 1
                dirty ^= 1 << q
                others = ~(1 << q | 1 << q + n)
                lo, hi = rows.get(q, 0), rows.get(q + n, 0)
                if any(r and not r & others for r in (lo, hi, lo ^ hi)):
                    pinned |= 1 << q
            self.pinned, self.dirty = pinned, 0
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
