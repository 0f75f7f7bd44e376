"""Pauli strings in symplectic form, scalar-weighted Pauli labels, and the
Pauli-group kernel that label canonicalization and the tableau share.

A string on ``n`` qubits is a pair of bitmasks ``(x, z)``: bit ``k-1`` holds
qubit ``k``, with qubit ``n`` (bit ``n-1``) the topmost.  Position codes order
the single-qubit letters I < X < Y < Z; the code map is chosen so that the
code bits of a product are the XOR of the factors' code bits.  ``string_key``
interleaves the codes, top qubit highest, so numeric key order is the
lexicographic order of strings and the XOR of two keys is their product's key.

The group kernel works on rows ``(k, x, z)``: i**k times the string, with k
an integer mod 4, so products never touch the scalar ring (``row_mul`` holds
the phase rule, and ``lim_mul`` uses it for labels).  A subgroup is an echelon
basis: ``(key, row)`` pairs whose keys have distinct leading bits, sorted
descending.  ``echelon`` builds one; ``reduce_key`` clears a key against one
top down, which finds the minimal string of a coset; ``joint_echelon`` spans
two groups at once, for double cosets and for the strings two groups share.
The reductions work on keys alone and record which rows they took as a
bitmask, and ``combine`` multiplies the rows of a mask once, at the end.

Sign and phase bookkeeping of scaled labels uses quarter turns (powers of i)
for products and eighth turns (powers of omega) where non-Clifford diagonal
gates commute past a label.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .coeff import ScalarOps

PAULI_LETTERS = "IXYZ"


class PauliString(NamedTuple):
    n: int
    x: int
    z: int

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def code_at(self, bit: int) -> int:
        """(z << 1) | (x ^ z) at the bit: I=0, X=1, Y=2, Z=3."""
        xb = (self.x >> bit) & 1
        zb = (self.z >> bit) & 1
        return (zb << 1) | (xb ^ zb)

    def render(self) -> str:
        return "".join(
            PAULI_LETTERS[self.code_at(bit)] for bit in range(self.n - 1, -1, -1)
        )


_SPREAD_TABLE: list[int] = []
for _b in range(256):
    _s = 0
    for _j in range(8):
        if (_b >> _j) & 1:
            _s |= 1 << (2 * _j)
    _SPREAD_TABLE.append(_s)


def _spread(v: int) -> int:
    """Move bit j to bit 2j (interleave with zeros)."""
    out = 0
    shift = 0
    while v:
        out |= _SPREAD_TABLE[v & 0xFF] << shift
        v >>= 8
        shift += 16
    return out


def string_key(x: int, z: int) -> int:
    """Integer whose numeric order equals lexicographic order of the string
    read from the top qubit down, and whose XOR matches string products."""
    return _spread(x ^ z) | (_spread(z) << 1)


# -- group kernel --------------------------------------------------------------

Row = tuple[int, int, int]  # (k, x, z): i**k times the string (x, z)
Basis = tuple[tuple[int, Row], ...]  # (key, row), distinct leads, keys descending


def row_mul(r1: Row, r2: Row) -> Row:
    """Product of two rows: the strings multiply by XOR, and the power of i
    comes from rewriting both sides in X^x Z^z form and back."""
    k1, x1, z1 = r1
    k2, x2, z2 = r2
    x = x1 ^ x2
    z = z1 ^ z2
    return (
        (k1 + k2 + (x1 & z1).bit_count() + (x2 & z2).bit_count()
         + 2 * (z1 & x2).bit_count() - (x & z).bit_count()) & 3,
        x,
        z,
    )


def echelon(rows: Iterable[Row]) -> Basis:
    """Echelon basis of the abelian group the rows generate; rows that
    reduce to the identity string are dependent and dropped."""
    basis: dict[int, tuple[int, Row]] = {}
    for row in rows:
        key = string_key(row[1], row[2])
        while key:
            lead = key.bit_length() - 1
            have = basis.get(lead)
            if have is None:
                basis[lead] = (key, row)
                break
            key ^= have[0]
            row = row_mul(row, have[1])
    return tuple(basis[lead] for lead in sorted(basis, reverse=True))


def reduce_key(basis: Basis, key: int) -> tuple[int, int]:
    """Clear the key's bits against the basis, top down.  Returns the
    remaining key, the least over the key's coset, and the mask of the rows
    used, bit i for ``basis[i]``."""
    used = 0
    for i, (row_key, _) in enumerate(basis):
        if key ^ row_key < key:  # the row's leading bit is set in key
            key ^= row_key
            used |= 1 << i
    return key, used


def joint_echelon(
    basis0: Basis, basis1: Basis
) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """Span of the strings of two groups, rows tracked as GF(2) masks.

    Bit i of a mask selects ``basis0[i]`` and bit ``len(basis0) + j`` selects
    ``basis1[j]``.  Returns the span's echelon rows as ``(key, mask)`` pairs,
    keys descending, and ``common``, the masks of the ``basis1`` rows that
    reduced to nothing: the two groups' shares of such a mask have equal
    strings, and those strings generate the ones the groups have in common.
    """
    rows = {key.bit_length() - 1: (key, 1 << i) for i, (key, _) in enumerate(basis0)}
    common: list[int] = []
    for j, (key, _) in enumerate(basis1, len(basis0)):
        mask = 1 << j
        while key:
            lead = key.bit_length() - 1
            have = rows.get(lead)
            if have is None:
                rows[lead] = (key, mask)
                break
            key ^= have[0]
            mask ^= have[1]
        else:
            common.append(mask)
    return tuple(rows[lead] for lead in sorted(rows, reverse=True)), common


def combine(basis: Basis, mask: int) -> Row:
    """Product of the rows the mask selects, bit i for ``basis[i]``, in
    index order.  The phase rule of ``row_mul``, summed: each row's own Y
    count, a sign for each Z already collected meeting the row's X, and the
    product's Y count taken back once at the end."""
    k = x = z = 0
    while mask:
        low = mask & -mask
        rk, rx, rz = basis[low.bit_length() - 1][1]
        k += rk + (rx & rz).bit_count() + 2 * (z & rx).bit_count()
        x ^= rx
        z ^= rz
        mask ^= low
    return ((k - (x & z).bit_count()) & 3, x, z)


class PauliLIM(NamedTuple):
    """A Pauli string scaled by a nonzero backend scalar."""

    factor: object
    string: PauliString

    def is_identity_lim(self, ops: ScalarOps) -> bool:
        return self.string.is_identity() and ops.eq(self.factor, ops.one)


def lim_mul(ops: ScalarOps, l1: PauliLIM, l2: PauliLIM) -> PauliLIM:
    """Operator product of two labels of one width: ``row_mul`` of the
    strings, its power of i folded into the product of the factors.  A left
    factor with the identity string, as every EVDD label has, only scales
    the right one."""
    s1, s2 = l1.string, l2.string
    if not (s1.x or s1.z):
        return PauliLIM(ops.mul(l1.factor, l2.factor), s2)
    k, x, z = row_mul((0, s1.x, s1.z), (0, s2.x, s2.z))
    return PauliLIM(times_i(ops, ops.mul(l1.factor, l2.factor), k), PauliString(s1.n, x, z))


def lim_inverse(ops: ScalarOps, lim: PauliLIM) -> PauliLIM:
    # Every Pauli string squares to +I, so only the factor inverts.
    return PauliLIM(ops.inv(lim.factor), lim.string)


def times_i(ops: ScalarOps, factor: object, k: int) -> object:
    """factor * i**k, with a ring multiply only when k is not 0 mod 4."""
    return ops.mul(factor, ops.i_power(k)) if k & 3 else factor


def row_lim_mul(ops: ScalarOps, row: Row, lim: PauliLIM) -> PauliLIM:
    """The row times the label; the row's phase and the product's fold into
    the label's factor as one power of i."""
    s = lim.string
    k, x, z = row_mul(row, (0, s.x, s.z))
    return PauliLIM(times_i(ops, lim.factor, k), PauliString(s.n, x, z))


def lim_div(ops: ScalarOps, den: PauliLIM, num: PauliLIM) -> PauliLIM:
    """den**-1 * num, with one ring division for the factors; a
    denominator with the identity string changes only the factor."""
    d = den.string
    quotient = PauliLIM(ops.div(num.factor, den.factor), num.string)
    if not (d.x or d.z):
        return quotient
    return row_lim_mul(ops, (0, d.x, d.z), quotient)


def lim_scale(ops: ScalarOps, scalar: object, lim: PauliLIM) -> PauliLIM:
    return PauliLIM(ops.mul(scalar, lim.factor), lim.string)


def lim_key(ops: ScalarOps, lim: PauliLIM) -> tuple:
    """Hashable identity of a label under the backend's equality."""
    return (ops.key(lim.factor), lim.string.x, lim.string.z)


def conj_bits(
    kind: str, bits: tuple[int, ...], x: int, z: int
) -> tuple[int, int, int]:
    """Conjugate the Pauli (x, z) by a Clifford gate acting on bit positions.

    Returns (x', z', s) with the result carrying sign (-1)**s.  Supported
    kinds: h, s, sdg, x, y, z, cz, cx, swap.
    """
    if kind == "h":
        m = 1 << bits[0]
        sign = 1 if x & z & m else 0
        xm, zm = x & m, z & m
        return (x ^ xm) | zm, (z ^ zm) | xm, sign
    if kind == "s":
        m = 1 << bits[0]
        sign = 1 if x & z & m else 0
        return x, z ^ (x & m), sign
    if kind == "sdg":
        m = 1 << bits[0]
        sign = 1 if x & ~z & m else 0
        return x, z ^ (x & m), sign
    if kind == "x":
        m = 1 << bits[0]
        return x, z, 1 if z & m else 0
    if kind == "y":
        m = 1 << bits[0]
        return x, z, 1 if (x ^ z) & m else 0
    if kind == "z":
        m = 1 << bits[0]
        return x, z, 1 if x & m else 0
    if kind == "cz":
        a, b = bits
        xa, xb = (x >> a) & 1, (x >> b) & 1
        za, zb = (z >> a) & 1, (z >> b) & 1
        sign = xa & xb & (za ^ zb)
        z ^= (xb << a) | (xa << b)
        return x, z, sign
    if kind == "cx":
        c, t = bits
        xc, xt = (x >> c) & 1, (x >> t) & 1
        zc, zt = (z >> c) & 1, (z >> t) & 1
        sign = xc & zt & (1 ^ xt ^ zc)
        x ^= xc << t
        z ^= zt << c
        return x, z, sign
    if kind == "swap":
        a, b = bits
        ma, mb = 1 << a, 1 << b
        xa, xb = (x >> a) & 1, (x >> b) & 1
        za, zb = (z >> a) & 1, (z >> b) & 1
        x = (x & ~(ma | mb)) | (xb << a) | (xa << b)
        z = (z & ~(ma | mb)) | (zb << a) | (za << b)
        return x, z, 0
    raise ValueError(f"not a supported Clifford conjugation: {kind!r}")


def conjugate_lim(
    ops: ScalarOps, lim: PauliLIM, kind: str, bits: tuple[int, ...]
) -> PauliLIM:
    """U (factor * P) U^dagger for the named Clifford gate U."""
    x, z, sign = conj_bits(kind, bits, lim.string.x, lim.string.z)
    factor = ops.neg(lim.factor) if sign else lim.factor
    return PauliLIM(factor, PauliString(lim.string.n, x, z))


# Diagonal phase gates as eighth-turn exponents: diag(1, omega**p).
DIAG_OCTANT = {"t": 1, "s": 2, "z": 4, "sdg": 6, "tdg": 7}


def commute_phase_past_lim(p: int, bit: int, lim: PauliLIM) -> tuple[int, int]:
    """Move diag(1, omega**p) at ``bit`` from the left of a label to the right.

    diag(1, w) X = w * X diag(1, 1/w), so if the label has an X component at
    the bit, the gate picks up a global omega**p and flips to its adjoint;
    Z components commute freely.  Returns (scalar exponent, new exponent).
    """
    if (lim.string.x >> bit) & 1:
        return p, (-p) % 8
    return 0, p


# (bit value, Pauli code) -> (new bit value, omega exponent of the scalar s.t.
# <bit| P = omega**e <new bit|; row-vector action of a single-qubit Pauli.
_FOLLOW = {
    (0, 0): (0, 0),
    (1, 0): (1, 0),
    (0, 1): (1, 0),
    (1, 1): (0, 0),
    (0, 2): (1, 6),  # <0|Y = -i<1|
    (1, 2): (0, 2),  # <1|Y = +i<0|
    (0, 3): (0, 0),
    (1, 3): (1, 4),  # <1|Z = -<1|
}


def follow_basis(bit_value: int, code: int) -> tuple[int, int]:
    """Which child a basis bra selects through a single-qubit Pauli, and the
    omega exponent of the scalar it picks up."""
    return _FOLLOW[(bit_value, code)]
