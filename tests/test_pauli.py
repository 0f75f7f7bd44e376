"""Pauli strings, scaled labels and Clifford conjugation, pinned against
dense matrix arithmetic."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qddsim.coeff import EXACT_OPS, I_UNIT, MINUS_ONE, ONE, FloatOps, RingValue, omega_power
from qddsim.pauli import (
    DIAG_OCTANT,
    PauliLIM,
    PauliString,
    combine,
    commute_phase_past_lim,
    conj_bits,
    conjugate_lim,
    echelon,
    follow_basis,
    joint_echelon,
    lim_div,
    lim_inverse,
    lim_mul,
    reduce_key,
    row_lim_mul,
    row_mul,
    string_key,
    times_i,
)

OPS = EXACT_OPS

I2 = ((1, 0), (0, 1))
X2 = ((0, 1), (1, 0))
Y2 = ((0, -1j), (1j, 0))
Z2 = ((1, 0), (0, -1))
MATS = (I2, X2, Y2, Z2)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_kron(a, b):
    n, m = len(a), len(b)
    return tuple(
        tuple(a[i // m][j // m] * b[i % m][j % m] for j in range(n * m))
        for i in range(n * m)
    )


def mat_scale(c, a):
    return tuple(tuple(c * v for v in row) for row in a)


def mat_dagger(a):
    n = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(n)) for i in range(n))


def string_matrix(s: PauliString):
    # bit n-1 is the leftmost kron factor
    out = ((1,),)
    for bit in range(s.n - 1, -1, -1):
        out = mat_kron(out, MATS[s.code_at(bit)])
    return out


def lim_matrix(lim: PauliLIM):
    return mat_scale(lim.factor.to_complex(), string_matrix(lim.string))


def all_strings(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliString(n, x, z)


# -- strings ------------------------------------------------------------------

def test_string_constructors_and_codes():
    s = PauliString(3, 0b001, 0)
    assert (s.code_at(0), s.code_at(1), s.code_at(2)) == (1, 0, 0)
    assert PauliString(2, 0b10, 0b10).code_at(1) == 2
    assert PauliString(2, 0, 0b01).code_at(0) == 3
    assert PauliString(4, 0, 0).is_identity()
    assert not PauliString(4, 0b0100, 0).is_identity()


def test_string_render():
    s = PauliString(3, 0b001, 0b100)  # X at bit 0, Z at bit 2
    assert s.render() == "ZIX"
    assert PauliString(2, 0, 0).render() == "II"
    assert PauliString(1, 1, 1).render() == "Y"


def test_string_key_orders_lexicographically():
    for n in (1, 2, 3):
        strings = list(all_strings(n))
        by_key = sorted(strings, key=lambda s: string_key(s.x, s.z))
        by_lex = sorted(
            strings, key=lambda s: tuple(s.code_at(b) for b in range(n - 1, -1, -1))
        )
        assert by_key == by_lex


def test_string_key_xor_is_product():
    for s1, s2 in itertools.product(all_strings(2), repeat=2):
        prod = PauliString(2, s1.x ^ s2.x, s1.z ^ s2.z)
        assert string_key(s1.x, s1.z) ^ string_key(s2.x, s2.z) == string_key(prod.x, prod.z)


# -- scaled labels ------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_lim_mul_matches_dense(n):
    rng = random.Random(n)
    for _ in range(60):
        l1 = PauliLIM(
            omega_power(rng.randrange(8)),
            PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n)),
        )
        l2 = PauliLIM(
            omega_power(rng.randrange(8)),
            PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n)),
        )
        got = lim_mul(OPS, l1, l2)
        want = mat_mul(lim_matrix(l1), lim_matrix(l2))
        have = lim_matrix(got)
        assert all(
            abs(want[i][j] - have[i][j]) < 1e-9
            for i in range(1 << n)
            for j in range(1 << n)
        )


def test_lim_inverse():
    rng = random.Random(9)
    for _ in range(40):
        lim = PauliLIM(
            omega_power(rng.randrange(8)),
            PauliString(2, rng.randrange(4), rng.randrange(4)),
        )
        prod = lim_mul(OPS, lim, lim_inverse(OPS, lim))
        assert prod.string.is_identity()
        assert prod.factor == ONE


@pytest.mark.parametrize("ops", [EXACT_OPS, FloatOps(1e-14)], ids=["exact", "float"])
def test_identity_string_products_match_the_general_formula(ops):
    """A left factor (lim_mul) or a denominator (lim_div) with the identity
    string gives, bit for bit, what the phase rule gives."""
    rng = random.Random(23)

    def factor():
        if ops is EXACT_OPS:
            return omega_power(rng.randrange(8)) * RingValue(F(rng.randrange(1, 50), 7))
        # zero parts of either sign, which a product can carry
        return complex(rng.choice([0.0, -0.0, rng.uniform(-2, 2)]), rng.uniform(-2, 2))

    for _ in range(200):
        n = rng.randint(1, 4)
        ident = PauliLIM(factor(), PauliString(n, 0, 0))
        lim = PauliLIM(factor(), PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n)))
        k, x, z = row_mul((0, 0, 0), (0, lim.string.x, lim.string.z))
        product = PauliLIM(times_i(ops, ops.mul(ident.factor, lim.factor), k),
                           PauliString(n, x, z))
        quotient = row_lim_mul(ops, (0, 0, 0),
                               PauliLIM(ops.div(lim.factor, ident.factor), lim.string))
        assert repr(lim_mul(ops, ident, lim)) == repr(product)
        assert repr(lim_div(ops, ident, lim)) == repr(quotient)


# -- group kernel ---------------------------------------------------------------

def row_lim(n: int, row) -> PauliLIM:
    k, x, z = row
    return PauliLIM(omega_power(2 * k), PauliString(n, x, z))


row_st = st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 15))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row_st, row_st)
def test_row_mul_matches_lim_mul(r1, r2):
    # unit-phase labels: the kernel's integer phase is lim_mul's ring factor
    assert row_lim(4, row_mul(r1, r2)) == lim_mul(OPS, row_lim(4, r1), row_lim(4, r2))
    assert row_mul(r1, (0, 0, 0)) == row_mul((0, 0, 0), r1) == r1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(row_st, max_size=6), st.integers(0, 63))
def test_combine_folds_row_mul(rows, mask):
    # any rows, commuting or not: the product in index order
    basis = tuple((string_key(x, z), (k, x, z)) for k, x, z in rows)
    mask &= (1 << len(rows)) - 1
    want = (0, 0, 0)
    for i, row in enumerate(rows):
        if mask >> i & 1:
            want = row_mul(want, row)
    assert combine(basis, mask) == want


def group_of(n: int, rows) -> dict:
    """Every product of the rows, closed under lim_mul: string -> row."""
    members = {(0, 0): (0, 0, 0)}
    for row in rows:
        for x, z in list(members):
            prod = lim_mul(OPS, row_lim(n, members[x, z]), row_lim(n, row))
            k = [omega_power(2 * j) for j in range(4)].index(prod.factor)
            members[prod.string.x, prod.string.z] = (k, prod.string.x, prod.string.z)
    return members


def commuting_rows(rng: random.Random, n: int) -> list:
    """Hermitian generators of a random stabilizer group: the all-Z group
    conjugated by random Clifford gates, with dependent rows appended."""
    rows = [(0, 0, 1 << b) for b in range(n)][: rng.randint(0, n)]
    for _ in range(12):
        kind = rng.choice(("h", "s", "x", "z", "cx", "cz")[: 6 if n > 1 else 4])
        bits = tuple(rng.sample(range(n), 2)) if kind in ("cx", "cz") else (rng.randrange(n),)
        rows = [((k + 2 * f) & 3, x2, z2) for k, x, z in rows
                for x2, z2, f in (conj_bits(kind, bits, x, z),)]
    if len(rows) > 1:
        rows.append(row_mul(rows[0], rows[-1]))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_echelon_and_reduce_key(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = commuting_rows(rng, n)
        basis = echelon(rows)
        leads = [key.bit_length() - 1 for key, _ in basis]
        assert leads == sorted(set(leads), reverse=True)
        assert all(key == string_key(x, z) for key, (_, x, z) in basis)
        group = group_of(n, rows)
        assert group_of(n, [row for _, row in basis]) == group
        # reduce_key: least key over the coset, and the rows producing it
        c = (rng.randrange(4), rng.randrange(1 << n), rng.randrange(1 << n))
        key, used = reduce_key(basis, string_key(c[1], c[2]))
        coset = [row_mul(c, g) for g in group.values()]
        best = min(coset, key=lambda r: string_key(r[1], r[2]))
        assert row_mul(c, combine(basis, used)) == best
        assert key == string_key(best[1], best[2])
        # membership: a member's string reduces to nothing, its rows to it
        member = rng.choice(list(group.values()))
        key, used = reduce_key(basis, string_key(member[1], member[2]))
        assert key == 0 and combine(basis, used) == member


@pytest.mark.parametrize("seed", range(4))
def test_joint_echelon_spans_and_intersects(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        n = rng.randint(1, 3)
        b0, b1 = echelon(commuting_rows(rng, n)), echelon(commuting_rows(rng, n))
        rows, common = joint_echelon(b0, b1)
        n0 = len(b0)
        keys0 = {string_key(x, z) for x, z in group_of(n, [r for _, r in b0])}
        keys1 = {string_key(x, z) for x, z in group_of(n, [r for _, r in b1])}
        span = {a ^ b for a in keys0 for b in keys1}
        assert len(rows) + len(common) == n0 + len(b1)
        assert 1 << len(rows) == len(span)
        leads = [key.bit_length() - 1 for key, _ in rows]
        assert leads == sorted(set(leads), reverse=True)
        for key, mask in rows:
            assert key in span
            g0, g1 = combine(b0, mask & ((1 << n0) - 1)), combine(b1, mask >> n0)
            assert string_key(g0[1] ^ g1[1], g0[2] ^ g1[2]) == key
        shared = []
        for mask in common:
            g0, g1 = combine(b0, mask & ((1 << n0) - 1)), combine(b1, mask >> n0)
            assert (g0[1], g0[2]) == (g1[1], g1[2]) != (0, 0)
            shared.append(g0)
        # independent, as many as the intersection's rank: they generate it
        assert 1 << len(common) == len(keys0 & keys1)
        assert len(echelon(shared)) == len(common)


# -- Clifford conjugation ------------------------------------------------------

GATE_MATS = {
    ("h",): ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5))),
    ("s",): ((1, 0), (0, 1j)),
    ("sdg",): ((1, 0), (0, -1j)),
    ("x",): X2,
    ("y",): Y2,
    ("z",): Z2,
}


def two_qubit_gate(kind, hi_bit, lo_bit):
    # 2-qubit dense matrix on bits (1, 0); hi_bit/lo_bit name gate roles
    dim = 4
    rows = []
    for i in range(dim):
        row = [0] * dim
        bits = [(i >> 1) & 1, i & 1]
        if kind == "cz":
            row[i] = -1 if bits[0] and bits[1] else 1
        elif kind == "cx":
            c, t = hi_bit, lo_bit
            cv = (i >> c) & 1
            j = i ^ (1 << t) if cv else i
            row[j] = 1
        elif kind == "swap":
            j = ((i & 1) << 1) | ((i >> 1) & 1)
            row[j] = 1
        rows.append(tuple(row))
    return tuple(rows)


def test_single_qubit_conjugation_matches_dense():
    for kind in ("h", "s", "sdg", "x", "y", "z"):
        U = GATE_MATS[(kind,)]
        for s in all_strings(1):
            lim = PauliLIM(ONE, s)
            got = conjugate_lim(OPS, lim, kind, (0,))
            want = mat_mul(mat_mul(U, lim_matrix(lim)), mat_dagger(U))
            have = lim_matrix(got)
            assert all(
                abs(want[i][j] - have[i][j]) < 1e-9 for i in range(2) for j in range(2)
            ), (kind, s.render())


@pytest.mark.parametrize("kind,bits", [
    ("cz", (1, 0)), ("cz", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1)), ("swap", (1, 0)),
])
def test_two_qubit_conjugation_matches_dense(kind, bits):
    U = two_qubit_gate(kind, *bits)
    for s in all_strings(2):
        lim = PauliLIM(ONE, s)
        got = conjugate_lim(OPS, lim, kind, bits)
        want = mat_mul(mat_mul(U, lim_matrix(lim)), mat_dagger(U))
        have = lim_matrix(got)
        assert all(
            abs(want[i][j] - have[i][j]) < 1e-9 for i in range(4) for j in range(4)
        ), (kind, bits, s.render())


def test_conj_bits_sign_spot_checks():
    # H: X <-> Z; Y flips sign
    x, z, sign = conj_bits("h", (0,), 1, 0)
    assert (x, z, sign) == (0, 1, 0)
    x, z, sign = conj_bits("h", (0,), 1, 1)
    assert (x, z) == (1, 1) and sign == 1
    # S: X -> Y, Y -> -X
    x, z, sign = conj_bits("s", (0,), 1, 0)
    assert (x, z, sign) == (1, 1, 0)
    x, z, sign = conj_bits("s", (0,), 1, 1)
    assert (x, z, sign) == (1, 0, 1)


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        conj_bits("rz", (0,), 0, 0)


# -- diagonal phases and basis follow -----------------------------------------

def diag_matrix(p, bit, n):
    dim = 1 << n
    return tuple(
        tuple(
            (omega_power(p).to_complex() if (i >> bit) & 1 else 1) * (i == j)
            for j in range(dim)
        )
        for i in range(dim)
    )


def test_diag_octants():
    gate_phase = {"t": 1, "s": 2, "z": 4, "sdg": 6, "tdg": 7}
    assert DIAG_OCTANT == gate_phase
    assert omega_power(DIAG_OCTANT["s"]) == I_UNIT
    assert omega_power(DIAG_OCTANT["z"]) == MINUS_ONE


@pytest.mark.parametrize("p", range(8))
def test_commute_phase_past_lim_matches_dense(p):
    for s in all_strings(2):
        for bit in (0, 1):
            lim = PauliLIM(ONE, s)
            scalar_exp, new_p = commute_phase_past_lim(p, bit, lim)
            left = mat_mul(diag_matrix(p, bit, 2), lim_matrix(lim))
            right = mat_scale(
                omega_power(scalar_exp).to_complex(),
                mat_mul(lim_matrix(lim), diag_matrix(new_p, bit, 2)),
            )
            assert all(
                abs(left[i][j] - right[i][j]) < 1e-9
                for i in range(4)
                for j in range(4)
            ), (p, bit, s.render())


def test_follow_basis_matches_dense():
    basis = {0: (1, 0), 1: (0, 1)}
    for code, mat in enumerate(MATS):
        for b in (0, 1):
            new_bit, exp = follow_basis(b, code)
            bra = basis[b]
            row = tuple(
                sum(bra[k] * mat[k][j] for k in range(2)) for j in range(2)
            )
            expect = tuple(
                omega_power(exp).to_complex() * v for v in basis[new_bit]
            )
            assert all(abs(row[j] - expect[j]) < 1e-12 for j in range(2)), (b, code)


def test_identity_lim():
    lim = PauliLIM(OPS.one, PauliString(3, 0, 0))
    assert lim.is_identity_lim(OPS)
    assert lim.string.n == 3
    assert PauliLIM(MINUS_ONE, PauliString(3, 0, 0)).is_identity_lim(OPS) is False
