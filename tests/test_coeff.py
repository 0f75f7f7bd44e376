"""Ring arithmetic, membership predicates and scalar-backend policies."""
from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction as F
from functools import cmp_to_key, total_ordering

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qddsim.coeff import (
    EXACT_OPS,
    I_UNIT,
    INV_SQRT2,
    MINUS_ONE,
    OMEGA,
    ONE,
    SQRT2,
    ZERO,
    CoeffPolicy,
    FloatOps,
    RingValue,
    bit_size,
    in_sqrt2_lattice,
    omega_power,
    real_decimal,
    real_sign,
    render,
    scalar_ops,
    within_coeff_bound,
)

from conftest import dyadic_ring

fractions_st = st.fractions(
    min_value=-8, max_value=8, max_denominator=8
)
ring_st = st.builds(RingValue, fractions_st, fractions_st, fractions_st, fractions_st)
nonzero_ring_st = ring_st.filter(lambda v: not v.is_zero())


# -- constants and eighth root of unity --------------------------------------

def test_omega_powers():
    assert omega_power(0) == ONE
    assert omega_power(1) == OMEGA
    assert omega_power(2) == I_UNIT
    assert omega_power(4) == MINUS_ONE
    assert omega_power(8) == ONE
    assert omega_power(-1) == omega_power(7)
    powers = {omega_power(k) for k in range(8)}
    assert len(powers) == 8


def test_omega_squared_by_multiplication():
    assert OMEGA * OMEGA == I_UNIT
    acc = ONE
    for _ in range(8):
        acc = acc * OMEGA
    assert acc == ONE


def test_sqrt2_constants():
    assert SQRT2 * SQRT2 == RingValue(2)
    assert SQRT2 * INV_SQRT2 == ONE
    assert ONE / SQRT2 == INV_SQRT2
    assert INV_SQRT2 == RingValue(0, F(1, 2))


def test_cancellation_identities():
    # 1 - omega^2 * (-i) vanishes exactly, also as a division numerator
    lhs = ONE - omega_power(2) * (-I_UNIT)
    assert lhs == ZERO
    denom = ONE + omega_power(2) * (-I_UNIT)
    assert lhs / denom == ZERO
    assert (ONE - I_UNIT) / (ONE + I_UNIT) == -I_UNIT


def test_conj_abs2():
    assert I_UNIT.conj() == -I_UNIT
    assert SQRT2.conj() == SQRT2
    assert OMEGA.conj() == RingValue(0, F(1, 2), 0, F(-1, 2))
    assert OMEGA.abs2() == ONE
    assert ZERO.abs2() == ZERO
    root = RingValue(F(1, 4), F(1, 4), F(1, 4))
    assert root.abs2() == RingValue(F(1, 4), F(1, 8))


def test_inverse():
    x = RingValue(F(1, 2), F(1, 4), F(-1, 3), F(2, 5))
    assert x * (ONE / x) == ONE
    with pytest.raises(ZeroDivisionError):
        EXACT_OPS.inv(ZERO)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_times_i_power():
    x = RingValue(F(1), F(2), F(3), F(4))
    assert x.times_i_power(1) == x * I_UNIT
    assert x.times_i_power(2) == -x
    assert x.times_i_power(3) == x * (-I_UNIT)
    assert x.times_i_power(4) == x


# -- membership predicates ----------------------------------------------------

def test_within_coeff_bound():
    assert within_coeff_bound(RingValue(F(1, 4), F(1, 8)), 3)
    assert within_coeff_bound(ZERO, 0)
    assert not within_coeff_bound(RingValue(F(1, 3)), 1)
    assert not within_coeff_bound(RingValue(F(9)), 3)
    assert within_coeff_bound(RingValue(F(8)), 3)


def test_in_sqrt2_lattice_examples():
    for n in range(4):
        assert in_sqrt2_lattice(ONE, n, 0)
    assert not in_sqrt2_lattice(RingValue(F(1, 2)), 1, 0)
    assert in_sqrt2_lattice(INV_SQRT2, 1, 1)
    # t = 0 admits integers only, within |l| <= 2^n
    assert in_sqrt2_lattice(RingValue(4), 2, 0)
    assert not in_sqrt2_lattice(RingValue(5), 2, 0)
    assert not in_sqrt2_lattice(SQRT2, 1, 0)
    assert in_sqrt2_lattice(SQRT2, 1, 2)


def test_bit_size():
    assert bit_size(ZERO) == 1
    assert bit_size(RingValue(F(1, 4), F(1, 8))) == 4
    assert bit_size(RingValue(7)) == 3


# -- rendering ----------------------------------------------------------------

def test_render():
    assert render(ZERO) == "0"
    assert render(I_UNIT) == "1*i"
    assert render(RingValue(F(1, 4), F(1, 8))) == "1/4 + 1/8*sqrt2"
    assert render(OMEGA) == "1/2*sqrt2 + 1/2*i*sqrt2"


def test_decimal_rendering():
    got = real_decimal(RingValue(F(1, 4), F(1, 8)), 12)
    assert abs(float(got) - (0.25 + 0.125 * 2 ** 0.5)) < 1e-11
    assert isinstance(got, Decimal)
    # omega's imaginary part c + d*sqrt2 reads back through the same routine
    im = real_decimal(RingValue(OMEGA.c, OMEGA.d), 8)
    assert im == real_decimal(OMEGA, 8) == Decimal("0.70710678")


# -- exact real ordering -------------------------------------------------------

def test_real_sign():
    assert real_sign(F(0), F(0)) == 0
    assert real_sign(F(1), F(0)) == 1
    assert real_sign(F(-1), F(0)) == -1
    assert real_sign(F(1), F(-1)) == -1  # 1 - sqrt2 < 0
    assert real_sign(F(-2), F(3, 2)) == 1  # -2 + 1.5*sqrt2 > 0
    assert real_sign(F(3), F(-2)) == 1  # 3 - 2*sqrt2 > 0
    assert real_sign(F(-3), F(2)) == -1


def test_real_order_sorting():
    # 0 < 1 < sqrt2 < 3/2 < 2 - does not match plain component order
    vals = [(F(0), F(1)), (F(1), F(0)), (F(3, 2), F(0)), (F(0), F(0)), (F(2), F(0))]
    want = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(3, 2), F(0)), (F(2), F(0))]
    by_sign = cmp_to_key(lambda u, v: real_sign(u[0] - v[0], u[1] - v[1]))
    assert sorted(vals, key=by_sign) == want
    # on non-negative reals the canonical order is the order of values
    assert sorted(vals, key=lambda pq: EXACT_OPS.argmin_key(RingValue(*pq))) == want
    assert EXACT_OPS.argmin_key(ONE) < EXACT_OPS.argmin_key(SQRT2)
    assert EXACT_OPS.argmin_key(RingValue(2)) == EXACT_OPS.argmin_key(RingValue(2))
    # negative values sort below, -sqrt2 < -1
    assert sorted([(F(-1), F(0)), (F(0), F(-1)), (F(1), F(0))], key=by_sign) == [
        (F(0), F(-1)), (F(-1), F(0)), (F(1), F(0))
    ]


# -- policies and float backend ------------------------------------------------

def test_coeff_policy_validation():
    assert CoeffPolicy().tolerance == 0.0
    assert CoeffPolicy("float").tolerance == 1e-14
    assert CoeffPolicy("float", 0.0).tolerance == 0.0
    with pytest.raises(ValueError):
        CoeffPolicy("exact", 1e-9)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CoeffPolicy("float", bad)
    with pytest.raises(ValueError):
        CoeffPolicy("decimal")


def test_float_equal():
    ops = scalar_ops(CoeffPolicy("float", 1e-14))
    assert ops.eq(0.3 + 0j, 0.3 + 0j)
    assert ops.eq(0j, 1e-16 + 0j)
    assert not FloatOps(0.0).eq(0j, 1e-16 + 0j)
    assert FloatOps(0.0).eq(0.25 + 0.5j, 0.25 + 0.5j)
    assert not ops.eq(0j, 1e-12 + 0j)


def test_scalar_ops_dispatch():
    assert scalar_ops(CoeffPolicy()) is EXACT_OPS
    fops = scalar_ops(CoeffPolicy("float", 1e-10))
    assert isinstance(fops, FloatOps)
    assert fops.tolerance == 1e-10
    # grid hashing groups values within one cell
    assert fops.key(1.0 + 0j) == fops.key(1.0 + 1e-11 + 0j)
    assert fops.key(1.0 + 0j) != fops.key(1.0 + 1e-9 + 0j)
    exact_grid = FloatOps(0.0)
    assert exact_grid.key(0.5 + 0j) == (0.5, 0.0)


def test_argmin_key_prefers_small_magnitude_then_positive():
    ops = EXACT_OPS
    two = RingValue(2)
    half = RingValue(F(1, 2))
    assert ops.argmin_key(half) < ops.argmin_key(two)
    assert ops.argmin_key(ONE) < ops.argmin_key(MINUS_ONE)
    # sqrt2-conjugates have equal component magnitudes but different moduli
    small = (ONE - INV_SQRT2) * (ONE - I_UNIT)
    large = (ONE + INV_SQRT2) * (ONE + I_UNIT)
    assert ops.argmin_key(small) < ops.argmin_key(large)
    f = FloatOps(0.0)
    assert f.argmin_key(0.5 + 0j) < f.argmin_key(2.0 + 0j)
    assert f.argmin_key(1.0 + 0j) < f.argmin_key(-1.0 + 0j)


# -- algebraic laws (property-based) ------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ring_st, ring_st, ring_st)
def test_field_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@settings(max_examples=200, deadline=None)
@given(ring_st, nonzero_ring_st)
def test_division_round_trip(x, y):
    assert (x / y) * y == x
    assert (x * y) / y == x


@settings(max_examples=200, deadline=None)
@given(ring_st, ring_st)
def test_conj_and_abs2(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    a2 = x.abs2()
    assert a2.c == 0 and a2.d == 0
    assert real_sign(a2.a, a2.b) >= 0


@settings(max_examples=200, deadline=None)
@given(ring_st, ring_st)
def test_complex_agreement(x, y):
    for op in ("add", "mul"):
        exact = (x + y) if op == "add" else (x * y)
        approx = (x.to_complex() + y.to_complex()) if op == "add" else (
            x.to_complex() * y.to_complex()
        )
        assert abs(exact.to_complex() - approx) <= 1e-9 * max(1.0, abs(approx))


@settings(max_examples=200, deadline=None)
@given(ring_st, ring_st, ring_st)
def test_canonical_independent_of_operation_order(x, y, z):
    left = (x + y) * z
    right = x * z + y * z
    assert left == right
    assert hash(left) == hash(right)
    assert render(left) == render(right)


def test_single_operation_growth_bound():
    rng = random.Random(20)
    for _ in range(500):
        x = dyadic_ring(rng)
        y = dyadic_ring(rng)
        budget = 4 * (bit_size(x) + bit_size(y)) + 8
        assert bit_size(x + y) <= budget
        assert bit_size(x * y) <= budget
        if not y.is_zero():
            assert bit_size(x / y) <= budget


# -- differential check against a four-Fraction reference ----------------------
#
# The reference keeps a value as four reduced Fractions (a, b, c, d) of
# a + b*sqrt2 + i*(c + d*sqrt2), the representation RingValue once used.

def ref_mul(x, y):
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        xa * ya + 2 * xb * yb - xc * yc - 2 * xd * yd,
        xa * yb + xb * ya - xc * yd - xd * yc,
        xa * yc + xc * ya + 2 * (xb * yd + xd * yb),
        xa * yd + xd * ya + xb * yc + xc * yb,
    )


def ref_conj(x):
    return (x[0], x[1], -x[2], -x[3])


def ref_div(x, y):
    t = ref_conj(y)
    num, den = ref_mul(x, t), ref_mul(y, t)
    num = ref_mul(num, (den[0], -den[1], F(0), F(0)))
    q = den[0] * den[0] - 2 * den[1] * den[1]
    return tuple(v / q for v in num)


def ref_times_i_power(x, k):
    for _ in range(k & 3):
        x = (-x[2], -x[3], x[0], x[1])
    return x


def ref_bit_size(x):
    return max([1] + [max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in x])


def ref_within_coeff_bound(x, k):
    return all(abs(f.numerator) <= 1 << k and f.denominator <= 1 << k for f in x)


def ref_in_sqrt2_lattice(x, n, t):
    s = 1 << (t // 2)
    l, m, lp, mp = (x[0] * s, x[1] * s, x[2] * s, x[3] * s) if t % 2 == 0 else (
        2 * x[1] * s, x[0] * s, 2 * x[3] * s, x[2] * s)
    if any(f.denominator != 1 for f in (l, m, lp, mp)) or (t == 0 and (m or mp)):
        return False
    big = 1 << (n + t)
    return max(abs(l), abs(lp)) <= big and max(abs(m), abs(mp)) <= big >> 1


@total_ordering
class RefReal:
    """p + q*sqrt2 over Fractions, ordered exactly by comparing squares."""

    def __init__(self, p: F, q: F) -> None:
        self.p, self.q = p, q

    def __eq__(self, other: object) -> bool:
        return (self.p, self.q) == (other.p, other.q)

    def __lt__(self, other: RefReal) -> bool:
        # self < other  iff  dp < dq*sqrt2
        dp, dq = self.p - other.p, other.q - self.q
        if dq >= 0:
            return dp < 0 or dp * dp < 2 * dq * dq
        return dp < 0 and dp * dp > 2 * dq * dq


def ref_argmin_key(x):
    m = ref_mul(x, ref_conj(x))
    return (RefReal(m[0], m[1]), *map(abs, x), *(f < 0 for f in x))


def assert_matches(got: RingValue, want: tuple) -> None:
    a, b, c, d, den = got._a, got._b, got._c, got._d, got._den
    assert den > 0 and math.gcd(a, b, c, d, den) == 1
    assert (got.a, got.b, got.c, got.d) == want
    rebuilt = RingValue(*want)
    assert rebuilt == got and hash(rebuilt) == hash(got)
    assert bit_size(got) == ref_bit_size(want)
    for k in range(6):
        assert within_coeff_bound(got, k) == ref_within_coeff_bound(want, k)
    for n in range(3):
        for t in range(4):
            assert in_sqrt2_lattice(got, n, t) == ref_in_sqrt2_lattice(want, n, t)


# non-dyadic denominators such as 1/3 and 2/5 arise from EVDD's b/a and LIMDD's 1/lambda
ref_fraction_st = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.sampled_from([F(1, 3), F(2, 5), F(-5, 7), F(3, 16)]),
)
quad_st = st.tuples(ref_fraction_st, ref_fraction_st, ref_fraction_st, ref_fraction_st)


@settings(max_examples=300, deadline=None)
@given(quad_st, quad_st, st.integers(0, 7))
@example((F(-3), F(0), F(0), F(0)), (F(-3), F(0), F(0), F(0)), 0)  # equals the int -3
def test_ring_matches_fraction_reference(xs, ys, k):
    x, y = RingValue(*xs), RingValue(*ys)
    assert_matches(x, xs)
    pairs = [
        (x + y, tuple(u + v for u, v in zip(xs, ys))),
        (x - y, tuple(u - v for u, v in zip(xs, ys))),
        (-x, tuple(-u for u in xs)),
        (x * y, ref_mul(xs, ys)),
        (x.conj(), ref_conj(xs)),
        (x.abs2(), ref_mul(xs, ref_conj(xs))),
        (x.times_i_power(k), ref_times_i_power(xs, k)),
    ]
    if any(ys):
        pairs.append((x / y, ref_div(xs, ys)))
        pairs.append((ONE / y, ref_div((F(1), F(0), F(0), F(0)), ys)))
    for got, want in pairs:
        assert_matches(got, want)
    # equality: against itself, an equal copy, ints and a non-ring object
    copy = RingValue(*xs)
    assert x == x and x == copy and not x != copy and copy is not x
    assert (x == y) == (xs == ys)
    half = RingValue(*(v / 2 for v in xs))  # same numerators as x, or 2x's
    assert (x == half) == (not any(xs))
    n = int(xs[0])
    assert (x == n) == (n == x) == (xs == (n, 0, 0, 0))
    assert x.__eq__("x") is NotImplemented and x != "x"


@settings(max_examples=300, deadline=None)
@given(quad_st, quad_st)
def test_argmin_key_matches_fraction_reference(xs, ys):
    x = RingValue(*xs)
    # an unrelated value, then the candidates that tie on magnitude
    others = [(RingValue(*ys), ys), (-x, tuple(-u for u in xs)), (x.conj(), ref_conj(xs)),
              (x.times_i_power(1), ref_times_i_power(xs, 1))]
    kx, rx = EXACT_OPS.argmin_key(x), ref_argmin_key(xs)
    for y, y_ref in others:
        ky, ry = EXACT_OPS.argmin_key(y), ref_argmin_key(y_ref)
        assert (kx < ky, ky < kx, kx == ky) == (rx < ry, ry < rx, rx == ry)


@settings(max_examples=300, deadline=None)
@given(quad_st)
def test_leads_negative_matches_argmin_key(xs):
    # x and -x tie on magnitude and absolute components, so the sign test
    # stands in for the full comparison when canonicalization picks a sign
    x = RingValue(*xs)
    assert EXACT_OPS.leads_negative(x) == (
        ref_argmin_key(tuple(-u for u in xs)) < ref_argmin_key(xs))
    assert EXACT_OPS.leads_negative(x) == (EXACT_OPS.argmin_key(-x) < EXACT_OPS.argmin_key(x))
    f = FloatOps(0.0)
    for z in (x.to_complex(), complex(0.0, xs[2]), complex(-0.0, -1.0), complex(float(xs[0]))):
        assert f.leads_negative(z) == (f.argmin_key(-z) < f.argmin_key(z))


@settings(max_examples=200, deadline=None)
@given(quad_st)
def test_unit_operand_shortcuts_match_fraction_reference(xs):
    x, one = RingValue(*xs), (F(1), F(0), F(0), F(0))
    ops = EXACT_OPS
    assert_matches(ops.mul(ONE, x), ref_mul(one, xs))
    assert_matches(ops.mul(x, ONE), ref_mul(xs, one))
    assert_matches(ops.div(x, ONE), ref_div(xs, one))
    if any(xs):
        assert_matches(ops.div(x, RingValue(*xs)), ref_div(xs, xs))
        assert ops.div(x, x) is ONE
    else:
        with pytest.raises(ZeroDivisionError):
            ops.div(x, x)
