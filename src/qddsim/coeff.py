"""Edge-label arithmetic: an exact ring backend and a float backend.

The exact backend represents every coefficient canonically as

    (a + b*sqrt(2) + c*i + d*i*sqrt(2)) / den

with five Python ints over one shared denominator, in normal form: den > 0
and gcd(a, b, c, d, den) = 1.  Because 1, sqrt(2), i and i*sqrt(2) are
linearly independent over the rationals, that form is unique, so equality,
hashing and interning of edge labels stay purely structural; equality of
two ring values compares the five ints and builds no tuples.  The subset is
closed under +, -, *, / (division rationalizes through the complex conjugate
and then the sqrt(2) conjugate, all in integers), contains the eighth root
of unity omega = (1+i)/sqrt(2), and is therefore closed under everything a
Clifford+T simulation produces.  ``a``..``d`` read back as reduced Fractions.

``ONE`` is the unit the diagram core interns: ``ExactOps.mul`` and ``div``
return an operand instead of multiplying by it, ``div`` returns ``ONE`` for
equal operands and ``abs2(ONE)`` is ``ONE``, so the core can test for the
unit by identity.  Each backend's ``is_zero`` and ``edge_is_zero`` (the test
of a diagram edge's factor) is one Python call.

The float backend uses plain ``complex`` doubles; equality and zero tests
compare against a configurable absolute tolerance, and hashing rounds to a
tolerance-sized grid (approximate: values within tolerance can still land in
adjacent grid cells).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from functools import cmp_to_key
from math import copysign, gcd, isfinite, lcm

class RingValue:
    """One exact coefficient ``(a + b*sqrt2 + c*i + d*i*sqrt2) / den``."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den", "_h")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0,
                 c: int | Fraction = 0, d: int | Fraction = 0) -> None:
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            n = 1
        else:
            # Over the lcm of reduced denominators the numerators share no
            # factor with it, so the result is already in normal form.
            fs = [Fraction(v) for v in (a, b, c, d)]
            n = lcm(*(f.denominator for f in fs))
            a, b, c, d = (f.numerator * (n // f.denominator) for f in fs)
        self._a, self._b, self._c, self._d, self._den = a, b, c, d, n
        self._h: int | None = None

    a = property(lambda self: Fraction(self._a, self._den), doc="Reduced rational part.")
    b = property(lambda self: Fraction(self._b, self._den), doc="Reduced sqrt2 part.")
    c = property(lambda self: Fraction(self._c, self._den), doc="Reduced i part.")
    d = property(lambda self: Fraction(self._d, self._den), doc="Reduced i*sqrt2 part.")

    def __repr__(self) -> str:
        return f"RingValue({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        return render(self)

    def __eq__(self, other: object) -> bool:
        # The diagram core compares ring values with ring values, so that
        # case costs one type test and no tuples.
        if type(other) is not RingValue:
            if isinstance(other, int):
                other = RingValue(other)
            elif not isinstance(other, RingValue):
                return NotImplemented
        return (self._a == other._a and self._b == other._b and self._c == other._c
                and self._d == other._d and self._den == other._den)

    def __hash__(self) -> int:
        if self._h is None:
            self._h = hash((self._a, self._b, self._c, self._d, self._den))
        return self._h

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    def __add__(self, other: RingValue) -> RingValue:
        if not isinstance(other, RingValue):
            return NotImplemented
        xn, yn = self._den, other._den
        if xn == yn:
            return _reduced(self._a + other._a, self._b + other._b,
                            self._c + other._c, self._d + other._d, xn)
        return _reduced(self._a * yn + other._a * xn, self._b * yn + other._b * xn,
                        self._c * yn + other._c * xn, self._d * yn + other._d * xn, xn * yn)

    def __sub__(self, other: RingValue) -> RingValue:
        if not isinstance(other, RingValue):
            return NotImplemented
        return self + -other

    def __neg__(self) -> RingValue:
        return _new(-self._a, -self._b, -self._c, -self._d, self._den)

    def __mul__(self, other: RingValue) -> RingValue:
        if not isinstance(other, RingValue):
            return NotImplemented
        xa, xb, xc, xd = self._a, self._b, self._c, self._d
        ya, yb, yc, yd = other._a, other._b, other._c, other._d
        return _reduced(
            xa * ya + 2 * xb * yb - xc * yc - 2 * xd * yd,
            xa * yb + xb * ya - xc * yd - xd * yc,
            xa * yc + xc * ya + 2 * (xb * yd + xd * yb),
            xa * yd + xd * ya + xb * yc + xc * yb,
            self._den * other._den,
        )

    def __truediv__(self, other: RingValue) -> RingValue:
        if not isinstance(other, RingValue):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero ring value")
        # With y = Y/n: Y*conj(Y) = p + q*sqrt2 is real, and multiplying by
        # its sqrt2-conjugate leaves p^2 - 2q^2 = |Y|^2 * |Y'|^2 > 0, where
        # Y' is Y with sqrt2 negated.  So 1/y = n*conj(Y)*(p - q*sqrt2) /
        # (p^2 - 2q^2), all in integers; the product below reduces it.
        ya, yb, yc, yd, n = other._a, other._b, other._c, other._d, other._den
        p = ya * ya + 2 * yb * yb + yc * yc + 2 * yd * yd
        q = 2 * (ya * yb + yc * yd)
        return self * _new(n * (ya * p - 2 * yb * q), n * (yb * p - ya * q),
                           n * (2 * yd * q - yc * p), n * (yc * q - yd * p), p * p - 2 * q * q)

    def conj(self) -> RingValue:
        """Complex conjugate (negates the two imaginary components)."""
        return _new(self._a, self._b, -self._c, -self._d, self._den)

    def abs2(self) -> RingValue:
        """|x|^2 = x * conj(x); always real (c = d = 0)."""
        a, b, c, d, n = self._a, self._b, self._c, self._d, self._den
        return _reduced(a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d), 0, 0, n * n)

    def times_i_power(self, k: int) -> RingValue:
        k &= 3
        if k == 0:
            return self
        if k == 1:
            return _new(-self._c, -self._d, self._a, self._b, self._den)
        if k == 2:
            return -self
        return _new(self._c, self._d, -self._a, -self._b, self._den)

    def to_complex(self) -> complex:
        r2 = 2.0**0.5
        n = self._den
        return complex(self._a / n + (self._b / n) * r2, self._c / n + (self._d / n) * r2)


def _new(a: int, b: int, c: int, d: int, n: int) -> RingValue:
    """A RingValue from integers taken as they are (n > 0)."""
    x = object.__new__(RingValue)
    x._a, x._b, x._c, x._d, x._den, x._h = a, b, c, d, n, None
    return x


def _reduced(a: int, b: int, c: int, d: int, n: int) -> RingValue:
    """A RingValue from integers with n > 0, divided by their gcd."""
    if n != 1:
        g = gcd(n, a, b, c, d)
        if g != 1:
            return _new(a // g, b // g, c // g, d // g, n // g)
    return _new(a, b, c, d, n)


ZERO = RingValue()
ONE = RingValue(1)
MINUS_ONE = RingValue(-1)
I_UNIT = RingValue(0, 0, 1)
SQRT2 = RingValue(0, 1)
INV_SQRT2 = RingValue(0, Fraction(1, 2))
OMEGA = RingValue(0, Fraction(1, 2), 0, Fraction(1, 2))

_OMEGA_POWERS: list[RingValue] = [ONE]
for _ in range(7):
    _OMEGA_POWERS.append(_OMEGA_POWERS[-1] * OMEGA)


def omega_power(k: int) -> RingValue:
    """omega^k for omega = (1+i)/sqrt(2); period 8, omega^2 = i."""
    return _OMEGA_POWERS[k & 7]


def _reduced_components(x: RingValue):
    """(numerator, denominator) of each of the four reduced components."""
    n = x._den
    for v in (x._a, x._b, x._c, x._d):
        g = gcd(v, n)
        yield v // g, n // g


def within_coeff_bound(x: RingValue, k: int) -> bool:
    """All eight integers of the reduced components bounded by 2**k."""
    bound = 1 << k
    for num, den in _reduced_components(x):
        if abs(num) > bound or den > bound:
            return False
    return True


def in_sqrt2_lattice(x: RingValue, n: int, t: int) -> bool:
    """Membership in the scaled integer lattice

        (l + m*sqrt2)/sqrt(2^t) + i*(l' + m'*sqrt2)/sqrt(2^t)

    with |l|, |l'| <= 2^(n+t), |m|, |m'| <= 2^(n+t-1), and m = m' = 0 when
    t = 0.  The decomposition is unique, so membership is decidable by
    multiplying through by sqrt(2^t) and checking integrality and bounds.
    """
    if t % 2 == 0:
        s = 1 << (t // 2)
        l, m = x.a * s, x.b * s
        lp, mp = x.c * s, x.d * s
    else:
        s = 1 << ((t - 1) // 2)
        l, m = 2 * x.b * s, x.a * s
        lp, mp = 2 * x.d * s, x.c * s
    for f in (l, m, lp, mp):
        if f.denominator != 1:
            return False
    if t == 0 and (m != 0 or mp != 0):
        return False
    big = 1 << (n + t)
    small = big >> 1
    return abs(l) <= big and abs(lp) <= big and abs(m) <= small and abs(mp) <= small


def bit_size(x: RingValue) -> int:
    """Max bit length over the four numerators and denominators."""
    out = 1
    for num, den in _reduced_components(x):
        out = max(out, abs(num).bit_length(), den.bit_length())
    return out


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def render(x: RingValue) -> str:
    """Symbolic rendering, e.g. ``1/4 + 1/8*sqrt2`` or ``1*i``; ``0`` if zero."""
    comps = zip((x.a, x.b, x.c, x.d), ("", "*sqrt2", "*i", "*i*sqrt2"))
    parts = [(f, suffix) for f, suffix in comps if f != 0]
    if not parts:
        return "0"
    out = []
    for i, (f, suffix) in enumerate(parts):
        if i == 0:
            out.append(_frac_str(f) + suffix)
        elif f < 0:
            out.append(" - " + _frac_str(-f) + suffix)
        else:
            out.append(" + " + _frac_str(f) + suffix)
    return "".join(out)


def real_decimal(x: RingValue, digits: int = 30) -> Decimal:
    """The real part a + b*sqrt2 as a Decimal, round-half-even at ``digits``."""
    with localcontext() as ctx:
        ctx.prec = digits + 15
        r2 = Decimal(2).sqrt()
        v = (
            Decimal(x.a.numerator) / Decimal(x.a.denominator)
            + (Decimal(x.b.numerator) / Decimal(x.b.denominator)) * r2
        )
        return v.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)


def real_sign(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt2, decided exactly."""
    if p >= 0 and q >= 0:
        return 0 if p == 0 and q == 0 else 1
    if p <= 0 and q <= 0:
        return -1
    # Opposite signs: the side with the larger square wins.
    big_p = 1 if p > 0 else -1
    return big_p if p * p > 2 * q * q else -big_p


@dataclass(frozen=True)
class CoeffPolicy:
    """Which coefficient backend a diagram store runs on."""

    backend: str = "exact"  # "exact" | "float"
    tolerance: float | None = None  # None picks the backend default (0 / 1e-14)

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "float"):
            raise ValueError(f"unknown coefficient backend {self.backend!r}")
        if self.tolerance is None:
            object.__setattr__(
                self, "tolerance", 0.0 if self.backend == "exact" else 1e-14
            )
        if self.backend == "exact" and self.tolerance != 0.0:
            raise ValueError("exact backend has no tolerance")
        # NaN makes every comparison false (then a division by zero), and an
        # infinite tolerance treats every value as zero.
        if not (isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(
                f"tolerance must be finite and non-negative, got {self.tolerance}"
            )


def _argmin_cmp(x: RingValue, y: RingValue) -> int:
    """Canonicalization preference: smallest complex magnitude first
    (compared exactly), then small components, then positive signs."""
    mx, my = x.abs2(), y.abs2()
    s = real_sign(mx._a * my._den - my._a * mx._den, mx._b * my._den - my._b * mx._den)
    if s:
        return s
    xs, ys = (x._a, x._b, x._c, x._d), (y._a, y._b, y._c, y._d)
    kx = [abs(u) * y._den for u in xs] + [u < 0 for u in xs]
    ky = [abs(v) * x._den for v in ys] + [v < 0 for v in ys]
    return (kx > ky) - (kx < ky)


class ExactOps:
    """Scalar operations over RingValue, used generically by the diagram core."""

    backend = "exact"
    tolerance = 0.0
    zero = ZERO
    one = ONE

    # Zero tests run on every edge the diagram core touches, so each is one
    # Python call: the ring's own test, not a call that delegates to it.
    is_zero = staticmethod(RingValue.is_zero)

    @staticmethod
    def edge_is_zero(edge) -> bool:
        """``is_zero`` of a diagram edge's label factor, ``edge.lim.factor``."""
        x = edge.lim.factor
        return not (x._a or x._b or x._c or x._d)

    eq = staticmethod(operator.eq)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)

    # Most factors the diagram core multiplies or divides by are the ONE
    # that identity labels carry, or the value being divided, so those
    # operands skip the ring.
    @staticmethod
    def mul(x: RingValue, y: RingValue) -> RingValue:
        if x is ONE:
            return y
        if y is ONE:
            return x
        return x * y

    @staticmethod
    def div(x: RingValue, y: RingValue) -> RingValue:
        if y is ONE:
            return x
        if x == y and not y.is_zero():
            return ONE
        return x / y

    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(x: RingValue) -> RingValue:
        return ONE / x

    conj = staticmethod(RingValue.conj)

    @staticmethod
    def abs2(x: RingValue) -> RingValue:
        # |1|^2 is ONE itself, so a later mul by it skips the ring.
        return ONE if x is ONE else x.abs2()

    @staticmethod
    def i_power(k: int) -> RingValue:
        return _OMEGA_POWERS[(k & 3) * 2]

    omega = staticmethod(omega_power)

    invsqrt2 = INV_SQRT2

    @staticmethod
    def key(x: RingValue) -> RingValue:
        return x

    # Ring values are equal only when every component is, so the value is
    # its own key in a memo of results computed from it.
    memo_key = key

    argmin_key = staticmethod(cmp_to_key(_argmin_cmp))

    @staticmethod
    def leads_negative(x: RingValue) -> bool:
        """Whether -x ranks before x under ``argmin_key``: the first nonzero
        component of x is negative."""
        for v in (x._a, x._b, x._c, x._d):
            if v:
                return v < 0
        return False


_INV_R2 = 2.0**-0.5
_OMEGA_F = complex(_INV_R2, _INV_R2)
_OMEGA_POWERS_F = (
    1 + 0j,
    _OMEGA_F,
    1j,
    1j * _OMEGA_F,
    -1 + 0j,
    -_OMEGA_F,
    -1j,
    -1j * _OMEGA_F,
)
_I_POWERS_F = (1 + 0j, 1j, -1 + 0j, -1j)


class FloatOps:
    """Scalar operations over complex doubles with absolute-tolerance tests."""

    backend = "float"
    zero = 0j
    one = 1 + 0j
    invsqrt2 = complex(_INV_R2)

    def __init__(self, tolerance: float = 0.0) -> None:
        self.tolerance = tolerance

    def is_zero(self, x: complex) -> bool:
        return abs(x) <= self.tolerance

    def edge_is_zero(self, edge) -> bool:
        """``is_zero`` of a diagram edge's label factor, ``edge.lim.factor``."""
        return abs(edge.lim.factor) <= self.tolerance

    def eq(self, x: complex, y: complex) -> bool:
        return abs(x - y) <= self.tolerance

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(x: complex) -> complex:
        return 1 / x

    conj = staticmethod(complex.conjugate)

    @staticmethod
    def abs2(x: complex) -> complex:
        return complex(x.real * x.real + x.imag * x.imag)

    @staticmethod
    def i_power(k: int) -> complex:
        return _I_POWERS_F[k & 3]

    @staticmethod
    def omega(k: int) -> complex:
        return _OMEGA_POWERS_F[k & 7]

    def key(self, x: complex):
        if self.tolerance == 0.0:
            return (x.real, x.imag)
        g = self.tolerance
        return (round(x.real / g), round(x.imag / g))

    @staticmethod
    def memo_key(x: complex) -> tuple:
        """A key for a memo of results computed from x.  ``-0.0 == 0.0``,
        yet results from the two can differ in the sign of a zero part, so
        the key keeps the signs of both parts."""
        return (x, copysign(1.0, x.real), copysign(1.0, x.imag))

    @staticmethod
    def argmin_key(x: complex):
        return (
            x.real * x.real + x.imag * x.imag,
            abs(x.real),
            abs(x.imag),
            x.real < 0,
            x.imag < 0,
        )

    @staticmethod
    def leads_negative(x: complex) -> bool:
        """Whether -x ranks before x under ``argmin_key``."""
        return x.real < 0 or (x.real == 0 and x.imag < 0)


EXACT_OPS = ExactOps()

ScalarOps = ExactOps | FloatOps


def scalar_ops(policy: CoeffPolicy) -> ScalarOps:
    if policy.backend == "exact":
        return EXACT_OPS
    return FloatOps(policy.tolerance)
