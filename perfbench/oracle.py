"""Independent reference: a dense complex state vector and exact readers.

Nothing here imports qddsim.  The state vector is a numpy array with one
axis per qubit, axis 0 being q[0], so its flat index carries q[0] in the
most significant bit, as qddsim's amplitude index does.  Exact ring values
are read through their four ``Fraction`` components only.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

_S2 = math.sqrt(2.0)
_PHASE = {"z": -1.0, "s": 1j, "sdg": -1j,
          "t": cmath.exp(1j * math.pi / 4), "tdg": cmath.exp(-1j * math.pi / 4)}


def _at(n: int, fixed: dict[int, int]) -> tuple:
    return tuple(fixed.get(q, slice(None)) for q in range(n))


def state_vector(n: int, gates) -> np.ndarray:
    """Apply the gate list to |0..0> and return the flat amplitude vector."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for kind, qs in gates:
        if kind in ("h", "x", "y"):
            i0, i1 = _at(n, {qs[0]: 0}), _at(n, {qs[0]: 1})
            lo, hi = psi[i0].copy(), psi[i1].copy()
            if kind == "h":
                psi[i0], psi[i1] = (lo + hi) / _S2, (lo - hi) / _S2
            elif kind == "x":
                psi[i0], psi[i1] = hi, lo
            else:
                psi[i0], psi[i1] = -1j * hi, 1j * lo
        elif kind in _PHASE:
            psi[_at(n, {qs[0]: 1})] *= _PHASE[kind]
        elif kind == "cz":
            psi[_at(n, {qs[0]: 1, qs[1]: 1})] *= -1.0
        elif kind in ("cx", "ccx", "swap"):
            if kind == "swap":
                a, b = _at(n, {qs[0]: 0, qs[1]: 1}), _at(n, {qs[0]: 1, qs[1]: 0})
            else:
                ctrl = {q: 1 for q in qs[:-1]}
                a, b = _at(n, {**ctrl, qs[-1]: 0}), _at(n, {**ctrl, qs[-1]: 1})
            psi[a], psi[b] = psi[b].copy(), psi[a].copy()
        else:
            raise ValueError(f"oracle has no gate {kind!r}")
    return psi.reshape(-1)


def as_complex(x) -> complex:
    """An exact value from its four components a + b*sqrt2 + i*(c + d*sqrt2)."""
    return complex(float(x.a) + float(x.b) * _S2, float(x.c) + float(x.d) * _S2)


def exact_abs2(x) -> tuple[Fraction, Fraction]:
    """|x|^2 = r + s*sqrt2 of an exact value, returned as (r, s)."""
    a, b, c, d = x.a, x.b, x.c, x.d
    return a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d)


def exact_rational(x) -> Fraction | None:
    """The value if it is a rational number, else None."""
    if x.b == 0 and x.c == 0 and x.d == 0:
        return x.a
    return None


def grover_success(m: int, iterations: int) -> float:
    """Closed form sin^2((2k+1) asin 2^(-m/2)) for the marked state."""
    return math.sin((2 * iterations + 1) * math.asin(2 ** (-m / 2))) ** 2


def within_binomial(count: int, shots: int, p: float) -> bool:
    """count ~ Binomial(shots, p) lies within 6 standard deviations, which a
    correct sampler misses with probability about 2e-9."""
    return abs(count - shots * p) <= 6.0 * math.sqrt(shots * p * (1.0 - p))
