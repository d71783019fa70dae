"""Coefficient rings for the truncated series arithmetic.

Everything downstream (noncommutative series, commutative series in
(a, b, p), 2x2 matrices) is generic over a small ring adapter.  Two rings
are provided here:

* ``QQ`` -- exact rationals, backed by ``fractions.Fraction``;
* ``ComplexField(digits)`` -- arbitrary-precision complex numbers, backed
  by mpmath, with the working precision carried explicitly on the adapter.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
from functools import lru_cache

import mpmath


class RationalField:
    """Adapter for exact rational coefficients."""

    name = "QQ"
    exact = True
    noise_floor = 0.0  # no roundoff: every comparison is exact

    zero = Fraction(0)
    one = Fraction(1)

    def context(self):
        """No-op context; exact arithmetic has no working precision."""
        return contextlib.nullcontext()

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return Fraction(fr)

    def is_zero(self, x):
        return x == 0

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return Fraction(1) / x


class ComplexField:
    """Adapter for mpmath complex coefficients at a fixed decimal precision.

    The precision is a property of the adapter, not global state: every
    conversion and operation on its coefficients runs under ``context()``.
    """

    exact = False

    def __init__(self, digits=50):
        self.digits = digits
        self.name = "CC%d" % digits
        # roundoff in a value that is exactly zero stays below this floor
        self.noise_floor = 10.0 ** (-(2 * digits) // 3)
        with mpmath.workdps(digits):
            self.zero = mpmath.mpc(0)
            self.one = mpmath.mpc(1)

    def context(self):
        """Working-precision context for coefficient arithmetic; mpmath
        rounds every operation to the ambient precision, so all entry
        points processing complex coefficients must run inside this."""
        return mpmath.workdps(self.digits + 10)

    def from_int(self, n):
        with self.context():
            return mpmath.mpc(n)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        with self.context():
            return mpmath.mpc(fr.numerator) / fr.denominator

    def is_zero(self, x):
        # Exact zero only: tolerance comparisons belong to the checks, not
        # to the arithmetic (pruning by tolerance would corrupt results).
        return x == 0

    def inv(self, x):
        with self.context():
            return 1 / x


QQ = RationalField()


@lru_cache(maxsize=None)
def complex_field(digits=50) -> ComplexField:
    """Shared adapter per precision; series arithmetic requires operands to
    carry the identical ring object."""
    return ComplexField(digits)


def abs_value(x):
    """|x| as a float, usable on Fraction and mpmath numbers alike."""
    if isinstance(x, Fraction):
        return abs(float(x))
    return float(mpmath.fabs(x))
