"""Coefficient rings for the truncated series arithmetic.

Everything downstream (noncommutative series, commutative series in
(a, b, p), 2x2 matrices) is generic over a small ring adapter; ``split``
and ``value`` take a number to and from a series' stored form
(``graded.Series``).  Two rings are provided here:

* ``QQ`` -- exact rationals, backed by ``fractions.Fraction``;
* ``ComplexField(digits)`` -- arbitrary-precision complex numbers, backed
  by mpmath, with the working precision carried on the adapter.

Precision contract of ``ComplexField``: its numbers belong to the ring's own
mpmath context ``ring.mp`` (digits + 10 decimal digits), and mpmath rounds
every operation on them at that precision whatever the global ``mp.dps``.
Two mpmath rules decide whether a number stays in the ring:

* a mixed operation is rounded by the context of its left operand (an int
  or Fraction on the left defers to the mpmath number on the right);
* a global function (``mpmath.mpc(x)``, ``mpmath.log``, ``mpmath.zeta``)
  rounds at the global precision, 15 digits by default.

So a number enters the ring through the adapter or ``ring.mp`` (``ring.mp.mpc``,
``ring.mp.log``, ``ring.mp.pi``), never through a global function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath


class RationalField:
    """Adapter for exact rational coefficients: Fractions, stored in a
    series as int numerators over one denominator."""

    name = "QQ"
    exact = True
    noise_floor = 0.0  # no roundoff: every comparison is exact

    zero = Fraction(0)
    one = Fraction(1)

    def from_fraction(self, fr):
        return Fraction(fr)

    def split(self, x):
        if not isinstance(x, (int, Fraction)):
            raise TypeError("a QQ coefficient is an int or a Fraction, not %s" % type(x).__name__)
        return x.numerator, x.denominator

    value = staticmethod(Fraction)

    def is_zero(self, x):
        return not x

    def inv(self, x):
        return Fraction(1) / x  # ZeroDivisionError at x = 0


class ComplexField:
    """Adapter for mpmath complex coefficients at a fixed decimal precision.

    The precision is a property of the adapter, not global state: ``mp`` is
    a private mpmath context at digits + 10 digits, and zero, one and the
    results of from_fraction and inv are its numbers, so every operation on
    them is rounded there.  An int operand enters such an operation exactly;
    a number from a global mpmath function must be converted by ``mp``
    first (see the module docstring).
    """

    exact = False

    def __init__(self, digits=50):
        self.digits = digits
        self.name = "CC%d" % digits
        # roundoff in a value that is exactly zero stays below this floor
        self.noise_floor = 10.0 ** (-(2 * digits) // 3)
        self.mp = mpmath.MPContext()
        self.mp.dps = digits + 10
        self.zero = self.mp.mpc(0)
        self.one = self.mp.mpc(1)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        return self.mp.mpc(fr.numerator) / fr.denominator

    def split(self, x):
        """(x, 1), an int or a Fraction taken into the ring first."""
        return (self.from_fraction(x) if isinstance(x, (int, Fraction)) else x), 1

    def value(self, num, den):
        return num  # den is 1

    def is_zero(self, x):
        # Exact zero only: tolerance comparisons belong to the checks, not
        # to the arithmetic (pruning by tolerance would corrupt results).
        return not x

    def inv(self, x):
        return self.one / x


QQ = RationalField()


@lru_cache(maxsize=None)
def complex_field(digits=50) -> ComplexField:
    """Shared adapter per precision; series arithmetic requires operands to
    carry the identical ring object."""
    return ComplexField(digits)


def abs_value(x):
    """|x| as a float, usable on Fraction and mpmath numbers alike."""
    return abs(float(x)) if isinstance(x, Fraction) else float(mpmath.fabs(x))
