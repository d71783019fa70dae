"""Coefficient rings for the truncated series arithmetic.

Everything downstream (noncommutative series, commutative series in
(a, b, p), 2x2 matrices) is generic over a small ring adapter.  A series
(``graded.Series``) stores numerators over one denominator in the ring's
form: ``split`` and ``value`` take a number to and from it, ``reduce``
normalises it.  ``QQ`` stores Fractions as ints in lowest terms;
``ComplexField(digits)`` stores complex numbers in fixed point, as
Gaussian-integer numerators over 2^B, B = ``bits`` = ``mp.prec`` + 8
guard bits, and hands out numbers of its own mpmath context ``mp``.  A
Gaussian integer is an int on the real line and a ``Gaussian`` off it; the
series numerators and ``hypcx.hyp2f1``'s fixed-point sum share the type.

A number or numerator is zero exactly when it is false (``if c``): the
arithmetic prunes nothing by tolerance, which would corrupt results;
tolerances belong to the checks.  The inverse of a ring number x is ``ring.one / x``.

Precision contract of ``ComplexField``, absolute, u = 2^-B.  A series
operation is exact on the stored numerators, then rounds each coefficient
once to the nearest multiple of u: u/2 in the real and in the imaginary
part, under u in modulus.  Per coefficient, in modulus, with |f| the sum of
the coefficient moduli of f:

* a sum is exact;
* a product is within u of the exact product of the stored operands, and
  an operand off by d moves it by at most d |other operand|;
* the walk (``graded.substitute``; numeric 2x2 images too) sums exactly on
  the stored numerators and rounds once, at the root: within u of the
  exact walk of the stored inputs, whatever their size;
* exp, log and inverse walk sum c_k t^k at x (x - 1 for log, 1 - y/c for
  inverse(y), c its constant term), each real c_k rounded to c'_k: within
  u + sum |c'_k - c_k| |x|^k <= u + (u/2) sum_(k>=1) |x|^k of the exact
  series at the stored x (|.| is submultiplicative), under (n/2 + 1) u for
  |x| <= 1 at truncation n.  inverse's c_k = 1 are exact: it rounds at the
  root and in forming y/c, which is exact when c = 1.

``value`` then rounds to ``mp``'s digits + 10 digits.  A number enters the
ring through the adapter or ``ring.mp`` (``ring.mp.mpc``, ``ring.mp.log``),
never a global mpmath function, which rounds at the global 15 digits (as
does a mixed operation whose left operand is a global number).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

import mpmath
from mpmath.libmp import from_man_exp


class RationalField:
    """Adapter for exact rational coefficients: Fractions, stored in a
    series as int numerators over one denominator."""

    name = "QQ"
    exact = True
    noise_floor = 0.0  # no roundoff: every comparison is exact

    zero = Fraction(0)
    one = Fraction(1)

    from_fraction = value = staticmethod(Fraction)

    def split(self, x):
        if not isinstance(x, (int, Fraction)):
            raise TypeError("a QQ coefficient is an int or a Fraction, not %s" % type(x).__name__)
        return x.numerator, x.denominator

    @staticmethod
    def reduce(numerators, den):
        """numerators / den in lowest terms."""
        g = gcd(den, *numerators.values()) if den != 1 else 1
        return (numerators, den) if g == 1 else ({k: c // g for k, c in numerators.items()}, den // g)


class Gaussian:
    """real + imag i, imag != 0: a complex numerator off the real line.  A
    real numerator is a plain int, so a real series multiplies on ints.  The
    two share int's complex protocol: real, imag, conjugate(), + - * and ==
    with each other (a Gaussian equals no int), ** by an int >= 0, // by a
    positive int (each part floored) and abs, here the modulus floored."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other):
        if isinstance(other, int):
            return Gaussian(self.real + other, self.imag)
        return gaussian(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return gaussian(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return gaussian(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        if isinstance(other, int):
            return gaussian(self.real * other, self.imag * other)
        return gaussian(self.real * other.real - self.imag * other.imag,
                        self.real * other.imag + self.imag * other.real)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k):
        return prod([self] * k) if isinstance(k, int) and k >= 0 else NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Gaussian)):
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def __floordiv__(self, d):
        return gaussian(self.real // d, self.imag // d)

    def __neg__(self):
        return Gaussian(-self.real, -self.imag)

    def conjugate(self):
        return Gaussian(self.real, -self.imag)

    def __abs__(self):
        return isqrt(self.real * self.real + self.imag * self.imag)


def gaussian(real, imag):
    return Gaussian(real, imag) if imag else real


def _fixed(v, bits):
    """The mpmath real v = (sign, man, exp, bc) times 2^bits, rounded."""
    sign, man, exp, bc = v
    if not man and bc:
        raise ValueError("an infinity or nan has no fixed-point form")
    shift = exp + bits
    man = man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift
    return -man if sign else man


class ComplexField:
    """Adapter for complex coefficients at a fixed decimal precision, in
    fixed point inside a series (see the module docstring).  The precision
    is the adapter's, not global state: zero, one and the results of value
    and from_fraction are numbers of its private context ``mp``, and so is
    ``one / x`` for such a number x."""

    exact = False

    def __init__(self, digits=50):
        self.digits = digits
        self.name = "CC%d" % digits
        # roundoff in a value that is exactly zero stays below this floor
        self.noise_floor = 10.0 ** (-(2 * digits) // 3)
        self.mp = mpmath.MPContext()
        self.mp.dps = digits + 10
        self.bits = self.mp.prec + 8  # guard bits
        self.zero = self.mp.mpc(0)
        self.one = self.mp.mpc(1)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        return self.mp.mpc(fr.numerator) / fr.denominator

    def split(self, x):
        """(numerator, 2^B); an int or a Gaussian enters exactly, a Fraction
        or an mpmath or Python number rounded to the nearest."""
        B = self.bits
        if isinstance(x, (int, Gaussian)):
            return x * (1 << B), 1 << B
        if isinstance(x, Fraction):
            return round(x * (1 << B)), 1 << B
        re, im = x._mpc_ if hasattr(x, "_mpc_") else self.mp.mpc(x)._mpc_
        return gaussian(_fixed(re, B), _fixed(im, B)), 1 << B

    def value(self, num, den):
        exp, (prec, rnd) = 1 - den.bit_length(), self.mp._prec_rounding
        return self.mp.make_mpc((from_man_exp(num.real, exp, prec, rnd),
                                 from_man_exp(num.imag, exp, prec, rnd)))

    def reduce(self, numerators, den):
        """numerators / den, den a power of 2: up to 2^B as they are (2^B
        unless nothing is stored), above it rounded once to 2^B, zeros dropped."""
        shift = den.bit_length() - 1 - self.bits
        if shift <= 0:
            return numerators, den
        half, out = 1 << (shift - 1), {}
        for k, c in numerators.items():
            c = ((c + half) >> shift if isinstance(c, int)
                 else gaussian((c.real + half) >> shift, (c.imag + half) >> shift))
            if c:
                out[k] = c
        return out, den >> shift


QQ = RationalField()


@lru_cache(maxsize=None)
def complex_field(digits=50) -> ComplexField:
    """Shared adapter per precision; series arithmetic requires operands to
    carry the identical ring object."""
    return ComplexField(digits)
