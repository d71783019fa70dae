"""The graded-series core of the package: the storage rules of a truncated
sparse series, its product step, and truncated exp, log and inverse for
every graded algebra.

A Series is a sparse map key -> coefficient together with a truncation
degree N; arithmetic is exact modulo keys of degree > N, no stored
coefficient is zero and no stored key lies above N.  Coefficients live in
any ring adapter from ``rings.py``, stored as numerators over one
denominator in the form the ring owns (see Series).  Series are immutable by
convention: no operation but add_into mutates its operands.  A subclass
names the key of 1 (UNIT) and the degree of a key, and hands its
coefficient loop to ``product``: NCSeries (words, degree len), CSeries
(exponent triples, degree sum) and MatSeries (entry and exponent triple,
degree of the triple; its 1 has two keys).

exp, log and inverse only need +, -, *, scale(Fraction), one_like(),
min_degree() and a .truncation (inverse also needs constant_term() and
.ring).  Products beyond the truncation vanish, so a power series in x of
positive minimal degree v stops after truncation // v terms.  NCSeries and
CSeries bind these functions as their methods; MatSeries (2x2 matrices
over CSeries) uses exp and log, but its 1 has two keys, so MatSeries.inverse
is the adjugate over the determinant, not inverse.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import factorial, lcm


class RingMismatch(TypeError):
    pass


class Terms(Mapping):
    """A series' terms, key -> ring number: a read-only view of its stored form."""

    __slots__ = ("s",)

    def __init__(self, s):
        self.s = s

    def __getitem__(self, key):
        return self.s.ring.value(self.s.numerators[key], self.s.denominator)

    def __iter__(self):
        return iter(self.s.numerators)

    def __len__(self):
        return len(self.s.numerators)


class Series:
    """Storage and linear structure of a truncated sparse series; a subclass
    sets UNIT and degree and defines __mul__ by ``product``.

    Stored form, FLINT's fmpq_poly form (flintlib.org/doc/fmpq_poly.html):
    ``numerators``, key -> int (or Gaussian integer), over one positive int
    ``denominator``.  The constructor clears key -> ring number once (the
    ring's split); terms, coeff, constant_term and homogeneous_part give
    ring numbers.  Reduction is the ring's (_stored calls ring.reduce): QQ
    gives lowest terms but after a sum, the complex ring rounds to 2^-B."""

    __slots__ = ("ring", "truncation", "numerators", "denominator")

    UNIT = None          # the key of 1
    degree = None        # key -> degree, a staticmethod

    def __init__(self, ring, truncation, terms=None):
        split, deg = ring.split, self.degree
        parts = [(k, split(c)) for k, c in (terms or {}).items() if deg(k) <= truncation]
        den = lcm(*(d for _, (_, d) in parts))
        self.ring, self.truncation, self.denominator = ring, truncation, den
        self.numerators = {k: c if d == den else c * (den // d)
                           for k, (c, d) in parts if c}

    @classmethod
    def _stored(cls, ring, truncation, numerators, den):
        """numerators / den, reduced by the ring (over 1 there is nothing to
        reduce); no numerator is zero unless the ring's reduction drops it."""
        if den != 1:
            numerators, den = ring.reduce(numerators, den)
        x = cls.__new__(cls)
        x.ring, x.truncation, x.numerators, x.denominator = ring, truncation, numerators, den
        return x

    @property
    def terms(self):
        return Terms(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, truncation):
        return cls._stored(ring, truncation, {}, 1)

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, {cls.UNIT: ring.one})

    def one_like(self):
        return self.one(self.ring, self.truncation)

    # -- basics --------------------------------------------------------------

    def coeff(self, key):
        key = tuple(key)
        if self.degree(key) > self.truncation:
            raise ValueError("key %r of degree %d beyond truncation %d"
                             % (key, self.degree(key), self.truncation))
        return self.terms.get(key, self.ring.zero)

    def constant_term(self):
        return self.terms.get(self.UNIT, self.ring.zero)

    def truncate(self, n):
        """A new series: below the truncation the keys of degree <= n, else
        a copy lifted to n."""
        deg, nums = self.degree, self.numerators
        nums = {k: c for k, c in nums.items() if deg(k) <= n} if n < self.truncation else dict(nums)
        return self._stored(self.ring, n, nums, self.denominator)

    def homogeneous_part(self, d):
        deg, value, den = self.degree, self.ring.value, self.denominator
        return {k: value(c, den) for k, c in self.numerators.items() if deg(k) == d}

    def min_degree(self):
        return min(map(self.degree, self.numerators), default=self.truncation + 1)

    def _common(self, other):
        if type(other) is not type(self):
            raise RingMismatch("expected %s, got %r" % (type(self).__name__, type(other)))
        if other.ring is not self.ring:
            raise RingMismatch("coefficient rings differ: %s vs %s" % (self.ring.name, other.ring.name))
        return min(self.truncation, other.truncation)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return not (self - other).numerators

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (self.degree(kv[0]), kv[0]))[:8]
        body = " + ".join("(%s)*%s" % (c, k) for k, c in items)
        more = "" if len(self.numerators) <= 8 else " + ... (%d terms)" % len(self.numerators)
        return "%s[N=%d](%s%s)" % (type(self).__name__, self.truncation, body or "0", more)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        return self._stored(self.ring, self.truncation, dict(self.numerators),
                            self.denominator).add_into(other)

    def add_into(self, other):
        """self + other, summed into the dict of self unless other truncates
        lower: only for a series nothing else holds, such as a power sum's
        accumulator.  Both sides are brought to the lcm of their
        denominators."""
        n = self._common(other)
        out = self if n == self.truncation else self.truncate(n)
        if other.truncation > n:
            other = other.truncate(n)
        d = out.denominator
        den = lcm(d, other.denominator)
        if den != d:
            out.numerators = {k: c * (den // d) for k, c in out.numerators.items()}
            out.denominator = den
        m = den // other.denominator
        nums = out.numerators
        for k, c in other.numerators.items():
            if m != 1:
                c *= m
            s = nums.get(k)
            s = c if s is None else s + c
            if s:
                nums[k] = s
            else:
                nums.pop(k, None)
        return out

    def __neg__(self):
        return self._stored(self.ring, self.truncation,
                            {k: -c for k, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        return self + (-other)

    def action(self, m):
        """(x, n, out) -> out += m numerators * x to degree n, for a
        numerator dict x and a dict out: left multiplication by this series
        over denominator/m, as NCSeries.substitute's walk takes it."""
        nums = self.numerators if m == 1 else {k: c * m for k, c in self.numerators.items()}
        loop = type(self).__mul__.loop
        return lambda x, n, out: loop(nums, x, n, out)

    def scale(self, c):
        """Multiply by a ring number, an int or a Fraction."""
        ring = self.ring
        c, d = ring.split(c)
        if not c:
            return self.zero(ring, self.truncation)
        return self._stored(ring, self.truncation, {k: v * c for k, v in self.numerators.items()},
                            self.denominator * d)


def product(loop):
    """A subclass's __mul__ from its coefficient loop: loop(x, y, n, out)
    sums the coefficient products of the numerator dicts x and y into out,
    at each key of degree <= n.  Each loop groups y's terms by degree (and
    MatSeries' by row too), so that no pair above n is visited.  __mul__
    passes a new dict, drops its zeros and multiplies the denominators; it
    keeps the loop as __mul__.loop for NCSeries.substitute's walk, which
    sums into its own dicts."""
    def __mul__(self, other):
        n, out = self._common(other), {}
        loop(self.numerators, other.numerators, n, out)
        return self._stored(self.ring, n, {k: c for k, c in out.items() if c},
                            self.denominator * other.denominator)
    __mul__.loop = loop
    return __mul__


def max_coeff(f: Series) -> float:
    """Largest coefficient magnitude, read off the stored numerators; the
    workhorse of tolerance checks."""
    return max(map(abs, f.numerators.values()), default=0) / f.denominator


def power_sum(x, coeff):
    """The sum over k >= 1 of coeff(k) x^k, for x of positive minimal degree."""
    pw = x.one_like()
    acc = pw.scale(0)
    for k in range(1, x.truncation // x.min_degree() + 1):
        pw = pw * x
        acc = acc.add_into(pw.scale(coeff(k)))
    return acc


def exp(x):
    if x.min_degree() < 1:
        raise ValueError("exp requires zero constant term")
    return x.one_like() + power_sum(x, lambda k: Fraction(1, factorial(k)))


def log(x):
    g = x - x.one_like()
    if g.min_degree() < 1:
        raise ValueError("log requires constant term 1")
    return power_sum(g, lambda k: Fraction((-1) ** (k + 1), k))


def inverse(x):
    """Inverse of an element whose constant term is a unit of its ring."""
    c0inv = x.ring.one / x.constant_term()
    y = x.scale(c0inv)
    # subtract the stored constant term, so no rounding residue is left
    g = y.truncate(0).truncate(y.truncation) - y
    return (y.one_like() + power_sum(g, lambda k: 1)).scale(c0inv)
