"""The graded-series core of the package: the storage rules of a truncated
sparse series, its product step, and truncated exp, log and inverse for
every graded algebra.

A Series is a sparse dict key -> coefficient together with a truncation
degree N; arithmetic is exact modulo keys of degree > N, no stored
coefficient is zero and no stored key lies above N.  Coefficients live in
any ring adapter from ``rings.py``.  Series are immutable by convention: no
operation but add_into mutates its operands.  A subclass names the key of 1
(UNIT) and the degree of a key, and hands its coefficient loop to
``product``: NCSeries (words, degree len), CSeries (exponent triples, degree
sum) and MatSeries (entry and exponent triple, degree of the triple; its 1
has two keys).  Over QQ ``product`` runs on ints over one denominator per
operand, FLINT's fmpq_poly form (flintlib.org/doc/fmpq_poly.html).

exp, log and inverse only need +, -, *, scale(Fraction), one_like(),
min_degree() and a .truncation (inverse also needs constant_term() and
.ring).  Products beyond the truncation vanish, so a power series in x of
positive minimal degree v stops after truncation // v terms.  NCSeries and
CSeries bind these functions as their methods; MatSeries (2x2 matrices
over CSeries) uses exp and log, but its 1 has two keys, so MatSeries.inverse
is the adjugate over the determinant, not inverse.  ``cleared`` is the
form, over ZZ for a QQ series, that NCSeries.substitute and CSeries.subst
walk on.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .rings import QQ, abs_value


class IntegerRing:
    """The ring of int coefficients that a cleared walk over QQ runs on."""

    name, exact, zero, one = "ZZ", True, 0, 1

    def is_zero(self, x):
        return not x


ZZ = IntegerRing()


class RingMismatch(TypeError):
    pass


class Series:
    """Storage and linear structure of a truncated sparse series; a subclass
    sets UNIT and degree and defines __mul__ by ``product``."""

    __slots__ = ("ring", "truncation", "terms")

    UNIT = None          # the key of 1
    degree = None        # key -> degree, a staticmethod

    def __init__(self, ring, truncation, terms=None, _clean=False):
        self.ring = ring
        self.truncation = truncation
        terms = {} if terms is None else terms
        if not _clean:
            deg = self.degree
            terms = {k: c for k, c in terms.items()
                     if deg(k) <= truncation and not ring.is_zero(c)}
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, truncation):
        return cls(ring, truncation, {}, _clean=True)

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, {cls.UNIT: ring.one}, _clean=True)

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
        if n >= self.truncation:
            return type(self)(self.ring, n, self.terms, _clean=True)
        deg = self.degree
        return type(self)(self.ring, n, {k: c for k, c in self.terms.items() if deg(k) <= n},
                          _clean=True)

    def homogeneous_part(self, d):
        deg = self.degree
        return {k: c for k, c in self.terms.items() if deg(k) == d}

    def min_degree(self):
        return min(map(self.degree, self.terms), default=self.truncation + 1)

    def _common(self, other):
        if type(other) is not type(self):
            raise RingMismatch("expected %s, got %r" % (type(self).__name__, type(other)))
        if other.ring is not self.ring:
            raise RingMismatch("coefficient rings differ: %s vs %s" % (self.ring.name, other.ring.name))
        return min(self.truncation, other.truncation)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return not (self - other).terms

    def __hash__(self):  # pragma: no cover - identity hashing is enough here
        return id(self)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (self.degree(kv[0]), kv[0]))[:8]
        body = " + ".join("(%s)*%s" % (c, k) for k, c in items)
        more = "" if len(self.terms) <= 8 else " + ... (%d terms)" % len(self.terms)
        return "%s[N=%d](%s%s)" % (type(self).__name__, self.truncation, body or "0", more)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        return type(self)(self.ring, self.truncation, dict(self.terms), _clean=True).add_into(other)

    def add_into(self, other):
        """self + other, summed into the dict of self unless other truncates
        lower: only for a series nothing else holds, such as a walk's node."""
        n = self._common(other)
        out = self if n == self.truncation else self.truncate(n)
        if other.truncation > n:
            other = other.truncate(n)
        is_zero, terms = self.ring.is_zero, out.terms
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if is_zero(s):
                terms.pop(k, None)
            else:
                terms[k] = s
        return out

    def __neg__(self):
        return type(self)(self.ring, self.truncation, {k: -c for k, c in self.terms.items()},
                          _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar from the coefficient ring (or a Fraction); a
        series over ZZ times a Fraction, as a cleared walk ends, is over QQ."""
        ring = self.ring
        if not ring.exact and isinstance(c, (int, Fraction)):
            c = ring.from_fraction(Fraction(c))
        elif ring is ZZ and isinstance(c, Fraction):
            ring = QQ
        if ring.is_zero(c):
            return self.zero(ring, self.truncation)
        return type(self)(ring, self.truncation, {k: v * c for k, v in self.terms.items()},
                          _clean=True)

    @property
    def denominator(self):
        """The lcm of the coefficient denominators (over QQ), as for a Fraction."""
        return lcm(*(c.denominator for c in self.terms.values()))

    def as_integers(self, k):
        """k times the series over ZZ; k a multiple of denominator."""
        return type(self)(ZZ, self.truncation, {m: c.numerator * (k // c.denominator)
                                                for m, c in self.terms.items()}, _clean=True)


def product(loop):
    """A subclass's __mul__ from its coefficient loop: loop(x, y, n) sums the
    coefficient products of the term dicts x and y into each key of degree
    <= n.  Over QQ it runs on both operands cleared to ints (as_integers) and
    each sum is divided once."""
    def __mul__(self, other):
        n, ring = self._common(other), self.ring
        if ring is QQ:
            dx, dy = self.denominator, other.denominator
            out = loop(self.as_integers(dx).terms, other.as_integers(dy).terms, n)
            out = {k: Fraction(c, dx * dy) for k, c in out.items() if c}
        else:
            out = loop(self.terms, other.terms, n)
            out = {k: c for k, c in out.items() if not ring.is_zero(c)}
        return type(self)(ring, n, out, _clean=True)
    return __mul__


def cleared(f, images, one, n):
    """(terms, images, one, unit): what NCSeries.substitute and CSeries.subst
    walk to degree n, and the unit that scales the walk to f(images) . one.
    Off QQ: f.terms, the inputs and unit None.  Over QQ, with D, d, e the
    lcm of the denominators of f, the images and one, a key m of degree
    <= n and coefficient c becomes the int c D d^(n - deg m), the images
    d image and one e one, over ZZ, and unit = 1/(D d^n e).  Only Series are
    cleared; other images and ones (strand generators) are walked as they
    are, with d = 1 or e = 1."""
    if f.ring is not QQ:
        return f.terms, images, one, None
    d = e = 1
    if all(isinstance(im, Series) for im in images):
        d = lcm(*(im.denominator for im in images))
        images = tuple(im.as_integers(d) for im in images)
    if isinstance(one, Series):
        e = one.denominator
        one = one.as_integers(e)
    big_d, deg = f.denominator, f.degree
    terms = {m: c.numerator * (big_d // c.denominator) * d ** (n - deg(m))
             for m, c in f.terms.items() if deg(m) <= n}
    return terms, images, one, QQ.inv(big_d * d ** n * e)


def max_coeff(f: Series) -> float:
    """Largest coefficient magnitude; the workhorse of tolerance checks."""
    return max((abs_value(c) for c in f.terms.values()), default=0.0)


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
    c0inv = x.ring.inv(x.constant_term())
    y = x.scale(c0inv)
    # subtract the constant term as computed, so no rounding residue is left
    g = y.one_like().scale(y.constant_term()) - y
    return (y.one_like() + power_sum(g, lambda k: 1)).scale(c0inv)
