"""The graded-series core of the package: the storage rules of a truncated
sparse series, its product step, and the one walk that evaluates a series
at images, for substitution and truncated exp, log and inverse.

A Series is a sparse map key -> coefficient together with a truncation
degree N; arithmetic is exact modulo keys of degree > N, no stored
coefficient is zero and no stored key lies above N.  Coefficients live in
any ring adapter from ``rings.py``, stored as numerators over one
denominator in the form the ring owns (see Series).  Series are values: no
operation writes into a stored form.  A subclass names the key of 1 (UNIT)
and the degree of a key, and hands its coefficient loop to ``product``:
loop(x) groups a left factor x once and returns into(y, n, out), which sums
x y into out, so the walk groups each image once, not at every node.
NCSeries (words, degree len) and CSeries (exponent triples, degree sum)
use ``keyed_loop`` with their keys' join; MatSeries (entry and exponent
triple, degree of the triple; its 1 has two keys) a contraction by column
and degree, 2.5 times as fast on a dense degree-8 product as a join that
discards unequal inner indices.  P5Element.action (one letter prepended to
each term; the degree-5 pentagon benchmark ran 1.5-2% slower on the keyed
loop) and words.commutator (xy and yx from one product per pair) keep
their loops.

``substitute`` walks the trie of a series' keys, each peeled into its first
letter and the rest (a word gives up its first letter, a monomial one factor
of its first variable present), on numerator dicts and rounds once, at the
root.  exp, log and inverse are that walk for the one-letter series sum c_k
t^k (Powers) at x: Horner's rule.  A power of x beyond the truncation
vanishes, so x of minimal degree v takes truncation // v + 1 terms.
NCSeries and CSeries bind them as their methods; MatSeries (2x2 matrices
over CSeries) uses exp and log, but its 1 has two keys, so MatSeries.inverse
is the adjugate over the determinant, not inverse.  Maps that move, sign
or recombine stored numerators need no walk: ``relabel`` (an injective,
degree-preserving key map), ``reflect`` (f(-x)) and ``CSeries.shear`` (x_i
-> x_i + c x_j, c an int, by the binomial theorem).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm


class RingMismatch(TypeError):
    pass


class Series:
    """Storage and linear structure of a truncated sparse series; a subclass
    sets UNIT and degree and defines __mul__ by ``product``.

    Stored form, FLINT's fmpq_poly form (flintlib.org/doc/fmpq_poly.html):
    ``numerators``, key -> int (or Gaussian integer), over one positive int
    ``denominator``.  The constructor clears key -> ring number once (the
    ring's split); terms, coeff, constant_term and homogeneous_part give
    ring numbers.  Reduction is the ring's (_stored calls ring.reduce): QQ
    gives lowest terms, the complex ring rounds to 2^-B.

    No operation writes into a stored form, so a result may share the
    numerators of an operand (truncate at n >= the truncation does); _stored
    and the constructor own the dict they store.  Two series are equal when
    their truncations and their coefficients are: a series known to fewer
    degrees equals none known to more."""

    __slots__ = ("ring", "truncation", "numerators", "denominator")

    UNIT = None          # the key of 1
    degree = None        # key -> degree, a staticmethod
    peel = None          # key -> (first letter, rest), a staticmethod; see substitute

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
        """A new dict key -> ring number."""
        value, den = self.ring.value, self.denominator
        return {k: value(c, den) for k, c in self.numerators.items()}

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
        c = self.numerators.get(key)
        return self.ring.zero if c is None else self.ring.value(c, self.denominator)

    def constant_term(self):
        c = self.numerators.get(self.UNIT)
        return self.ring.zero if c is None else self.ring.value(c, self.denominator)

    def truncate(self, n):
        """Below the truncation the keys of degree <= n, else the same
        numerators lifted to n."""
        deg, nums = self.degree, self.numerators
        if n < self.truncation:
            nums = {k: c for k, c in nums.items() if deg(k) <= n}
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
        return not (self - other).numerators and self.truncation == other.truncation

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (self.degree(kv[0]), kv[0]))[:8]
        body = " + ".join("(%s)*%s" % (c, k) for k, c in items)
        more = "" if len(self.numerators) <= 8 else " + ... (%d terms)" % len(self.numerators)
        return "%s[N=%d](%s%s)" % (type(self).__name__, self.truncation, body or "0", more)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        """self + other in a new dict at the lower truncation, over the lcm
        of the denominators; only an operand that truncates higher is
        filtered by degree."""
        n = self._common(other)
        den = lcm(self.denominator, other.denominator)
        ma, mb = den // self.denominator, den // other.denominator
        a, b = [x.numerators.items() if x.truncation == n else
                [(k, c) for k, c in x.numerators.items() if x.degree(k) <= n] for x in (self, other)]
        out = dict(a) if ma == 1 else {k: c * ma for k, c in a}
        for k, c in b:
            if mb != 1:
                c *= mb
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return self._stored(self.ring, n, out, den)

    def __neg__(self):
        return self._stored(self.ring, self.truncation,
                            {k: -c for k, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        return self + (-other)

    def relabel(self, f):
        """Each key k moved to f(k), f injective and degree-preserving."""
        nums = {f(k): c for k, c in self.numerators.items()}
        return self._stored(self.ring, self.truncation, nums, self.denominator)

    def reflect(self):
        """f(-x): each numerator times (-1)^degree."""
        nums = {k: -c if self.degree(k) % 2 else c for k, c in self.numerators.items()}
        return self._stored(self.ring, self.truncation, nums, self.denominator)

    def action(self, m):
        """(x, n, out) -> out += m numerators * x to degree n, for a
        numerator dict x and a dict out: left multiplication by this series
        over denominator/m, as the walk of ``substitute`` takes it: the
        product's loop, which groups m numerators once for every node."""
        nums = self.numerators if m == 1 else {k: c * m for k, c in self.numerators.items()}
        return type(self).__mul__.loop(nums)

    def scale(self, c):
        """Multiply by a ring number, an int or a Fraction."""
        ring = self.ring
        c, d = ring.split(c)
        if not c:
            return self.zero(ring, self.truncation)
        return self._stored(ring, self.truncation, {k: v * c for k, v in self.numerators.items()},
                            self.denominator * d)


def keyed_loop(degree, join):
    """loop(x) -> into(y, n, out): into adds ca cb to out[join(ka, kb)],
    zeros kept, for ka: ca in x and kb: cb in y of degree(ka) + degree(kb)
    <= n (n may be math.inf).  loop groups x's terms by degree once, in
    increasing degree, so that into reads the groups of each term of y up
    to the first above its room and visits no pair above n."""
    def loop(x):
        by_degree = {}
        for k, c in x.items():
            by_degree.setdefault(degree(k), []).append((k, c))
        groups = sorted(by_degree.items())

        def into(y, n, out):
            for kb, cb in y.items():
                room = n - degree(kb)
                for d, items in groups:
                    if d > room:
                        break
                    for ka, ca in items:
                        k = join(ka, kb)
                        v = ca * cb
                        s = out.get(k)
                        out[k] = v if s is None else s + v
        return into
    return loop


def product(loop):
    """A subclass's __mul__ from its coefficient loop: loop(x) prepares the
    numerator dict x as a left factor and returns into(y, n, out), which
    sums the coefficient products of x and the numerator dict y into out,
    at each key of degree <= n: ``keyed_loop``, or MatSeries' contraction
    (see the module docstring).  __mul__ passes a new dict,
    drops its zeros and multiplies the denominators; it keeps the loop as
    __mul__.loop for the walk of ``substitute`` (Series.action) and for
    p5_bracket, which sum into their own dicts."""
    def __mul__(self, other):
        n, out = self._common(other), {}
        loop(self.numerators)(other.numerators, n, out)
        return self._stored(self.ring, n, {k: c for k, c in out.items() if c},
                            self.denominator * other.denominator)
    __mul__.loop = loop
    return __mul__


def max_coeff(f: Series) -> float:
    """Largest coefficient magnitude, read off the stored numerators; the
    workhorse of tolerance checks."""
    return max(map(abs, f.numerators.values()), default=0) / f.denominator


def substitute(f, *images, one=None):
    """f(images) . one, for images with an action (Series.action,
    P5Element.action), one per letter of f's keys: series (MatSeries for
    2x2 matrices over the (a, b, p) series) and strand generators (the
    pentagon's derivation kernel on a node's fibre vector).  ``one``
    is the series the images act on from the left, by default
    images[0].one_like().

    A left Horner walk of the trie of f's keys, each peeled by f.peel into
    its first letter and the rest, to degree n, the smallest truncation of
    f, ``one`` and the series images: the node of a prefix of length s and
    coefficient c has the value V_s = c one + sum_i image_i child_i to
    degree n - s.  The images need no degree-0 part, so a series image with
    a constant term is rejected.

    The walk runs on numerators alone.  With D the lcm of the images'
    denominators and I_i their numerators over D, a node sums W_s = c
    D^(n-s) one + sum_i I_i W_(s+1,i), c and one as stored, into a dict of
    its own, zeros kept, so that V_s = W_s / (D^(n-s) den(one) den(f)).
    Only the root makes a series: W_0 over D^n den(one) den(f), its zeros
    dropped and reduced once by the ring (lowest terms over QQ; one rounding
    to 2^-B over the complex ring).
    """
    series = [im for im in images if isinstance(im, Series)]
    if any(im.min_degree() < 1 for im in series):
        raise ValueError("letter image has a nonzero constant term; "
                         "substitute logarithms of group elements instead")
    one = images[0].one_like() if one is None else one
    if f.ring is not one.ring:
        raise RingMismatch("series over %s, one over %s" % (f.ring.name, one.ring.name))
    n = min([f.truncation, one.truncation] + [one._common(im) for im in series])
    d = lcm(*(im.denominator for im in images))
    acts = [im.action(d // im.denominator) for im in images]
    ones = [[(k, c) for k, c in one.numerators.items() if one.degree(k) <= n - s]
            for s in range(n + 1)]
    unit, peel = f.UNIT, f.peel

    def walk(terms, s):
        # W_s from the rests after one prefix of length s
        c = terms.get(unit)
        if c:
            c *= d ** (n - s)
            out = {k: v * c for k, v in ones[s]}
        else:
            out = {}
        if s < n:
            children = [{} for _ in images]
            for k, c in terms.items():
                if k != unit:
                    i, rest = peel(k)
                    children[i][rest] = c
            for act, child in zip(acts, children):
                if child:
                    act(walk(child, s + 1), n - s, out)
        return out

    nums = {k: c for k, c in walk(f.numerators, 0).items() if c}
    return one._stored(one.ring, n, nums, d ** n * one.denominator * f.denominator)


class Powers(Series):
    """sum c_k t^k in one letter t: the key k, of degree k, peels to (0, k - 1)."""

    __slots__ = ()
    UNIT = 0
    degree = staticmethod(int)
    peel = staticmethod(lambda k: (0, k - 1))


def horner(x, coeff, one=None):
    """sum_k coeff(k) x^k . one over k <= n // v, for x of truncation n and
    minimal degree v >= 1 (higher powers vanish): the walk of the one-letter
    series at x, that is Horner's rule."""
    n = x.truncation
    return substitute(Powers(x.ring, n, {k: coeff(k) for k in range(n // x.min_degree() + 1)}),
                      x, one=one)


def exp(x):
    if x.min_degree() < 1:
        raise ValueError("exp requires zero constant term")
    return horner(x, lambda k: Fraction(1, factorial(k)))


def log(x):
    g = x + type(x)(x.ring, x.truncation, dict.fromkeys(x.one_like().numerators, -x.ring.one))
    if g.min_degree() < 1:
        raise ValueError("log requires constant term 1")
    return horner(g, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def inverse(x):
    """Inverse of an element whose constant term c is a unit of its ring:
    c^-1 sum_k g^k, g = 1 - x/c without the stored constant term of x/c, so
    that no rounding residue is left."""
    c0inv = x.ring.one / x.constant_term()
    y = x.scale(c0inv)
    g = y._stored(y.ring, y.truncation, {k: -c for k, c in y.numerators.items() if k != y.UNIT},
                  y.denominator)
    return horner(g, lambda k: 1, one=x.one_like().scale(c0inv))
