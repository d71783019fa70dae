"""Truncated commutative power series in the three variables (a, b, p).

The third variable is p; the combination q = a + b + p is derived and is
never stored.  Boundary conversions from a (a, b, c) parametrisation use
p = 1 - c.  Exact division by q is performed in a temporary coordinate
system where q replaces p as the third variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from . import graded
from .rings import abs_value

VAR_NAMES = ("a", "b", "p")


class ExactDivisionError(ArithmeticError):
    """Raised when a series is not divisible by the requested form; carries
    the offending monomial, which is the actual content of the failure."""

    def __init__(self, form, monomial):
        self.form = form
        self.monomial = monomial
        super().__init__("series not divisible by %s (offending monomial a^%d b^%d %s^%d)"
                         % (form, monomial[0], monomial[1], form if form == "q" else "p", monomial[2]))


class CSeries:
    __slots__ = ("ring", "truncation", "terms")

    def __init__(self, ring, truncation, terms=None, _clean=False):
        self.ring = ring
        self.truncation = truncation
        if terms is None:
            terms = {}
        if not _clean:
            terms = {
                m: c for m, c in terms.items()
                if sum(m) <= truncation and not ring.is_zero(c)
            }
        self.terms = terms

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring, truncation):
        return cls(ring, truncation, {}, _clean=True)

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, {(0, 0, 0): ring.one}, _clean=True)

    @classmethod
    def constant(cls, ring, truncation, c):
        return cls(ring, truncation, {(0, 0, 0): c})

    @classmethod
    def variable(cls, ring, truncation, name):
        i = VAR_NAMES.index(name)
        mono = tuple(1 if k == i else 0 for k in range(3))
        return cls(ring, truncation, {mono: ring.one}, _clean=True)

    @classmethod
    def gens(cls, ring, truncation):
        """(a, b, p, q) with q = a + b + p expanded."""
        a = cls.variable(ring, truncation, "a")
        b = cls.variable(ring, truncation, "b")
        p = cls.variable(ring, truncation, "p")
        return a, b, p, a + b + p

    def one_like(self):
        return CSeries.one(self.ring, self.truncation)

    # -- basics ----------------------------------------------------------------

    def coeff(self, mono):
        return self.terms.get(tuple(mono), self.ring.zero)

    def constant_term(self):
        return self.terms.get((0, 0, 0), self.ring.zero)

    def truncate(self, n):
        if n >= self.truncation:
            return CSeries(self.ring, n, self.terms, _clean=True)
        return CSeries(self.ring, n, {m: c for m, c in self.terms.items() if sum(m) <= n}, _clean=True)

    def min_degree(self):
        if not self.terms:
            return self.truncation + 1
        return min(sum(m) for m in self.terms)

    def _common(self, other):
        if not isinstance(other, CSeries):
            raise TypeError("expected CSeries, got %r" % type(other))
        if other.ring is not self.ring:
            raise TypeError("coefficient rings differ")
        return min(self.truncation, other.truncation)

    def __eq__(self, other):
        if not isinstance(other, CSeries):
            return NotImplemented
        n = self._common(other)
        for m in set(self.terms) | set(other.terms):
            if sum(m) > n:
                continue
            if not self.ring.is_zero(self.terms.get(m, self.ring.zero) - other.terms.get(m, self.ring.zero)):
                return False
        return True

    def __hash__(self):  # pragma: no cover
        return id(self)

    def __repr__(self):
        def mono_str(m):
            parts = []
            for name, e in zip(VAR_NAMES, m):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append("%s^%d" % (name, e))
            return "*".join(parts) or "1"
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))[:8]
        body = " + ".join("(%s)*%s" % (c, mono_str(m)) for m, c in items)
        more = "" if len(self.terms) <= 8 else " + ... (%d terms)" % len(self.terms)
        return "CSeries[N=%d](%s%s)" % (self.truncation, body or "0", more)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        n = self._common(other)
        out = {m: c for m, c in self.terms.items() if sum(m) <= n}
        for m, c in other.terms.items():
            if sum(m) > n:
                continue
            s = out.get(m)
            s = c if s is None else s + c
            if self.ring.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return CSeries(self.ring, n, out, _clean=True)

    def __neg__(self):
        return CSeries(self.ring, self.truncation, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)) and not isinstance(self.ring.one, Fraction):
            c = self.ring.from_fraction(Fraction(c))
        if self.ring.is_zero(c):
            return CSeries.zero(self.ring, self.truncation)
        return CSeries(self.ring, self.truncation, {m: v * c for m, v in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        n = self._common(other)
        ring = self.ring
        out = {}
        right = [(m, sum(m), c) for m, c in other.terms.items()]
        for ma, ca in self.terms.items():
            da = sum(ma)
            if da > n:
                continue
            for mb, db, cb in right:
                if da + db > n:
                    continue
                k = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                v = ca * cb
                s = out.get(k)
                out[k] = v if s is None else s + v
        out = {m: c for m, c in out.items() if not ring.is_zero(c)}
        return CSeries(ring, n, out, _clean=True)

    def pow(self, k):
        out = CSeries.one(self.ring, self.truncation)
        for _ in range(k):
            out = out * self
        return out

    exp = graded.exp
    log = graded.log
    inverse = graded.inverse

    # -- variable substitution -----------------------------------------------------

    def subst(self, image_a, image_b, image_p):
        """Endomorphism sending the variables to degree-1 forms (validated:
        no constant term, degree <= 1), so the grading is preserved."""
        for im in (image_a, image_b, image_p):
            if not isinstance(im, CSeries):
                raise TypeError("images must be CSeries")
            if not self.ring.is_zero(im.constant_term()):
                raise ValueError("image form has a constant term")
            if any(sum(m) > 1 for m in im.terms):
                raise ValueError("image form has degree > 1")
        images = (image_a, image_b, image_p)
        n = self.truncation
        one = CSeries.one(self.ring, n)
        pow_memo = [{0: one} for _ in range(3)]

        def power(i, e):
            got = pow_memo[i].get(e)
            if got is None:
                got = power(i, e - 1) * images[i]
                pow_memo[i][e] = got
            return got

        acc = CSeries.zero(self.ring, n)
        for m, c in self.terms.items():
            # only the variables that occur: no products by 1
            t = reduce(mul, [power(i, e) for i, e in enumerate(m) if e] or [one])
            acc = acc + t.scale(c)
        return acc

    # -- exact division ---------------------------------------------------------------

    def _divide_var(self, i, form_name, noise):
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                if noise > 0.0 and abs_value(c) <= noise:
                    continue
                raise ExactDivisionError(form_name, m)
            k = list(m)
            k[i] -= 1
            out[tuple(k)] = c
        return CSeries(self.ring, self.truncation - 1, out, _clean=True)

    def _to_q_coords(self):
        # p = (third) - a - b, with the third slot reread as q
        ring, n = self.ring, self.truncation
        a = CSeries.variable(ring, n, "a")
        b = CSeries.variable(ring, n, "b")
        t = CSeries.variable(ring, n, "p")  # stands for q after the change
        return self.subst(a, b, t - a - b)

    def _from_q_coords(self):
        ring, n = self.ring, self.truncation
        a = CSeries.variable(ring, n, "a")
        b = CSeries.variable(ring, n, "b")
        p = CSeries.variable(ring, n, "p")
        return self.subst(a, b, a + b + p)

    def divide_exact(self, form, noise=None):
        """Exact division by one of a, b, p, q, ab, pq, bq, ba; raises
        ExactDivisionError when a monomial obstructs it.  The quotient's
        truncation drops by the degree of the form.

        Over an inexact ring, offending monomials below the roundoff noise
        floor (the ring's noise_floor) are dropped instead of raising; noise
        overrides the floor."""
        if noise is None:
            noise = self.ring.noise_floor
        if len(form) > 1:
            out = self
            for ch in form:
                out = out.divide_exact(ch, noise)
            return out
        if form in VAR_NAMES:
            return self._divide_var(VAR_NAMES.index(form), form, noise)
        if form == "q":
            g = self._to_q_coords()
            g = g._divide_var(2, "q", noise)
            return g._from_q_coords()
        raise ValueError("unknown form %r" % form)

    # -- evaluation ---------------------------------------------------------------------

    def evaluate(self, va, vb, vp, one):
        """Evaluate at a point; the values may live in any commutative ring
        with +, * and a unit (e.g. l-adic integers, mpmath numbers).
        Coefficients are applied through value * coeff, so the value type
        must accept the coefficient type on the right."""
        acc = None
        pow_memo = [{0: one} for _ in range(3)]
        vals = (va, vb, vp)

        def power(i, e):
            got = pow_memo[i].get(e)
            if got is None:
                got = power(i, e - 1) * vals[i]
                pow_memo[i][e] = got
            return got

        for m, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            t = power(0, m[0]) * power(1, m[1]) * power(2, m[2])
            t = t * c
            acc = t if acc is None else acc + t
        if acc is None:
            return one * self.ring.zero
        return acc

    # -- serialization --------------------------------------------------------------------

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return {
            "vars": list(VAR_NAMES),
            "truncation": self.truncation,
            "terms": [{"mono": list(m), "coeff": self.ring.encode(c)} for m, c in items],
        }

    @classmethod
    def from_json(cls, ring, obj):
        if list(obj.get("vars", VAR_NAMES)) != list(VAR_NAMES):
            raise ValueError("unsupported variable set %r" % obj.get("vars"))
        terms = {tuple(t["mono"]): ring.decode(t["coeff"]) for t in obj["terms"]}
        return cls(ring, int(obj["truncation"]), terms)


def max_cseries_coeff(f: CSeries) -> float:
    return max((abs_value(c) for c in f.terms.values()), default=0.0)


# -- the built-in parameter substitutions ------------------------------------------


def subst_swap_ab(f: CSeries) -> CSeries:
    """The a <-> b swap (fixes p and q)."""
    ring, n = f.ring, f.truncation
    a = CSeries.variable(ring, n, "a")
    b = CSeries.variable(ring, n, "b")
    p = CSeries.variable(ring, n, "p")
    return f.subst(b, a, p)


def subst_reindex(f: CSeries) -> CSeries:
    """The involution fixing a and q and exchanging p with b - a.

    In (a, b, c) coordinates this is a -> a, b -> a + 1 - c, c - 1 -> a - b;
    both parameter changes used by the transformation identities reduce to
    this one map in (a, b, p) coordinates.
    """
    ring, n = f.ring, f.truncation
    a = CSeries.variable(ring, n, "a")
    b = CSeries.variable(ring, n, "b")
    p = CSeries.variable(ring, n, "p")
    return f.subst(a, a + p, b - a)
