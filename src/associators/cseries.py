"""Truncated commutative power series in the three variables (a, b, p).

A series is a graded.Series keyed by exponent triples of degree their sum,
which peel one factor of their first variable present; ``graded.py`` owns
the storage rules, the linear structure, exp/log/inverse and the walk that
substitutes forms for the variables.  This module adds the product
(``graded.keyed_loop`` with the exponent-sum join), the variables, the
checks of ``subst`` on its forms, the shears and exact division.

The third variable is p; the combination q = a + b + p is derived and is
never stored.  Boundary conversions from a (a, b, c) parametrisation use
p = 1 - c.  The parameter changes of the 2x2 layer are integer unimodular
maps of (a, b, p), so they are key maps: a relabel and shears, with no
walk.  Exact division by q shears p to p - a - b, which reads the third
variable as q, divides by it and shears back.
"""

from __future__ import annotations

from math import comb

from . import graded

VAR_NAMES = ("a", "b", "p")


class ExactDivisionError(ArithmeticError):
    """Raised when a series is not divisible by the requested form; carries
    the offending monomial, which is the actual content of the failure."""

    def __init__(self, form, monomial):
        self.monomial = monomial
        super().__init__("series not divisible by %s (offending monomial a^%d b^%d %s^%d)"
                         % (form, monomial[0], monomial[1], form if form == "q" else "p", monomial[2]))


class CSeries(graded.Series):
    __slots__ = ()

    UNIT = (0, 0, 0)
    degree = staticmethod(sum)

    @staticmethod
    def peel(m):
        i = 0 if m[0] else 1 if m[1] else 2
        return i, m[:i] + (m[i] - 1,) + m[i + 1:]

    @classmethod
    def variable(cls, ring, truncation, name):
        i = VAR_NAMES.index(name)
        mono = tuple(1 if k == i else 0 for k in range(3))
        return cls(ring, truncation, {mono: ring.one})

    @classmethod
    def gens(cls, ring, truncation):
        """(a, b, p, q) with q = a + b + p expanded."""
        a = cls.variable(ring, truncation, "a")
        b = cls.variable(ring, truncation, "b")
        p = cls.variable(ring, truncation, "p")
        return a, b, p, a + b + p

    __mul__ = graded.product(graded.keyed_loop(
        sum, lambda m, k: (m[0] + k[0], m[1] + k[1], m[2] + k[2])))

    exp = graded.exp
    log = graded.log
    inverse = graded.inverse

    # -- variable substitution -----------------------------------------------------

    def subst(self, image_a, image_b, image_p):
        """Endomorphism sending the variables to degree-1 forms (validated:
        no constant term, degree <= 1), so the grading is preserved: the
        walk of ``graded.substitute`` at the three forms.  This is the
        general route; the key maps (``relabel``, ``reflect``, ``shear``)
        are the cheap special cases, and it is their oracle."""
        for im in (image_a, image_b, image_p):
            if not isinstance(im, CSeries):
                raise TypeError("images must be CSeries")
            if im.constant_term():
                raise ValueError("image form has a constant term")
            if any(sum(m) > 1 for m in im.numerators):
                raise ValueError("image form has degree > 1")
        return graded.substitute(self, image_a, image_b, image_p)

    def shear(self, i, j, c):
        """x_i -> x_i + c x_j for variables i != j and an int c: each stored
        monomial expanded by the binomial theorem, over the same denominator
        (the map is unimodular, so the numerators stay in lowest terms)."""
        if i == j or not {i, j} <= {0, 1, 2}:
            raise ValueError("a shear takes two distinct variables 0, 1, 2")
        if not isinstance(c, int):
            raise ValueError("a shear's coefficient is an int, not %s" % type(c).__name__)
        rows = [[comb(e, t) * c ** t for t in range(e + 1)] for e in range(self.truncation + 1)]
        out = {}
        for m, v in self.numerators.items():
            k = list(m)
            for w in rows[m[i]]:
                key = tuple(k)
                s = out.get(key)
                out[key] = v * w if s is None else s + v * w
                k[i] -= 1
                k[j] += 1
        return CSeries._stored(self.ring, self.truncation, {k: v for k, v in out.items() if v},
                               self.denominator)

    # -- exact division ---------------------------------------------------------------

    def _divide_var(self, i, form_name):
        """Each monomial's exponent i lowered by one; a monomial without x_i
        above the noise floor raises, the least by (degree, monomial)."""
        noise = self.ring.noise_floor * self.denominator
        out, bad = {}, []
        for m, c in self.numerators.items():
            if m[i] == 0:
                if not noise or abs(c) > noise:
                    bad.append(m)
                continue
            k = list(m)
            k[i] -= 1
            out[tuple(k)] = c
        if bad:
            raise ExactDivisionError(form_name, min(bad, key=lambda m: (sum(m), m)))
        return CSeries._stored(self.ring, self.truncation - 1, out, self.denominator)

    def divide_exact(self, form):
        """Exact division by one of a, b, p, q, ab, pq, bq, ba; raises
        ExactDivisionError when a monomial obstructs it.  The quotient's
        truncation drops by the degree of the form.

        Over an inexact ring, offending monomials below the roundoff noise
        floor (the ring's noise_floor) are dropped instead of raising."""
        if len(form) > 1:
            out = self
            for ch in form:
                out = out.divide_exact(ch)
            return out
        if form in VAR_NAMES:
            return self._divide_var(VAR_NAMES.index(form), form)
        if form == "q":
            # p -> p - a - b reads the third variable as q; divide, and back
            g = self.shear(2, 0, -1).shear(2, 1, -1)._divide_var(2, "q")
            return g.shear(2, 0, 1).shear(2, 1, 1)
        raise ValueError("unknown form %r" % form)


# perfbench/workloads.py imports the function under this name
max_cseries_coeff = graded.max_coeff


# -- the built-in parameter substitutions ------------------------------------------


def subst_swap_ab(f: CSeries) -> CSeries:
    """The a <-> b swap (fixes p and q): f(b, a, p), a relabelling."""
    return f.relabel(lambda m: (m[1], m[0], m[2]))


def subst_reindex(f: CSeries) -> CSeries:
    """The involution fixing a and q and exchanging p with b - a.

    In (a, b, c) coordinates this is a -> a, b -> a + 1 - c, c - 1 -> a - b;
    both parameter changes used by the transformation identities reduce to
    this one map in (a, b, p) coordinates: f(a, a + p, b - a) is the b <-> p
    swap, then b -> b - a and p -> p + a.
    """
    return f.relabel(lambda m: (m[0], m[2], m[1])).shear(1, 0, -1).shear(2, 0, 1)
