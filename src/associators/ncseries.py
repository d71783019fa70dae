"""Truncated noncommutative power series in the two letters e0, e1.

A series is a sparse dict word -> coefficient together with a truncation
degree N; arithmetic is exact modulo words of weight > N.  Coefficients
live in any ring adapter from ``rings.py``.  Series are immutable by
convention: no operation mutates its operands.

The arithmetic does not depend on the alphabet: a word is any tuple of
letters.  The pentagon (``pentagon.py``) uses series on the three fibre
letters 0, 1, 2 of U(F_3) and on the two base letters 3, 4.
"""

from __future__ import annotations

from fractions import Fraction

from . import graded
from . import words as W
from .rings import abs_value


class RingMismatch(TypeError):
    pass


class NCSeries:
    __slots__ = ("ring", "truncation", "terms")

    def __init__(self, ring, truncation, terms=None, _clean=False):
        self.ring = ring
        self.truncation = truncation
        if terms is None:
            terms = {}
        if not _clean:
            terms = {
                w: c
                for w, c in terms.items()
                if len(w) <= truncation and not ring.is_zero(c)
            }
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, truncation):
        return cls(ring, truncation, {}, _clean=True)

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, {W.EMPTY_WORD: ring.one}, _clean=True)

    @classmethod
    def letter(cls, ring, truncation, letter):
        return cls(ring, truncation, {(letter,): ring.one}, _clean=True)

    @classmethod
    def from_word_dict(cls, ring, truncation, dct):
        return cls(ring, truncation, dict(dct))

    # -- basics --------------------------------------------------------------

    def coeff(self, w):
        if len(w) > self.truncation:
            raise ValueError("word of weight %d beyond truncation %d" % (len(w), self.truncation))
        return self.terms.get(tuple(w), self.ring.zero)

    def constant_term(self):
        return self.terms.get(W.EMPTY_WORD, self.ring.zero)

    def truncate(self, n):
        if n >= self.truncation:
            return NCSeries(self.ring, n, self.terms, _clean=True)
        return NCSeries(self.ring, n, {w: c for w, c in self.terms.items() if len(w) <= n}, _clean=True)

    def homogeneous_part(self, d):
        return {w: c for w, c in self.terms.items() if len(w) == d}

    def min_degree(self):
        if not self.terms:
            return self.truncation + 1
        return min(len(w) for w in self.terms)

    def _common(self, other):
        if not isinstance(other, NCSeries):
            raise RingMismatch("expected NCSeries, got %r" % type(other))
        if other.ring is not self.ring:
            raise RingMismatch("coefficient rings differ: %s vs %s" % (self.ring.name, other.ring.name))
        return min(self.truncation, other.truncation)

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        n = self._common(other)
        for w in set(self.terms) | set(other.terms):
            if len(w) > n:
                continue
            if not self.ring.is_zero(self.terms.get(w, self.ring.zero) - other.terms.get(w, self.ring.zero)):
                return False
        return True

    def __hash__(self):  # pragma: no cover - identity hashing is enough here
        return id(self)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))[:8]
        body = " + ".join("(%s)*%s" % (c, "".join("e%d" % l for l in w) or "1") for w, c in items)
        more = "" if len(self.terms) <= 8 else " + ... (%d terms)" % len(self.terms)
        return "NCSeries[N=%d](%s%s)" % (self.truncation, body or "0", more)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        n = self._common(other)
        out = {w: c for w, c in self.terms.items() if len(w) <= n}
        for w, c in other.terms.items():
            if len(w) > n:
                continue
            s = out.get(w)
            s = c if s is None else s + c
            if self.ring.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        return NCSeries(self.ring, n, out, _clean=True)

    def __neg__(self):
        return NCSeries(self.ring, self.truncation, {w: -c for w, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar from the coefficient ring (or a Fraction)."""
        if isinstance(c, (int, Fraction)) and not isinstance(self.ring.one, Fraction):
            c = self.ring.from_fraction(Fraction(c))
        if self.ring.is_zero(c):
            return NCSeries.zero(self.ring, self.truncation)
        return NCSeries(self.ring, self.truncation, {w: v * c for w, v in self.terms.items()}, _clean=True)

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        n = self._common(other)
        by_len_r = {}
        for w, c in other.terms.items():
            by_len_r.setdefault(len(w), []).append((w, c))
        ring = self.ring
        out = {}
        for wa, ca in self.terms.items():
            la = len(wa)
            if la > n:
                continue
            for lb, items in by_len_r.items():
                if la + lb > n:
                    continue
                for wb, cb in items:
                    k = wa + wb
                    v = ca * cb
                    s = out.get(k)
                    out[k] = v if s is None else s + v
        out = {w: c for w, c in out.items() if not ring.is_zero(c)}
        return NCSeries(ring, n, out, _clean=True)

    exp = graded.exp
    log = graded.log
    inverse = graded.inverse

    # -- letter-level maps -----------------------------------------------------

    def apply_word_map(self, f):
        """Push the series through an injective word map (used for letter
        swaps); coefficients are untouched."""
        out = {}
        for w, c in self.terms.items():
            k = f(w)
            s = out.get(k)
            out[k] = c if s is None else s + c
        return NCSeries(self.ring, self.truncation, out)

    def swap_letters(self):
        """f(e1, e0)."""
        return self.apply_word_map(W.swap_letters)

    def negate_letters(self):
        """f(-e0, -e1): scale each word by (-1)^weight."""
        out = {}
        ring = self.ring
        for w, c in self.terms.items():
            out[w] = c if len(w) % 2 == 0 else -c
        return NCSeries(ring, self.truncation, out, _clean=True)

    # -- substitution -----------------------------------------------------------

    def substitute(self, image0, image1, one=None):
        """f(image0, image1) . one, for images with +, * and .scale(coeff):
        series, 2x2 matrices over series or numbers, strand generators.
        ``one`` is the vector the images act on from the left, by default
        image0.one_like().

        A left Horner walk of the word trie to degree n, the smaller of this
        truncation and that of ``one``: the node of a prefix of length s and
        coefficient c returns c one + image0 child_0 + image1 child_1 to
        degree n - s, each child lifted from degree n - s - 1.  The lift needs
        images without a degree-0 part, so a graded image (one with a
        truncation) with a constant term is rejected; ungraded ones, such as
        numeric matrices, are taken as they are.
        """
        images = (image0, image1)
        for im in images:
            if hasattr(im, "truncation") and im.min_degree() < 1:
                raise ValueError("letter image has a nonzero constant term; "
                                 "substitute logarithms of group elements instead")
        if one is None:
            one = image0.one_like()
        n = min(self.truncation, getattr(one, "truncation", self.truncation))
        ones = [one.truncate(n - s) for s in range(n + 1)]

        def walk(terms, s):
            # terms: the suffixes after one prefix of length s
            out = ones[s].scale(terms.get(W.EMPTY_WORD, self.ring.zero))
            if s < n:
                children = ({}, {})
                for w, c in terms.items():
                    if w:
                        children[w[0]][w[1:]] = c
                for im, child in zip(images, children):
                    if child:
                        out = out + im * walk(child, s + 1).truncate(n - s)
            return out

        return walk(self.terms, 0)

    def one_like(self):
        return NCSeries.one(self.ring, self.truncation)

    # -- structure tests ----------------------------------------------------------

    def lie_defect(self):
        """Largest residual coefficient of log(self) outside the free Lie
        algebra, as a float (0.0 for exact Lie logs)."""
        with self.ring.context():
            return self._lie_defect()

    def _lie_defect(self):
        g = self.log()
        worst = 0.0
        for d in range(1, self.truncation + 1):
            part = g.homogeneous_part(d)
            if not part:
                continue
            _, rem = W.lie_coordinates(part, d, self.ring)
            for c in rem.values():
                worst = max(worst, abs_value(c))
        return worst

    def is_grouplike(self, tol=0.0):
        if not self.ring.is_zero(self.constant_term() - self.ring.one):
            return False
        return self.lie_defect() <= tol

    def linear_part_size(self):
        return max(abs_value(self.coeff((0,))), abs_value(self.coeff((1,))))

    def is_commutator_grouplike(self, tol=0.0):
        return self.is_grouplike(tol) and self.linear_part_size() <= tol

    def is_even(self, tol=0.0):
        return max_coeff(self - self.negate_letters()) <= tol

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "truncation": self.truncation,
            "alphabet": "e0e1",
            "terms": [
                {"word": "".join(str(l) for l in w), "coeff": self.ring.encode(c)}
                for w, c in items
            ],
        }

    @classmethod
    def from_json(cls, ring, obj):
        if obj.get("alphabet", "e0e1") != "e0e1":
            raise ValueError("unsupported alphabet %r" % obj.get("alphabet"))
        terms = {}
        for t in obj["terms"]:
            w = tuple(int(ch) for ch in t["word"])
            if any(l not in (0, 1) for l in w):
                raise ValueError("bad word %r" % t["word"])
            terms[w] = ring.decode(t["coeff"])
        return cls(ring, int(obj["truncation"]), terms)


def max_coeff(f: NCSeries) -> float:
    """Largest coefficient magnitude; the workhorse of tolerance checks."""
    return max((abs_value(c) for c in f.terms.values()), default=0.0)


def series_distance(f: NCSeries, g: NCSeries) -> float:
    """max_coeff(f - g) at the ring's working precision."""
    with f.ring.context():
        return max_coeff(f - g)


def lie_element(ring, truncation, coords):
    """NCSeries from Lyndon-basis coordinates {lyndon_word: coefficient}."""
    terms = {}
    for lw, c in coords.items():
        for w, m in W.lyndon_bracket_words(tuple(lw)).items():
            s = terms.get(w, ring.zero) + c * ring.from_int(m)
            terms[w] = s
    return NCSeries(ring, truncation, terms)


def bracket(f: NCSeries, g: NCSeries) -> NCSeries:
    return f * g - g * f
