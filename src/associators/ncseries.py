"""Truncated noncommutative power series in the two letters e0, e1.

A series is a graded.Series keyed by words (tuples of letters) of degree
their length, which peel their first letter; ``graded.py`` owns the
storage rules, the linear structure, exp/log/inverse and the walk that
substitutes images for the letters (``substitute``).  This module adds the
concatenation product (``graded.keyed_loop`` with the join operator.add),
the antipode, the letter maps and the Lie and group-like predicates.

The arithmetic does not depend on the alphabet: a word is any tuple of
letters.  The pentagon (``pentagon.py``) uses series on the three fibre
letters 0, 1, 2 of U(F_3) and on the two base letters 3, 4.
"""

from __future__ import annotations

import operator

from . import graded
from . import words as W
from .graded import max_coeff


class NCSeries(graded.Series):
    __slots__ = ()

    UNIT = W.EMPTY_WORD
    degree = staticmethod(len)
    peel = staticmethod(lambda w: (w[0], w[1:]))

    @classmethod
    def letter(cls, ring, truncation, letter):
        return cls(ring, truncation, {(letter,): ring.one})

    # -- multiplicative structure ---------------------------------------------

    __mul__ = graded.product(graded.keyed_loop(len, operator.add))

    exp = graded.exp
    log = graded.log
    inverse = graded.inverse
    substitute = graded.substitute

    def antipode(self):
        """(S g | w) = (-1)^|w| (g | reversed w): the inverse of a group-like
        g, at no product's cost.  Not the inverse of other series: 1 + e0 e1
        has inverse 1 - e0 e1 + ... and antipode 1 + e1 e0."""
        return self.reflect().relabel(lambda w: w[::-1])

    def swap_letters(self):
        """f(e1, e0)."""
        return self.relabel(W.swap_letters)

    # -- structure tests ----------------------------------------------------------

    def lie_defect(self):
        """Largest residual coefficient of log(self) outside the free Lie
        algebra, as a float (0.0 for exact Lie logs): each degree of the
        log's stored numerators, ints or Gaussian integers, in Lyndon
        coordinates, the residual read as max_coeff reads a series."""
        g = self.log()
        parts = {}
        for w, c in g.numerators.items():
            if w:
                parts.setdefault(len(w), {})[w] = c
        return max((abs(c) for d, part in parts.items()
                    for c in W.lie_coordinates(part, d)[1].values()), default=0) / g.denominator

    def is_grouplike(self, tol=0.0):
        return self.constant_term() == self.ring.one and self.lie_defect() <= tol

    def is_commutator_grouplike(self, tol=0.0):
        return self.is_grouplike(tol) and max(abs(self.coeff((0,))), abs(self.coeff((1,)))) <= tol

    def is_even(self, tol=0.0):
        return max_coeff(self - self.reflect()) <= tol


def lie_element(ring, truncation, coords):
    """NCSeries from Lyndon-basis coordinates {lyndon_word: coefficient}."""
    terms = {}
    for lw, c in coords.items():
        for w, m in W.lyndon_bracket_words(tuple(lw)).items():
            terms[w] = terms.get(w, ring.zero) + c * m
    return NCSeries(ring, truncation, terms)


def free_group_word(ring, truncation, word_pairs) -> NCSeries:
    """The group-like series prod exp(k e_gen) of a free-group word
    [(gen, k), ...], gen "x0" or "x1" standing for e0 or e1 and k an integer."""
    acc = NCSeries.one(ring, truncation)
    for gen, k in word_pairs:
        if gen not in ("x0", "x1") or k != int(k):
            raise ValueError("not x0 or x1 to an integer power: %r" % ((gen, k),))
        letter = NCSeries.letter(ring, truncation, W.E0 if gen == "x0" else W.E1)
        acc = acc * letter.scale(int(k)).exp()
    return acc


def bracket(f: NCSeries, g: NCSeries) -> NCSeries:
    return f * g - g * f
