"""Truncated noncommutative power series in the two letters e0, e1.

A series is a graded.Series keyed by words (tuples of letters) of degree
their length; ``graded.py`` owns the storage rules, the linear structure
and exp/log/inverse.  This module adds the concatenation product, the
antipode, the substitution of the letters, the letter maps and the Lie and
group-like predicates.

The arithmetic does not depend on the alphabet: a word is any tuple of
letters.  The pentagon (``pentagon.py``) uses series on the three fibre
letters 0, 1, 2 of U(F_3) and on the two base letters 3, 4.
"""

from __future__ import annotations

from math import lcm

from . import graded
from . import words as W
from .graded import max_coeff


class NCSeries(graded.Series):
    __slots__ = ()

    UNIT = W.EMPTY_WORD
    degree = staticmethod(len)

    @classmethod
    def letter(cls, ring, truncation, letter):
        return cls(ring, truncation, {(letter,): ring.one})

    # -- multiplicative structure ---------------------------------------------

    @graded.product
    def __mul__(x, y, n, out):
        by_len_r = {}
        for w, c in y.items():
            by_len_r.setdefault(len(w), []).append((w, c))
        for wa, ca in x.items():
            room = n - len(wa)
            for lb, items in by_len_r.items():
                if lb > room:
                    continue
                for wb, cb in items:
                    k = wa + wb
                    v = ca * cb
                    s = out.get(k)
                    out[k] = v if s is None else s + v

    exp = graded.exp
    log = graded.log
    inverse = graded.inverse

    def antipode(self):
        """(S g | w) = (-1)^|w| (g | reversed w): the inverse of a group-like
        g, at no product's cost.  Not the inverse of other series: 1 + e0 e1
        has inverse 1 - e0 e1 + ... and antipode 1 + e1 e0."""
        return self.negate_letters().apply_word_map(lambda w: w[::-1])

    # -- letter-level maps -----------------------------------------------------

    def apply_word_map(self, f):
        """Push the series through an injective, length-preserving word map
        (letter swaps, reversal); coefficients are untouched."""
        return NCSeries._stored(self.ring, self.truncation,
                                {f(w): c for w, c in self.numerators.items()}, self.denominator)

    def swap_letters(self):
        """f(e1, e0)."""
        return self.apply_word_map(W.swap_letters)

    def negate_letters(self):
        """f(-e0, -e1): scale each word by (-1)^weight."""
        nums = {w: -c if len(w) % 2 else c for w, c in self.numerators.items()}
        return NCSeries._stored(self.ring, self.truncation, nums, self.denominator)

    # -- substitution -----------------------------------------------------------

    def substitute(self, image0, image1, one=None):
        """f(image0, image1) . one, for images with an action (Series.action,
        P5Element.action): series (MatSeries for 2x2 matrices over the
        (a, b, p) series) and strand generators.  ``one`` is the series the
        images act on from the left, by default image0.one_like().

        A left Horner walk of the word trie to degree n, the smallest
        truncation of this series, ``one`` and the series images: the node
        of a prefix of length s and coefficient c has the value V_s = c one
        + image0 child_0 + image1 child_1 to degree n - s.  The images need
        no degree-0 part, so a series image with a constant term is
        rejected.

        The walk runs on numerators alone.  With D the lcm of the images'
        denominators and I_0, I_1 their numerators over D, a node sums
        W_s = c D^(n-s) one + I_0 W_(s+1,0) + I_1 W_(s+1,1), c and one as
        stored, into a dict of its own, so that V_s = W_s / (D^(n-s)
        den(one) den(f)).  Only the root makes a series: W_0 over D^n
        den(one) den(f), reduced once by the ring (lowest terms over QQ; one
        rounding to 2^-B over the complex ring).
        """
        images = (image0, image1)
        series = [im for im in images if isinstance(im, graded.Series)]
        if any(im.min_degree() < 1 for im in series):
            raise ValueError("letter image has a nonzero constant term; "
                             "substitute logarithms of group elements instead")
        one = image0.one_like() if one is None else one
        if self.ring is not one.ring:
            raise graded.RingMismatch("series over %s, one over %s" % (self.ring.name, one.ring.name))
        n = min([self.truncation, one.truncation] + [one._common(im) for im in series])
        d = lcm(*(im.denominator for im in images))
        acts = [im.action(d // im.denominator) for im in images]
        ones = [[(k, c) for k, c in one.numerators.items() if one.degree(k) <= n - s]
                for s in range(n + 1)]

        def walk(terms, s):
            # W_s from the suffixes after one prefix of length s
            c = terms.get(W.EMPTY_WORD)
            if c:
                c *= d ** (n - s)
                out = {k: v * c for k, v in ones[s]}
            else:
                out = {}
            if s < n:
                children = ({}, {})
                for w, c in terms.items():
                    if w:
                        children[w[0]][w[1:]] = c
                for act, child in zip(acts, children):
                    if child:
                        act(walk(child, s + 1), n - s, out)
            return out

        nums = {k: c for k, c in walk(self.numerators, 0).items() if c}
        return one._stored(one.ring, n, nums, d ** n * one.denominator * self.denominator)

    # -- structure tests ----------------------------------------------------------

    def lie_defect(self):
        """Largest residual coefficient of log(self) outside the free Lie
        algebra, as a float (0.0 for exact Lie logs)."""
        g = self.log()
        worst = 0.0
        for d in range(1, self.truncation + 1):
            part = g.homogeneous_part(d)
            if not part:
                continue
            _, rem = W.lie_coordinates(part, d)
            for c in rem.values():
                worst = max(worst, float(abs(c)))
        return worst

    def is_grouplike(self, tol=0.0):
        return self.constant_term() == self.ring.one and self.lie_defect() <= tol

    def linear_part_size(self):
        return float(max(abs(self.coeff((0,))), abs(self.coeff((1,)))))

    def is_commutator_grouplike(self, tol=0.0):
        return self.is_grouplike(tol) and self.linear_part_size() <= tol

    def is_even(self, tol=0.0):
        return max_coeff(self - self.negate_letters()) <= tol


def lie_element(ring, truncation, coords):
    """NCSeries from Lyndon-basis coordinates {lyndon_word: coefficient}."""
    terms = {}
    for lw, c in coords.items():
        for w, m in W.lyndon_bracket_words(tuple(lw)).items():
            terms[w] = terms.get(w, ring.zero) + c * m
    return NCSeries(ring, truncation, terms)


def free_group_word(ring, truncation, word_pairs) -> NCSeries:
    """The group-like series prod exp(k e_gen) of a free-group word
    [(gen, k), ...], gen "x0" or "x1" standing for e0 or e1."""
    acc = NCSeries.one(ring, truncation)
    for gen, k in word_pairs:
        letter = NCSeries.letter(ring, truncation, W.E0 if gen == "x0" else W.E1)
        acc = acc * letter.scale(int(k)).exp()
    return acc


def bracket(f: NCSeries, g: NCSeries) -> NCSeries:
    return f * g - g * f
