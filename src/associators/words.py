"""Words in two letters and the Lyndon basis of the free Lie algebra.

A word is a tuple of letters 0 and 1 (the two generators).  The statistics
weight/depth/height and the dual word are the combinatorial backbone of the
2x2 evaluation formulas; the Lyndon machinery provides, degree by degree, a
triangular basis of the free Lie algebra used both for group-likeness tests
and for parametrising the unknowns of the degreewise pentagon solver.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

E0, E1 = 0, 1

Word = tuple  # tuple of 0/1 letters

EMPTY_WORD: Word = ()


def weight(w: Word) -> int:
    return len(w)


def depth(w: Word) -> int:
    """Number of occurrences of the letter e1."""
    return sum(w)


def height(w: Word) -> int:
    """1 + number of factors e1*e0; 0 for the empty word."""
    return 1 + sum(1 for x, y in zip(w, w[1:]) if (x, y) == (E1, E0)) if w else 0


def dual_word(w: Word) -> Word:
    """Reverse the word and swap the two letters (an involution)."""
    return tuple(1 - c for c in reversed(w))


def swap_letters(w: Word) -> Word:
    return tuple(1 - c for c in w)


def word_from_index(index) -> Word:
    """Word e0^(k_m - 1) e1 ... e0^(k_1 - 1) e1 attached to a tuple of
    positive integers (k_1, ..., k_m)."""
    out = []
    for k in reversed(index):
        if k < 1:
            raise ValueError("index entries must be positive: %r" % (index,))
        out.extend([E0] * (k - 1))
        out.append(E1)
    return tuple(out)


def zeta_value(phi, index):
    """zeta_phi(k_1, ..., k_m) = (-1)^m (phi | word_from_index(k)): the one
    sign convention for multiple zeta values read off a series phi."""
    c = phi.coeff(word_from_index(index))
    return -c if len(index) % 2 else c


def index_from_word(w: Word):
    """Inverse of word_from_index; defined for words ending in e1."""
    if not w or w[-1] != E1:
        raise ValueError("word does not end in e1: %r" % (w,))
    ks = []
    run = 0
    for c in w:
        if c == E0:
            run += 1
        else:
            ks.append(run + 1)
            run = 0
    ks.reverse()
    return tuple(ks)


def words_of_weight(n: int):
    return itertools.product((E0, E1), repeat=n)


def all_words(max_weight: int):
    for n in range(max_weight + 1):
        yield from words_of_weight(n)


def is_admissible(index) -> bool:
    """An index (k_1, ..., k_m) is admissible when the last entry exceeds 1."""
    return len(index) > 0 and all(k >= 1 for k in index) and index[-1] > 1


# ---------------------------------------------------------------------------
# Lyndon words and the triangular free-Lie basis


def lyndon_words(n: int, alphabet_size: int = 2):
    """Lyndon words of length n (Duval's generation)."""
    if n == 0:
        return []
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == n:
            out.append(tuple(w))
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
    return out


@lru_cache(maxsize=None)
def _standard_factorization(w: Word):
    """Split a Lyndon word (length >= 2) as u.v with v the longest proper
    Lyndon suffix."""
    n = len(w)
    for i in range(1, n):
        v = w[i:]
        if _is_lyndon(v):
            return w[:i], v
    raise ValueError("not a Lyndon word: %r" % (w,))


def _is_lyndon(w: Word) -> bool:
    return bool(w) and all(w[i:] + w[:i] > w for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_bracket_words(w: Word):
    """Expansion, as a word->int dict, of the right-bracketed Lyndon element
    attached to the Lyndon word w."""
    if len(w) == 1:
        return {w: 1}
    u, v = _standard_factorization(w)
    return commutator(lyndon_bracket_words(u), lyndon_bracket_words(v))


def commutator(x, y):
    """xy - yx for two word -> int dicts."""
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c = cx * cy
            out[wx + wy] = out.get(wx + wy, 0) + c
            out[wy + wx] = out.get(wy + wx, 0) - c
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def lie_basis(degree: int):
    """Lyndon basis of the degree-d part of the free Lie algebra on e0, e1,
    as a lex-sorted list of (lyndon_word, expansion) pairs.

    The expansion of each basis element is unitriangular: coefficient 1 on
    the Lyndon word itself and support only on lexicographically larger
    words.  This is checked at build time, under python -O too; the
    coordinate extraction below relies on it.
    """
    basis = []
    for lw in sorted(lyndon_words(degree)):
        exp = lyndon_bracket_words(lw)
        if exp.get(lw) != 1 or any(word < lw for word in exp):
            raise AssertionError("Lyndon element of %r is not unitriangular: %r" % (lw, exp))
        basis.append((lw, exp))
    return basis


def lie_dimension(degree: int) -> int:
    return len(lie_basis(degree))


def lie_coordinates(vec, degree):
    """Express a homogeneous degree-d vector (word->coefficient dict) in the
    Lyndon basis.

    Returns (coords, residual): coords maps Lyndon words to coefficients and
    residual is what is left after subtracting the Lie part.  The vector is
    a Lie element exactly when the residual vanishes.
    """
    rem = dict(vec)
    coords = {}
    for lw, exp in lie_basis(degree):
        c = rem.get(lw)
        if not c:
            continue
        coords[lw] = c
        for word, m in exp.items():
            val = rem.get(word, 0) - c * m
            if val:
                rem[word] = val
            else:
                rem.pop(word, None)
    rem = {w: c for w, c in rem.items() if c}
    return coords, rem
