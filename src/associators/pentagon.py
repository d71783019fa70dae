"""The pentagon equation, read in the fibre module U(F_3).

The Lie algebra P_5 is generated by symbols t_ij (unordered pairs of
strands, i != j in 1..5) subject to t_ij = t_ji, the five sum relations
sum_j t_ij = 0, and commutation of generators with disjoint index pairs.

Forgetting the fifth point, M_{0,5} -> M_{0,4}, splits this Lie algebra as
P_5 = F_3 x| F_2 (Drinfeld 1990; Bar-Natan, "On associators and the
Grothendieck-Teichmueller group I", Selecta Math. 1998): the fibre
generators t15, t25, t35 span a free Lie ideal, and the base generators
t12, t23 are free and act on it by derivations.  The sum relations express
the other five symbols through these five (PAIR_EXPANSION).  The action is
the table BRACKET of [g, f] for a base g and a fibre f.  Its zero entries
are disjoint pairs; each other entry is an instance of
[t_ij, t_ik + t_jk] = 0, which holds because the sum relation at k gives
t_ik + t_jk = -(t_kl + t_km) and t_ij commutes with both; for example
[t15, t12 + t25] = 0 gives [t12, t15] = [t15, t25].

U(P_5) acts on U(F_3), the free algebra on the fibre letters 0, 1, 2, whose
elements are NCSeries on those letters: a fibre letter acts by left
multiplication, a base letter g by the derivation f -> [g, f] extended by
the Leibniz rule, so that it sends 1 to 0 (GT acts on F_3 the same way,
Ihara, ICM 1990).  This is U(P_5) modulo the left ideal of the base
letters, and a word acts on 1 by peeling its rightmost base letter.  One
kernel, _derive, applies a base letter to a vector of fibre words; the walk
(P5Element.action) and the solver's brackets (reduce_vector) act by it.

The pentagon asks that g = phi_345 phi_512 phi_234 phi_451 phi_123 be 1.
A group-like g factors as g = g_F g_B with g_F in exp(F_3) and g_B in
exp(F_2).  Then g . 1 = g_F, and the image of g in U(F_2), where the fibre
letters vanish, is g_B; so g = 1 exactly when both are 1.  These two faces
are g - 1 read on the Poincare-Birkhoff-Witt words (fibre word, then base
word) with an empty base part and with an empty fibre part.  The fibre face
applies the five factors to 1 from the right, each one f(t_ij, t_jk) . y
being NCSeries.substitute at the two strand generators acting on y; the
base face is a product in the letters 3, 4.  Neither forms a product in
U(P_5).

The solver's columns are Lie elements, and it builds them in the Lie
algebra p_5 = F_3 x| F_2 itself (lie_image).  An element of p_5 is a pair
(f, b) of a fibre Lie polynomial f on the letters 0, 1, 2 and a base Lie
polynomial b on 3, 4; it acts on 1 by f, and its image in U(F_2) is b, so
the pair is already its reading on the two faces.  The bracket is

    [(f1, b1), (f2, b2)] = ([f1, f2] + b1.f2 - b2.f1, [b1, b2]),

where b.f is the action of U(F_2) on F_3 by the derivations of BRACKET.
"""

from __future__ import annotations

import math

from . import words as W
from .ncseries import NCSeries

# generator indices: 0, 1, 2 = t15, t25, t35 (the fibre), 3, 4 = t12, t23
NFIBRE = 3

# expansion of every canonical pair {i<j} over the generators
PAIR_EXPANSION = {
    (1, 2): {3: 1},
    (1, 3): {0: -1, 1: -1, 2: -1, 3: -1, 4: -1},
    (1, 4): {1: 1, 2: 1, 4: 1},
    (1, 5): {0: 1},
    (2, 3): {4: 1},
    (2, 4): {1: -1, 3: -1, 4: -1},
    (2, 5): {1: 1},
    (3, 4): {0: 1, 1: 1, 3: 1},
    (3, 5): {2: 1},
    (4, 5): {0: -1, 1: -1, 2: -1},
}

# [g, f] = [x, y] as (g, f): (x, y); the pairs not listed commute:
# [t12, t15] = [t15, t25], [t12, t25] = [t25, t15], [t12, t35] = 0,
# [t23, t15] = 0, [t23, t25] = [t25, t35], [t23, t35] = [t35, t25]
BRACKET = {(3, 0): (0, 1), (3, 1): (1, 0), (4, 1): (1, 2), (4, 2): (2, 1)}

# the words (xy, yx) of [g, f] = [x, y], by base letter g and fibre letter f
DERIVATIONS = {g: [(xy, xy[::-1]) if xy else None
                   for xy in (BRACKET.get((g, f)) for f in range(NFIBRE))] for g in (3, 4)}


def _derive(g, x, c, out, prefix=()):
    """out[prefix + w] += c (g . x)[w] for a base letter g and a dict x of
    fibre words, g acting on each letter in turn (Leibniz).  Zeros of x are
    skipped; out may hold zeros, and gains those of cancelled terms."""
    table = DERIVATIONS[g]
    for u, a in x.items():
        if not a:
            continue
        a *= c
        for p, f in enumerate(u):
            pairs = table[f]
            if pairs:
                left, right = prefix + u[:p], u[p + 1:]
                w = left + pairs[0] + right
                out[w] = out.get(w, 0) + a
                w = left + pairs[1] + right
                out[w] = out.get(w, 0) - a


def pair(i, j):
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("t_ii = 0 has no generator")
    return (i, j) if i < j else (j, i)


class P5Quotient:
    """Words in the five generators acting on 1 in U(F_3), up to a
    truncation degree, for vectors over any coefficient ring."""

    # perfbench/layers.py counts these rows after __init__; there are none
    echelon = {}

    def __init__(self, truncation):
        self.truncation = truncation

    def dimension(self, d):
        """Dimension of the degree-d piece of U(P_5)."""
        if d > self.truncation:
            raise ValueError("degree beyond truncation")
        return 3 ** (d + 1) - 2 ** (d + 1)

    def dimensions(self):
        return [self.dimension(d) for d in range(self.truncation + 1)]

    def nf_monomial(self, mono):
        """mono . 1 as a tuple of (fibre word, int) pairs."""
        return tuple(self.reduce_vector({mono: 1}).items())

    def reduce_vector(self, vec):
        """The vector {word: coefficient} applied to 1, as a new dict with no
        zero kept.  A word is a head, through its last base letter g, and a
        tail of fibre letters.  One _derive call lets g act on all the tails
        of its head; each result, behind the fibre letters that end the rest
        of the head, is a tail of a shorter head.  The heads are taken
        longest first, so that every head acts once on the sum of the tails
        that reach it, and words whose heads share a prefix share the work
        of that prefix.  Zeros are dropped once, at the end."""
        levels = [{} for _ in range(max(map(len, vec), default=0) + 1)]

        def group(w):
            """The tails of w's head, and w's tail."""
            i = len(w)
            while i and w[i - 1] < NFIBRE:
                i -= 1
            return levels[i].setdefault(w[:i], {}), w[i:]

        for w, c in vec.items():
            tails, u = group(w)
            tails[u] = tails.get(u, 0) + c
        for level in levels[:0:-1]:
            for head, tails in level.items():
                _derive(head[-1], tails, 1, *group(head[:-1]))
        return {w: c for w, c in levels[0].get((), {}).items() if c}


class P5Element:
    """A combination sum c_g g of the five generators, acting on U(F_3); its
    coefficients are ints, over the denominator 1."""

    __slots__ = ("combo",)

    denominator = 1

    def __init__(self, combo):
        self.combo = combo

    def action(self, m):
        """(x, n, out) -> out += m self . x for a fibre vector x (all that the
        walk of NCSeries.substitute hands it), zeros kept: a fibre generator
        prepends its letter, a base one acts by _derive.  n is not read."""
        combo = [(g, c * m) for g, c in self.combo.items()]

        def act(x, n, out):
            for g, c in combo:
                if g >= NFIBRE:
                    _derive(g, x, c, out)
                    continue
                for u, a in x.items():
                    w = (g,) + u
                    out[w] = out.get(w, 0) + c * a
        return act

    def __mul__(self, y):
        """The action on a series y on the fibre letters, to degree one higher."""
        out = {}
        self.action(1)(y.numerators, None, out)
        return NCSeries._stored(y.ring, y.truncation + 1, {w: c for w, c in out.items() if c},
                                y.denominator)


def strand_generator(i, j):
    """The class of t_ij."""
    return P5Element(PAIR_EXPANSION[pair(i, j)])


def embed(f, quotient, i, j, k, y=None):
    """f(t_ij, t_jk) . y in U(F_3), y = 1 by default; a word of f of length
    s sees only the part of y of degree <= n - s (NCSeries.substitute)."""
    if f.truncation > quotient.truncation:
        raise ValueError("series truncation %d exceeds algebra truncation %d"
                         % (f.truncation, quotient.truncation))
    if y is None:
        y = NCSeries.one(f.ring, f.truncation)
    return f.substitute(strand_generator(i, j), strand_generator(j, k), one=y)


def base_image(f, i, j, k):
    """f(t_ij, t_jk) in U(F_2), with the fibre letters set to 0, as a
    series on the base letters 3, 4."""
    ring, n = f.ring, f.truncation
    ims = [NCSeries(ring, n, {(g,): c for g, c in PAIR_EXPANSION[ab].items() if g >= NFIBRE})
           for ab in (pair(i, j), pair(j, k))]
    return f.substitute(*ims, one=NCSeries.one(ring, n))


PENTAGON_POSITIONS = ((3, 4, 5), (5, 1, 2), (2, 3, 4), (4, 5, 1), (1, 2, 3))


def pentagon_residual(f, quotient):
    """g - 1 for g = phi_345 phi_512 phi_234 phi_451 phi_123 on its two
    faces, as one series: g . 1 - 1 on the fibre letters 0, 1, 2 plus the
    image of g in U(F_2), minus 1, on the base letters 3, 4.  For group-like
    f it is 0 exactly when g = 1."""
    if f.constant_term() != f.ring.one:
        raise ValueError("pentagon residual requires constant term 1")
    one = NCSeries.one(f.ring, f.truncation)
    fibre = base = one
    for ijk in reversed(PENTAGON_POSITIONS):
        fibre = embed(f, quotient, *ijk, y=fibre)
    for ijk in PENTAGON_POSITIONS:
        base = base * base_image(f, *ijk)
    return fibre - one + base - one


# -- Lie polynomials in p_5 = F_3 x| F_2, as pairs of word -> int dicts ----------

def p5_bracket(x, y, quotient):
    """[(f1, b1), (f2, b2)] = ([f1, f2] + b1.f2 - b2.f1, [b1, b2]), where
    b.f is the word vector b f applied to 1; b1 f2 - b2 f1 is NCSeries'
    keyed loop (join operator.add) at no truncation, prepared at b1 and at
    -b2 and summed into one dict."""
    (f1, b1), (f2, b2) = x, y
    act, times = {}, NCSeries.__mul__.loop
    times(b1)(f2, math.inf, act)
    times({w: -c for w, c in b2.items()})(f1, math.inf, act)
    fibre = W.commutator(f1, f2)
    for w, c in quotient.reduce_vector(act).items():
        fibre[w] = fibre.get(w, 0) + c
    return {w: c for w, c in fibre.items() if c}, W.commutator(b1, b2)


def lie_image(lw, i, j, k, quotient, memo):
    """l(t_ij, t_jk) in p_5 for a Lyndon word l on the letters 0, 1, as a
    pair (fibre, base) of word -> int dicts on the letters 0, 1, 2 and 3, 4.

    The Lyndon element of l is the bracket of those of its standard
    factorisation, and the letters 0, 1 go to the strand generators of
    PAIR_EXPANSION.  memo maps (w, i, j, k) to the image of every factor w
    of the recursion, but l's own image is not stored: a caller that keeps
    memo across degrees shares the sub-brackets and holds no image of its
    top degree."""
    if len(lw) == 1:
        combo = PAIR_EXPANSION[pair(*((i, j), (j, k))[lw[0]])]
        return tuple({(g,): c for g, c in combo.items() if (g < NFIBRE) == fibre}
                     for fibre in (True, False))
    factors = []
    for w in W._standard_factorization(lw):
        key = (w, i, j, k)
        if key not in memo:
            memo[key] = lie_image(w, i, j, k, quotient, memo)
        factors.append(memo[key])
    return p5_bracket(*factors, quotient)
