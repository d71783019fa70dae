"""The truncated enveloping algebra hosting the pentagon equation.

The Lie algebra is generated by symbols t_ij (unordered pairs of strands,
i != j in 1..5) subject to t_ij = t_ji, the five sum relations
sum_j t_ij = 0, and commutation of generators with disjoint index pairs.

Forgetting the fifth point, M_{0,5} -> M_{0,4}, splits this Lie algebra as
F_3 x| F_2 (Drinfeld 1990; Bar-Natan, "On associators and the
Grothendieck-Teichmueller group I", Selecta Math. 1998): the fibre
generators t15, t25, t35 span a free Lie ideal, and the base generators
t12, t23 are free and act on it by derivations.  The sum relations express
the other five symbols through these five (PAIR_EXPANSION).  The action is
the table BRACKET of [g, f] for a base g and a fibre f.  Its zero entries
are disjoint pairs; each other entry is an instance of
[t_ij, t_ik + t_jk] = 0, which holds because the sum relation at k gives
t_ik + t_jk = -(t_kl + t_km) and t_ij commutes with both; for example
[t15, t12 + t25] = 0 gives [t12, t15] = [t15, t25].

By Poincare-Birkhoff-Witt the enveloping algebra has the basis of words
u v with u a word in the fibre letters and v a word in the base letters, so
its degree-d piece has dimension 3^(d+1) - 2^(d+1).  A word is brought to
this normal form by one memoised rule: swap its first base letter g
standing before a fibre letter f, g f = f g + [g, f].  The bracket is a
fibre commutator, so the rewriting ends, and normal forms have integer
coefficients that serve elements over any coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction

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


def pair(i, j):
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("t_ii = 0 has no generator")
    return (i, j) if i < j else (j, i)


class P5Quotient:
    """Memoised normal forms up to a truncation degree, for vectors over any
    coefficient ring."""

    # perfbench/layers.py counts these rows after __init__; there are none
    echelon = {}

    def __init__(self, truncation):
        self.truncation = truncation
        self._nf_memo = {}

    def dimension(self, d):
        if d > self.truncation:
            raise ValueError("degree beyond truncation")
        return 3 ** (d + 1) - 2 ** (d + 1)

    def dimensions(self):
        return [self.dimension(d) for d in range(self.truncation + 1)]

    def nf_monomial(self, mono):
        """Normal form of a word as a tuple of (word, int) pairs, each word
        all fibre letters followed by all base letters."""
        got = self._nf_memo.get(mono)
        if got is None:
            got = ((mono, 1),)
            for i in range(len(mono) - 1):
                g, f = mono[i], mono[i + 1]
                if g >= NFIBRE > f:
                    head, tail = mono[:i], mono[i + 2:]
                    vec = {head + (f, g) + tail: 1}
                    xy = BRACKET.get((g, f))
                    if xy is not None:
                        vec[head + xy + tail] = 1
                        vec[head + xy[::-1] + tail] = -1
                    got = tuple(self.reduce_vector(vec).items())
                    break
            self._nf_memo[mono] = got
        return got

    def reduce_vector(self, vec):
        """Normal form of a vector {word: coefficient}."""
        out = {}
        for mono, c in vec.items():
            for m, k in self.nf_monomial(mono):
                s = out.get(m)
                s = c * k if s is None else s + c * k
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out


class P5Element:
    """Element of the truncated quotient, stored in normal form per degree."""

    __slots__ = ("quotient", "ring", "truncation", "comps")

    def __init__(self, quotient, ring, truncation, comps=None):
        self.quotient = quotient
        self.ring = ring
        self.truncation = truncation
        self.comps = comps if comps is not None else {}

    @classmethod
    def zero(cls, quotient, ring, truncation):
        return cls(quotient, ring, truncation)

    @classmethod
    def one(cls, quotient, ring, truncation):
        return cls(quotient, ring, truncation, {0: {(): ring.one}})

    @classmethod
    def generator_combination(cls, quotient, ring, truncation, combo):
        """Degree-1 element from {gen_index: int} (already relation-free)."""
        vec = {(g,): ring.from_int(c) for g, c in combo.items() if c}
        return cls(quotient, ring, truncation, {1: vec} if vec else {})

    def one_like(self):
        return P5Element.one(self.quotient, self.ring, self.truncation)

    def _clean(self):
        self.comps = {
            d: vec for d, vec in self.comps.items()
            if vec and d <= self.truncation
        }
        return self

    def __add__(self, other):
        n = min(self.truncation, other.truncation)
        ring = self.ring
        comps = {d: dict(vec) for d, vec in self.comps.items() if d <= n}
        for d, vec in other.comps.items():
            if d > n:
                continue
            tgt = comps.setdefault(d, {})
            for m, c in vec.items():
                s = tgt.get(m)
                s = c if s is None else s + c
                if ring.is_zero(s):
                    tgt.pop(m, None)
                else:
                    tgt[m] = s
        return P5Element(self.quotient, ring, n, comps)._clean()

    def __neg__(self):
        return P5Element(
            self.quotient, self.ring, self.truncation,
            {d: {m: -c for m, c in vec.items()} for d, vec in self.comps.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)) and not isinstance(self.ring.one, Fraction):
            c = self.ring.from_fraction(Fraction(c))
        if self.ring.is_zero(c):
            return P5Element.zero(self.quotient, self.ring, self.truncation)
        return P5Element(
            self.quotient, self.ring, self.truncation,
            {d: {m: v * c for m, v in vec.items()} for d, vec in self.comps.items()},
        )._clean()

    def __mul__(self, other):
        n = min(self.truncation, other.truncation)
        ring = self.ring
        q = self.quotient
        comps = {}
        for da, veca in self.comps.items():
            for db, vecb in other.comps.items():
                d = da + db
                if d > n:
                    continue
                tgt = comps.setdefault(d, {})
                for ma, ca in veca.items():
                    for mb, cb in vecb.items():
                        c = ca * cb
                        for m, qcoef in q.nf_monomial(ma + mb):
                            s = tgt.get(m)
                            v = c * qcoef
                            s = v if s is None else s + v
                            if ring.is_zero(s):
                                tgt.pop(m, None)
                            else:
                                tgt[m] = s
        return P5Element(q, ring, n, comps)._clean()

    def is_zero(self):
        return not self.comps

    def component(self, d):
        return dict(self.comps.get(d, {}))

    def max_abs(self):
        from .rings import abs_value

        return max(
            (abs_value(c) for vec in self.comps.values() for c in vec.values()),
            default=0.0,
        )


def strand_generator(quotient, ring, truncation, i, j):
    """The class of t_ij as a degree-1 element."""
    return P5Element.generator_combination(
        quotient, ring, truncation, PAIR_EXPANSION[pair(i, j)]
    )


def embed(f, quotient, i, j, k):
    """Image of a two-letter series under e0 -> t_ij, e1 -> t_jk."""
    if f.truncation > quotient.truncation:
        raise ValueError("series truncation %d exceeds algebra truncation %d"
                         % (f.truncation, quotient.truncation))
    im0 = strand_generator(quotient, f.ring, f.truncation, i, j)
    im1 = strand_generator(quotient, f.ring, f.truncation, j, k)
    return f.substitute(im0, im1, one=P5Element.one(quotient, f.ring, f.truncation))


PENTAGON_POSITIONS = ((3, 4, 5), (5, 1, 2), (2, 3, 4), (4, 5, 1), (1, 2, 3))


def pentagon_product(f, quotient):
    acc = None
    for ijk in PENTAGON_POSITIONS:
        g = embed(f, quotient, *ijk)
        acc = g if acc is None else acc * g
    return acc


def pentagon_residual(f, quotient):
    """phi_345 phi_512 phi_234 phi_451 phi_123 - 1, in normal form."""
    if not f.ring.is_zero(f.constant_term() - f.ring.one):
        raise ValueError("pentagon residual requires constant term 1")
    prod = pentagon_product(f, quotient)
    return prod - P5Element.one(quotient, f.ring, f.truncation)
