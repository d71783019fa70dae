import functools
import itertools
import random

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from associators import words as W
from associators.ncseries import NCSeries, bracket, lie_element
from associators.pentagon import (
    BRACKET,
    NFIBRE,
    P5Quotient,
    PAIR_EXPANSION,
    PENTAGON_POSITIONS,
    embed,
    p5_bracket,
    pair,
    pentagon_residual,
    strand_generator,
)
from associators.rings import QQ
from test_associator import random_grouplike


# -- reference: U(P5) in Poincare-Birkhoff-Witt normal form ---------------------
#
# A normal-form word is a fibre word (letters 0, 1, 2) followed by a base
# word (letters 3, 4).  A word is rewritten by swapping its first base letter
# g standing before a fibre letter f, g f = f g + [g, f].  This multiplies
# whole elements of U(P5), which the package never does; it is slow but
# independent of the module action, so it serves as the oracle up to degree 5.


@functools.lru_cache(maxsize=None)
def ref_nf(mono):
    for i in range(len(mono) - 1):
        g, f = mono[i], mono[i + 1]
        if g >= NFIBRE > f:
            head, tail = mono[:i], mono[i + 2:]
            vec = {head + (f, g) + tail: 1}
            xy = BRACKET.get((g, f))
            if xy is not None:
                vec[head + xy + tail] = 1
                vec[head + xy[::-1] + tail] = -1
            return tuple(ref_reduce(vec).items())
    return ((mono, 1),)


def ref_reduce(vec):
    out = {}
    for mono, c in vec.items():
        for m, k in ref_nf(mono):
            out[m] = out.get(m, 0) + c * k
    return {m: c for m, c in out.items() if c != 0}


class RefP5:
    """An element of U(P5) truncated at degree n, as {normal-form word: c}."""

    def __init__(self, n, terms):
        self.n = n
        self.terms = {w: c for w, c in terms.items() if c != 0 and len(w) <= n}

    @classmethod
    def t(cls, n, i, j):
        return cls(n, {(g,): Fraction(c) for g, c in PAIR_EXPANSION[pair(i, j)].items()})

    def one_like(self):
        return RefP5(self.n, {(): Fraction(1)})

    def truncate(self, n):
        return RefP5(n, self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return RefP5(min(self.n, other.n), terms)

    def scale(self, c):
        return RefP5(self.n, {w: v * c for w, v in self.terms.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        n = min(self.n, other.n)
        vec = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                if len(wa) + len(wb) <= n:
                    vec[wa + wb] = vec.get(wa + wb, 0) + ca * cb
        return RefP5(n, ref_reduce(vec))

    def is_zero(self):
        return not self.terms


def ref_embed(f, i, j, k):
    """f(t_ij, t_jk) word by word, not by the package's walk: the sum over
    the words w of (f|w) times the product of the classes along w."""
    n = f.truncation
    letters = (RefP5.t(n, i, j), RefP5.t(n, j, k))
    products = {(): letters[0].one_like()}

    def product(w):
        if w not in products:
            products[w] = product(w[:-1]) * letters[w[-1]]
        return products[w]

    acc = RefP5(n, {})
    for w, c in f.terms.items():
        acc = acc + product(w).scale(c)
    return acc


def ref_pentagon_minus_one(f):
    prod = None
    for ijk in PENTAGON_POSITIONS:
        g = ref_embed(f, *ijk)
        prod = g if prod is None else prod * g
    return prod - prod.one_like()


def faces(x):
    """Coordinates of a reference element on the words with an empty base
    part or an empty fibre part."""
    return {w: c for w, c in x.terms.items()
            if all(g < NFIBRE for g in w) or all(g >= NFIBRE for g in w)}


@pytest.fixture(scope="module")
def q4():
    return P5Quotient(4)


def test_linear_relations_are_consistent():
    # every generator expansion satisfies the five sum relations
    for i in range(1, 6):
        total = {}
        for j in range(1, 6):
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            for g, c in PAIR_EXPANSION[key].items():
                total[g] = total.get(g, 0) + c
        assert all(v == 0 for v in total.values())


def test_dimension_ladder(q4):
    assert q4.dimensions() == [1, 5, 19, 65, 211]


def test_degree_one_dimension_from_relation_rank():
    # ten symbols modulo the five sum relations: the relation matrix is the
    # incidence matrix of the complete graph on 5 vertices, rank 5
    pairs = sorted(PAIR_EXPANSION)
    rows = []
    for i in range(1, 6):
        row = [0] * 10
        for j, pr in enumerate(pairs):
            if i in pr:
                row[j] = 1
        rows.append([Fraction(x) for x in row])
    rank = 0
    for c in range(10):
        piv = None
        for r in range(rank, 5):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(5):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    assert rank == 5
    assert 10 - rank == 5


def test_normal_form_idempotent(q4):
    rng = random.Random(5)
    for d in (2, 3, 4):
        vec = {}
        for _ in range(30):
            mono = tuple(rng.randrange(5) for _ in range(d))
            vec[mono] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
        once = q4.reduce_vector(vec)
        twice = q4.reduce_vector(dict(once))
        assert once == twice


def test_normal_form_words_are_fibre_then_base(q4):
    # reference words are a fibre word then a base word; a word applied to 1
    # is its reference normal form read on the words with no base letter
    for d in range(5):
        for mono in itertools.product(range(5), repeat=d):
            ref = dict(ref_nf(mono))
            for m in ref:
                assert len(m) == d
                assert tuple(sorted(m, key=lambda g: g >= NFIBRE)) == m
            fibre = {m: c for m, c in ref.items() if all(g < NFIBRE for g in m)}
            assert dict(q4.nf_monomial(mono)) == fibre


def test_commutation_relation_holds():
    # t_12 and t_34 commute in U(P5)
    t12, t34, t23 = RefP5.t(4, 1, 2), RefP5.t(4, 3, 4), RefP5.t(4, 2, 3)
    assert (t12 * t34 - t34 * t12).is_zero()
    # while t_12 and t_23 do not
    assert not (t12 * t23 - t23 * t12).is_zero()


def disjoint_pairs():
    pairs = sorted(PAIR_EXPANSION)
    return [(a, b) for x, a in enumerate(pairs) for b in pairs[x + 1:]
            if not set(a) & set(b)]


def test_relations_pin_the_algebra():
    def t(pr):
        return RefP5.t(4, *pr)

    def comm(x, y):
        return x * y - y * x

    # the defining relations: generators with disjoint index pairs commute
    assert len(disjoint_pairs()) == 15
    for pa, pb in disjoint_pairs():
        assert comm(t(pa), t(pb)).is_zero()
    # the action of the base t12, t23 on the fibre t15, t25, t35
    brackets = [
        ((1, 2), (1, 5), ((1, 5), (2, 5))),
        ((1, 2), (2, 5), ((2, 5), (1, 5))),
        ((1, 2), (3, 5), None),
        ((2, 3), (1, 5), None),
        ((2, 3), (2, 5), ((2, 5), (3, 5))),
        ((2, 3), (3, 5), ((3, 5), (2, 5))),
    ]
    for g, f, rhs in brackets:
        lhs = comm(t(g), t(f))
        if rhs is None:
            assert lhs.is_zero()
        else:
            assert not lhs.is_zero()
            assert (lhs - comm(t(rhs[0]), t(rhs[1]))).is_zero()


def test_multiplication_associative_random():
    rng = random.Random(9)

    def rand_elt():
        terms = {}
        for d in (0, 1, 2):
            for _ in range(4):
                mono = tuple(rng.randrange(5) for _ in range(d))
                terms[mono] = Fraction(rng.randint(-3, 3))
        return RefP5(4, ref_reduce(terms))

    for _ in range(5):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert ((x * y) * z - x * (y * z)).is_zero()


def test_embedding_unit_and_single_generator(q4):
    one = NCSeries.one(QQ, 3)
    assert embed(one, q4, 1, 2, 3) == one

    e0 = NCSeries.letter(QQ, 3, 0)
    # t12 is a base letter: it sends 1 to 0
    assert not embed(e0, q4, 1, 2, 3).terms
    # t34 = t15 + t25 + t12 sends 1 to t15 + t25
    assert embed(e0, q4, 3, 4, 5) == NCSeries(QQ, 3, {(0,): Fraction(1), (1,): Fraction(1)})


def test_embedding_respects_products(q4):
    rng = random.Random(13)

    def rand_series():
        terms = {(): Fraction(1)}
        for w in W.all_words(3):
            if w and rng.random() < 0.5:
                terms[w] = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return NCSeries(QQ, 3, terms)

    for _ in range(5):
        f, g = rand_series(), rand_series()
        lhs = embed(f * g, q4, 2, 3, 4)
        rhs = embed(f, q4, 2, 3, 4, y=embed(g, q4, 2, 3, 4))
        assert lhs == rhs


def test_pentagon_residual_unit_and_quadratic(q4):
    one = NCSeries.one(QQ, 2)
    assert not pentagon_residual(one, q4).terms

    e0 = NCSeries.letter(QQ, 2, 0)
    e1 = NCSeries.letter(QQ, 2, 1)
    f = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    assert not pentagon_residual(f, q4).terms


def test_residual_graded_locality(q4):
    # the degree-d component of the residual only depends on components of
    # the series up to degree d
    rng = random.Random(21)
    coords = {lw: Fraction(rng.randint(-2, 2), 3) for d in (2, 3) for lw, _ in W.lie_basis(d)}
    base = lie_element(QQ, 4, coords).exp()
    # perturb at degree 4 only
    coords4 = dict(coords)
    coords4[(0, 0, 0, 1)] = Fraction(1, 7)
    pert = lie_element(QQ, 4, coords4).exp()
    r1 = pentagon_residual(base, q4)
    r2 = pentagon_residual(pert, q4)
    for d in (2, 3):
        assert r1.homogeneous_part(d) == r2.homogeneous_part(d)
    assert r1.homogeneous_part(4) != r2.homogeneous_part(4)


def test_residual_is_the_reference_on_both_faces(q5, even_candidate, skew_candidate):
    # the residual is the reference's (product - 1) on the words with an
    # empty base or fibre part, and it vanishes exactly when the product is 1
    rng = random.Random(31)
    phis = [random_grouplike(rng, n) for n in (3, 4, 5)]
    phis += [even_candidate.phi, skew_candidate.phi]
    verdicts = []
    for phi in phis:
        ref = ref_pentagon_minus_one(phi)
        res = pentagon_residual(phi, q5)
        assert res.terms == faces(ref)
        assert ref.is_zero() == (not res.terms)
        verdicts.append(ref.is_zero())
    assert verdicts == [False, False, False, True, True]


def test_base_face_is_the_two_cycle(q5):
    # the pentagon contains the 2-cycle: its base face is
    # phi(e1, e0) phi(e0, e1) - 1 with e0 -> t12 = 3 and e1 -> t23 = 4
    rng = random.Random(37)
    for n in (3, 4, 5):
        phi = random_grouplike(rng, n, start=2)
        cycle = phi.swap_letters() * phi - NCSeries.one(QQ, n)
        expect = cycle.relabel(lambda w: tuple(3 + g for g in w))
        res = pentagon_residual(phi, q5)
        base = {w: c for w, c in res.terms.items() if w[0] >= NFIBRE}
        assert base == expect.terms
        assert base


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def sparse_series(draw, n, letters):
    words = [w for d in range(n + 1) for w in itertools.product(range(letters), repeat=d)]
    return NCSeries(QQ, n, draw(st.dictionaries(st.sampled_from(words), COEFFS, max_size=8)))


@st.composite
def action_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ijk = draw(st.sampled_from(PENTAGON_POSITIONS))
    return (n, ijk, draw(sparse_series(n, 2)), draw(sparse_series(n, 2)),
            draw(sparse_series(n, NFIBRE)))


@settings(max_examples=40)
@given(action_inputs())
def test_embed_is_an_action(q4, inputs):
    # f(t_ij, t_jk) g(t_ij, t_jk) . y = f(t_ij, t_jk) . (g(t_ij, t_jk) . y)
    n, ijk, f, g, y = inputs
    assert embed(f * g, q4, *ijk, y=y) == embed(f, q4, *ijk, y=embed(g, q4, *ijk, y=y))


@st.composite
def fibre_vectors(draw, n):
    """A series on the fibre letters in which a drawn word may come with a
    partner at the same coefficient, one letter swapped for a neighbour:
    t12 sends t15 + t25 to 0 and t23 sends t25 + t35 to 0, so the terms the
    pair contributes through that letter cancel."""
    words = [w for d in range(n + 1) for w in itertools.product(range(NFIBRE), repeat=d)]
    terms = {}
    for w, c in draw(st.lists(st.tuples(st.sampled_from(words), COEFFS), max_size=6)):
        partners = [w]
        if w and draw(st.booleans()):
            p = draw(st.integers(0, len(w) - 1))
            f = draw(st.sampled_from([f for f in range(NFIBRE) if abs(f - w[p]) == 1]))
            partners.append(w[:p] + (f,) + w[p + 1:])
        for u in partners:
            terms[u] = terms.get(u, 0) + c
    return NCSeries(QQ, n, terms)


@st.composite
def strand_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    f = NCSeries(QQ, n, {**draw(sparse_series(n, 2)).terms, (): 1})
    return n, draw(st.sampled_from(sorted(PAIR_EXPANSION))), draw(fibre_vectors(n)), f


def cancelling(n, ij, terms):
    f = NCSeries(QQ, n, {(): 1, (0,): 1, (0, 1): Fraction(1, 2), (1, 0): -1})
    return n, ij, NCSeries(QQ, n, terms), f


def test_p5_bracket_is_the_commutator_in_the_reference():
    """p5_bracket against X Y - Y X in U(P5), X = f1 + b1 and Y = f2 + b2,
    read on its fibre and base faces: the reference's own double loop and
    normal form.  b1 f2 and b2 f1 share the words 3 0 and 4 1 2, which
    cancel in b1.f2 - b2.f1, so a lost sign shows."""
    f1, b1 = {(0,): 2, (1, 2): 1}, {(3,): 2, (4,): -1}
    f2, b2 = {(0,): 1, (1, 2): -3}, {(3,): 1, (4,): 3, (3, 4): 1}
    x, y = RefP5(8, {**f1, **b1}), RefP5(8, {**f2, **b2})
    ref = (x * y - y * x).terms
    faces = tuple({w: c for w, c in ref.items() if all((g < NFIBRE) == fibre for g in w)}
                  for fibre in (True, False))
    assert p5_bracket((f1, b1), (f2, b2), P5Quotient(8)) == faces


@settings(max_examples=60)
@given(strand_inputs())
@example(cancelling(2, (1, 2), {(0, 1): 1, (1, 0): 1}))  # t12 . (t15 t25 + t25 t15): two words cancel
@example(cancelling(3, (2, 3), {(1, 1): 1}))             # t23 . t25^2: t25 t35 t25 cancels
def test_strand_generators_act_as_the_reference(inputs):
    # t_ij . y is the reference product t_ij y read on the fibre words; no
    # numerator it stores is zero, nor any that embed and the residual store
    n, ij, y, f = inputs
    q = P5Quotient(n + 1)
    got = strand_generator(*ij) * y
    ref = RefP5.t(n + 1, *ij) * RefP5(n + 1, y.terms)
    assert got.terms == {w: c for w, c in ref.terms.items() if all(g < NFIBRE for g in w)}
    assert got.truncation == n + 1 and all(got.numerators.values())
    for series in [embed(f, q, *ijk, y=y) for ijk in PENTAGON_POSITIONS] + [pentagon_residual(f, q)]:
        assert all(series.numerators.values())


@settings(max_examples=40)
@given(st.data())
def test_reduce_vector_is_linear(q4, data):
    words = [w for d in range(5) for w in itertools.product(range(5), repeat=d)]
    vectors = st.dictionaries(st.sampled_from(words), COEFFS, max_size=8)
    u, v = data.draw(vectors), data.draw(vectors)
    a, b = data.draw(COEFFS), data.draw(COEFFS)
    combined = {}
    for vec, c in ((u, a), (v, b)):
        for w, x in vec.items():
            combined[w] = combined.get(w, 0) + c * x
    expect = {}
    for vec, c in ((q4.reduce_vector(u), a), (q4.reduce_vector(v), b)):
        for w, x in vec.items():
            expect[w] = expect.get(w, 0) + c * x
    assert q4.reduce_vector(combined) == {w: x for w, x in expect.items() if x != 0}
