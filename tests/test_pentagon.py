import itertools
import random

from fractions import Fraction

import pytest

from associators import words as W
from associators.ncseries import NCSeries, bracket, lie_element
from associators.pentagon import (
    P5Quotient,
    P5Element,
    PAIR_EXPANSION,
    embed,
    pentagon_residual,
    strand_generator,
)
from associators.rings import QQ


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
    # generators 0, 1, 2 are the fibre t15, t25, t35 and 3, 4 the base t12, t23
    for d in range(5):
        for mono in itertools.product(range(5), repeat=d):
            for m, _ in q4.nf_monomial(mono):
                assert len(m) == d
                assert tuple(sorted(m, key=lambda g: g >= 3)) == m


def test_commutation_relation_holds(q4):
    # t_12 and t_34 commute in the quotient
    t12 = strand_generator(q4, QQ, 4, 1, 2)
    t34 = strand_generator(q4, QQ, 4, 3, 4)
    comm = t12 * t34 - t34 * t12
    assert comm.is_zero()
    # while t_12 and t_23 do not
    t23 = strand_generator(q4, QQ, 4, 2, 3)
    assert not (t12 * t23 - t23 * t12).is_zero()


def disjoint_pairs():
    pairs = sorted(PAIR_EXPANSION)
    return [(a, b) for x, a in enumerate(pairs) for b in pairs[x + 1:]
            if not set(a) & set(b)]


def test_relations_pin_the_algebra(q4):
    def t(pr):
        return strand_generator(q4, QQ, 4, *pr)

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


def test_multiplication_associative_random(q4):
    rng = random.Random(9)

    def rand_elt():
        comps = {}
        for d in (0, 1, 2):
            vec = {}
            for _ in range(4):
                mono = tuple(rng.randrange(5) for _ in range(d))
                vec[mono] = Fraction(rng.randint(-3, 3))
            comps[d] = vec
        e = P5Element(q4, QQ, 4, comps)
        return e + P5Element.zero(q4, QQ, 4)  # normalises empties

    for _ in range(5):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert (lhs - rhs).is_zero()


def test_embedding_unit_and_single_generator(q4):
    one = NCSeries.one(QQ, 3)
    img = embed(one, q4, 1, 2, 3)
    assert (img - P5Element.one(q4, QQ, 3)).is_zero()

    e0 = NCSeries.letter(QQ, 3, 0)
    img0 = embed(e0, q4, 1, 2, 3)
    t12 = strand_generator(q4, QQ, 3, 1, 2)
    assert (img0 - t12).is_zero()


def test_embedding_respects_products(q4):
    rng = random.Random(13)

    def rand_series():
        terms = {(): Fraction(1)}
        for w in W.all_words(3):
            if w and rng.random() < 0.5:
                terms[w] = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return NCSeries.from_word_dict(QQ, 3, terms)

    for _ in range(5):
        f, g = rand_series(), rand_series()
        lhs = embed(f * g, q4, 2, 3, 4)
        rhs = embed(f, q4, 2, 3, 4) * embed(g, q4, 2, 3, 4)
        assert (lhs - rhs).is_zero()


def test_pentagon_residual_unit_and_quadratic(q4):
    one = NCSeries.one(QQ, 2)
    assert pentagon_residual(one, q4).is_zero()

    e0 = NCSeries.letter(QQ, 2, 0)
    e1 = NCSeries.letter(QQ, 2, 1)
    f = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    assert pentagon_residual(f, q4).is_zero()


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
        assert r1.component(d) == r2.component(d)

