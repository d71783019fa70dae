"""Property tests of the series rings over QQ (the storage rules of the
shared core, associativity, distributivity, the unit) and of
NCSeries.substitute into 2x2 matrices over CSeries, against a word-by-word
evaluation.  Every comparison is exact."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associators.cseries import CSeries
from associators.graded import RingMismatch
from associators.mat2 import Mat2
from associators.ncseries import NCSeries
from associators.rings import QQ
from test_graded import COEFFS, TRUNCATIONS, c_series, nc_series


@st.composite
def with_constant(draw, kind):
    x = draw(kind())
    return x.one_like().scale(draw(COEFFS)) + x


@st.composite
def triples(draw):
    kind = draw(st.sampled_from((nc_series, c_series)))
    return tuple(draw(with_constant(kind)) for _ in range(3))


def same(x, y):
    return x == y and x.truncation == y.truncation


@settings(max_examples=40)
@given(triples())
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert same((x * y) * z, x * (y * z))
    assert same(x * (y + z), x * y + x * z)
    assert same((x + y) * z, x * z + y * z)
    assert same(x * x.one_like(), x)
    assert same(x.one_like() * x, x)


@st.composite
def pairs(draw):
    kind = draw(st.sampled_from((nc_series, c_series)))
    return draw(with_constant(kind)), draw(with_constant(kind))


def stored_cleanly(x):
    """No stored coefficient is zero and no key lies above the truncation."""
    return all(c != 0 and x.degree(k) <= x.truncation for k, c in x.terms.items())


@settings(max_examples=40)
@given(pairs(), COEFFS, TRUNCATIONS)
def test_operations_keep_the_storage_rules(xy, c, n):
    x, y = xy
    for z in (x + y, x - y, x * y, x.scale(c), x.truncate(n)):
        assert stored_cleanly(z)
    assert (x - x).terms == {}
    beyond = (0,) * (x.truncation + 1) if isinstance(x, NCSeries) else (x.truncation + 1, 0, 0)
    with pytest.raises(ValueError):
        x.coeff(beyond)


@settings(max_examples=20)
@given(with_constant(nc_series), with_constant(c_series))
def test_mixing_the_two_series_kinds_raises(f, g):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(RingMismatch):
            op(f, g)
        with pytest.raises(RingMismatch):
            op(g, f)


@st.composite
def images(draw, n):
    """A Mat2 over CSeries at truncation n with parts of degree 1..3."""
    entries = []
    for _ in range(4):
        x = draw(c_series(n))
        entries.append(CSeries(QQ, n, {m: c for m, c in x.terms.items() if sum(m) <= 3}))
    return Mat2(*entries)


@st.composite
def substitutions(draw):
    n = draw(TRUNCATIONS)
    return (draw(with_constant(nc_series)), draw(with_constant(nc_series)),
            draw(images(n)), draw(images(n)))


def word_by_word(f, a, b):
    """sum over the words w of f of (f|w) times the product of the letter
    images along w, each product formed from the identity."""
    n = min(f.truncation, a.truncation)
    one = a.one_like().truncate(n)
    acc = one.scale(QQ.zero)
    for w, c in f.terms.items():
        if len(w) <= n:
            t = one
            for letter in w:
                t = t * (a, b)[letter]
            acc = acc + t.scale(c)
    return acc


def same_matrix(x, y):
    return all(same(u, v) for u, v in zip(x.e, y.e))


@settings(max_examples=40)
@given(substitutions())
def test_substitute_into_matrices(inputs):
    f, g, a, b = inputs
    assert same_matrix(f.substitute(a, b), word_by_word(f, a, b))
    assert same_matrix((f * g).substitute(a, b), f.substitute(a, b) * g.substitute(a, b))


def test_substitute_rejects_a_matrix_image_with_a_degree_zero_part():
    # a degree-0 part would carry the degree that a child of the walk leaves out
    a, b, p, q = CSeries.gens(QQ, 3)
    zero = CSeries.zero(QQ, 3)
    image0 = Mat2(zero, b, zero, p)
    image1 = Mat2(CSeries.one(QQ, 3) + a, zero, zero, q)
    with pytest.raises(ValueError):
        NCSeries.letter(QQ, 3, 0).substitute(image0, image1)
