"""Property tests of the series rings over QQ (the storage rules of the
shared core, associativity, distributivity, the unit) and of
NCSeries.substitute into series, into MatSeries (2x2 matrices over CSeries
as one series) and into strand generators, against a word-by-word
evaluation (one series made per walk, one ring per walk); the matrix
oracle multiplies Mat2 over CSeries.  MatSeries against Mat2 over CSeries,
with its determinant and inverse.  Products over QQ against a naive
Fraction double loop, in lowest terms and with Fraction coefficients in
every QQ result, and the walk's inputs (their stored form too) unchanged
by its in-place sums.  Letters and variables at truncation 0, and inexact
numbers refused by QQ.  Every comparison is exact."""

import operator
import random
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from associators.cseries import CSeries, subst_reindex
from associators.graded import RingMismatch, Series
from associators.mat2 import Mat2, MatSeries, mat_exp_graded
from associators.matspec import ThetaMap, ev_at, ev_xy, gamma_matrix_plus, xy_matrices
from associators.ncseries import NCSeries, lie_element
from associators.pentagon import strand_generator
from associators.rings import QQ, complex_field
from associators.words import lie_basis
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


def test_letters_and_variables_at_truncation_zero():
    # a degree-1 key lies above truncation 0, so nothing is stored
    xs = (NCSeries.letter(QQ, 0, 0), CSeries.variable(QQ, 0, "a")) + CSeries.gens(QQ, 0)
    assert all(stored_cleanly(x) and not x.terms for x in xs)
    assert NCSeries.letter(QQ, 0, 0) == NCSeries.zero(QQ, 0)
    with pytest.raises(ValueError):
        NCSeries.letter(QQ, 0, 0).coeff((0,))


@pytest.mark.parametrize("bad", [mpmath.mpf("0.5"), mpmath.mpc(1, 2), 0.5])
def test_qq_series_take_no_inexact_numbers(bad):
    for x in (NCSeries.one(QQ, 2), CSeries.one(QQ, 2)):
        with pytest.raises(TypeError):
            type(x)(QQ, 2, {x.UNIT: bad})
        with pytest.raises(TypeError):
            x.scale(bad)


@settings(max_examples=20)
@given(with_constant(nc_series), with_constant(c_series))
def test_mixing_the_two_series_kinds_raises(f, g):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(RingMismatch):
            op(f, g)
        with pytest.raises(RingMismatch):
            op(g, f)


@st.composite
def mat2_pairs(draw):
    """Two Mat2 over CSeries with constant parts, each entry at its own truncation."""
    return tuple(Mat2(*(draw(with_constant(c_series)) for _ in range(4))) for _ in range(2))


@settings(max_examples=20)
@given(mat2_pairs())
def test_matrix_series_is_the_entrywise_matrix_algebra(xy):
    x, y = xy
    n = min(e.truncation for e in x.e + y.e)
    assert same_matrix(MatSeries.of(*x.e), x.truncate(min(e.truncation for e in x.e)))
    for op in (operator.add, operator.mul):
        got = op(MatSeries.of(*x.e), MatSeries.of(*y.e))
        assert stored_cleanly(got) and got.truncation == n
        assert same_matrix(got, op(x, y).truncate(n))


@settings(max_examples=20)
@given(mat2_pairs())
def test_matrix_series_inverse_and_determinant(xy):
    x, y = (MatSeries.of(*m.e) for m in xy)
    assume(x.det().constant_term() != 0)
    assert same(x * x.inverse(), x.one_like()) and same(x.inverse() * x, x.one_like())
    assert same((x * y).det(), x.det() * y.det())


def test_matrix_series_across_rings_raise():
    x = MatSeries.one(QQ, 3)
    for other in (MatSeries.one(complex_field(20), 3), CSeries.one(QQ, 3)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RingMismatch):
                op(x, other)
    # of() takes four CSeries over one ring, as every binary operation does
    one, zero = CSeries.one(QQ, 3), CSeries.zero(QQ, 3)
    for other in (CSeries.one(complex_field(20), 3), NCSeries.one(QQ, 3)):
        for entries in ((other, zero, zero, one), (one, zero, zero, other)):
            with pytest.raises(RingMismatch):
                MatSeries.of(*entries)


def test_walk_across_rings_raises():
    # a QQ denominator has no fixed-point form over 2^B, so the walk takes one ring
    f = NCSeries(QQ, 3, {(0, 1): Fraction(1, 3)})
    cc = complex_field(20)
    x, y = xy_matrices(cc, 3)
    with pytest.raises(RingMismatch):
        f.substitute(x, y)
    with pytest.raises(RingMismatch):
        f.substitute(*xy_matrices(QQ, 3), one=NCSeries.one(QQ, 3))


@st.composite
def images(draw, n):
    """A MatSeries at truncation n with parts of degree 1..3."""
    entries = []
    for _ in range(4):
        x = draw(c_series(n))
        entries.append(CSeries(QQ, n, {m: c for m, c in x.terms.items() if sum(m) <= 3}))
    return MatSeries.of(*entries)


@st.composite
def substitutions(draw):
    n = draw(TRUNCATIONS)
    return (draw(with_constant(nc_series)), draw(with_constant(nc_series)),
            draw(images(n)), draw(images(n)))


def word_by_word(f, a, b, one=None):
    """sum over the words w of f of (f|w) a_(w1) ... a_(wk) . one, with no
    trie: the letter images along w act on one, the last letter first, and
    one is a.one_like() by default."""
    one = a.one_like() if one is None else one
    n = min(f.truncation, getattr(one, "truncation", f.truncation))
    acc = one.truncate(n).scale(QQ.zero)
    for w, c in f.terms.items():
        if len(w) <= n:
            t = one
            for letter in reversed(w):
                t = (a, b)[letter] * t
            acc = acc + t.truncate(n).scale(c)
    return acc


def matrix_word_by_word(f, a, b, one=None):
    """word_by_word on the Mat2 forms of MatSeries images and one: the
    oracle multiplies four CSeries entries, not one contracted series."""
    one = a.one_like() if one is None else one
    f = f.truncate(min(f.truncation, one.truncation))
    return word_by_word(f, *(Mat2(*(m[i, j] for i in range(2) for j in range(2)))
                             for m in (a, b, one)))


def same_matrix(x, y):
    """Entrywise equality at equal truncations, of Mat2 or MatSeries."""
    return all(same(x[i, j], y[i, j]) for i in range(2) for j in range(2))


@settings(max_examples=40)
@given(substitutions())
def test_substitute_into_matrices(inputs):
    f, g, a, b = inputs
    assert same_matrix(f.substitute(a, b), matrix_word_by_word(f, a, b))
    assert same((f * g).substitute(a, b), f.substitute(a, b) * g.substitute(a, b))


def test_substitute_rejects_a_matrix_image_with_a_degree_zero_part():
    # a degree-0 part would carry the degree that a child of the walk leaves out
    a, b, p, q = CSeries.gens(QQ, 3)
    zero = CSeries.zero(QQ, 3)
    image0 = MatSeries.of(zero, b, zero, p)
    image1 = MatSeries.of(CSeries.one(QQ, 3) + a, zero, zero, q)
    with pytest.raises(ValueError):
        NCSeries.letter(QQ, 3, 0).substitute(image0, image1)


# -- the exact walk against the word-by-word sum, on seeded rational inputs ----


def rational_series(rng, n, letters, lengths, count):
    """An NCSeries with count random words of the given lengths and
    coefficients of denominator up to 7."""
    words = [tuple(rng.choice(letters) for _ in range(rng.choice(lengths))) for _ in range(count)]
    return NCSeries(QQ, n, {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 7))
                            for w in words})


def nc_images(rng, n):
    a, b = (rational_series(rng, n, (0, 1), (1, 2), 3) for _ in range(2))
    return a, b, rational_series(rng, n, (0, 1), (0, 1, 2), 5)


def matrix_images(rng, n):
    theta = ThetaMap(n)
    half = CSeries.one(QQ, n).scale(Fraction(1, 2))
    return (theta.x, theta.log_image1,
            MatSeries.one(QQ, n) + MatSeries.of(half, half, half, half))


def strand_images(rng, n):
    return (strand_generator(1, 2), strand_generator(2, 3),
            rational_series(rng, n, (0, 1, 2), (0, 1, 2), 6))


def unequal_images(rng, n, one_truncation):
    """Letter images over unequal denominators, which the walk brings to
    their lcm, and a one at a truncation of its own."""
    a, b = (rational_series(rng, n, (0, 1), (1, 2), 3).scale(Fraction(1, den)) for den in (5, 8))
    return a, b, rational_series(rng, one_truncation, (0, 1), (0, 1, 2), 5)


def one_above(rng, n):
    return unequal_images(rng, n, n + 2)


def one_below(rng, n):
    return unequal_images(rng, n, n - 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind, n", [(nc_images, 6), (matrix_images, 5), (strand_images, 4),
                                     (one_above, 6), (one_below, 6)])
def test_exact_walk_is_the_word_by_word_sum(kind, n, seed):
    rng = random.Random(seed)
    f = rational_series(rng, n, (0, 1), range(n + 1), 30)
    a, b, one = kind(rng, n)
    # the walk has denominators to clear: in the series and in a series image or one
    assert f.denominator > 1
    assert lcm(*(x.denominator for x in (a, b, one) if isinstance(x, Series))) > 1
    if kind in (one_above, one_below):
        assert a.denominator != b.denominator and one.truncation != n
    got = f.substitute(a, b, one=one)
    if isinstance(got, MatSeries):
        assert same_matrix(got, matrix_word_by_word(f, a, b, one))
    else:
        assert same(got, word_by_word(f, a, b, one))
    # the ints of the walk never leave it
    assert all(type(c) is Fraction for c in got.terms.values())


def commutator_grouplike(rng, n):
    """exp of a Lie series with a coefficient on every Lyndon word of degree
    2..n."""
    coords = {lw: Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
              for d in range(2, n + 1) for lw, _ in lie_basis(d)}
    return lie_element(QQ, n, coords).exp()


@pytest.mark.parametrize("kind, n", [("matrices", 8), ("letters", 8), ("strands", 5),
                                     ("exp", 8), ("log", 8), ("matrix exp", 8)])
def test_a_walk_makes_one_series(kind, n, monkeypatch):
    # the nodes sum numerator dicts: only the root is stored as a series;
    # exp and log are one walk each, with no series per power (log also
    # stores the sum x - 1 it walks at)
    rng = random.Random(7)
    f = commutator_grouplike(rng, n)
    x, y = xy_matrices(QQ, n)
    a, b, one = x, -y, None
    if kind == "letters":
        a, b, one = nc_images(rng, n)
    elif kind == "strands":
        a, b, one = strand_images(rng, n)
    g, m = f.log(), x - y
    calls = {"exp": g.exp, "log": f.log, "matrix exp": lambda: mat_exp_graded(m)}
    call = calls.get(kind, lambda: f.substitute(a, b, one=one))
    made, stored = [], Series.__dict__["_stored"].__func__
    monkeypatch.setattr(Series, "_stored",
                        classmethod(lambda cls, *args: made.append(cls) or stored(cls, *args)))
    got = call()
    monkeypatch.undo()
    assert made == [type(got)] * (2 if kind == "log" else 1) and got.truncation == n and got.terms



# -- products over QQ run on ints: a naive Fraction double loop as oracle --------


DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)


def rational_terms(rng, keys):
    return {k: Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for k in keys}


def random_monomials(rng, n, count):
    return [tuple(rng.randint(0, n) for _ in range(3)) for _ in range(count)]


def nc_operand(rng, n):
    words = [tuple(rng.choice((0, 1)) for _ in range(rng.randint(0, n))) for _ in range(12)]
    return NCSeries(QQ, n, rational_terms(rng, words))


def c_operand(rng, n):
    return CSeries(QQ, n, rational_terms(rng, random_monomials(rng, n, 12)))


def mat_operand(rng, n):
    return MatSeries(QQ, n, rational_terms(rng, [(rng.randint(0, 1), rng.randint(0, 1)) + m
                                                 for m in random_monomials(rng, n, 16)]))


def word_key(u, v):
    return u + v


def monomial_key(u, v):
    return tuple(i + j for i, j in zip(u, v))


def entry_key(u, v):
    return u[:1] + v[1:2] + monomial_key(u[2:], v[2:]) if u[1] == v[0] else None


def naive_product(x, y, key):
    """The product of two QQ series by a double loop over their Fractions."""
    n = min(x.truncation, y.truncation)
    out = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            k = key(u, v)
            if k is not None and x.degree(k) <= n:
                out[k] = out.get(k, Fraction(0)) + cu * cv
    return {k: c for k, c in out.items() if c}


def all_fractions(x):
    return all(type(c) is Fraction for c in x.terms.values())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("operand, key", [(nc_operand, word_key), (c_operand, monomial_key),
                                          (mat_operand, entry_key)])
def test_product_is_the_fraction_double_loop(operand, key, seed):
    rng = random.Random(seed)
    x, y = operand(rng, rng.randint(2, 5)), operand(rng, rng.randint(2, 5))
    assert x.denominator > 1 and y.denominator > 1
    for u, v in ((x, y), (y, x), (x, x)):
        got = u * v
        assert got.terms == naive_product(u, v, key)
        assert got.denominator == lcm(*(c.denominator for c in got.terms.values()))
        assert got.truncation == min(u.truncation, v.truncation)
        assert all_fractions(got)


def test_qq_series_hold_fractions():
    rng = random.Random(4)
    f = rational_series(rng, 5, (0, 1), range(6), 20)
    a, b, one = nc_images(rng, 5)
    g = c_operand(rng, 5)
    h = CSeries(QQ, 5, {m: c for m, c in g.terms.items() if sum(m) > 0})
    lie = f - f.one_like().scale(f.constant_term())
    for x in (f * a, g * g, f.substitute(a, b, one=one), subst_reindex(g), lie.exp(),
              h.exp(), (h.exp()).log(), lie.exp().log(), ev_xy(lie.exp()),
              gamma_matrix_plus(4).m):
        assert x.ring is QQ and all_fractions(x)


# -- the walk sums into its own nodes, never into its inputs ------------------------


def snapshot(*xs):
    # the stored form too: rescaling an input to an lcm in place keeps its terms
    return [(x.truncation, dict(x.terms), x.denominator, dict(x.numerators)) for x in xs]


@pytest.mark.parametrize("ring", [QQ, complex_field(20)])
def test_walk_leaves_its_inputs_untouched(ring):
    n = 5
    rng = random.Random(5)
    terms = rational_series(rng, n, (0, 1), range(n + 1), 30).terms
    g = NCSeries(ring, n, {w: ring.from_fraction(c) for w, c in terms.items()})
    g = g.one_like() + g - g.one_like().scale(g.constant_term())
    x, y = xy_matrices(ring, n)
    minus_y = -y
    a, b, _ = (NCSeries(ring, n, {w: ring.from_fraction(c) for w, c in s.terms.items()})
               for s in nc_images(rng, n))
    # a one of truncation <= n: the walk's one.truncate shares its dict
    for one in (NCSeries.one(ring, n) + a, NCSeries.one(ring, n - 1) + b):
        before = snapshot(g, a, b, one)
        g.substitute(a, b, one=one)
        assert snapshot(g, a, b, one) == before
    before = snapshot(g, x, minus_y)
    ev_at(g, x, minus_y)
    assert snapshot(g, x, minus_y) == before
    if ring is QQ:
        theta = ThetaMap(n)
        one = MatSeries.one(QQ, n)
        before = snapshot(g, theta.x, theta.log_image1, one)
        theta(g)
        assert snapshot(g, theta.x, theta.log_image1, one) == before
