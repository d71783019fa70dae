"""Property tests of the graded-series core (exp, log, inverse) on every
algebra that uses it: NCSeries, CSeries and MatSeries (2x2 matrices over
CSeries), all over QQ, so every comparison is exact; Horner's rule against
the power loop it replaced; inverse over the complex ring; and the antipode
of NCSeries against inverse."""

import operator
import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from associators import words as W
from associators.cseries import CSeries, subst_swap_ab
from associators.graded import max_coeff
from associators.mat2 import MatSeries, mat_exp_graded
from associators.matspec import ev_at, first_row, mat_log_graded, xy_matrices
from associators.ncseries import NCSeries, lie_element
from associators.rings import QQ, Gaussian, complex_field

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
UNITS = COEFFS.filter(lambda c: c != 0)
TRUNCATIONS = st.integers(min_value=1, max_value=5)


@st.composite
def nc_series(draw):
    """A sparse NCSeries without constant term."""
    n = draw(TRUNCATIONS)
    words = [w for d in range(1, n + 1) for w in W.words_of_weight(d)]
    return NCSeries(QQ, n, draw(st.dictionaries(st.sampled_from(words), COEFFS, max_size=6)))


@st.composite
def c_series(draw, n=None):
    """A sparse CSeries without constant term."""
    n = draw(TRUNCATIONS) if n is None else n
    monos = [(i, j, k) for i in range(n + 1) for j in range(n + 1 - i)
             for k in range(n + 1 - i - j) if i + j + k > 0]
    return CSeries(QQ, n, draw(st.dictionaries(st.sampled_from(monos), COEFFS, max_size=6)))


@st.composite
def lie_series(draw):
    """A Lie element of NCSeries: sparse Lyndon-basis coordinates."""
    n = draw(TRUNCATIONS)
    lyndon = [lw for d in range(1, n + 1) for lw, _ in W.lie_basis(d)]
    return lie_element(QQ, n, draw(st.dictionaries(st.sampled_from(lyndon), COEFFS, max_size=6)))


@st.composite
def matrices(draw):
    """A MatSeries whose entries have positive degree."""
    n = draw(TRUNCATIONS)
    return MatSeries.of(*(draw(c_series(n)) for _ in range(4)))


SERIES = st.one_of(nc_series(), c_series())
ELEMENTS = st.one_of(nc_series(), c_series(), matrices())


def exp(x):
    return mat_exp_graded(x) if isinstance(x, MatSeries) else x.exp()


def log(x):
    return mat_log_graded(x) if isinstance(x, MatSeries) else x.log()


@settings(max_examples=30)
@given(ELEMENTS)
def test_log_inverts_exp(x):
    assert log(exp(x)) == x


@settings(max_examples=30)
@given(ELEMENTS)
def test_exp_inverts_log(x):
    one_plus_x = x.one_like() + x
    assert exp(log(one_plus_x)) == one_plus_x


@settings(max_examples=30)
@given(ELEMENTS)
def test_exp_of_negative_is_inverse(x):
    assert exp(x) * exp(-x) == x.one_like()


@settings(max_examples=30)
@given(SERIES, UNITS)
def test_inverse_of_unit_constant_term(x, c):
    y = x.one_like().scale(c) + x
    inv = y.inverse()
    assert y * inv == y.one_like()
    assert inv * y == y.one_like()


@settings(max_examples=30)
@given(SERIES, UNITS)
def test_error_paths(x, c):
    with pytest.raises(ValueError):
        (x.one_like().scale(c) + x).exp()
    if c != 1:
        with pytest.raises(ValueError):
            (x.one_like().scale(c) + x).log()
    with pytest.raises(ZeroDivisionError):
        x.inverse()


def test_series_of_different_truncations_are_unequal():
    # a series known to fewer degrees equals none known to more, so an ==
    # oracle fails a result that is short of the degrees it promises
    a2, a6 = CSeries.variable(QQ, 2, "a"), CSeries.variable(QQ, 6, "a")
    assert a2 != a6 + a6 * a6 * a6 * a6 * a6 and a2 != a6
    assert a2 == a6.truncate(2)
    for x in (NCSeries.letter(QQ, 3, 0), MatSeries.one(QQ, 3)):
        assert x != x.truncate(2) and x.truncate(2) == x.truncate(2)


def power_loop(x, coeff):
    """sum_{k >= 1} coeff(k) x^k with one product and one scale per power:
    the loop that exp, log and inverse ran before Horner's rule."""
    pw = x.one_like()
    acc = pw.scale(0)
    for k in range(1, x.truncation // x.min_degree() + 1):
        pw = pw * x
        acc = acc + pw.scale(coeff(k))
    return acc


def seeded(rng, kind, n):
    """A series of the kind without constant term, with denominators."""
    def terms(keys):
        return {k: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for k in rng.sample(keys, 6)}
    monos = [(i, j, d - i - j) for d in range(1, n + 1) for i in range(d + 1) for j in range(d + 1 - i)]
    if kind == "words":
        return NCSeries(QQ, n, terms([w for d in range(1, n + 1) for w in W.words_of_weight(d)]))
    if kind == "monomials":
        return CSeries(QQ, n, terms(monos))
    return MatSeries.of(*(CSeries(QQ, n, terms(monos)) for _ in range(4)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["words", "monomials", "matrices"])
def test_horner_matches_the_power_loop(kind, seed):
    rng = random.Random(seed)
    x = seeded(rng, kind, 5)
    assert x.denominator > 1
    one = x.one_like()
    assert exp(x) == one + power_loop(x, lambda k: Fraction(1, factorial(k)))
    assert log(one + x) == power_loop(x, lambda k: Fraction((-1) ** (k + 1), k))
    # a unit constant c: c^-1 sum_k (1 - y/c)^k; MatSeries' own inverse is the adjugate
    c = Fraction(rng.choice((-3, 2, 5)), rng.choice((2, 3, 7)))
    y = one.scale(c) + x
    assert y.inverse() == (one + power_loop(one - y.scale(1 / c), lambda k: 1)).scale(1 / c)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_key_maps_are_the_walk_at_their_images(seed):
    """reflect is f(-x) and the a <-> b relabel f(b, a, p), as the walk
    gives them; on a matrix, entry by entry."""
    rng = random.Random(seed)
    f, g, m = (seeded(rng, kind, 5) for kind in ("words", "monomials", "matrices"))
    e0, e1 = NCSeries.letter(QQ, 5, 0), NCSeries.letter(QQ, 5, 1)
    a, b, p, _ = CSeries.gens(QQ, 5)
    assert f.reflect() != f and g.reflect() != g and m.reflect() != m
    assert f.reflect() == f.substitute(-e0, -e1)
    assert g.reflect() == g.subst(-a, -b, -p)
    assert subst_swap_ab(g) == g.subst(b, a, p)
    for ij in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert m.reflect()[ij] == m[ij].subst(-a, -b, -p)


# -- the product loops over the complex ring and QQ ----------------------------

JOINS = {NCSeries: operator.add, CSeries: lambda m, k: tuple(map(operator.add, m, k)),
         MatSeries: lambda u, v: (u[0], v[1], u[2] + v[2], u[3] + v[3], u[4] + v[4])
         if u[1] == v[0] else None}


def dense_series(rng, cls, n, low, ring=complex_field(40)):
    """Every key of degree low..n, each coefficient off the real line over
    the complex ring, a fraction with a denominator over QQ."""
    monos = [(i, j, d - i - j) for d in range(low, n + 1) for i in range(d + 1) for j in range(d + 1 - i)]
    keys = ([w for d in range(low, n + 1) for w in W.words_of_weight(d)] if cls is NCSeries else
            monos if cls is CSeries else [(i, j) + m for m in monos for i in (0, 1) for j in (0, 1)])
    if ring is QQ:
        return cls(ring, n, {k: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for k in keys})
    return cls(ring, n, {k: ring.mp.mpc(rng.uniform(-2, 2), rng.choice((-1, 1)) * rng.uniform(0.5, 2))
                         for k in keys})


def naive_product(f, g):
    """The stored numerators and denominator of f g by a double loop over
    every pair of stored numerators that the join combines, reduced as the
    ring reduces."""
    n, join, out = min(f.truncation, g.truncation), JOINS[type(f)], {}
    for ka, ca in f.numerators.items():
        for kb, cb in g.numerators.items():
            k = join(ka, kb)
            if k is not None and f.degree(k) <= n:
                out[k] = out.get(k, 0) + ca * cb
    return f.ring.reduce({k: c for k, c in out.items() if c}, f.denominator * g.denominator)


SHAPES = [(4, 5, 0), (5, 3, 1), (0, 0, 0), (3, 3, 2)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cls", [NCSeries, CSeries, MatSeries])
@pytest.mark.parametrize("nf, ng, low", SHAPES)
def test_the_keyed_loop_is_the_double_loop_over_the_complex_ring(cls, nf, ng, low, seed):
    """NCSeries, CSeries and MatSeries products over complex_field(40) store
    the numerators of the naive double loop; at truncation 0 only the
    constant terms meet, and with low = 2 at truncation 3 every pair lies
    above it."""
    rng = random.Random(seed)
    f, g = dense_series(rng, cls, nf, low), dense_series(rng, cls, ng, low)
    assert all(isinstance(c, Gaussian) for x in (f, g) for c in x.numerators.values())
    got = f * g
    assert (got.numerators, got.denominator) == naive_product(f, g)
    assert got.truncation == min(nf, ng) and bool(got.numerators) == (low < 2)


@pytest.mark.parametrize("nf, ng, low", SHAPES)
def test_the_matrix_contraction_is_the_double_loop_over_qq(nf, ng, low):
    """The MatSeries contraction over QQ: the pairs whose inner indices
    match, at truncation 0 and with every pair above the truncation too."""
    rng = random.Random(nf + ng + low)
    f, g = dense_series(rng, MatSeries, nf, low, QQ), dense_series(rng, MatSeries, ng, low, QQ)
    assert f.denominator > 1 and g.denominator > 1
    got = f * g
    assert (got.numerators, got.denominator) == naive_product(f, g)
    assert got.truncation == min(nf, ng) and bool(got.numerators) == (low < 2)


@pytest.mark.parametrize("ring", [QQ, complex_field(40)], ids=["QQ", "CC40"])
@pytest.mark.parametrize("cls", [NCSeries, CSeries, MatSeries])
def test_a_left_factor_is_read_in_increasing_degree(cls, ring):
    """The left factor stores its keys of highest degree first.  Its loop
    reads its degree groups in increasing degree up to the first above a
    right term's room, so a group stored after a higher one still meets
    the right factor."""
    rng = random.Random(3)
    f, g = dense_series(rng, cls, 4, 1, ring), dense_series(rng, cls, 4, 1, ring)
    f = f._stored(ring, 4, dict(sorted(f.numerators.items(), key=lambda kc: -f.degree(kc[0]))),
                  f.denominator)
    assert f.degree(next(iter(f.numerators))) == 4
    got = f * g
    assert got.numerators and (got.numerators, got.denominator) == naive_product(f, g)


# -- the walk prepares each image once ------------------------------------------


def counted_loop(monkeypatch, cls):
    """The list of the calls of cls's product loop from here on."""
    calls, loop = [], cls.__mul__.loop

    def counted(*args):
        calls.append(args)
        return loop(*args)
    monkeypatch.setattr(cls.__mul__, "loop", counted)
    return calls


@pytest.mark.parametrize("walk", ["first_row", "ev_at", "exp", "substitute"])
def test_the_walk_prepares_each_image_once(walk, monkeypatch):
    """f holds every word of degree <= 4, so its trie has 31 nodes, but the
    walk calls each image's loop once: the grouping of an image's terms
    serves every node."""
    e0, e1 = NCSeries.letter(QQ, 4, 0), NCSeries.letter(QQ, 4, 1)
    f = (e0 + e1.scale(2)).exp()
    assert len(f.numerators) == 31
    m0, m1 = xy_matrices(QQ, 4)
    expect = {"first_row": lambda: first_row(f, m0, m1), "ev_at": lambda: ev_at(f, m0, m1),
              "exp": lambda: mat_exp_graded(m0 + m1), "substitute": lambda: f.substitute(e0 * e1, e1 - e0)}
    want = expect[walk]()
    calls = counted_loop(monkeypatch, NCSeries if walk == "substitute" else MatSeries)
    assert expect[walk]() == want
    assert len(calls) == (1 if walk == "exp" else 2)


def test_exp_of_a_degree_two_argument():
    # the powers of a^2 vanish beyond a^4 at truncation 5
    a = CSeries.variable(QQ, 5, "a")
    expect = {(0, 0, 0): 1, (2, 0, 0): 1, (4, 0, 0): Fraction(1, 2)}
    assert (a * a).exp() == CSeries(QQ, 5, expect)


def test_inverse_leaves_no_rounding_residue():
    # (3 + i) times its rounded inverse is not exactly 1 at this precision;
    # that residue must not count as a degree-0 term of the Neumann series
    ring = complex_field(20)
    y = NCSeries.one(ring, 4).scale(mpmath.mpc(3, 1)) + NCSeries.letter(ring, 4, 0)
    assert max_coeff(y * y.inverse() - y.one_like()) < 1e-25


@settings(max_examples=30)
@given(lie_series())
def test_antipode_inverts_a_group_like_series(x):
    g = x.exp()
    assert g.antipode() == g.inverse()


def test_antipode_is_no_inverse_off_the_group():
    # 1 + e0 e1 is not group-like: its inverse is 1 - e0 e1 + (e0 e1)^2 - ...
    e0, e1 = NCSeries.letter(QQ, 4, 0), NCSeries.letter(QQ, 4, 1)
    f = e0.one_like() + e0 * e1
    assert f.antipode() == f.one_like() + e1 * e0
    assert f.inverse() == f.one_like() - e0 * e1 + e0 * e1 * e0 * e1
    assert f.antipode() != f.inverse()


@st.composite
def same_kind_pairs(draw):
    kind = draw(st.sampled_from((nc_series, c_series, matrices)))
    return draw(kind()), draw(kind())


OPERATIONS = (lambda x, y: x.truncate(x.truncation - 1), lambda x, y: x.truncate(x.truncation + 1),
              operator.add, operator.sub, operator.mul,
              lambda x, y: x.scale(1), lambda x, y: x.scale(Fraction(-2, 3)))
LETTER_MAPS = (lambda x, y: x.relabel(W.swap_letters), lambda x, y: x.reflect())


@settings(max_examples=30)
@given(same_kind_pairs())
def test_no_operation_writes_into_an_operand(pair):
    # a result may share an operand's numerators (truncate does), so no
    # operation may write into one
    def stored():
        return [(s.truncation, s.denominator, dict(s.numerators)) for s in pair]

    x, y = pair
    before = stored()
    for op in OPERATIONS + (LETTER_MAPS if isinstance(x, NCSeries) else ()):
        op(x, y)
        assert stored() == before
