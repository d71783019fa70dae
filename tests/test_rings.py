"""The complex ring carries its own precision: its numbers belong to the
ring's mpmath context, so results do not depend on the global mp.dps, and
the package's numeric boundaries hand out numbers of that context."""

import math
import operator
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from associators import words as W
from associators.cseries import CSeries
from associators.graded import max_coeff
from associators.hypcx import fundamental_solution, kz_series, mzv, solution_matrix_at
from associators.mat2 import MatSeries
from associators.ncseries import NCSeries
from associators.rings import QQ, Gaussian, complex_field, gaussian


def _digest(series):
    return {w: c._mpc_ for w, c in series.terms.items()}


def test_series_arithmetic_ignores_the_global_precision():
    g = fundamental_solution(F(3, 10), 8, 40)

    def results():
        log = g.log()
        return [_digest(s) for s in (g.inverse(), log, log.exp(), g * g.swap_letters())]

    with mp.workdps(15):
        low = results()
    with mp.workdps(120):
        high = results()
    assert low == high


def test_neumann_inverse_outside_any_context_keeps_the_ring_digits():
    # G_10 is group-like, so its antipode is its inverse
    g10 = fundamental_solution(F(1, 2), 10, 40).swap_letters()
    assert max_coeff(g10.inverse() - g10.antipode()) < 1e-45


def test_numeric_boundaries_hand_out_ring_numbers():
    # a global-context number that leaked in would round every later
    # operation on it at the global 15 digits
    cand = kz_series(8, 40)
    ctx = cand.ring.mp
    assert cand.mu.context is ctx
    assert all(c.context is ctx for c in cand.phi.terms.values())
    convergent = [w for n in range(2, 9) for w in W.words_of_weight(n)
                  if w[0] == W.E0 and w[-1] == W.E1]
    assert all(mzv(W.index_from_word(w), 40).context is ctx for w in convergent)
    for m in solution_matrix_at(F(1, 10), F(1, 5), F(1, 2), F(3, 10), 6, 40):
        assert set(m) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(x.context is ctx for x in m.values())


def test_the_adapters_share_their_public_members():
    cc = complex_field(40)
    assert all(hasattr(cc, name) for name in dir(QQ) if not name.startswith("_"))


def test_nothing_is_pruned_by_tolerance():
    # only an exact zero is dropped: a tolerance would corrupt results
    assert NCSeries(QQ, 2, {(0,): F(1, 10 ** 80)}).coeff((0,)) == F(1, 10 ** 80)
    ring = complex_field(40)
    tiny = ring.mp.mpc(0, 1e-70)
    coords, rem = W.lie_coordinates({(0, 1): tiny, (1, 0): -tiny / 2}, 2)
    assert coords == {(0, 1): tiny} and rem == {(1, 0): tiny / 2}


def test_gaussian_integers_share_the_complex_protocol_of_int():
    """A Gaussian integer is an int on the real line and a Gaussian off it.
    Both read real, imag and conjugate() alike, mix in + - * as exact
    complex numbers do, floor each part under // by a positive int, and
    floor the modulus in abs."""
    rng = random.Random(7)
    values = ([gaussian(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(30)]
              + [rng.randint(-60, 60) for _ in range(10)])
    assert {type(x) for x in values} == {int, Gaussian}
    for x in values:
        assert isinstance(x, int) == (x.imag == 0)
        assert (x.conjugate().real, x.conjugate().imag) == (x.real, -x.imag)
        d = rng.randint(1, 9)
        assert ((x // d).real, (x // d).imag) == (x.real // d, x.imag // d)
        assert abs(x) ** 2 <= x.real ** 2 + x.imag ** 2 < (abs(x) + 1) ** 2
        for y in values[::3]:
            for op in (operator.add, operator.sub, operator.mul):
                got = op(x, y)
                assert complex(got.real, got.imag) == op(complex(x.real, x.imag), complex(y.real, y.imag))
                assert isinstance(got, int) == (got.imag == 0)
    assert all(type(gaussian(k, 0)) is int for k in (-3, 0, 5))


def test_gaussian_integers_are_values():
    """Equal parts compare equal and hash alike; a Gaussian equals no int,
    since its imaginary part is nonzero; ** by an int k >= 0 is k products."""
    g = gaussian(3, -2)
    assert gaussian(1, 2) == gaussian(1, 2) and gaussian(1, 2) != gaussian(2, 1)
    assert hash(gaussian(1, 2)) == hash(gaussian(1, 2))
    assert {gaussian(1, 2): 0} == {gaussian(1, 2): 0}
    assert not g == 3 and not 3 == g and g != 3
    assert g ** 5 == g * g * g * g * g
    assert g ** 1 == g and g ** 0 == 1 and type(g ** 0) is int
    assert gaussian(1, 1) ** 4 == -4 and type(gaussian(1, 1) ** 4) is int


# -- the precision contract of the fixed-point ring ----------------------------

CC40, CC80 = complex_field(40), complex_field(80)
N = 4
WORDS = [w for d in range(1, N + 1) for w in W.words_of_weight(d)]
# parts p/q with odd q, so that entering CC40 rounds them
PARTS = st.builds(F, st.integers(-60, 60), st.sampled_from([3, 7, 9, 11, 13, 99]))


def unit_terms(draw, keys):
    """Up to five terms over CC40 on the keys, whose coefficient moduli sum
    to at most 1."""
    terms = draw(st.dictionaries(st.sampled_from(keys), st.tuples(PARTS, PARTS),
                                 min_size=1, max_size=5))
    scale = F(1, 200 * len(terms))  # |re| + |im| <= 120 / 200 per term
    i = CC40.mp.mpc(0, 1)
    return {k: CC40.from_fraction(re * scale) + CC40.from_fraction(im * scale) * i
            for k, (re, im) in terms.items()}


@st.composite
def unit_series(draw, constant=False):
    """A sparse series over CC40 without constant term (or with a real one
    if constant), whose coefficient moduli sum to at most 1."""
    f = unit_terms(draw, WORDS)
    if constant:
        f[()] = CC40.from_fraction(draw(PARTS) / 100)
    return NCSeries(CC40, N, f)


@st.composite
def unit_matrix(draw):
    """M t in one grading variable t, M a 2x2 matrix over CC40 of entry
    moduli summing to at most 1: the shape of solution_matrix_at's letter
    images."""
    keys = [(i, j, 1, 0, 0) for i in range(2) for j in range(2)]
    return MatSeries(CC40, N, unit_terms(draw, keys))


def parts(f, key):
    c = f.numerators.get(key, 0)
    return F(c.real, f.denominator), F(c.imag, f.denominator)


def twin(f):
    """f's stored values over CC80, exactly: CC40's numerators fit its bits."""
    e = 1 - f.denominator.bit_length()
    return type(f)(CC80, f.truncation, {
        k: CC80.mp.mpc(*(CC80.mp.mpf((x, e)) for x in (c.real, c.imag)))
        for k, c in f.numerators.items()})


def ulps(f, g):
    """max |f_k - g_k| in units of 2^-B of f's ring, exactly from the stored
    numerators."""
    worst = 0
    for k in set(f.numerators) | set(g.numerators):
        (a, b), (c, d) = parts(f, k), parts(g, k)
        worst = max(worst, ((a - c) ** 2 + (b - d) ** 2) * f.denominator ** 2)
    return math.sqrt(worst)


def test_twin_is_exact():
    f = NCSeries(CC40, 2, {(0,): CC40.from_fraction(F(1, 3)), (0, 1): CC40.from_fraction(F(2, 7)) - CC40.mp.mpc(0, 1)})
    assert ulps(f, twin(f)) == 0 and CC80.bits > CC40.bits + 100


@settings(max_examples=8)
@given(unit_series(), unit_series(constant=True))
def test_sum_and_product_keep_the_contract(f, g):
    assert ulps(f + g, twin(f) + twin(g)) == 0
    assert ulps(f * g, twin(f) * twin(g)) < 1


def horner_bound(x, coeff):
    """The contract of the walk of sum c_k t^k at x, in units of u: 1 for
    its one rounding, plus |c'_k - c_k| |x|^k per power, c'_k = coeff(k)
    rounded to the nearest multiple of u and |x| the sum of the coefficient
    moduli of the stored x."""
    size, unit = sum(math.hypot(*parts(x, k)) for k in x.numerators), 1 << CC40.bits
    return 1 + sum(float(abs(round(coeff(k) * unit) - coeff(k) * unit)) * size ** k
                   for k in range(1, N + 1))


@settings(max_examples=6)
@given(unit_series())
def test_exp_keeps_the_contract(x):
    # exp, log and inverse: one walk each, at x, at (1 + x) - 1 and at 1 - (1 - x)
    one = x.one_like()
    assert ulps(x.exp(), twin(x).exp()) < horner_bound(x, lambda k: F(1, math.factorial(k)))
    assert ulps((one + x).log(), twin(one + x).log()) < horner_bound(x, lambda k: F((-1) ** (k + 1), k))
    assert ulps((one - x).inverse(), twin(one - x).inverse()) < horner_bound(x, lambda k: 1) == 1


@settings(max_examples=6)
@given(unit_series(constant=True), unit_series(), unit_series(), unit_matrix(), unit_matrix())
def test_walk_keeps_the_contract(f, x, y, mx, my):
    for a, b in ((x, y), (mx, my)):
        assert ulps(f.substitute(a, b), twin(f).substitute(twin(a), twin(b))) < 1


def test_a_coefficient_below_half_a_unit_is_stored_as_zero():
    u = CC40.mp.mpf(2) ** -CC40.bits
    tiny = CC40.mp.mpc(0, u * 0.49)
    f = NCSeries(CC40, 2, {(0,): tiny, (1,): CC40.mp.mpc(u * 0.51, 1), (0, 1): CC40.one})
    assert tiny
    assert set(f.numerators) == {(1,), (0, 1)} and f.coeff((0,)) == 0
    assert f.coeff((1,)) == CC40.mp.mpc(u, 1)


def test_matrix_entries_keep_their_stored_numerators():
    # a third carries B bits in a series, 8 more than a ring number
    x = CSeries(CC40, 2, {(1, 0, 0): F(1, 3), (0, 1, 1): CC40.mp.mpc(1, 1) / 3})
    m = MatSeries.of(x, CSeries.zero(CC40, 3), -x, x * x)
    assert m[0, 0] == x and m[1, 0] == -x and m[1, 1] == x * x and not m[0, 1].numerators
