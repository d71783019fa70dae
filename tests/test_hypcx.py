import gc
import math
import weakref
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from associators import hypcx
from associators import words as W
from associators.graded import max_coeff
from associators.hypcx import (
    MPLEngine,
    euler_transformation_defect,
    fundamental_solution,
    gamma_log_defect,
    gauss_summation_defect,
    hg11_defect,
    hyp2f1,
    kummer_row_defects,
    kz_residual_defect,
    kz_series,
    mzv,
    mzv_direct,
    regularized_table,
    series_terms,
    shuffle_words,
    solution_matrix_at,
)
from associators.rings import complex_field
from test_ncseries import numerator_digest


def test_mzv_pi_oracles():
    with mp.workdps(50):
        assert abs(mzv((2,), 40) - mp.pi ** 2 / 6) < 1e-38
        assert abs(mzv((4,), 40) - mp.pi ** 4 / 90) < 1e-38


def test_mzv_euler_identity():
    with mp.workdps(50):
        assert abs(mzv((1, 2), 40) - mzv((3,), 40)) < 1e-38


def test_mzv_weight_12():
    # one weight-12 series answers every index below it through the cache
    digits = 30
    kz_series(12, digits)
    with mp.workdps(digits + 10):
        zeta12 = mzv((12,), digits)
        assert abs(zeta12 - mpmath.zeta(12)) < 1e-28
        # sum theorem: the admissible depth-3 values of weight 12 add up to zeta(12)
        depth3 = [(i, j, 12 - i - j) for i in range(1, 11) for j in range(1, 11 - i)]
        assert abs(sum(mzv(idx, digits) for idx in depth3) - zeta12) < 1e-26
        # duality: the index of the reversed, letter-swapped word
        dual = W.index_from_word(W.dual_word(W.word_from_index((3, 9))))
        assert dual != (3, 9)
        assert abs(mzv((3, 9), digits) - mzv(dual, digits)) < 1e-28


def test_kz_series_keeps_its_digits():
    # exp/log coefficients such as 1/k! must be rounded at the working
    # precision, not at the nominal digits, or every word loses ~7 digits
    lo, hi = kz_series(8, 40), kz_series(8, 70)
    with mp.workdps(80):
        for n in range(9):
            for w in W.words_of_weight(n):
                assert abs(lo.phi.coeff(w) - hi.phi.coeff(w)) < 1e-45, w


def test_mzv_rejects_non_admissible():
    with pytest.raises(ValueError):
        mzv((2, 1), 30)
    with pytest.raises(ValueError):
        mzv((0, 2), 30)


def test_mzv_direct_sum_cross_check():
    with mp.workdps(30):
        assert abs(mzv_direct((3,), 4000) - mzv((3,), 30)) < 1e-6
        assert abs(mzv_direct((2, 3), 600) - mzv((2, 3), 30)) < 1e-5
        # the measured error bound of mzv_direct at depth 2
        contract = 16 * math.log(3000) / 3000 ** 4
        assert abs(mzv_direct((1, 2), 3000) - mzv((1, 2), 30)) < contract


def test_mzv_direct_needs_enough_sample_points():
    with pytest.raises(ValueError):
        mzv_direct((1, 2), 6)


def phi_at(z, weight, digits):
    """G_10(z)^(-1) G_01(z), G_10(z) = G_01(1 - z)(e1, e0) group-like: the
    MZV generating series from the base point z, which kz_series fixes at 1/2."""
    g10 = fundamental_solution(1 - z, weight, digits).swap_letters()
    return g10.antipode() * fundamental_solution(z, weight, digits)


@pytest.mark.parametrize("z", [F(1, 2), F(3, 10), F(3, 4)], ids=["z=1/2", "z=3/10", "z=3/4"])
def test_kz_series_quadratic_and_linear_terms(z):
    # the engines at z and at 1 - z round log z and log(1 - z) alike, so the
    # linear terms of G_10^(-1) G_01 cancel exactly at every point
    cand = kz_series(4, 40)
    phi = phi_at(z, 4, 40)
    if z == F(1, 2):
        assert phi == cand.phi
    with mp.workdps(50):
        assert abs(phi.coeff((0,)) ) == 0
        assert abs(phi.coeff((1,)) ) == 0
        target = cand.mu ** 2 / 24
        assert abs(phi.coeff((0, 1)) - target) < 1e-38
        assert abs(target + mp.pi ** 2 / 6) < 1e-45


def test_kz_series_two_cycle_and_grouplike():
    from associators.associator import two_cycle_defect

    cand = kz_series(5, 40)
    assert two_cycle_defect(cand.phi) < 1e-35
    assert cand.phi.is_grouplike(tol=1e-35)
    assert not cand.phi.is_even(tol=1e-35)


def test_kz_series_pentagon_numeric():
    from associators.associator import check_associator
    from associators.pentagon import P5Quotient

    q4 = P5Quotient(4)
    cand = kz_series(4, 40)
    rep = check_associator(cand, q4, tol=1e-30, pentagon_degree=4)
    assert rep["pentagon"] and rep["quadratic"] and rep["two_cycle"] and rep["three_cycle"]


def test_exact_solver_degree_four_matches_kz(even_candidate):
    # phi(e0/mu, e1/mu) is a unitary associator.  At degree 4 the pentagon
    # has no free parameter and its residual does not see the degree-3
    # part, so the even solution shares the degree-4 logarithm with it.
    kz = kz_series(4, 40)
    exact = even_candidate.phi.log()
    kz_log = kz.phi.log()
    mu4 = kz.mu ** 4
    for w in W.words_of_weight(4):
        assert abs(exact.coeff(w) - kz_log.coeff(w) / mu4) < 1e-30, w


def test_kz_series_independent_of_base_point():
    base = kz_series(4, 35)
    for z in (F(3, 10), F(3, 4)):
        assert max_coeff(phi_at(z, 4, 35) - base.phi) < 1e-30


def test_fundamental_solution_normalisation():
    # the analytic factor has no e0 coefficient: (G|e0) is exactly log z
    g = fundamental_solution(F(1, 2), 3, 30)
    with mp.workdps(40):
        assert abs(g.coeff((0,)) - mp.log(mp.mpf(1) / 2)) < 1e-28
        # coefficient of e1 is log(1-z)
        assert abs(g.coeff((1,)) - mp.log(mp.mpf(1) / 2)) < 1e-28


def test_mpl_engine_log_series():
    eng = MPLEngine(30, series_terms(F(1, 2), 30))
    cs = eng.coeff_series((1,))
    with mp.workdps(40):
        for n in (1, 2, 5):
            assert abs(mp.ldexp(cs[n], -eng.prec) + mp.mpf(1) / n) < 1e-35


@pytest.mark.parametrize("z", [F(3, 10), F(1, 2), F(7, 10)])
def test_mpl_engine_polylog_and_log_power_oracles(z):
    # h of e0^(k-1) e1 is -Li_k(z) and h of e1^k is log(1 - z)^k / k!; the
    # bound is the precision contract of MPLEngine for a word of length k
    digits = 40
    eng = MPLEngine(digits, series_terms(z, digits))
    with mp.workdps(digits + 20):
        zz = mp.mpf(z.numerator) / z.denominator
        for k in range(1, 6):
            bound = 2 ** (k + 1) * mp.mpf(10) ** -(digits + 10) / (1 - zz)
            polylog = eng.h_coefficient((0,) * (k - 1) + (1,), z)
            assert abs(polylog + mpmath.polylog(k, zz)) < bound, k
            log_power = eng.h_coefficient((1,) * k, z)
            assert abs(log_power - mp.log(1 - zz) ** k / mp.factorial(k)) < bound, k


def test_series_terms_size_the_point(monkeypatch):
    # series_terms(z) sizes G_01 at z alone: at 3/10 and at 7/10, which
    # needs more terms, it must match a far longer engine
    assert series_terms(F(3, 10), 40) < series_terms(F(7, 10), 40) < 600
    for z in (F(3, 10), F(7, 10)):
        sized = fundamental_solution(z, 8, 40)
        with monkeypatch.context() as m:
            m.setattr(hypcx, "series_terms", lambda z, digits: 600)
            long = fundamental_solution(z, 8, 40)
        assert max_coeff(sized - long) < 1e-38


def test_connection_relation_gives_the_10_solution():
    # G_01 = G_10 phi_KZ (Drinfeld), the route of solution_matrix_at, against
    # G_10 evaluated at 1 - z
    g01 = fundamental_solution(F(3, 10), 8, 40)
    g10 = fundamental_solution(F(7, 10), 8, 40).swap_letters()
    assert max_coeff(g01 * kz_series(8, 40).phi.antipode() - g10) < 1e-45


def test_one_mpl_pass_per_point(monkeypatch):
    sizes, calls = [], []

    class Recorded(MPLEngine):
        def __init__(self, *args):
            super().__init__(*args)
            sizes.append(self.nterms)

        def horner(self, word, z):
            calls.append((word, z))
            return super().horner(word, z)

    monkeypatch.setattr(hypcx, "MPLEngine", Recorded)
    monkeypatch.setattr(hypcx, "_PHI_CACHE", {})
    kz_series(5, 33)  # phi cached, as after a solve
    sizes.clear()
    # one engine, sized for z = 3/10 alone: G_10 comes from G_01 and phi
    solution_matrix_at.__wrapped__(F(1, 10), F(1, 5), F(23, 20), F(3, 10), 5, 33)
    assert sizes == [series_terms(F(3, 10), 33)] and sizes[0] < series_terms(F(7, 10), 33)
    # at z = 1 - z, one engine and one Horner evaluation per word ending in
    # e1 but (1,), whose coefficient is log(1 - z); none for a word ending
    # in e0, which the shuffle with e0 gives
    sizes.clear()
    calls.clear()
    kz_series(6, 33)
    assert sizes == [series_terms(F(1, 2), 33)]
    assert sorted(calls) == [(w, F(1, 2)) for w in sorted(W.all_words(6))
                             if w and w[-1] == W.E1 and w != (1,)]


def test_mpl_engine_keeps_one_path(monkeypatch):
    # the engine holds the lists of the current path of its walk only: the
    # empty word and at most one word of each length, never 2^(w+1) - 1
    peak = []

    class Recorded(MPLEngine):
        def coeff_series(self, word):
            got = super().coeff_series(word)
            peak.append(len(self._memo))
            return got

    monkeypatch.setattr(hypcx, "MPLEngine", Recorded)
    monkeypatch.setattr(hypcx, "_PHI_CACHE", {})
    kz_series(8, 33)
    assert 8 < max(peak) <= 8 + 1
    with pytest.raises(ValueError):
        MPLEngine(33, 50).coeff_series((1, 0))
    with pytest.raises(ValueError):
        MPLEngine(33, 50).coeff_series((0,))


@pytest.mark.parametrize("z", [F(3, 10), F(1, 2), F(7, 10)])
def test_fundamental_solution_keeps_its_bound_on_every_word(z):
    # against the same call at 80 digits, on the stored numerators exactly,
    # including every word ending in e0 (the shuffle fill); the bound is
    # fundamental_solution's: d_0 X^k / k! for k trailing e0s, plus the
    # final rounding to 2^-B, for each of the two calls
    weight, digits = 10, 40
    lo, hi = fundamental_solution(z, weight, digits), fundamental_solution(z, weight, 80)
    ell = -math.log(z)
    X = 1 + ell + weight

    def bound(dg, k, B):
        d0 = F(2 ** (weight + 1)) / 10 ** (dg + 10) / (1 - z)
        return d0 * F(X) ** k / math.factorial(k) + F(1, 2 ** (B + 1))

    B_lo, B_hi = (g.denominator.bit_length() - 1 for g in (lo, hi))
    worst = 0
    for w in W.all_words(weight):
        k = next((i for i, x in enumerate(reversed(w)) if x != W.E0), len(w))  # trailing e0s
        err = abs(F(lo.numerators.get(w, 0), lo.denominator) - F(hi.numerators.get(w, 0), hi.denominator))
        assert err <= bound(digits, k, B_lo) + bound(80, k, B_hi), w
        worst = max(worst, err)
    # the bound is loose: the final rounding to 2^-B dominates the error
    assert worst < F(1, 10 ** 50)
    assert lo.is_grouplike(1e-45)


def test_no_engine_outlives_its_call(monkeypatch):
    engines = []

    class Recorded(MPLEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(hypcx, "MPLEngine", Recorded)
    monkeypatch.setattr(hypcx, "_PHI_CACHE", {})
    kz_series(5, 33)
    solution_matrix_at(F(1, 10), F(1, 5), F(23, 20), F(3, 10), 5, 33)
    gc.collect()
    assert len(engines) == 2
    assert [ref() for ref in engines] == [None, None]


def test_kz_series_keeps_the_highest_weight_per_digits(monkeypatch):
    cache = {}
    monkeypatch.setattr(hypcx, "_PHI_CACHE", cache)
    kz_series(5, 27)
    three = kz_series(3, 27)
    assert list(cache) == [27] and cache[27].truncation == 5
    assert three.truncation == 3 and three.phi == cache[27].phi.truncate(3)
    kz_series(6, 27)
    assert list(cache) == [27] and cache[27].truncation == 6


def test_kz_series_keeps_its_bits(monkeypatch):
    # G_10^(-1) is one signed word map of G_01(1 - z): w -> dual w, sign
    # (-1)^|w|; these are the bits of the letter swap, the sign and the
    # reversal it replaced
    monkeypatch.setattr(hypcx, "_PHI_CACHE", {})
    assert numerator_digest(kz_series(8, 40).phi) == "5b80557fb43a6919"
    assert numerator_digest(kz_series(12, 40).phi) == "98c86ef8eac4994d"


@pytest.mark.parametrize("call", [
    pytest.param(lambda: fundamental_solution(0, 3, 20), id="fundamental_solution,z=0"),
    pytest.param(lambda: fundamental_solution(1, 3, 20), id="fundamental_solution,z=1"),
    pytest.param(lambda: kz_residual_defect(F(1, 2), 3, 20, F(1, 2)), id="residual,z-step=0"),
])
def test_points_outside_the_interval_raise_value_error(call):
    # the point is checked before any engine is sized from it
    with pytest.raises(ValueError):
        call()


def test_kz_residual_decreases_quadratically():
    d1 = kz_residual_defect(F(2, 5), 4, 30, F(1, 10 ** 6))
    d2 = kz_residual_defect(F(2, 5), 4, 30, F(1, 10 ** 7))
    assert d1 < 1e-9
    assert d2 < d1 / 10


def test_shuffle_words():
    sh = shuffle_words((1,), (0, 1))
    assert sh == {(1, 0, 1): 1, (0, 1, 1): 2}
    assert sum(shuffle_words((0, 1), (0, 1)).values()) == 6


def test_regularization_shapes_on_kz_coefficients():
    cand = kz_series(4, 40)
    phi = cand.phi
    with mp.workdps(50):
        # shuffle peeling: I(e1 e0) = -I(e0 e1), I(e1 e0 e1) = -2 I(e0 e1 e1)
        assert abs(phi.coeff((1, 0)) + phi.coeff((0, 1))) < 1e-38
        assert abs(phi.coeff((1, 0, 1)) + 2 * phi.coeff((0, 1, 1))) < 1e-38


def test_regularized_table_exact_on_kz_coefficients():
    # exact convergent-word values isolate the shuffle peeling: every word
    # of weight <= 4 must come out to the working precision
    cand = kz_series(4, 40)
    base = {w: cand.phi.coeff(w) for n in range(2, 5) for w in W.words_of_weight(n)
            if w[0] == W.E0 and w[-1] == W.E1}
    with mp.workdps(50):
        table = regularized_table(base, 4)
        for n in range(5):
            for w in W.words_of_weight(n):
                assert abs(table[w] - cand.phi.coeff(w)) < 1e-30, (w,)


def test_regularized_table_matches_kz_coefficients():
    # base values from slow direct sums only (independent of the product
    # route), regularized by shuffle peeling, compared on every word
    cand = kz_series(4, 40)
    base = {}
    for n in range(2, 5):
        for w in W.words_of_weight(n):
            if w[0] == W.E0 and w[-1] == W.E1:
                idx = W.index_from_word(w)
                val = mzv_direct(idx, 800)
                base[w] = float(val) * (-1) ** len(idx)
    table = regularized_table(base, 4)
    with mp.workdps(40):
        for n in range(5):
            for w in W.words_of_weight(n):
                assert abs(table[w] - cand.phi.coeff(w)) < 2e-3, (w,)


def test_hyp2f1_values():
    with mp.workdps(50):
        assert hyp2f1(F(3, 10), F(7, 10), F(6, 5), 0, 40) == 1
        v = hyp2f1(1, 1, 2, F(1, 2), 40)
        expect = -mp.log(mp.mpf(1) / 2) * 2
        assert abs(v - expect) < 1e-38
    with pytest.raises(ValueError):
        hyp2f1(F(1, 10), F(1, 5), -1, F(1, 2), 30)
    with pytest.raises(ValueError):
        hyp2f1(F(1, 10), F(1, 5), F(11, 10), 2, 30)
    with pytest.raises(ValueError):
        # z = 1 needs Re(c - a - b) > 0
        hyp2f1(2, 3, 4, 1, 30)


def gamma_quotient(a, b, c):
    return mpmath.gamma(c) * mpmath.gamma(c - a - b) / (mpmath.gamma(c - a) * mpmath.gamma(c - b))


COMPLEX_ABC = (mpmath.mpc("0.3", "0.2"), mpmath.mpc("0.1", "-0.4"), mpmath.mpc("1.2", "0.1"))
KUMMER_Z = 1 - complex_field(40).from_fraction(F(3, 10))  # 7/10 as a 168-bit dyadic


@pytest.mark.parametrize("a, b, c, z, digits", [
    # s = 1/5: the Euler-Maclaurin tail was 3e-16 off here
    pytest.param(F(1, 10), F(1, 5), F(1, 2), 1, 40, id="s=1/5"),
    pytest.param(*COMPLEX_ABC, 1, 40, id="complex"),
    pytest.param(2, 3, 6, 1, 40, id="s=1"),
    pytest.param(F(1, 2), F(1, 2), F(21, 20), 1, 40, id="s=1/20"),
    pytest.param(F(-13, 10), F(1, 5), F(-1, 2), 1, 40, id="Re-c<0"),
    pytest.param(F(1, 10), F(1, 5), F(11, 10), F(3, 10), 40, id="z=3/10"),
    pytest.param(*COMPLEX_ABC, F(3, 10), 100, id="z=3/10,complex,100"),
    # each case below failed at the last fit-based z = 1 route or stop rule
    pytest.param(*COMPLEX_ABC, F(7, 10), 40, id="z=7/10,complex"),  # 1.8 times over
    pytest.param(F(1, 10), F(1, 5), F(11, 10), F(7, 10), 100, id="z=7/10,100"),
    pytest.param(F(1, 2), F(1, 3), F(5, 4), F(99, 100), 40, id="z=99/100"),  # 97 times over
    pytest.param(F(1, 2), F(1, 3), F(5, 4), F(99, 100), 100, id="z=99/100,100"),
    pytest.param(2, 3, 6, 1, 100, id="s=1,100"),  # raised at its term cap
    pytest.param(F(1, 10), F(1, 5), F(1, 2), 1, 100, id="s=1/5,100"),
    # a terminating sum, 1.5e-41 off and no raise
    pytest.param(mpmath.mpc(40, 3), -45, F(3, 2), 1, 40, id="terminating"),
    pytest.param(mpmath.mpc(40, 3), -45, F(3, 2), 1, 100, id="terminating,100"),
    pytest.param(30, mpmath.mpc(0, 30), 31, 1, 40, id="imaginary-b"),
    pytest.param(30, mpmath.mpc(0, 30), 31, 1, 100, id="imaginary-b,100"),
    # |F| = 6e31: the contract stays absolute, the working digits grow
    pytest.param(60, 50, 111, 1, 40, id="large-F"),
    pytest.param(60, 50, 111, 1, 100, id="large-F,100"),
    pytest.param(30, mpmath.mpc(0, 30), 31, 1, 200, id="imaginary-b,200"),
    pytest.param(60, 50, 111, 1, 200, id="large-F,200"),
    # complex z off the real segment, and 1 - z as the Kummer rows pass it
    pytest.param(*COMPLEX_ABC, mpmath.mpc("0.3", "0.4"), 40, id="z=0.3+0.4i"),
    pytest.param(*COMPLEX_ABC, mpmath.mpc("0.3", "0.4"), 100, id="z=0.3+0.4i,100"),
    pytest.param(*COMPLEX_ABC, KUMMER_Z, 40, id="z=1-3/10,ring"),
    pytest.param(*COMPLEX_ABC, KUMMER_Z, 100, id="z=1-3/10,ring,100"),
    pytest.param(-5, F(1, 3), F(5, 4), F(9, 10), 40, id="terminating,z=9/10"),
    pytest.param(-5, F(1, 3), F(5, 4), F(9, 10), 100, id="terminating,z=9/10,100"),
    # the terms grow to 1.3e9 before they fall, and F is 6.5e10; c - a - b
    # is not an integer, where mpmath's own value would take seconds
    pytest.param(30, 30, F(121, 2), F(9, 10), 40, id="growing,z=9/10"),
    pytest.param(30, 30, F(121, 2), F(9, 10), 100, id="growing,z=9/10,100"),
    pytest.param(*COMPLEX_ABC, 0, 40, id="z=0"),
    pytest.param(*COMPLEX_ABC, 0, 100, id="z=0,100"),
    # c next to a pole: a non-integer real c, and c off the real line
    pytest.param(F(1, 10), F(1, 5), F(-5, 2), F(3, 10), 40, id="c=-5/2"),
    pytest.param(F(1, 10), F(1, 5), mpmath.mpc(-3, 0.1), F(3, 10), 40, id="c=-3+i/10"),
])
def test_hyp2f1_at_one_keeps_its_contract(a, b, c, z, digits):
    """The absolute error is below 10^-(digits + 10): at z = 1 against the
    gamma quotient, at |z| < 1 against mpmath's own hyp2f1, both at 160
    digits, or at digits + 80 above 80."""
    with mp.workdps(max(160, digits + 80)):
        args = [mpmath.mpf(x.numerator) / x.denominator if isinstance(x, F) else mpmath.mpc(x)
                for x in (a, b, c, z)]
        exact = gamma_quotient(*args[:3]) if z == 1 else mpmath.hyp2f1(*args)
        assert abs(hyp2f1(a, b, c, z, digits) - exact) < mpmath.mpf(10) ** -(digits + 10)


@pytest.mark.parametrize("a, b, c, shifts", [
    (60, 50, 111, 448),  # 71 from |a| + |b| alone, then 3674 terms
    (mpmath.mpc(0, 60), mpmath.mpc(0, 50), 5, 554),  # 176, then about 1900 terms
    (F(3, 20), F(3, 20), F(59, 50), 71),  # kz_numeric8's largest |a||b|: unchanged
    (2, 3, 6, 71),
    # |a| + |b| - Re c is 2 and 0 exactly, so m reads the rounding of A and
    # B: up by the ceiling of 2^32 |a| on the real line, by the + 1 off it
    (F(-7, 3), F(2, 3), 1, 74),
    (mpmath.mpc(0.375, 0.5), F(3, 8), 1, 72),
])
def test_hyp2f1_at_one_shifts_c_by_the_product_of_a_and_b(a, b, c, shifts, monkeypatch):
    """m, the number of factors of P, also grows with |a||b|: Re c + m
    reaches sqrt(2 |a| |b| (digits + 12)), where the terms no longer grow
    for long before they fall.  Seen as the m that P is formed with."""
    seen, prefactor = [], hypcx._gauss_prefactor

    def spy(alpha, beta, gamma, den, m, bits):
        seen.append(m)
        return prefactor(alpha, beta, gamma, den, m, bits)

    monkeypatch.setattr(hypcx, "_gauss_prefactor", spy)
    hyp2f1(a, b, c, 1, 40)
    assert seen[0] == shifts


@pytest.mark.parametrize("z", [F(7, 10), 1])
@pytest.mark.parametrize("digits", [40, 100])
def test_hyp2f1_takes_mpc_and_fraction_parameters_alike(z, digits):
    """(a, b, c) as Fractions and as 160-digit mpc numbers, which differ
    by about 10^-160: each value keeps the contract, so they agree within
    twice its bound."""
    abc = (F(1, 10), F(1, 5), F(23, 20))
    with mp.workdps(160):
        as_mpc = [mpmath.mpc(x.numerator) / x.denominator for x in abc]
        exact = gamma_quotient(*as_mpc) if z == 1 else mpmath.hyp2f1(*as_mpc, mpmath.mpf(7) / 10)
        eps = mpmath.mpf(10) ** -(digits + 10)
        by_mpc, by_fraction = hyp2f1(*as_mpc, z, digits), hyp2f1(*abc, z, digits)
        assert abs(by_mpc - exact) < eps
        assert abs(by_mpc - by_fraction) < 2 * eps


@pytest.mark.parametrize("a, c, z", [
    pytest.param(F(1, 10), -3, F(3, 10), id="c=-3"),
    pytest.param(F(1, 10), F(-6, 2), F(3, 10), id="c=-6/2"),
    pytest.param(F(1, 10), mpmath.mpc(-3), F(3, 10), id="c=mpc(-3)"),
    # a polynomial in z, whose sum would end: |z| = 1 off z = 1 still raises
    pytest.param(-2, F(11, 10), mpmath.mpc(0, 1), id="z=i"),
])
def test_hyp2f1_refuses_a_pole_of_c_and_z_on_the_unit_circle(a, c, z):
    with pytest.raises(ValueError):
        hyp2f1(a, F(1, 5), c, z, 40)


def test_hyp2f1_reads_its_inputs_exactly():
    """A float, a complex, an mpf and a Fraction of one value give the same
    bits; z = 0 gives exactly 1, and z = 1 as an mpc is z = 1; an infinity
    is refused."""
    by_fraction = hyp2f1(F(1, 2), F(1, 4), F(3, 2), F(3, 4), 40)
    assert hyp2f1(0.5, complex(0.25, 0), mpmath.mpf(1.5), mpmath.mpc(0.75), 40) == by_fraction
    assert all(hyp2f1(*COMPLEX_ABC, 0, digits) == 1 for digits in (40, 100))
    # outside the z = 1 path, |z| < 1 would raise
    abc = (F(1, 10), F(1, 5), F(1, 2))
    assert hyp2f1(*abc, mpmath.mpc(1), 40) == hyp2f1(*abc, 1, 40)
    with pytest.raises(ValueError):
        hyp2f1(mpmath.inf, 1, 2, F(1, 2), 40)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__")


def test_hyp2f1_sums_on_integers(monkeypatch):
    """No term of the sum goes through mpmath: one call makes as many
    mpmath operations at z = 3/10 and 40 digits as at z = 99/100 and 100
    digits, with over a hundred times the terms."""
    ops = []
    for cls in (mpmath.ctx_mp_python._mpf, mpmath.ctx_mp_python._mpc):
        for name in ARITHMETIC:
            def spy(*args, method=getattr(cls, name)):
                ops.append(method)
                return method(*args)

            monkeypatch.setattr(cls, name, spy)
    counts = []
    for z, digits in ((F(3, 10), 40), (F(99, 100), 100)):
        del ops[:]
        hyp2f1(*COMPLEX_ABC, z, digits)
        counts.append(len(ops))
    assert counts[0] == counts[1] <= 4


def test_gauss_summation():
    assert gauss_summation_defect(F(1, 10), F(1, 5), 3, 50) < 1e-20


def test_euler_transformation():
    assert euler_transformation_defect(F(1, 10), F(1, 5), F(11, 10), F(3, 10), 50) < 1e-30


def test_hg11():
    assert hg11_defect(F(1, 100), F(1, 50), F(101, 100), F(1, 5), 8, 50) < 1e-10


def test_kummer_rows():
    args = (F(1, 10), F(1, 5), F(23, 20), F(3, 10), 8, 40)
    rows = kummer_row_defects(*args)
    # weight-8 truncation limits these to the size of the weight-9 tail
    assert all(v < 1e-5 for v in rows.values()), rows
    # both read entry (0,0) of the same 01 solution matrix
    assert rows["01_left"] == hg11_defect(*args)


def _mul2(m, n):
    """The product of two 2x2 matrices held as (e00, e01, e10, e11)."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def solution_matrices_word_by_word(a, b, c, z, weight, digits):
    """The oracle of solution_matrix_at: sum over the words w of G_01 and
    G_10 of (G | w) times the product of X0 and -Y0 along w, on plain
    ring numbers, then the column mixes.  G_10 is evaluated at 1 - z."""
    g01 = fundamental_solution(z, weight, digits)
    g10 = fundamental_solution(1 - z, weight, digits).swap_letters()
    ring = g01.ring
    zero, one = ring.zero, ring.one
    a, b, c = (ring.from_fraction(x) for x in (a, b, c))
    p, q = 1 - c, a + b + 1 - c
    letters = ((zero, b, zero, p), (zero, zero, -a, -q))
    products = {(): (one, zero, zero, one)}
    for w in list(W.all_words(weight))[1:]:
        products[w] = _mul2(products[w[:-1]], letters[w[-1]])
    out = []
    for g, mix in ((g01, (one, one, zero, p / b)), (g10, (one, zero, -a / q, (q - 1) / b))):
        acc = [zero] * 4
        for w, coeff in g.terms.items():
            acc = [s + coeff * x for s, x in zip(acc, products[w])]
        out.append(_mul2(acc, mix))
    return out


@pytest.mark.parametrize("args, tol", [
    # at 33 digits the ring's numbers carry 43 digits, whose last place
    # (about 1e-44 at entries near 1) bounds any agreement
    ((F(1, 10), F(1, 5), F(23, 20), F(3, 10), 5, 33), 1e-42),
    ((F(2, 25), F(7, 50), F(28, 25), F(3, 10), 8, 40), 1e-45),
])
def test_solution_matrices_match_the_word_by_word_oracle(args, tol):
    # uncached, so that test_no_engine_outlives_its_call finds its point cold
    got = solution_matrix_at.__wrapped__(*args)
    for v, e in zip(got, solution_matrices_word_by_word(*args)):
        assert max(abs(v[i, j] - e[2 * i + j]) for i in range(2) for j in range(2)) < tol


def test_gamma_log_matches_zeta_backend():
    assert gamma_log_defect(6, 40) < 1e-30
