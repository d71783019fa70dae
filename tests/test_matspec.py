import hashlib
import random

from fractions import Fraction

import pytest

from associators import matspec
from associators import words as W
from associators.associator import GTElement, gt_from_pair
from associators.cseries import CSeries, ExactDivisionError, max_cseries_coeff
from associators.gammafn import gamma_even, gamma_of_associator, GammaSeries
from associators.hypcx import kz_series
from associators.matspec import (
    ThetaMap,
    V_STARS,
    appendix_entry_relations,
    cocycle_image,
    ev_at,
    ev_xy,
    first_entry_mismatch,
    first_row,
    formal_gauss_identity,
    formal_gauss_oracle,
    gamma_matrix_plus,
    gamma_ratio_matrix,
    n_plus_matrix,
    ohno_zagier_exponential,
    ohno_zagier_sum,
    swap_invariance_defect,
    transformation_identities,
    v_matrix,
    weighted_sum_identities,
    word_entry_closed_form,
    xy_matrices,
)
from associators.graded import max_coeff
from associators.mat2 import MatSeries
from associators.ncseries import NCSeries, bracket, lie_element
from associators.rings import QQ, complex_field
from associators.words import zeta_value


def random_grouplike(rng, n, start=1):
    coords = {}
    for d in range(start, n + 1):
        for lw, _ in W.lie_basis(d):
            coords[lw] = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
    return lie_element(QQ, n, coords).exp()


# -- evaluation ----------------------------------------------------------------


def test_ev_unit_and_single_word():
    one = ev_xy(NCSeries.one(QQ, 3))
    assert one[0, 0] == CSeries.one(QQ, 3)
    assert one[0, 1] == CSeries.zero(QQ, 3)

    a, b, p, q = CSeries.gens(QQ, 3)
    w = NCSeries(QQ, 3, {(0, 1): Fraction(1)})
    m = ev_xy(w)
    assert m[0, 0] == -(a * b)
    assert m[0, 1] == -(b * q)
    assert m[1, 0] == -(a * p)
    assert m[1, 1] == -(p * q)


def test_ev_of_quadratic_bracket():
    e0 = NCSeries.letter(QQ, 4, 0)
    e1 = NCSeries.letter(QQ, 4, 1)
    f = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    m = ev_xy(f)
    a, b, p, q = CSeries.gens(QQ, 4)
    inv24 = Fraction(1, 24)
    assert {k: v for k, v in m[0, 0].terms.items() if sum(k) == 2} == \
        (-(a * b)).scale(inv24).terms
    assert {k: v for k, v in m[1, 1].terms.items() if sum(k) == 2} == \
        (a * b).scale(inv24).terms


def test_word_closed_forms_against_direct_products():
    x, y = xy_matrices(QQ, 5)
    for w in W.all_words(5):
        f = NCSeries(QQ, 5, {w: Fraction(1)})
        direct = ev_at(f, x, -y)
        for entry in ((0, 0), (0, 1), (1, 0)):
            assert word_entry_closed_form(QQ, 5, w, entry) == direct[entry[0], entry[1]]


def test_det_one_for_commutator_grouplike():
    rng = random.Random(33)
    for _ in range(5):
        g = random_grouplike(rng, 4, start=2)
        m = ev_xy(g)
        assert m.det() == CSeries.one(QQ, 4)


# -- gamma matrix ------------------------------------------------------------------


def test_gamma_matrix_of_trivial_gamma_is_identity_but_inner_matrix_is_not_polynomial():
    gm = gamma_ratio_matrix(GammaSeries.one(QQ, 8), 4)
    one = CSeries.one(QQ, 4)
    zero = CSeries.zero(QQ, 4)
    assert gm.m[0, 0] == one and gm.m[1, 1] == one
    assert gm.m[0, 1] == zero and gm.m[1, 0] == zero
    # the raw inner-matrix row 2 entries carry the pq denominator: dividing
    # ab * (ratio) by pq fails on the ab monomial
    a, b, p, q = CSeries.gens(QQ, 4)
    with pytest.raises(ExactDivisionError):
        ((a * b) * GammaSeries.one(QQ, 8).ratio(-p, q, a, b)).divide_exact("pq")


def test_gamma_matrix_plus_entries_and_det():
    gm = gamma_matrix_plus(8)
    assert gm.det_is_one
    a, b, p, q = CSeries.gens(QQ, 8)
    m11_deg2 = {k: v for k, v in gm.m[0, 0].terms.items() if sum(k) == 2}
    assert m11_deg2 == {(1, 1, 0): Fraction(-1, 24)}
    m12_deg2 = {k: v for k, v in gm.m[0, 1].terms.items() if sum(k) == 2}
    assert m12_deg2 == (-(b * q)).scale(Fraction(1, 24)).terms


def test_even_brace_divisible_by_p_at_degree_6():
    g = gamma_even(8)
    a, b, p, q = CSeries.gens(QQ, 6)
    brace = g.ratio(p, -q, -a, -b) - g.ratio(-p, -q, -p - a, -p - b)
    brace.divide_exact("p")  # raises on failure


def test_varphi_equals_gamma_matrix_even(q5, even_candidate):
    from associators.matspec import varphi_equals_gamma_matrix

    rep, lhs, gm = varphi_equals_gamma_matrix(even_candidate)
    assert rep["equal"] and rep["det_is_one"] and rep["first_mismatch"] is None
    # even case coincides with the even gamma matrix
    plus = gamma_matrix_plus(even_candidate.truncation)
    assert first_entry_mismatch(gm.m, plus.m) is None
    assert first_entry_mismatch(lhs, plus.m) is None


def test_varphi_equals_gamma_matrix_skew(skew_candidate):
    from associators.matspec import varphi_equals_gamma_matrix

    rep, _, _ = varphi_equals_gamma_matrix(skew_candidate)
    assert rep["equal"] and rep["det_is_one"]


def test_first_entry_mismatch_reports_monomial():
    a, b, p, q = CSeries.gens(QQ, 3)
    from associators.mat2 import MatSeries

    m1 = MatSeries.of(CSeries.one(QQ, 3), a, b, p)
    m2 = MatSeries.of(CSeries.one(QQ, 3), a, b + a * p, p)
    where = first_entry_mismatch(m1, m2)
    assert where[0] == (1, 0)
    assert where[1] == (1, 0, 1)


# -- Ohno-Zagier ----------------------------------------------------------------------


def test_ohno_zagier_boundary_resolution(even_candidate):
    phi = even_candidate.phi
    target = ev_xy(phi)[0, 0]
    assert ohno_zagier_sum(phi) == target
    # over words k >= n + s always holds; the strict reading k > n + s is the
    # sum of phi without its words of weight k = n + s, and it misses target
    strict = NCSeries(QQ, 5, {w: c for w, c in phi.terms.items()
                              if len(w) != W.depth(w) + W.height(w)})
    assert not (ohno_zagier_sum(strict) == target)
    # the exponential side is the same series
    assert ohno_zagier_exponential(phi) == target


def test_zeta_value_convention(even_candidate):
    phi = even_candidate.phi
    assert zeta_value(phi, (2,)) == -phi.coeff((0, 1))
    assert zeta_value(phi, (2,)) == Fraction(-1, 24)
    assert zeta_value(phi, (1, 2)) == phi.coeff((0, 1, 1))


def test_ohno_zagier_sum_random():
    rng = random.Random(44)
    for _ in range(5):
        g = random_grouplike(rng, 4)
        assert ohno_zagier_sum(g) == ev_xy(g)[0, 0]


def test_ohno_zagier_sum_keeps_the_constant_term():
    # not group-like, constant term 3
    f = NCSeries(QQ, 4, {(): Fraction(3), (0, 1): Fraction(2), (0, 0, 1, 1): Fraction(-1, 5),
                         (0, 1, 0, 1): Fraction(7), (1, 0): Fraction(4)})
    assert ohno_zagier_sum(f) == ev_xy(f)[0, 0]


# -- theta map and solution matrices ------------------------------------------------------


def test_theta_unit_and_x0(even_candidate):
    theta = ThetaMap(4)
    assert theta.formal_2f1([]) == CSeries.one(QQ, 4)
    img = theta([("x0", 1)])
    assert img[0, 0] == CSeries.one(QQ, 4)  # exp(X) is unipotent in column 1
    assert theta.formal_2f1(NCSeries.one(QQ, 4)) == CSeries.one(QQ, 4)


def test_theta_is_the_01_solution():
    theta = ThetaMap(4)
    g = random_grouplike(random.Random(5), 4)
    assert cocycle_image(g, "01", theta=theta) == theta(g)


def test_theta_rejects_a_gamma_matrix_of_another_truncation_or_ring():
    with pytest.raises(ValueError):
        ThetaMap(8, gamma_matrix=gamma_matrix_plus(4))
    with pytest.raises(ValueError):
        ThetaMap(4, complex_field(20), gamma_matrix=gamma_matrix_plus(4))
    theta = ThetaMap(4, gamma_matrix=gamma_matrix_plus(4))
    assert theta.x.truncation == theta.log_image1.truncation == 4


def test_theta_factors_through_comp_fake(even_candidate):
    from associators.associator import comp_fake

    rng = random.Random(55)
    theta = ThetaMap(5)
    for _ in range(30):
        word = [(rng.choice(["x0", "x1"]), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(1, 4))]
        via_theta = theta(word)
        via_iota = ev_xy(comp_fake(even_candidate, word))
        assert first_entry_mismatch(via_theta, via_iota) is None


def test_n_plus_for_trivial_series_and_tiebreak_independence(q5, even_candidate):
    n = n_plus_matrix(NCSeries.one(QQ, 4))
    assert n[0, 0] == CSeries.one(QQ, 4)
    assert n[0, 1] == CSeries.zero(QQ, 4)

    from associators.associator import solve_unitary

    lex_cand, _ = solve_unitary(5, q5, tiebreak="lex", even=True)
    n1 = n_plus_matrix(even_candidate.phi)
    n2 = n_plus_matrix(lex_cand.phi)
    assert first_entry_mismatch(n1, n2) is None


def test_v_matrices_identity_cocycle(even_candidate):
    theta = ThetaMap(4)
    npl = n_plus_matrix(even_candidate.phi.truncate(4))
    one = NCSeries.one(QQ, 4)
    a, b, p, q = CSeries.gens(QQ, 4)
    v01 = v_matrix(one, "01", theta=theta, n_plus=npl)
    assert v01[0, 0] == b and v01[0, 1] == b
    assert v01[1, 0] == CSeries.zero(QQ, 4) and v01[1, 1] == p

    v10 = v_matrix(one, "10", theta=theta, n_plus=npl)
    assert v10[0, 0] == b * q
    assert v10[1, 0] == -(a * b)


def test_v_matrix_homomorphism_in_g(even_candidate):
    rng = random.Random(66)
    theta = ThetaMap(4)
    npl = n_plus_matrix(even_candidate.phi.truncate(4))
    for star in V_STARS:
        for _ in range(3):
            g1 = random_grouplike(rng, 4)
            g2 = random_grouplike(rng, 4)
            raw_prod = cocycle_image(g1 * g2, star, theta=theta, n_plus=npl)
            raw1 = cocycle_image(g1, star, theta=theta, n_plus=npl)
            raw2 = cocycle_image(g2, star, theta=theta, n_plus=npl)
            assert first_entry_mismatch(raw_prod, raw1 * raw2) is None
            # and the column-mixed matrix inherits it: V(g1 g2) = G(g1) V(g2)
            v_prod = v_matrix(g1 * g2, star, theta=theta, n_plus=npl)
            v2 = v_matrix(g2, star, theta=theta, n_plus=npl)
            assert first_entry_mismatch(v_prod, raw1 * v2) is None


def matrix_digest(m):
    text = ";".join(repr(sorted((k, str(c)) for k, c in m[i, j].terms.items()))
                    for i in range(2) for j in range(2))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


COCYCLE_DIGESTS_4 = {
    "01": "13724b8bc83186df",
    "10": "77032321bc1d18dc",
    "1inf": "45368294e83d2018",
    "inf1": "caf80027a3db8a9f",
    "inf0": "da33280cbc565566",
    "0inf": "ab99eda98bdec2a0",
}


def test_cocycle_image_values_at_truncation_4(even_candidate):
    # the homomorphism test holds for any letter images; these pin the values
    g = random_grouplike(random.Random(7), 4)
    theta = ThetaMap(4)
    npl = n_plus_matrix(even_candidate.phi.truncate(4))
    got = {star: matrix_digest(cocycle_image(g, star, theta=theta, n_plus=npl))
           for star in V_STARS}
    assert got == COCYCLE_DIGESTS_4


EV_AT_DIGESTS_6 = {
    "x,-y": "efa30e9355a4745f",
    "y-x,-y": "ab6759428a307038",
    "y-x,x": "dfe7d2236ad879e5",
    "x,y-x": "4c66d768bbfca75d",
}


def test_ev_at_values_at_truncation_6():
    # the four matrix pairs of the identity functions, on one seeded rational series
    g = random_grouplike(random.Random(8), 6)
    x, y = xy_matrices(QQ, 6)
    pairs = {"x,-y": (x, -y), "y-x,-y": (y - x, -y), "y-x,x": (y - x, x), "x,y-x": (x, y - x)}
    got = {name: matrix_digest(ev_at(g, *pair)) for name, pair in pairs.items()}
    assert got == EV_AT_DIGESTS_6


def row_zero(m):
    """Row 0 of m over a zero row 1."""
    zero = CSeries.zero(m.ring, m.truncation)
    return MatSeries.of(m[0, 0], m[0, 1], zero, zero)


def not_reversal_symmetric(n):
    """1 + e0 e1 + 2 e0 e0 e1: its reversal is another series."""
    return NCSeries(QQ, n, {(): 1, (0, 1): 1, (0, 0, 1): 2})


@pytest.mark.parametrize("series", ["grouplike", "not_reversal_symmetric"])
def test_first_row_is_row_zero_of_the_full_walk(series):
    # the four linear pairs of the identity functions and the images of
    # the stars 10 and 1inf, each exactly
    n = 5
    f = (random_grouplike(random.Random(8), n, start=2) if series == "grouplike"
         else not_reversal_symmetric(n))
    x, y = xy_matrices(QQ, n)
    theta = ThetaMap(n)
    pairs = [(x, -y), (y - x, -y), (y - x, x), (x, y - x),
             matspec._star_images("10", theta), matspec._star_images("1inf", theta)]
    for m0, m1 in pairs:
        assert first_row(f, m0, m1) == row_zero(ev_at(f, m0, m1))


def test_first_row_over_the_complex_ring_keeps_the_walk_contract():
    # each walk is within u = 2^-B of the exact walk of the same stored inputs
    n, ring = 5, complex_field(40)
    for f in (random_grouplike(random.Random(8), n, start=2), not_reversal_symmetric(n)):
        f = NCSeries(ring, n, f.terms)
        x, y = xy_matrices(ring, n)
        row = first_row(f, x, -y)
        assert not row[1, 0].numerators and not row[1, 1].numerators
        assert max_coeff(row - row_zero(ev_at(f, x, -y))) <= 2 * 2.0 ** -ring.bits


def test_transpose_is_an_involution_and_reverses_products():
    x, y = xy_matrices(QQ, 4)
    m1 = ev_at(random_grouplike(random.Random(8), 4), x, -y)
    m2 = gamma_matrix_plus(4).m
    assert x.transpose() != x and x.transpose()[1, 0] == x[0, 1]
    assert m1.transpose().transpose() == m1
    assert (m1 * m2).transpose() == m2.transpose() * m1.transpose()


def test_theta_map_values_at_truncation_6():
    g = random_grouplike(random.Random(9), 6)
    assert matrix_digest(ThetaMap(6)(g)) == "206c305ab20034cf"


V_MATRIX_DIGESTS_4 = {
    "01": "301985af13a5bbaf",
    "10": "dca05a4bf75ef56f",
    "1inf": "1ae4d4c3114acd15",
    "inf1": "c104d779deed3f2a",
    "inf0": "72cbb40d7d3515b0",
    "0inf": "b87ae0dd97a56167",
}


def test_v_matrix_values_at_truncation_4(even_candidate):
    g = random_grouplike(random.Random(7), 4)
    theta = ThetaMap(4)
    npl = n_plus_matrix(even_candidate.phi.truncate(4))
    got = {star: matrix_digest(v_matrix(g, star, theta=theta, n_plus=npl)) for star in V_STARS}
    assert got == V_MATRIX_DIGESTS_4


def test_gamma_matrix_and_n_plus_values(even_candidate):
    m = gamma_matrix_plus(8).m
    assert (matrix_digest(m), matrix_digest(m.inverse())) == ("6e1faf914c748837", "5a2ccfaaf4b02fa0")
    assert matrix_digest(n_plus_matrix(even_candidate.phi)) == "cff366bad9444825"


# -- transformation identities ---------------------------------------------------------


def test_transformation_identities_random_grouplike():
    rng = random.Random(77)
    for _ in range(5):
        g = random_grouplike(rng, 5)
        ids = transformation_identities(g)
        assert ids == {"inf1": 0.0, "1inf": 0.0, "inf0": 0.0}


def test_transformation_identity_exponential_case():
    e0 = NCSeries.letter(QQ, 5, 0)
    g = e0.exp()
    ids = transformation_identities(g)
    assert ids == {"inf1": 0.0, "1inf": 0.0, "inf0": 0.0}


def test_swap_invariance_random_grouplike():
    rng = random.Random(88)
    theta = ThetaMap(5)
    for _ in range(5):
        g = random_grouplike(rng, 5)
        assert swap_invariance_defect(g, theta=theta) == 0.0


def test_formal_euler_transformation_random_grouplike():
    from associators.matspec import formal_euler_identity

    rng = random.Random(92)
    theta = ThetaMap(5)
    for _ in range(5):
        f = random_grouplike(rng, 5)
        assert formal_euler_identity(f, theta=theta) == 0.0
    # the exponent is tied to the e1 coefficient: shifting it breaks the identity
    f = random_grouplike(rng, 5)
    from associators.cseries import CSeries as CS
    from associators.cseries import max_cseries_coeff as mcc
    from associators.matspec import _subst_euler

    w = v_matrix(f, "10", theta=theta)[0, 0]
    a = CS.variable(QQ, 5, "a")
    b = CS.variable(QQ, 5, "b")
    p = CS.variable(QQ, 5, "p")
    wrong = p.scale(f.coeff((1,)) + 1).exp() * b * _subst_euler(w)
    assert mcc((a + p) * w - wrong) > 0.0


def test_weighted_sum_identities_random_grouplike():
    rng = random.Random(99)
    for _ in range(5):
        g = random_grouplike(rng, 5)
        ids = weighted_sum_identities(g)
        assert ids == {"entry11_vs_stats": 0.0, "row_reflection": 0.0}


# -- appendix relations -------------------------------------------------------------------


def test_appendix_relations_trivial_and_random():
    one = NCSeries.one(QQ, 4)
    rel = appendix_entry_relations(one)
    assert all(v == 0.0 for v in rel.values())
    rng = random.Random(111)
    for _ in range(5):
        g = random_grouplike(rng, 5, start=2)
        rel = appendix_entry_relations(g)
        assert all(v == 0.0 for v in rel.values())


# -- formal Gauss ----------------------------------------------------------------------------


def test_formal_gauss_trivial_collapse_degree6():
    triv = GTElement(QQ.one, NCSeries.one(QQ, 6), 6)
    rep, lhs, rhs = formal_gauss_identity(triv, 6)
    assert rep["defect"] == 0.0
    assert rhs == CSeries.one(QQ, 6)
    assert not rep["printed_first_bracket_divisible_by_ab"]


def test_formal_gauss_torsor_fixture(even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    rep, lhs, rhs = formal_gauss_identity(f, 5)
    assert rep["defect"] == 0.0
    # independent oracle route through the two gamma matrices
    oracle = formal_gauss_oracle(f, 5)
    assert max_cseries_coeff(rhs - oracle) == 0.0
    # the series is nontrivial from degree 3 on
    assert any(sum(m) == 3 for m in lhs.terms)


def test_formal_gauss_oracle_values(even_candidate, skew_candidate):
    oracle = formal_gauss_oracle(gt_from_pair(even_candidate, skew_candidate), 5)
    text = repr(sorted((k, str(c)) for k, c in oracle.terms.items()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b13c19119b921af2"


def test_formal_gauss_builds_the_even_ratios_once(even_candidate, skew_candidate, monkeypatch):
    """The identity's ThetaMap takes M+ from the identity's own even gamma
    ratios: one _ratios call for the four of them, one for the element's,
    both at n + 2.  Each call forms low and diag and reflects them into
    main and top: four gamma ratios in all."""
    calls, ratios, formed, ratio = [], matspec._ratios, [], GammaSeries.ratio

    def spy(gamma, truncation):
        calls.append((truncation,))
        return ratios(gamma, truncation)

    def ratio_spy(gamma, *forms):
        formed.append(gamma)
        return ratio(gamma, *forms)

    monkeypatch.setattr(matspec, "_ratios", spy)
    monkeypatch.setattr(GammaSeries, "ratio", ratio_spy)
    rep, _, _ = formal_gauss_identity(gt_from_pair(even_candidate, skew_candidate), 5)
    assert rep["defect"] == 0.0
    assert calls == [(7,), (7,)]
    assert len(formed) == 4


@pytest.mark.parametrize("source, n", [("even", 5), ("even", 8), ("random", 5), ("random", 8),
                                       ("kz", 8)])
def test_ratios_are_the_gamma_ratios_at_their_arguments(source, n):
    """main and top are reflections of diag and low; each of the four still
    equals GammaSeries.ratio at its own arguments, over QQ and over the
    complex ring (the gamma series of the KZ associator at 40 digits)."""
    if source == "kz":
        gamma = gamma_of_associator(kz_series(n, 40))
    elif source == "even":
        gamma = gamma_even(n)
    else:
        rng = random.Random(n)
        gamma = GammaSeries(CSeries(QQ, n, {(k, 0, 0): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                            for k in range(1, n + 1)}))
    a, b, p, q = CSeries.gens(gamma.ring, n)
    args = ((-p, -q, -p - a, -p - b), (p, -q, -a, -b), (-p, q, a, b), (p, q, p + a, p + b))
    assert matspec._ratios(gamma, n) == tuple(gamma.ratio(*xs) for xs in args)


def test_formal_gauss_degree2_slice(even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    rep, lhs, rhs = formal_gauss_identity(f, 2)
    assert rep["defect"] == 0.0
    oracle = formal_gauss_oracle(f, 2)
    assert max_cseries_coeff(lhs - oracle) == 0.0
