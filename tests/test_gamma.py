from fractions import Fraction

import pytest

from associators.associator import AssociatorCandidate, gt_from_pair
from associators.cseries import CSeries
from associators.gammafn import (
    GammaSeries,
    bernoulli_numbers,
    gamma_even,
    gamma_even_bernoulli_report,
    gamma_from_kappa,
    gamma_of_associator,
    gamma_of_gt,
)
from associators.graded import max_coeff
from associators.hypcx import kz_series
from associators.matspec import varphi_equals_gamma_matrix
from associators.ncseries import NCSeries
from associators.rings import QQ, complex_field
from test_ncseries import qq_digest


def test_bernoulli_values_and_denominators():
    t = bernoulli_numbers(12)
    assert t[0] == 1
    assert t[1] == Fraction(-1, 2)
    assert t[2] == Fraction(1, 6)
    assert t[4] == Fraction(-1, 30)
    assert t[12].denominator == 2730  # 2*3*5*7*13


def test_gamma_even_low_coefficients():
    g = gamma_even(6)
    assert g.log_coeffs[2] == Fraction(-1, 48)
    assert g.log_coeffs[4] == Fraction(1, 5760)
    assert all(g.log_coeffs[k] == 0 for k in (1, 3, 5))
    # series itself: 1 - t^2/48 + ...
    s = g.series()
    assert s.coeff((0, 0, 0)) == 1 and s.coeff((2, 0, 0)) == Fraction(-1, 48)


def test_gamma_even_keeps_its_exact_digest():
    assert qq_digest(dict(enumerate(gamma_even(10).log_coeffs))) == "92a24786b10e7372"


def test_gamma_even_reflection_exact_order_16():
    g = gamma_even(16)
    assert g.reflection_defect(QQ.one) == 0.0


def test_gamma_layer_keeps_the_complex_ring_digits():
    # the KZ associator at weight 8: its (X, -Y) evaluation against the
    # gamma-ratio matrix, and the reflection formula at its mu = 2 pi i
    c = kz_series(8, 40)
    report, _, gm = varphi_equals_gamma_matrix(c)
    assert report["max_entry_difference"] < 1e-45 and gm.det_defect < 1e-45
    # det_is_one holds up to the ring's noise floor, the rule of report["equal"]
    assert report["equal"] and gm.det_is_one and report["det_is_one"]
    assert gamma_of_associator(c).reflection_defect(c.mu) < 1e-45


def test_bernoulli_exponent_reconciliation():
    rep = gamma_even_bernoulli_report(10)
    assert rep["corrected_exponent_matches_closed_form"]
    assert not rep["plain_exponent_matches_closed_form"]
    assert rep["plain_exponent_t2_coefficient"] == "-1/24"
    assert rep["closed_form_t2_coefficient"] == "-1/48"


def test_gamma_of_trivial_series_is_one():
    cand = AssociatorCandidate(QQ.one, NCSeries.one(QQ, 5), 5)
    g = gamma_of_associator(cand)
    assert all(c == 0 for c in g.log_coeffs)


def test_even_candidate_gamma_matches_closed_form(even_candidate):
    g = gamma_of_associator(even_candidate)
    closed = gamma_even(even_candidate.truncation)
    assert g.log_coeffs == closed.log_coeffs


def test_reflection_for_solver_candidates(even_candidate, skew_candidate):
    assert gamma_of_associator(even_candidate).reflection_defect(QQ.one) == 0.0
    assert gamma_of_associator(skew_candidate).reflection_defect(QQ.one) == 0.0


def test_even_gamma_log_is_even(even_candidate):
    g = gamma_of_associator(even_candidate)
    assert all(g.log_coeffs[k] == 0 for k in range(1, g.order + 1, 2))


def test_gamma_composition_law(even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    lhs = gamma_of_associator(skew_candidate)
    rhs = gamma_of_gt(f).scale_argument(even_candidate.mu).multiply(
        gamma_of_associator(even_candidate))
    assert lhs.log_coeffs == rhs.log_coeffs


@pytest.mark.parametrize("mu", [2, Fraction(-1, 3)], ids=["two", "minus_one_third"])
def test_scale_argument_is_the_log_at_mu_t(mu):
    g = gamma_from_kappa(QQ, 8, {m: Fraction((-1) ** m * m, m + 2) for m in range(2, 9)})
    for h in (g, gamma_even(8)):
        assert h.scale_argument(mu).log == h.log_at_form(CSeries.variable(QQ, 8, "a").scale(mu))


def test_scale_argument_over_the_complex_ring():
    ring = complex_field(40)
    g = gamma_even(8, ring)
    mu = 2 * ring.mp.pi * ring.mp.mpc(0, 1)
    walk = g.log_at_form(CSeries.variable(ring, 8, "a").scale(mu))
    assert max_coeff(g.scale_argument(mu).log - walk) < 1e-45


def test_gt_gamma_quadratic_consistency(even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    g = gamma_of_gt(f)
    # log coefficient at t^2 is -(1/2)(f(e^e0,e^e1)|e0e1), zero for lambda=1
    assert g.log_coeffs[2] == -Fraction(1, 2) * f.series.coeff((0, 1))
    assert g.log_coeffs[2] == 0


def test_gamma_ratio_cancellation_and_multiplicativity():
    g = gamma_even(8)
    a, b, p, q = CSeries.gens(QQ, 6)
    assert g.ratio(a, b, a, b) == CSeries.one(QQ, 6)

    # ratio of the product gamma is the product of ratios
    kap = gamma_from_kappa(QQ, 8, {3: Fraction(1, 5), 4: Fraction(-2, 7)})
    both = g.multiply(kap)
    lhs = both.ratio(-p, q, a, b)
    rhs = g.ratio(-p, q, a, b) * kap.ratio(-p, q, a, b)
    assert lhs == rhs


def test_even_gamma_main_ratio_quadratic_term():
    g = gamma_even(8)
    a, b, p, q = CSeries.gens(QQ, 4)
    r = g.ratio(-p, -q, -p - a, -p - b)
    assert r.coeff((0, 0, 0)) == 1
    assert r.coeff((1, 1, 0)) == Fraction(-1, 24)
    # no other degree-2 terms
    deg2 = {m: c for m, c in r.terms.items() if sum(m) == 2}
    assert deg2 == {(1, 1, 0): Fraction(-1, 24)}


def test_kappa_form_and_json():
    g = gamma_from_kappa(QQ, 6, {2: Fraction(3), 3: Fraction(1, 2)})
    assert g.log_coeffs[2] == Fraction(3, 2)      # 3 / 2!
    assert g.log_coeffs[3] == Fraction(1, 12)     # (1/2) / 3!


def test_gamma_series_validation():
    with pytest.raises(ValueError):
        GammaSeries(CSeries.one(QQ, 3))
    with pytest.raises(ValueError):
        GammaSeries(CSeries.variable(QQ, 3, "b"))
