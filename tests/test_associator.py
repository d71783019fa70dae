import random

from fractions import Fraction

import pytest

from associators import words as W
from associators.associator import (
    AssociatorCandidate,
    GTElement,
    check_associator,
    comp_fake,
    comp_fake_xinf_defect,
    gt_act,
    gt_compose,
    gt_from_pair,
    solve_unitary,
    three_cycle_defect,
    two_cycle_defect,
)
from associators.graded import max_coeff
from associators.hypcx import kz_series
from associators.matspec import varphi_equals_gamma_matrix
from associators.ncseries import NCSeries, bracket, lie_element
from associators.pentagon import P5Quotient, pentagon_residual
from associators.rings import QQ


def random_grouplike(rng, n, start=1, lam_scale=2):
    coords = {}
    for d in range(start, n + 1):
        for lw, _ in W.lie_basis(d):
            coords[lw] = Fraction(rng.randint(-lam_scale, lam_scale), rng.choice([1, 2, 3]))
    return lie_element(QQ, n, coords).exp()


def test_degenerate_candidate_report(q5):
    cand = AssociatorCandidate(mu=Fraction(0), phi=NCSeries.one(QQ, 3), truncation=3)
    rep = check_associator(cand, q5)
    assert rep["quadratic"] and rep["pentagon"] and rep["two_cycle"]
    assert not rep["mu_invertible"]


def test_quadratic_exponential_is_degree2_associator(q5):
    e0 = NCSeries.letter(QQ, 2, 0)
    e1 = NCSeries.letter(QQ, 2, 1)
    phi = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    cand = AssociatorCandidate(mu=Fraction(1), phi=phi, truncation=2)
    rep = check_associator(cand, q5)
    assert all(rep[k] for k in
               ("mu_invertible", "quadratic", "commutator_grouplike", "even",
                "pentagon", "two_cycle", "three_cycle"))


def test_even_solver_output(q5, even_candidate):
    phi = even_candidate.phi
    assert phi.coeff((0, 1)) == Fraction(1, 24)
    assert phi.coeff((1, 0)) == Fraction(-1, 24)
    # degree-3 component vanishes (evenness)
    assert all(len(w) != 3 for w in phi.terms)
    assert all(len(w) != 5 for w in phi.terms)
    rep = check_associator(even_candidate, q5)
    assert all(rep[k] for k in
               ("mu_invertible", "quadratic", "commutator_grouplike", "even",
                "pentagon", "two_cycle", "three_cycle"))


def test_perturbed_associator_fails_pentagon_at_its_degree(q5, even_candidate):
    # the degree-4 system has no nullspace, so any change of a degree-4
    # Lyndon coordinate must show in the residual, first at degree 4
    n = even_candidate.truncation
    kick = lie_element(QQ, n, {(0, 0, 0, 1): Fraction(1, 7)})
    phi = (even_candidate.phi.log() + kick).exp()
    bad = AssociatorCandidate(mu=Fraction(1), phi=phi, truncation=n)
    assert not check_associator(bad, q5)["pentagon"]
    assert pentagon_residual(phi, q5).min_degree() == 4


@pytest.mark.parametrize("n", [6, 7])
def test_even_solver_at_degree(n):
    q = P5Quotient(n)
    cand, rep = solve_unitary(n, q, tiebreak="zero", even=True)
    assert rep.nullspace_dims == {4: 0, 6: 0}
    assert all(len(w) % 2 == 0 for w in cand.phi.terms)
    report = check_associator(cand, q)
    assert all(report[k] for k in
               ("mu_invertible", "quadratic", "commutator_grouplike", "even",
                "pentagon", "two_cycle", "three_cycle"))
    assert report["pentagon_degree"] == n
    gamma, _, _ = varphi_equals_gamma_matrix(cand)
    assert gamma["equal"] and gamma["det_is_one"]


def test_solver_tiebreaks_and_nullspace_records(q5):
    zero_cand, zero_rep = solve_unitary(5, q5, tiebreak="zero", even=True)
    lex_cand, lex_rep = solve_unitary(5, q5, tiebreak="lex", even=True)
    # the even degree-4 system turned out to have no free parameters; both
    # policies must then coincide, and the report records why
    assert zero_rep.nullspace_dims == lex_rep.nullspace_dims
    if all(v == 0 for v in zero_rep.nullspace_dims.values()):
        assert zero_cand.phi == lex_cand.phi


def test_pentagon_and_quadratic_give_the_cycles_at_degree_7():
    # Furusho (2010): the pentagon with the quadratic term implies the 2- and
    # 3-cycle relations; the solver imposes neither.  The non-even solve has
    # one free parameter at each of degrees 3, 5, 7 (grt_1's sigma_3,
    # sigma_5, sigma_7), and the lex tiebreak takes each one nonzero.
    cand, rep = solve_unitary(7, P5Quotient(7), tiebreak="lex", even=False)
    assert rep.nullspace_dims == {3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
    assert not cand.phi.is_even()
    assert two_cycle_defect(cand.phi) == 0
    assert three_cycle_defect(cand.phi, cand.mu) == 0


def test_skew_solver_output(q5, skew_candidate):
    rep = check_associator(skew_candidate, q5)
    assert rep["pentagon"] and rep["quadratic"] and rep["commutator_grouplike"]
    assert rep["two_cycle"] and rep["three_cycle"]
    assert not rep["even"]
    assert any(len(w) == 3 for w in skew_candidate.phi.terms)


def test_gt_identity_acts_trivially(even_candidate):
    g = GTElement.identity(QQ, 5)
    out = gt_act(g, even_candidate)
    assert out.mu == even_candidate.mu
    assert out.phi == even_candidate.phi


def test_gt_from_pair_round_trip(q5, even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    assert f.quadratic_defect() == 0
    back = gt_act(f, even_candidate)
    assert back.phi == skew_candidate.phi
    assert back.mu == even_candidate.mu
    # same-input pair gives the identity element
    e = gt_from_pair(even_candidate, even_candidate)
    assert e.series == NCSeries.one(QQ, 5)


def test_gt_act_quadratic_term(q5, even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    out = gt_act(f, even_candidate)
    # (phi'|e0e1) = (lambda mu)^2 / 24
    assert out.phi.coeff((0, 1)) == (f.lam * even_candidate.mu) ** 2 / 24


def test_gt_action_composition_on_random_pairs():
    rng = random.Random(19)
    n = 4
    base_phi = random_grouplike(rng, n, start=2)
    cand = AssociatorCandidate(mu=Fraction(1), phi=base_phi, truncation=n)
    for _ in range(5):
        g1 = GTElement(Fraction(1), random_grouplike(rng, n, start=2), n)
        g2 = GTElement(Fraction(1), random_grouplike(rng, n, start=2), n)
        one_then_two = gt_act(g2, gt_act(g1, cand, self_check=False), self_check=False)
        combined = gt_act(gt_compose(g2, g1), cand, self_check=False)
        assert one_then_two.phi == combined.phi
        assert one_then_two.mu == combined.mu


def test_comp_fake_homomorphism_and_values(even_candidate):
    ring, n = QQ, even_candidate.truncation
    assert comp_fake(even_candidate, []) == NCSeries.one(ring, n)
    e0 = NCSeries.letter(ring, n, 0)
    assert comp_fake(even_candidate, [("x0", 1)]) == e0.exp()
    # x0 x1 xinf = 1 is respected
    w_full = comp_fake(even_candidate, [("x0", 1), ("x1", 1)]) * \
        comp_fake(even_candidate, [("x1", -1), ("x0", -1)])
    assert w_full == NCSeries.one(ring, n)
    # concatenation goes to products
    lhs = comp_fake(even_candidate, [("x0", 2), ("x1", -1)])
    rhs = comp_fake(even_candidate, [("x0", 2)]) * comp_fake(even_candidate, [("x1", -1)])
    assert lhs == rhs


def test_comp_fake_xinf_closed_form(even_candidate, skew_candidate):
    assert comp_fake_xinf_defect(even_candidate) == 0.0
    assert comp_fake_xinf_defect(skew_candidate) == 0.0


def test_grouplike_preserved_by_torsor(q5, even_candidate, skew_candidate):
    f = gt_from_pair(even_candidate, skew_candidate)
    assert f.series.is_grouplike()
    out = gt_act(f, even_candidate)
    assert out.phi.is_commutator_grouplike()


def test_torsor_maps_over_the_complex_ring():
    # at 40 digits the maps run at working precision and their self-checks
    # accept roundoff below the ring's noise floor, not above it
    cand = kz_series(5, 40)
    ring, n = cand.ring, cand.truncation
    one = NCSeries.one(ring, n)
    assert max_coeff(gt_act(GTElement.identity(ring, n), cand).phi - cand.phi) < 1e-30
    assert max_coeff(comp_fake(cand, [("x1", 1), ("x1", -1)]) - one) < 1e-30
    assert max_coeff(gt_from_pair(cand, cand).series - one) < 1e-30
    g = random_grouplike(random.Random(41), n, start=2)
    g = NCSeries(ring, n, {w: ring.from_fraction(c) for w, c in g.terms.items()})
    other = gt_act(GTElement(ring.one, g, n), cand)
    f = gt_from_pair(cand, other)
    assert max_coeff(f.series - g) < 1e-30
    assert max_coeff(gt_act(f, cand).phi - other.phi) < 1e-30
