import random

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from associators import associator
from associators import words as W
from associators.associator import (
    AssociatorCandidate,
    GTElement,
    InconsistentSystem,
    check_associator,
    comp_fake,
    comp_fake_xinf_defect,
    gt_act,
    gt_compose,
    gt_from_pair,
    solve_fraction_system,
    solve_unitary,
    three_cycle_defect,
    two_cycle_defect,
)
from associators.graded import max_coeff
from associators.hypcx import kz_series
from associators.matspec import varphi_equals_gamma_matrix
from associators.ncseries import NCSeries, bracket, lie_element
from associators.pentagon import (
    PENTAGON_POSITIONS,
    P5Quotient,
    base_image,
    embed,
    lie_image,
    pentagon_residual,
)
from associators.rings import QQ
from test_ncseries import numerator_digest, qq_digest


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


def test_grt1_dimensions_through_degree_8():
    # grt_1 has one generator in each odd degree >= 3 and is free on them
    # (Ihara, ICM 1990): through degree 8 that is sigma_3, sigma_5, sigma_7
    # and [sigma_3, sigma_5]
    _, rep = solve_unitary(8, P5Quotient(8), tiebreak="lex", even=False)
    assert rep.nullspace_dims == {3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 1}


def test_solve_report_reads_each_system():
    # the non-even degree-5 solve: its columns are the Lie basis on two
    # letters, its rows the Lyndon words on three letters and on two
    q = P5Quotient(5)
    cand, rep = solve_unitary(5, q, tiebreak="zero", even=False)
    assert rep.columns == {3: 2, 4: 3, 5: 6}
    assert rep.rows == {3: 8 + 2, 4: 18 + 3, 5: 48 + 6}
    assert rep.nullspace_dims == {3: 1, 4: 0, 5: 1}
    assert all(len(rep.nullspaces[d]) == dim for d, dim in rep.nullspace_dims.items())
    # a nullspace vector moves log phi at its degree along the solutions; a
    # random vector does not
    rng = random.Random(43)
    for d, vectors in rep.nullspaces.items():
        log_phi = cand.phi.truncate(d).log()
        assert not pentagon_residual(log_phi.exp(), q).terms
        for v in vectors:
            assert v and all(len(lw) == d for lw in v)
            assert not pentagon_residual((log_phi + lie_element(QQ, d, v)).exp(), q).terms
        kick = {lw: Fraction(rng.randint(1, 5), rng.choice([1, 2, 3])) for lw, _ in W.lie_basis(d)}
        assert pentagon_residual((log_phi + lie_element(QQ, d, kick)).exp(), q).terms


# -- the Lie-algebra solver against the fibre-module one ------------------------


def embedding_column(lw, quotient):
    """The column of the Lyndon word lw as the solver once built it: the
    Lyndon element expanded into words, acting letter by letter on 1
    (embed) and mapped to U(F_2) (base_image), on every row."""
    d = len(lw)
    elt = lie_element(QQ, d, {lw: Fraction(1)})
    col = NCSeries.zero(QQ, d)
    for ijk in PENTAGON_POSITIONS:
        col = col + embed(elt, quotient, *ijk) + base_image(elt, *ijk)
    return col.homogeneous_part(d)


def full_row_systems(n, tiebreak, even):
    """solve_unitary's loop with embedding_column and every row: the
    (particular, nullspace) of each degree it solves."""
    q = P5Quotient(n)
    coords = {(0, 1): Fraction(1, 24)}
    out = []
    for d in range(3, n + 1):
        if even and d % 2:
            continue
        residual = pentagon_residual(lie_element(QQ, d, coords).exp(), q)
        rhs = {w: -c for w, c in residual.homogeneous_part(d).items()}
        basis = W.lie_basis(d)
        particular, nullspace = solve_fraction_system(
            [embedding_column(lw, q) for lw, _ in basis], rhs)
        out.append((particular, nullspace))
        if tiebreak == "lex" and nullspace:
            particular = [x + y for x, y in zip(particular, nullspace[0])]
        coords.update((lw, c) for (lw, _), c in zip(basis, particular) if c)
    return out


def test_bracket_columns_are_the_embedding_columns():
    q, memo = P5Quotient(6), {}
    for d in range(1, 7):
        rows = associator._lyndon_rows(d)
        for lw, _ in W.lie_basis(d):
            oracle = embedding_column(lw, q)
            restricted = {w: c for w, c in oracle.items() if w in rows}
            # a fresh memo builds the column from nothing; the shared one
            # answers from the sub-brackets of the lower degrees
            assert associator._pentagon_column(lw, rows, q, {}) == restricted
            full = {}
            for ijk in PENTAGON_POSITIONS:
                for part in lie_image(lw, *ijk, q, memo):
                    for w, c in part.items():
                        full[w] = full.get(w, 0) + c
            assert {w: c for w, c in full.items() if c} == oracle


# the number of Lyndon words of length d on 3 and on 2 letters (OEIS A027376
# and A001037), (1/d) sum over e | d of mobius(d / e) k^e
@pytest.mark.parametrize("d, nfibre, nbase", [(1, 3, 2), (2, 3, 1), (4, 18, 3), (6, 116, 9), (8, 810, 30)])
def test_lyndon_rows_are_the_fibre_and_base_lyndon_words(d, nfibre, nbase):
    rows = associator._lyndon_rows(d)
    fibre = {w for w in rows if set(w) <= {0, 1, 2}}
    base = {w for w in rows if set(w) <= {3, 4}}
    assert (len(fibre), len(base)) == (nfibre, nbase)
    assert rows == fibre | base
    for w in rows:
        # a Lyndon word is strictly smaller than each of its proper rotations
        assert len(w) == d and all(w < w[r:] + w[:r] for r in range(1, d))


@pytest.mark.parametrize("tiebreak, even", [("zero", True), ("lex", True), ("lex", False)])
def test_lyndon_rows_lose_no_equation(monkeypatch, tiebreak, even):
    solved = []

    def recording(columns, rhs):
        solved.append(solve_fraction_system(columns, rhs))
        return solved[-1]

    monkeypatch.setattr(associator, "solve_fraction_system", recording)
    solve_unitary(7, P5Quotient(7), tiebreak=tiebreak, even=even)
    assert solved == full_row_systems(7, tiebreak, even)


def test_solver_rechecks_earlier_degrees(monkeypatch):
    # the even degree-4 system has no nullspace, so a changed particular
    # solution is wrong; the degree-5 residual must then show a degree-4 term
    calls = []

    def wrong_once(columns, rhs):
        particular, nullspace = solve_fraction_system(columns, rhs)
        if not calls:
            particular = [x + 1 for x in particular]
        calls.append(len(columns))
        return particular, nullspace

    monkeypatch.setattr(associator, "solve_fraction_system", wrong_once)
    with pytest.raises(InconsistentSystem, match="through degree 4 .* at degree 4"):
        solve_unitary(5, P5Quotient(5), tiebreak="zero", even=True)
    assert calls == [3]


def fraction_rref_solve(columns, rhs):
    """Gauss-Jordan elimination on Fractions, the reference for
    solve_fraction_system."""
    ncols = len(columns)
    keys = sorted(set(rhs).union(*columns))
    rows = [[Fraction(col.get(k, 0)) for col in columns] + [Fraction(rhs.get(k, 0))] for k in keys]
    pivots, r = [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[ncols] for row in rows[r:]):
        return None
    particular = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        particular[c] = rows[i][ncols]
    nullspace = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][fc]
        nullspace.append(vec)
    return particular, nullspace


entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40)
@given(st.integers(1, 4), st.lists(st.lists(entries, min_size=5, max_size=5), min_size=1, max_size=6),
       st.lists(entries, min_size=4, max_size=4))
def test_integer_elimination_is_the_fraction_rref(ncols, matrix, mix):
    # the rows are random, plus combinations of them, so that ranks drop and
    # some right-hand sides are consistent and some are not
    matrix = matrix + [[sum(m * row[j] for m, row in zip(mix, matrix)) for j in range(5)]]
    columns = [{k: row[j] for k, row in enumerate(matrix) if row[j]} for j in range(ncols)]
    rhs = {k: row[4] for k, row in enumerate(matrix) if row[4]}
    expected = fraction_rref_solve(columns, rhs)
    if expected is None:
        with pytest.raises(InconsistentSystem):
            solve_fraction_system(columns, rhs)
    else:
        got = solve_fraction_system(columns, rhs)
        assert got == expected
        assert all(type(x) is Fraction for vec in [got[0]] + got[1] for x in vec)


def test_skew_solver_output(q5, skew_candidate):
    rep = check_associator(skew_candidate, q5)
    assert rep["pentagon"] and rep["quadratic"] and rep["commutator_grouplike"]
    assert rep["two_cycle"] and rep["three_cycle"]
    assert not rep["even"]
    assert any(len(w) == 3 for w in skew_candidate.phi.terms)


def test_solver_keeps_its_exact_digests(skew_candidate):
    even6, _ = solve_unitary(6, P5Quotient(6), tiebreak="zero", even=True)
    assert qq_digest(even6.phi.terms) == "9eef36af7e2a6788"
    assert qq_digest(skew_candidate.phi.terms) == "c2b66819385cbd3e"


def test_gt_from_pair_keeps_its_exact_digest(even_candidate, skew_candidate):
    assert qq_digest(gt_from_pair(even_candidate, skew_candidate).series.terms) \
        == "8f94bf0d5dfe1a8c"


def test_pentagon_walk_keeps_its_exact_digest(q5, even_candidate, skew_candidate):
    # zero at the candidates' truncation; read at 6, the residual is their
    # missing degree-6 part
    q6 = P5Quotient(6)
    res = [pentagon_residual(c.phi, q5).terms for c in (even_candidate, skew_candidate)]
    res += [pentagon_residual(c.phi.truncate(6), q6).terms
            for c in (even_candidate, skew_candidate)]
    assert qq_digest(*res) == "b858b1b3d81b5c5c"


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
        one_then_two = gt_act(g2, gt_act(g1, cand))
        combined = gt_act(gt_compose(g2, g1), cand)
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


def test_antipode_inverts_the_candidates(even_candidate, skew_candidate):
    # the torsor maps invert phi by its antipode, which needs phi group-like
    for cand in (even_candidate, skew_candidate):
        assert cand.phi.is_grouplike()
        assert cand.phi.antipode() == cand.phi.inverse()
    phi = kz_series(8, 40).phi
    assert max_coeff(phi.antipode() - phi.inverse()) < 1e-45


def test_lie_defect_reads_the_stored_numerators(even_candidate, skew_candidate):
    # the residual is read on the log's stored numerators: ring numbers,
    # rounded at digits + 10, would read 7.7e-49 on phi_KZ's
    for cand in (even_candidate, skew_candidate):
        assert cand.phi.lie_defect() == 0.0
    phi = kz_series(8, 40).phi
    assert phi.lie_defect() < 1e-50
    log = phi.log()
    tiny = log.ring.from_fraction(Fraction(1, 10 ** 30))
    bump = NCSeries(log.ring, 8, {(0, 0, 1, 0, 1, 1): tiny})
    assert (log + bump).exp().lie_defect() >= 1e-31


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
    assert numerator_digest(f.series) == "90e34808212c02f6"
    assert max_coeff(gt_act(f, cand).phi - other.phi) < 1e-30
