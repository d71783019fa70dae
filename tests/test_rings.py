"""The complex ring carries its own precision: its numbers belong to the
ring's mpmath context, so results do not depend on the global mp.dps, and
the package's numeric boundaries hand out numbers of that context."""

from fractions import Fraction as F

from mpmath import mp

from associators import words as W
from associators.graded import max_coeff
from associators.hypcx import fundamental_solution, kz_series, mzv, solution_matrix_at
from associators.rings import QQ, complex_field


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
        assert all(x.context is ctx for x in m.e)


def test_is_zero_means_exactly_zero():
    ring = complex_field(40)
    assert ring.is_zero(ring.mp.mpc(0)) and QQ.is_zero(F(0))
    assert not ring.is_zero(ring.mp.mpc(0, 1e-70)) and not ring.is_zero(ring.mp.mpf(1e-70))
    assert not QQ.is_zero(F(1, 10 ** 80))
