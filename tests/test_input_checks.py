"""Each input check of the package raises on the input it names, with its
own message.  The self-checks (the two torsor forms, the two (2,2) routes,
the Bernoulli check and the regularized table) are left out: no input
reaches them."""

from fractions import Fraction

import mpmath
import pytest

from associators import hypcx, matspec, pentagon, rings, words
from associators.associator import AssociatorCandidate, GTElement, gt_from_pair, solve_unitary
from associators.cseries import CSeries
from associators.gammafn import GammaSeries, gamma_even
from associators.graded import RingMismatch
from associators.mat2 import MatSeries
from associators.ncseries import NCSeries
from associators.rings import QQ

A, B, P, _ = CSeries.gens(QQ, 2)
ONE2, ONE3 = NCSeries.one(QQ, 2), NCSeries.one(QQ, 3)


def candidate(mu):
    return AssociatorCandidate(Fraction(mu), ONE3, 3)


# name -> (call, error, message pattern)
CHECKS = {
    "solve_unitary: degree below 2":
        (lambda: solve_unitary(1, pentagon.P5Quotient(3)), ValueError, "degree >= 2"),
    "solve_unitary: quotient below the degree":
        (lambda: solve_unitary(4, pentagon.P5Quotient(3)), ValueError, "truncation too small"),
    "solve_unitary: unknown tiebreak":
        (lambda: solve_unitary(3, pentagon.P5Quotient(3), tiebreak="max"), ValueError,
         "unknown tiebreak"),
    "AssociatorCandidate: truncation above the series'":
        (lambda: AssociatorCandidate(Fraction(1), ONE2, 3), ValueError,
         "truncation 3 differs from the series' 2"),
    "GTElement: truncation above the series'":
        (lambda: GTElement(Fraction(1), ONE2, 3), ValueError, "truncation 3 differs from the series' 2"),
    "GTElement: truncation below the series'":
        (lambda: GTElement(Fraction(1), ONE3, 2), ValueError, "truncation 2 differs from the series' 3"),
    "gt_from_pair: unequal mu":
        (lambda: gt_from_pair(candidate(1), candidate(2)), ValueError, "equal mu"),
    "CSeries.subst: image no CSeries":
        (lambda: A.subst(NCSeries.letter(QQ, 2, 0), B, P), TypeError, "must be CSeries"),
    "CSeries.subst: image with a constant term":
        (lambda: A.subst(CSeries.one(QQ, 2) + A, B, P), ValueError, "constant term"),
    "CSeries.subst: image of degree 2":
        (lambda: A.subst(A * B, B, P), ValueError, "degree > 1"),
    "CSeries.shear: one variable twice":
        (lambda: A.shear(1, 1, 2), ValueError, "two distinct variables"),
    "CSeries.shear: a Fraction coefficient":
        (lambda: A.shear(0, 1, Fraction(1, 2)), ValueError, "coefficient is an int, not Fraction"),
    "CSeries.divide_exact: unknown form":
        (lambda: A.divide_exact("c"), ValueError, "unknown form"),
    "GammaSeries.multiply: another order":
        (lambda: GammaSeries.one(QQ, 3).multiply(GammaSeries.one(QQ, 4)), ValueError,
         "order/ring mismatch"),
    "mzv: weight above the cap":
        (lambda: hypcx.mzv((hypcx.MZV_WEIGHT_CAP + 1,)), ValueError, "beyond cap"),
    "mzv_direct: non-admissible index":
        (lambda: hypcx.mzv_direct((2, 1)), ValueError, "non-admissible"),
    "word_entry_closed_form: entry (1,1)":
        (lambda: matspec.word_entry_closed_form(QQ, 3, (0, 1), (1, 1)), ValueError,
         "entries \\(0,0\\), \\(0,1\\), \\(1,0\\) only"),
    "gamma_ratio_matrix: gamma order too low":
        (lambda: matspec.gamma_ratio_matrix(gamma_even(2), 4), ValueError, "too small"),
    "cocycle_image: unknown star":
        (lambda: matspec.cocycle_image(ONE2, "00", matspec.ThetaMap(2)), ValueError,
         "unknown star"),
    "cocycle_image: inf1 without n_plus":
        (lambda: matspec.cocycle_image(ONE2, "inf1", matspec.ThetaMap(2)), ValueError,
         "need the n_plus"),
    "first_row: images over two rings":
        (lambda: matspec.first_row(ONE2, matspec.xy_matrices(QQ, 2)[0],
                                   matspec.xy_matrices(rings.complex_field(20), 2)[1]),
         RingMismatch, "coefficient rings differ"),
    "first_row: an image with a constant term":
        (lambda: matspec.first_row(ONE2, MatSeries.one(QQ, 2), matspec.xy_matrices(QQ, 2)[1]),
         ValueError, "nonzero constant term"),
    "formal_gauss_identity: GT element too short":
        (lambda: matspec.formal_gauss_identity(GTElement.identity(QQ, 2), 4), ValueError,
         "too short"),
    "pair: i = j": (lambda: pentagon.pair(2, 2), ValueError, "no generator"),
    "P5Quotient.dimension: above the truncation":
        (lambda: pentagon.P5Quotient(3).dimension(4), ValueError, "beyond truncation"),
    "embed: above the algebra's truncation":
        (lambda: pentagon.embed(NCSeries.one(QQ, 4), pentagon.P5Quotient(3), 1, 2, 3), ValueError,
         "exceeds algebra truncation"),
    "pentagon_residual: constant term 2":
        (lambda: pentagon.pentagon_residual(ONE3.scale(2), pentagon.P5Quotient(3)), ValueError,
         "constant term 1"),
    "_fixed: an infinity":
        (lambda: rings._fixed(mpmath.inf._mpf_, 64), ValueError, "no fixed-point form"),
    "word_from_index: an entry 0":
        (lambda: words.word_from_index((2, 0)), ValueError, "must be positive"),
    "index_from_word: a word ending in e0":
        (lambda: words.index_from_word((1, 0)), ValueError, "does not end in e1"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_an_input_check_raises(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message):
        call()
