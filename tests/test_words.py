import random

from fractions import Fraction

import pytest

from associators import words as W


def test_statistics_basic():
    assert W.weight(()) == 0 and W.depth(()) == 0 and W.height(()) == 0
    w = (0, 1, 1, 0, 1)
    assert W.weight(w) == 5
    assert W.depth(w) == 3
    # one factor e1e0 -> height 2
    assert W.height(w) == 2
    assert W.height((0,)) == 1 and W.height((1,)) == 1


def test_height_matches_index_height_on_admissible_words():
    # for the word attached to an admissible index, the word height equals
    # the number of entries exceeding 1
    for index in [(2,), (3,), (2, 2), (1, 2), (3, 1, 2), (1, 1, 4), (2, 1, 3)]:
        w = W.word_from_index(index)
        assert W.index_from_word(w) == index
        assert W.height(w) == sum(1 for k in index if k > 1)
        assert W.weight(w) == sum(index)
        assert W.depth(w) == len(index)


def test_dual_word():
    assert W.dual_word(()) == ()
    assert W.dual_word((0, 1)) == (0, 1)
    assert W.dual_word((0, 0, 1)) == (0, 1, 1)
    for n in range(0, 9):
        for w in W.words_of_weight(n):
            assert W.dual_word(W.dual_word(w)) == w


def test_lyndon_dimensions():
    # necklace polynomial values for a binary alphabet
    dims = [W.lie_dimension(d) for d in range(1, 7)]
    assert dims == [2, 1, 2, 3, 6, 9]


def test_lyndon_triangularity_and_coordinates():
    rng = random.Random(7)
    for degree in range(1, 6):
        basis = W.lie_basis(degree)
        # random Lie element: reading its coordinates must round-trip with
        # zero residual
        coords = {lw: Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) for lw, _ in basis}
        vec = {}
        for lw, exp in basis:
            c = coords[lw]
            for w, m in exp.items():
                vec[w] = vec.get(w, Fraction(0)) + c * m
        got, rem = W.lie_coordinates(vec, degree)
        assert not rem
        for lw, _ in basis:
            assert got.get(lw, Fraction(0)) == coords[lw]


def test_non_lie_vector_has_residual():
    # e0e1 alone is not a Lie element in degree 2
    vec = {(0, 1): Fraction(1)}
    _, rem = W.lie_coordinates(vec, 2)
    assert rem


@pytest.mark.parametrize("broken", [
    lambda w: {w: 2},                    # not 1 on the Lyndon word itself
    lambda w: {w: 1, (0,) * len(w): 1},  # support below the Lyndon word
])
def test_lie_basis_refuses_a_broken_triangle(monkeypatch, broken):
    # the check is a raise, not an assert statement, so python -O keeps it
    monkeypatch.setattr(W, "lyndon_bracket_words", broken)
    W.lie_basis.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not unitriangular"):
            W.lie_basis(3)
    finally:
        W.lie_basis.cache_clear()
