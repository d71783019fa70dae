import hashlib
import random

from fractions import Fraction

import pytest

from associators import words as W
from associators.graded import max_coeff
from associators.ncseries import NCSeries, bracket, free_group_word, lie_element
from associators.rings import QQ, complex_field


def random_series(rng, n, unit_constant=True):
    terms = {}
    for w in W.all_words(n):
        if rng.random() < 0.4:
            terms[w] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    terms.pop((), None)
    if unit_constant:
        terms[()] = Fraction(1)
    return NCSeries(QQ, n, terms)


def random_grouplike(rng, n, start_degree=1):
    coords = {}
    for d in range(start_degree, n + 1):
        for lw, _ in W.lie_basis(d):
            coords[lw] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
    return lie_element(QQ, n, coords).exp()


def test_unit_and_low_degree_product():
    one = NCSeries.one(QQ, 3)
    assert one * one == one
    e0 = NCSeries.letter(QQ, 3, 0)
    e1 = NCSeries.letter(QQ, 3, 1)
    f = (one + e0) * (one + e1)
    assert f.coeff(()) == 1
    assert f.coeff((0,)) == 1
    assert f.coeff((1,)) == 1
    assert f.coeff((0, 1)) == 1
    assert f.coeff((1, 0)) == 0


def test_inverse_against_geometric_oracle():
    rng = random.Random(11)
    for _ in range(50):
        f = random_series(rng, 6)
        inv = f.inverse()
        assert f * inv == NCSeries.one(QQ, 6)
        assert inv * f == NCSeries.one(QQ, 6)


def test_convolution_law_brute_force():
    rng = random.Random(5)
    for _ in range(10):
        f = random_series(rng, 5)
        g = random_series(rng, 5)
        h = f * g
        for w in W.all_words(5):
            s = Fraction(0)
            for cut in range(len(w) + 1):
                s += f.coeff(w[:cut]) * g.coeff(w[cut:])
            assert h.coeff(w) == s


def test_exp_log_round_trip():
    e0 = NCSeries.letter(QQ, 6, 0)
    e1 = NCSeries.letter(QQ, 6, 1)
    x = e0 + e1
    assert x.exp().log() == x
    assert NCSeries.zero(QQ, 4).exp() == NCSeries.one(QQ, 4)


def test_exp_of_bracket_quadratic_coefficients():
    e0 = NCSeries.letter(QQ, 4, 0)
    e1 = NCSeries.letter(QQ, 4, 1)
    f = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    assert f.coeff((0, 1)) == Fraction(1, 24)
    assert f.coeff((1, 0)) == Fraction(-1, 24)


def test_substitute_homomorphism_on_random_pairs():
    # letter images must have no constant term for truncated substitution
    # to be a homomorphism
    rng = random.Random(3)
    n = 4
    a = random_series(rng, n, unit_constant=False)
    b = random_series(rng, n, unit_constant=False)
    for _ in range(50):
        f = random_series(rng, n)
        g = random_series(rng, n)
        lhs = (f * g).substitute(a, b)
        rhs = f.substitute(a, b) * g.substitute(a, b)
        assert lhs == rhs


def test_substitute_rejects_images_with_constant_term():
    f = NCSeries.one(QQ, 3)
    a = NCSeries.one(QQ, 3)
    b = NCSeries.letter(QQ, 3, 1)
    with pytest.raises(ValueError):
        f.substitute(a, b)


def test_substitute_single_word():
    e0 = NCSeries.letter(QQ, 3, 0)
    e1 = NCSeries.letter(QQ, 3, 1)
    w = e0 * e1
    a = random_series(random.Random(1), 3, unit_constant=False)
    b = random_series(random.Random(2), 3, unit_constant=False)
    assert w.substitute(a, b) == a * b
    assert NCSeries.one(QQ, 3).substitute(a, b) == NCSeries.one(QQ, 3)


def test_grouplike_predicates():
    one = NCSeries.one(QQ, 4)
    assert one.is_grouplike()
    assert one.is_commutator_grouplike()
    assert one.is_even()

    e0 = NCSeries.letter(QQ, 4, 0)
    g = e0.exp()
    assert g.is_grouplike()
    assert not g.is_commutator_grouplike()

    e1 = NCSeries.letter(QQ, 4, 1)
    f = bracket(e0, e1).scale(Fraction(1, 24)).exp()
    assert f.is_grouplike()
    assert f.is_commutator_grouplike()
    assert f.is_even()

    # products of grouplikes stay grouplike
    rng = random.Random(17)
    for _ in range(5):
        g1 = random_grouplike(rng, 4)
        g2 = random_grouplike(rng, 4)
        assert g1.is_grouplike()
        assert (g1 * g2).is_grouplike()
        assert g1.inverse().is_grouplike()

    # a random unit-constant series is overwhelmingly unlikely to be grouplike
    h = random_series(random.Random(23), 4)
    assert not h.is_grouplike()


def test_commutator_grouplike_dual_word_symmetry():
    # for commutator grouplike g: (-1)^dp(w) (g|w) is dual-word invariant
    # only in the presence of the 2-cycle relation, so test the weaker,
    # always-true statements: vanishing linear part and grouplikeness
    rng = random.Random(29)
    g = random_grouplike(rng, 5, start_degree=2)
    assert g.coeff((0,)) == 0 and g.coeff((1,)) == 0
    assert g.is_commutator_grouplike()


def test_letter_maps():
    rng = random.Random(31)
    f = random_series(rng, 5)
    assert f.swap_letters().swap_letters() == f
    assert f.reflect().reflect() == f
    # swap_letters agrees with substitution by the letters in swapped order
    e0 = NCSeries.letter(QQ, 5, 0)
    e1 = NCSeries.letter(QQ, 5, 1)
    assert f.swap_letters() == f.substitute(e1, e0)


def mpc_digest(*vectors):
    """sha256 of the mpmath bits of every coefficient of word -> mpc dicts."""
    text = ";".join(repr(sorted((w, c._mpc_) for w, c in v.items())) for v in vectors)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def numerator_digest(*series):
    """sha256 of the denominator and of the stored numerators, as (real, imag)
    int pairs, of series over the complex ring."""
    text = ";".join("%d %r" % (f.denominator, sorted((k, c.real, c.imag) for k, c in f.numerators.items()))
                    for f in series)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def qq_digest(*vectors):
    """sha256 of the str of every Fraction of key -> Fraction dicts, sorted
    by key."""
    text = ";".join(repr(sorted((k, str(c)) for k, c in v.items())) for v in vectors)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def distance_to_rationals(f, re, im=None):
    """Largest |f_w - (re_w + i im_w)| over the words of f's truncation, for
    a series f over a complex ring and QQ series re and im."""
    ring, i = f.ring, f.ring.mp.mpc(0, 1)
    im = im if im is not None else re.scale(0)
    return max(float(abs(f.coeff(w) - ring.from_fraction(re.coeff(w))
                         - ring.from_fraction(im.coeff(w)) * i))
               for w in W.all_words(f.truncation))


def test_lie_element_and_free_group_word_keep_their_complex_bits():
    # the Lyndon brackets' int multiplicities and the word's int exponents
    # enter the complex ring exactly
    ring = complex_field(40)
    rng = random.Random(43)
    parts = {lw: (Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])), rng.randint(-2, 2))
             for d in range(1, 7) for lw, _ in W.lie_basis(d)}
    f = lie_element(ring, 6, {lw: ring.from_fraction(q) * ring.mp.mpc(1, k)
                              for lw, (q, k) in parts.items()})
    # lie_element is linear: its real and imaginary parts are Lie elements over QQ
    re = lie_element(QQ, 6, {lw: q for lw, (q, _) in parts.items()})
    im = lie_element(QQ, 6, {lw: q * k for lw, (q, k) in parts.items()})
    assert distance_to_rationals(f, re, im) < 1e-45
    assert max_coeff(f.exp().log() - f) < 1e-45
    back = [W.lie_coordinates(f.homogeneous_part(d), d) for d in range(1, 7)]
    assert max_coeff(f - lie_element(ring, 6, {lw: c for part, _ in back
                                               for lw, c in part.items()})) < 1e-45
    word = [("x0", 2), ("x1", -1), ("x0", -3), ("x1", 2)]
    g = free_group_word(ring, 6, word)
    assert distance_to_rationals(g, free_group_word(QQ, 6, word)) < 1e-45
    assert numerator_digest(f, f.exp(), g) == "fba6c4e3604eb230"
    assert mpc_digest(*(v for pair in back for v in pair)) == "e9ccc60fbca8f371"


@pytest.mark.parametrize("pair", [("x_0", 1), ("e1", 1), ("x0", Fraction(1, 2)), ("x1", 0.5)])
def test_free_group_word_rejects_what_is_no_letter_power(pair):
    # a generator other than x0 once read as x1, a fractional power as its int part
    with pytest.raises(ValueError):
        free_group_word(QQ, 3, [("x0", 1), pair])
    assert free_group_word(QQ, 3, [("x1", Fraction(2))]) == free_group_word(QQ, 3, [("x1", 2)])
