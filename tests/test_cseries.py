import hashlib
import random

from fractions import Fraction

import pytest

from associators import graded
from associators.cseries import (
    CSeries,
    ExactDivisionError,
    subst_reindex,
    subst_swap_ab,
)
from associators.graded import max_coeff
from associators.matspec import _subst_euler
from associators.rings import QQ, complex_field
from test_ncseries import numerator_digest


def random_cseries(rng, n, unit_constant=True):
    terms = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                if rng.random() < 0.35:
                    terms[(i, j, k)] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    if unit_constant:
        terms[(0, 0, 0)] = Fraction(1)
    return CSeries(QQ, n, terms)


def complex_cseries(rng, n, unit_constant=True):
    """A seeded QQ series times Gaussian-integer units, over complex_field(40)."""
    ring = complex_field(40)
    f = random_cseries(rng, n, unit_constant)
    return CSeries(ring, n, {m: ring.from_fraction(c) * ring.mp.mpc(1, rng.randint(-3, 3))
                             for m, c in f.terms.items()})


RANDOM_SERIES = {"QQ": random_cseries, "CC40": complex_cseries}


def test_geometric_inverse():
    a = CSeries.variable(QQ, 6, "a")
    one = CSeries.one(QQ, 6)
    inv = (one + a).inverse()
    expect = CSeries(QQ, 6, {(i, 0, 0): Fraction((-1) ** i) for i in range(7)})
    assert inv == expect


def test_q_is_stored_expanded():
    a, b, p, q = CSeries.gens(QQ, 4)
    assert q.coeff((1, 0, 0)) == 1
    assert q.coeff((0, 1, 0)) == 1
    assert q.coeff((0, 0, 1)) == 1


def test_distributivity_random():
    rng = random.Random(2)
    for _ in range(100):
        f = random_cseries(rng, 4)
        g = random_cseries(rng, 4)
        h = random_cseries(rng, 4)
        assert f * (g + h) == f * g + f * h


def test_inverse_round_trip_random():
    rng = random.Random(8)
    for _ in range(20):
        f = random_cseries(rng, 5)
        assert f * f.inverse() == CSeries.one(QQ, 5)


def test_subst_identity_and_swap():
    rng = random.Random(4)
    f = random_cseries(rng, 5)
    a = CSeries.variable(QQ, 5, "a")
    b = CSeries.variable(QQ, 5, "b")
    p = CSeries.variable(QQ, 5, "p")
    assert f.subst(a, b, p) == f

    _, _, _, q = CSeries.gens(QQ, 5)
    # q is symmetric in a, b
    assert subst_swap_ab(a * q) == b * q


def test_subst_respects_multiplication():
    rng = random.Random(9)
    for _ in range(20):
        f = random_cseries(rng, 4)
        g = random_cseries(rng, 4)
        assert subst_reindex(f * g) == subst_reindex(f) * subst_reindex(g)


def test_reindex_is_an_involution_fixing_q():
    rng = random.Random(10)
    f = random_cseries(rng, 5)
    assert subst_reindex(subst_reindex(f)) == f
    a, b, p, q = CSeries.gens(QQ, 5)
    assert subst_reindex(q) == q
    assert subst_reindex(p) == b - a


def test_divide_exact_variables_and_q():
    a, b, p, q = CSeries.gens(QQ, 6)
    f = a * b + a * p
    assert f.divide_exact("a") == (b + p).truncate(5)
    assert (q * q).divide_exact("q") == q.truncate(5)
    with pytest.raises(ExactDivisionError):
        (a * b).divide_exact("p")
    with pytest.raises(ExactDivisionError):
        (a * b).divide_exact("pq")


def test_divide_then_remultiply():
    rng = random.Random(12)
    a, b, p, q = CSeries.gens(QQ, 6)
    for form, mult in [("a", a), ("q", q), ("pq", p * q), ("ab", a * b)]:
        f = random_cseries(rng, 4)
        lifted = f.truncate(4 + len(form))  # f is a polynomial, lift is exact
        g = lifted * mult.truncate(4 + len(form))
        back = g.divide_exact(form)
        assert back == f.truncate(back.truncation)


def series_digest(fs):
    text = ";".join(repr(sorted((k, str(c)) for k, c in f.terms.items())) for f in fs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_subst_values_on_random_series():
    # twenty seeded series through the parameter maps and the division by q
    rng = random.Random(20)
    fs = [random_cseries(rng, 6, unit_constant=False) for _ in range(20)]
    _, _, _, q = CSeries.gens(QQ, 6)
    assert series_digest(map(subst_reindex, fs)) == "babb8a65346c9004"
    assert series_digest(map(subst_swap_ab, fs)) == "069fbad584195f71"
    assert series_digest((f * q).divide_exact("q") for f in fs) == "1a1ffd7ef7bb639e"
    forms = [CSeries(QQ, 6, f.homogeneous_part(1)) for f in fs]
    assert series_digest((f + q).subst(q, g, q - g) for f, g in zip(fs, forms)) == "9659c8cc1166cefc"


def test_divide_exact_by_q_over_the_complex_ring():
    # the complex ring takes the rounded path; its bits are pinned by the stored numerators
    f = complex_cseries(random.Random(21), 6)
    _, _, _, q = CSeries.gens(f.ring, 6)
    g = (f * q).divide_exact("q")
    assert g.truncation == 5 and max_coeff(g - f.truncate(5)) < 1e-45
    assert numerator_digest(g) == "0ddb9546ffce5821"


def test_subst_clears_denominators_exactly():
    # forms with denominators; the oracle multiplies out each monomial over Fractions
    rng = random.Random(22)
    a, b, p, _ = CSeries.gens(QQ, 6)
    forms = (a.scale(Fraction(1, 2)) - p.scale(Fraction(1, 3)), b + p.scale(Fraction(2, 5)),
             a - b.scale(Fraction(3, 4)))
    for _ in range(10):
        f = random_cseries(rng, 6)
        expect = CSeries.zero(QQ, 6)
        for m, c in f.terms.items():
            t = CSeries.one(QQ, 6).scale(c)
            for form, e in zip(forms, m):
                for _ in range(e):
                    t = t * form
            expect = expect + t
        got = f.subst(*forms)
        assert got == expect and got.truncation == 6
        # the ints of the walk never leave it
        assert all(type(c) is Fraction for c in got.terms.values())


# -- the key maps against the walk --------------------------------------------------

SHEARS = [(i, j, c) for i in range(3) for j in range(3) if i != j for c in (-2, -1, 3)]


@pytest.mark.parametrize("ring", sorted(RANDOM_SERIES))
def test_shear_is_the_walk_at_its_form(ring):
    rng = random.Random(23)
    for i, j, c in SHEARS:
        f, g = (RANDOM_SERIES[ring](rng, 6, unit_constant=False) for _ in range(2))
        forms = list(CSeries.gens(f.ring, 6)[:3])
        forms[i] = forms[i] + forms[j].scale(c)
        got = f.shear(i, j, c)
        walk = f.subst(*forms)
        assert got == walk
        assert numerator_digest(got) == numerator_digest(walk)
        assert got.shear(i, j, -c) == f
        # a complex product rounds once, before or after the exact shear
        defect = max_coeff((f * g).shear(i, j, c) - got * g.shear(i, j, c))
        assert defect == 0 if f.ring.exact else defect < 1e-45


@pytest.mark.parametrize("ring", sorted(RANDOM_SERIES))
def test_parameter_maps_are_the_walk_at_their_forms(ring):
    rng = random.Random(24)
    for _ in range(5):
        f = RANDOM_SERIES[ring](rng, 6)
        a, b, p, _ = CSeries.gens(f.ring, 6)
        for got, walk in [(subst_reindex(f), f.subst(a, a + p, b - a)),
                          (_subst_euler(f), f.subst(b + p, a + p, -p))]:
            assert got == walk
            assert numerator_digest(got) == numerator_digest(walk)


def test_parameter_maps_and_division_by_q_run_no_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("graded.substitute called")

    rng = random.Random(25)
    f = random_cseries(rng, 5)
    a, b, p, q = CSeries.gens(QQ, 5)
    monkeypatch.setattr(graded, "substitute", no_walk)
    with pytest.raises(AssertionError):
        f.subst(a, b, p)
    assert subst_reindex(subst_reindex(f)) == f
    assert _subst_euler(_subst_euler(f)) == f
    assert (f * q).divide_exact("q") == f.truncate(4)
    assert (f * p * q).divide_exact("pq") == f.truncate(3)


def test_division_reports_the_least_offending_monomial():
    # the remainder a (a + b)^2 mod q offends at a^3, a^2 b and a b^2: the least is a b^2
    a, b, p, q = CSeries.gens(QQ, 4)
    with pytest.raises(ExactDivisionError) as err:
        (a * b * q + p * p * a).divide_exact("q")
    assert err.value.monomial == (1, 2, 0)
    # by degree first, then by exponent triple
    with pytest.raises(ExactDivisionError) as err:
        (b * b + a * a * a + a).divide_exact("p")
    assert err.value.monomial == (1, 0, 0)
    with pytest.raises(ExactDivisionError) as err:
        (a * a * b + b * b + a * b).divide_exact("p")
    assert err.value.monomial == (0, 2, 0)
