"""Associator candidates, their axioms, the degreewise pentagon solver, and
the Grothendieck-Teichmueller torsor machinery.

Group elements of the completed free group are represented throughout in
the exponential picture: a GT pair (lambda, f) carries the series
s = f(e^(e0), e^(e1)), so that evaluating f at group-like arguments alpha,
beta amounts to substituting log(alpha), log(beta) into s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import words as W
from .ncseries import NCSeries, free_group_word, lie_element, max_coeff
from .pentagon import NFIBRE, P5Quotient, PENTAGON_POSITIONS, lie_image, pentagon_residual
from .rings import QQ


def _same_truncation(series, truncation):
    # truncate would lift a shorter series, inventing zero coefficients
    if series.truncation != truncation:
        raise ValueError("truncation %d differs from the series' %d" % (truncation, series.truncation))


@dataclass
class AssociatorCandidate:
    mu: object
    phi: NCSeries
    truncation: int

    def __post_init__(self):
        _same_truncation(self.phi, self.truncation)

    @property
    def ring(self):
        return self.phi.ring


@dataclass
class GTElement:
    lam: object
    series: NCSeries  # f(e^(e0), e^(e1)) as a group-like series
    truncation: int

    def __post_init__(self):
        _same_truncation(self.series, self.truncation)

    @property
    def ring(self):
        return self.series.ring

    def quadratic_defect(self):
        """(f(e^e0, e^e1) | e0 e1) - (lambda^2 - 1)/24, zero for GT pairs."""
        ring = self.ring
        target = (self.lam * self.lam - ring.one) * ring.from_fraction(Fraction(1, 24))
        return self.series.coeff((0, 1)) - target

    @classmethod
    def identity(cls, ring, truncation):
        return cls(ring.one, NCSeries.one(ring, truncation), truncation)


# -- axioms ---------------------------------------------------------------------


def two_cycle_defect(phi: NCSeries) -> float:
    return max_coeff(phi * phi.swap_letters() - NCSeries.one(phi.ring, phi.truncation))


def three_cycle_defect(phi: NCSeries, mu) -> float:
    """e^(mu e0/2) phi(einf, e0) e^(mu einf/2) phi(e1, einf) e^(mu e1/2)
    phi(e0, e1) - 1."""
    ring, n = phi.ring, phi.truncation
    half = ring.from_fraction(Fraction(1, 2)) * mu
    e0 = NCSeries.letter(ring, n, 0)
    e1 = NCSeries.letter(ring, n, 1)
    einf = -(e0 + e1)
    prod = (
        e0.scale(half).exp()
        * phi.substitute(einf, e0)
        * einf.scale(half).exp()
        * phi.substitute(e1, einf)
        * e1.scale(half).exp()
        * phi
    )
    return max_coeff(prod - NCSeries.one(ring, n))


def check_associator(cand: AssociatorCandidate, quotient: P5Quotient,
                     tol: float = 0.0, pentagon_degree: int = None) -> dict:
    """Per-axiom report.  The derived 2- and 3-cycle relations are verified,
    not assumed.  For inexact rings a tolerance applies; for QQ every check
    is exact.  The pentagon verdict reads the two faces of the pentagon
    product (see pentagon.py), which decide it exactly when phi is
    group-like; "commutator_grouplike" reports whether it is."""
    phi, mu, ring = cand.phi, cand.mu, cand.ring
    report = {}
    report["mu_invertible"] = bool(mu)
    quad = phi.coeff((0, 1)) - mu * mu * ring.from_fraction(Fraction(1, 24))
    report["quadratic"] = abs(quad) <= tol
    report["commutator_grouplike"] = phi.is_commutator_grouplike(tol)
    report["even"] = phi.is_even(tol)
    deg = min(cand.truncation, quotient.truncation)
    if pentagon_degree is not None:
        deg = min(deg, pentagon_degree)
    res = pentagon_residual(phi.truncate(deg), quotient)
    report["pentagon"] = max_coeff(res) <= tol
    report["pentagon_degree"] = deg
    report["two_cycle"] = two_cycle_defect(phi) <= tol
    report["three_cycle"] = three_cycle_defect(phi, mu) <= tol
    return report


# -- exact linear algebra over QQ (small systems) ----------------------------------


class InconsistentSystem(ArithmeticError):
    pass


def solve_fraction_system(columns, rhs):
    """Solve sum_j x_j col_j = rhs over QQ; the columns and rhs are sparse
    dicts key -> Fraction (or int).  Returns (particular, nullspace) where
    particular is a list of Fractions (free variables set to 0) and
    nullspace is a list of basis vectors, each with 1 at its free column.

    Both come from the reduced row echelon form R, computed fraction-free:
    each row is scaled by the lcm of its denominators, and Gauss-Jordan
    elimination in the form of Bareiss keeps the matrix equal to D R with D
    the last pivot.  A pivot p in row r and column c turns every other row
    into (p row - row[c] row_r) / D_old, an exact division (Bareiss 1968;
    Nakos, Turner and Williams 1997), and D becomes p.  Rows that become zero
    are dropped on the way."""
    support = set(rhs)
    for col in columns:
        support.update(col)
    ncols = len(columns)
    rows = []
    for key in sorted(support):
        row = [Fraction(col.get(key, 0)) for col in columns]
        row.append(Fraction(rhs.get(key, 0)))
        if any(row):
            den = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (den // x.denominator) for x in row])

    den, pivots, r = 1, [], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            a = row[c]
            if a:
                rows[i] = [(p * x - a * y) // den for x, y in zip(row, prow)]
            elif p != den:
                rows[i] = [p * x // den for x in row]
        rows = rows[:r + 1] + [row for row in rows[r + 1:] if any(row)]
        den = p
        pivots.append(c)
        r += 1
    if len(rows) > r:
        raise InconsistentSystem("no solution")

    particular = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        particular[c] = Fraction(row[ncols], den)
    nullspace = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = Fraction(-row[fc], den)
        nullspace.append(vec)
    return particular, nullspace


# -- the degreewise solver ------------------------------------------------------------


@dataclass
class SolveReport:
    """Per solved degree d: the dimension of the nullspace, the numbers of
    Lyndon rows and of columns (the Lie basis) of the system, and the
    nullspace basis as {lyndon_word: coefficient} dicts, each a Lie element
    whose addition to log phi at degree d leaves the pentagon intact there."""
    nullspace_dims: dict
    rows: dict
    columns: dict
    nullspaces: dict


def _lyndon_rows(d):
    """The Lyndon words of degree d on the fibre letters 0, 1, 2 and on the
    base letters 3, 4."""
    return set(W.lyndon_words(d, NFIBRE)) | {tuple(x + NFIBRE for x in w) for w in W.lyndon_words(d)}


def _pentagon_column(lw, rows, quotient, memo):
    """The column of the Lyndon word lw on the given rows: the degree-|lw|
    part of both pentagon faces of its Lie element, summed over the five
    positions, which is the sum of the pairs lie_image(lw, i, j, k)."""
    col = {}
    for ijk in PENTAGON_POSITIONS:
        for part in lie_image(lw, *ijk, quotient, memo):
            for w, c in part.items():
                if w in rows:
                    col[w] = col.get(w, 0) + c
    return {w: c for w, c in col.items() if c}


def solve_unitary(n: int, quotient: P5Quotient, tiebreak: str = "zero",
                  even: bool = True):
    """Construct a unitary (mu = 1) associator up to degree n by solving the
    pentagon equation degree by degree.

    Unknowns at each degree are Lyndon-basis coordinates of the logarithm
    (so the output is commutator group-like by construction).  With
    even=True the odd degrees are forced to zero and the vanishing of the
    corresponding residual components is verified rather than assumed.
    Free parameters are resolved by the tiebreak policy: "zero" takes all
    zero, "lex" sets the lexicographically first free parameter to 1.

    The degree-d system is linear and lives in the Lie algebra
    p_5 = F_3 x| F_2.  With phi right through degree d - 1, the degree-d part
    of the pentagon residual is a Lie element of F_3 + F_2 (the lowest part
    of a group-like element), and so is each column: the sum over the five
    positions of the Lyndon element's image in p_5 (pentagon.lie_image).  A
    Lie polynomial is zero exactly when its coefficients on the Lyndon words
    are, since the Lyndon elements are unitriangular against the Lyndon
    words (Reutenauer, Free Lie Algebras, 1993, Thm 5.1); so only the rows of
    Lyndon words, fibre words on 0, 1, 2 and base words on 3, 4, enter the
    elimination, which solve_fraction_system runs on integers.  At each
    degree the whole residual is computed, and a term below degree d raises
    InconsistentSystem: every earlier solution is re-checked on all rows.
    """
    if n < 2:
        raise ValueError("need degree >= 2")
    if quotient.truncation < n:
        raise ValueError("pentagon algebra truncation too small")
    if tiebreak not in ("zero", "lex"):
        raise ValueError("unknown tiebreak policy %r" % tiebreak)

    coords = {(0, 1): Fraction(1, 24)}  # quadratic term: (phi|e0e1) = 1/24
    report = SolveReport({}, {}, {}, {})

    memo = {}  # lie_image's sub-brackets, shared by the degrees
    for d in range(2, n + 1):
        phi_d = lie_element(QQ, d, coords).exp()
        residual = pentagon_residual(phi_d, quotient)
        if residual.min_degree() < d:
            raise InconsistentSystem(
                "the solution through degree %d leaves a pentagon residual at "
                "degree %d" % (d - 1, residual.min_degree()))
        b = residual.homogeneous_part(d)
        if d == 2 or (even and d % 2 == 1):
            # no unknowns at this degree: the residual must vanish by itself
            if b:
                raise InconsistentSystem(
                    "pentagon residual does not vanish at degree %d with no "
                    "free coefficients; this falsifies existence at truncation" % d)
            continue
        basis = W.lie_basis(d)
        rows = _lyndon_rows(d)
        columns = [_pentagon_column(lw, rows, quotient, memo) for lw, _ in basis]
        rhs = {m: -c for m, c in b.items() if m in rows}
        particular, nullspace = solve_fraction_system(columns, rhs)
        report.nullspace_dims[d] = len(nullspace)
        report.rows[d], report.columns[d] = len(rows), len(columns)
        report.nullspaces[d] = [{lw: c for (lw, _), c in zip(basis, vec) if c} for vec in nullspace]
        pick = list(particular)
        if tiebreak == "lex" and nullspace:
            pick = [x + y for x, y in zip(pick, nullspace[0])]
        for (lw, _), c in zip(basis, pick):
            if c:
                coords[lw] = c

    phi = lie_element(QQ, n, coords).exp()
    cand = AssociatorCandidate(mu=QQ.one, phi=phi, truncation=n)
    return cand, report


# -- torsor action ------------------------------------------------------------------------
#
# Self-checks allow the ring's noise floor (0 over QQ), since roundoff
# defeats exact equality.


def _comp_images(phi, mu):
    """(mu e0, mu phi^-1 e1 phi): the logarithms of the images of x0 and x1
    under x0 -> exp(mu e0), x1 -> phi^-1 exp(mu e1) phi.  phi must be
    group-like: its inverse is taken as its antipode."""
    e0 = NCSeries.letter(phi.ring, phi.truncation, 0)
    e1 = NCSeries.letter(phi.ring, phi.truncation, 1)
    return e0.scale(mu), (phi.antipode() * e1 * phi).scale(mu)


def _conjugate_first(s, g, lam):
    """s(lam g e0 g^-1, lam e1) g: gt_act's left form and gt_compose's series;
    g is group-like (an associator or a GT series), so g^-1 is its antipode."""
    e0 = NCSeries.letter(g.ring, g.truncation, 0)
    e1 = NCSeries.letter(g.ring, g.truncation, 1)
    return s.substitute((g * e0 * g.antipode()).scale(lam), e1.scale(lam)) * g


def gt_act(gt: GTElement, cand: AssociatorCandidate):
    """(lambda, f) acting on (mu, phi): (lambda mu,
    phi * f(e^(mu e0), phi^-1 e^(mu e1) phi)).

    The equivalent left-hand form f(phi e^(mu e0) phi^-1, e^(mu e1)) * phi
    is recomputed and compared; a mismatch would signal an implementation
    bug, not bad input.
    """
    n = min(cand.truncation, gt.truncation)
    phi, s = cand.phi.truncate(n), gt.series.truncate(n)
    right = phi * s.substitute(*_comp_images(phi, cand.mu))
    left = _conjugate_first(s, phi, cand.mu)
    if max_coeff(left - right) > cand.ring.noise_floor:
        raise AssertionError("the two torsor-action forms disagree")
    return AssociatorCandidate(mu=gt.lam * cand.mu, phi=right, truncation=n)


def gt_compose(g1: GTElement, g2: GTElement) -> GTElement:
    """Group law (lambda1, f1) * (lambda2, f2) =
    (lambda2 lambda1, f1(f2 x^(lambda2) f2^-1, y^(lambda2)) f2)."""
    n = min(g1.truncation, g2.truncation)
    series = _conjugate_first(g1.series.truncate(n), g2.series.truncate(n), g2.lam)
    return GTElement(lam=g1.lam * g2.lam, series=series, truncation=n)


def gt_from_pair(c1: AssociatorCandidate, c2: AssociatorCandidate) -> GTElement:
    """The unique lambda = 1 element f with gt_act((1, f), c1) = c2 for two
    associators sharing the same mu; solved degree by degree (the
    substitution x0 -> e^(mu e0), x1 -> phi^-1 e^(mu e1) phi is triangular
    in the degree: degree d of f is mu^-d times that of the defect
    phi1^-1 phi2 - f(images) left by its lower degrees).  phi1 is
    group-like, so phi1^-1 is its antipode."""
    ring = c1.ring
    if abs(c1.mu - c2.mu) > ring.noise_floor:
        raise ValueError("gt_from_pair needs equal mu")
    n = min(c1.truncation, c2.truncation)
    mu_inv = ring.one / c1.mu
    phi1 = c1.phi.truncate(n)
    target = phi1.antipode() * c2.phi.truncate(n)
    images = _comp_images(phi1, c1.mu)

    series, scale = NCSeries.one(ring, n), mu_inv
    for d in range(1, n + 1):
        part = (target - series.substitute(*images)).homogeneous_part(d)
        series = series + NCSeries(ring, n, part).scale(scale)
        scale = scale * mu_inv
    if max_coeff(series.substitute(*images) - target) > ring.noise_floor:
        raise InconsistentSystem("substitution inversion failed; inputs are not "
                                 "a torsor pair at this truncation")
    return GTElement(lam=ring.one, series=series, truncation=n)


# -- fake comparison map -------------------------------------------------------------------


def comp_fake(cand: AssociatorCandidate, element):
    """Image of a free-group element under x0 -> exp(mu e0),
    x1 -> phi^-1 exp(mu e1) phi.

    element is either a list of (generator, integer exponent) pairs with
    generator in {"x0", "x1"} or a group-like NCSeries in the exponential
    picture.
    """
    n = cand.truncation
    if not isinstance(element, NCSeries):
        element = free_group_word(cand.ring, n, element)
    return element.substitute(*_comp_images(cand.phi.truncate(n), cand.mu))


def comp_fake_xinf_defect(cand: AssociatorCandidate) -> float:
    """Check of the closed form for the image of x_inf = (x0 x1)^-1 at
    mu = 1: Ad(phi(e0, einf) e^(-e0/2))^-1 (e^(einf)) against the direct
    image of x1^-1 x0^-1."""
    ring, n = cand.ring, cand.truncation
    direct = comp_fake(cand, [("x1", -1), ("x0", -1)])
    e0 = NCSeries.letter(ring, n, 0)
    e1 = NCSeries.letter(ring, n, 1)
    einf = -(e0 + e1)
    u = cand.phi.substitute(e0, einf) * e0.scale(Fraction(-1, 2)).exp()
    closed = u.inverse() * einf.exp() * u
    return max_coeff(direct - closed)
