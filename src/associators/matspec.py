"""The 2x2 matrix specialization and its entry-level identities.

Series in e0, e1 are evaluated at the matrices

    X = [[0, b], [0, p]],   Y = [[0, 0], [a, q]],   q = a + b + p,

over the commutative series ring in (a, b, p).  The module hosts:

- the per-word closed forms of the evaluation entries, which depend on the
  word only through its (weight, depth, height); summed per statistic they
  give the Ohno-Zagier generating sum of the (1,1) entry;
- the gamma-ratio matrix attached to a gamma series, built from four gamma
  ratios (main, top, low, diag), with its SL2 property and its comparison
  against the evaluation of an associator;
- the evaluation homomorphism theta: x0 -> e^X, x1 -> M^(-1) e^(-Y) M for
  the even gamma matrix M, on series and on free-group words;
- the six solution matrices, of which theta is the first (01).  Each is
  g(u, w) for the row (u, C, v) of its base point 0, 1 or infinity, over X,
  Y, M and the (einf, e1) evaluation N of the associator:
  w = C v C^(-1) for the stars 01, 10 and inf1, and
  w = log(e^(-u/2) C e^(-v) C^(-1) e^(-u/2)) for 0inf, 1inf and inf0;
- the transformation and weighted-sum identities for arbitrary group-like
  series, the appendix entry relations, and the formal Gauss summation
  identity.

An identity that reads only row 0, where the hypergeometric function and
its companion sit, takes first_row: e0^T f(m0, m1) = (f^rev(m0^T, m1^T)
E00)^T, a walk of one column.  ev_at, cocycle_image, v_matrix and theta
give whole matrices.

Every function works at the truncation of the series it is given.

All statements with denominators are handled through cleared forms and
exact division; a division failure is a finding (it falsifies the identity
that promised divisibility), never a crash path swallowed silently.
"""

from __future__ import annotations

from fractions import Fraction

from . import graded
from . import words as W
from .associator import AssociatorCandidate, GTElement
from .cseries import CSeries, ExactDivisionError, subst_swap_ab, subst_reindex
from .gammafn import GammaSeries, gamma_even, gamma_of_associator, gamma_of_gt
from .graded import max_coeff
from .mat2 import MatSeries, mat_exp_graded
from .ncseries import NCSeries, free_group_word
from .rings import QQ


# -- the base matrices --------------------------------------------------------


def xy_matrices(ring, truncation):
    a, b, p, q = CSeries.gens(ring, truncation)
    zero = CSeries.zero(ring, truncation)
    return MatSeries.of(zero, b, zero, p), MatSeries.of(zero, zero, a, q)


def ev_at(f: NCSeries, m0: MatSeries, m1: MatSeries) -> MatSeries:
    """f at a pair of matrices."""
    return f.substitute(m0, m1)


def first_row(f: NCSeries, m0: MatSeries, m1: MatSeries) -> MatSeries:
    """Row 0 of f(m0, m1), row 1 zero, by a walk that carries one column.
    The entries commute, so (I_w1 ... I_wL)^T = I_wL^T ... I_w1^T, and

        e0^T f(m0, m1) = (f^rev(m0^T, m1^T) E00)^T,

    f^rev being f with every word reversed and E00 the matrix unit at (0, 0):
    the walk's one, so that every node holds column 0 only.  Over QQ row 0
    equals ev_at's; over the complex ring it is one walk, as ev_at is."""
    e00 = MatSeries(m0.ring, m0.truncation, {(0, 0, 0, 0, 0): m0.ring.one})
    rev = f.relabel(lambda w: w[::-1])
    return rev.substitute(m0.transpose(), m1.transpose(), one=e00).transpose()


def ev_xy(f: NCSeries) -> MatSeries:
    """Evaluation at (X, -Y)."""
    x, y = xy_matrices(f.ring, f.truncation)
    return ev_at(f, x, -y)


# -- per-word closed forms of the evaluation entries ----------------------------


def _exponents(w):
    """(k - n - s, n - s, s - 1) for the weight k, depth n and height s of a
    word: the exponents of (p, q, ab + pq) in its entries at (X, -Y)."""
    k, n, s = W.weight(w), W.depth(w), W.height(w)
    return k - n - s, n - s, s - 1


def word_entry_closed_form(ring, truncation, w, entry):
    """Closed form of a single entry of the evaluation of a word at (X, -Y),
    as a polynomial in (ab, p, q, ab+pq) determined by (weight, depth,
    height); entries (1,1), (1,2) and (2,1) are covered, with the sign
    (-1)^depth, the prefactors ab, b and a and the p or q shift of their row.

    Row 1 is supported on words starting with e0, column 1 on words ending
    with e1.
    """
    a, b, p, q = CSeries.gens(ring, truncation)
    if not w:
        one = CSeries.one(ring, truncation)
        return one if entry in ((0, 0), (1, 1)) else CSeries.zero(ring, truncation)
    forms = {(0, 0): (a * b, 0, 0), (0, 1): (b, 0, 1), (1, 0): (a, 1, 0)}
    if entry not in forms:
        raise ValueError("closed form available for entries (0,0), (0,1), (1,0) only")
    if (entry[0] == 0 and w[0] != W.E0) or (entry[1] == 0 and w[-1] != W.E1):
        return CSeries.zero(ring, truncation)
    (i, j, l), (pre, dp, dq) = _exponents(w), forms[entry]
    mono = CSeries(ring, truncation, {(i + dp, j + dq, l): (-1) ** W.depth(w)})
    return graded.substitute(mono, p, q, a * b + p * q, one=pre)  # pre p^i q^j (ab+pq)^l


def _stats_sum(f: NCSeries, ab, p, q, abq) -> CSeries:
    """f's constant term plus ab times the sum over the words w from e0 to
    e1 of (f | w)'s zeta value p^i q^j abq^l, (i, j, l) = _exponents(w): the
    zeta values summed per exponent (per weight, depth and height, the
    admissible indices), then one walk at (p, q, abq) with ab as its one."""
    groups = {}
    for w in f.numerators:
        if w and w[0] == W.E0 and w[-1] == W.E1:
            e = _exponents(w)
            groups[e] = groups.get(e, f.ring.zero) + W.zeta_value(f, W.index_from_word(w))
    n = ab.truncation
    return CSeries.one(f.ring, n).scale(f.constant_term()) + graded.substitute(
        CSeries(f.ring, n, groups), p, q, abq, one=ab)


def ohno_zagier_sum(phi: NCSeries) -> CSeries:
    """(phi | 1) + ab sum g0(k,n,s) p^(k-n-s) q^(n-s) (ab+pq)^(s-1), where g0
    aggregates the zeta values of phi over admissible indices of fixed
    (weight, depth, height): the (1,1) entry of phi at (X, -Y).

    Over words k >= n + s and n >= s always hold; the weight-2 coefficient
    forces this reading over the strict k > n + s."""
    a, b, p, q = CSeries.gens(phi.ring, phi.truncation)
    return _stats_sum(phi, a * b, p, q, a * b + p * q)


def ohno_zagier_exponential(phi: NCSeries) -> CSeries:
    """exp sum_{n>=2} zeta_phi(n)/n {p^n + q^n - (a+p)^n - (b+p)^n}, i.e. the
    main gamma ratio of _ratios, at (-p, -q; -p-a, -p-b)."""
    gamma = gamma_of_associator(AssociatorCandidate(phi.ring.one, phi, phi.truncation))
    return _ratios(gamma, phi.truncation)[0]


# -- gamma-ratio matrix ----------------------------------------------------------


class GammaMatrix:
    """The 2x2 matrix attached to a gamma series: a unimodular matrix m over
    the (a, b, p) series ring.  det_defect is the largest coefficient of
    det m - 1; det_is_one compares it with the ring's noise floor, as
    varphi_equals_gamma_matrix compares entries."""

    def __init__(self, m: MatSeries):
        self.m = m
        self.det_defect = max_coeff(m.det() - CSeries.one(m.ring, m.truncation))
        self.det_is_one = self.det_defect <= m.ring.noise_floor


def _ratios(gamma: GammaSeries, truncation: int):
    """The gamma ratios (main, top, low, diag), at (-p, -q; -p-a, -p-b),
    (p, -q; -a, -b), (-p, q; a, b) and (p, q; p+a, p+b).  The sign map
    (a, b, p) -> -(a, b, p), q -> -q, sends diag to main and low to top."""
    a, b, p, q = CSeries.gens(gamma.ring, truncation)
    low, diag = gamma.ratio(-p, q, a, b), gamma.ratio(p, q, p + a, p + b)
    return diag.reflect(), low.reflect(), low, diag


def gamma_ratio_matrix(gamma: GammaSeries, truncation: int) -> GammaMatrix:
    """Assemble the associated 2x2 matrix from a gamma series.  Over QQ,
    when two extra orders of gamma are available, the ratios are computed
    once, two orders higher, which _matrix_of_ratios cross-checks."""
    n = truncation
    if gamma.order < n:
        raise ValueError("gamma series order %d too small for truncation %d"
                         % (gamma.order, n))
    extra = 2 if gamma.ring.exact and gamma.order >= n + 2 else 0
    return _matrix_of_ratios(_ratios(gamma, n + extra), n)


def _matrix_of_ratios(ratios, truncation: int) -> GammaMatrix:
    """The 2x2 matrix at the truncation from the four gamma ratios of
    _ratios, given at that truncation or above.

    Off-diagonal entries go through the brace forms whose divisibility by p
    and q is exactly what the unimodularity argument promises.  The (2,2)
    entry is produced from det = 1 (which only needs gamma up to the
    truncation order); over QQ, when the ratios are given at two orders
    more, the explicit pq-division route is computed as well and
    cross-checked.
    """
    ring, n = ratios[0].ring, truncation
    cross_check = ring.exact and ratios[0].truncation == n + 2
    r_main, r_top, r_low = (r.truncate(n) for r in ratios[:3])
    a, b, p, q = CSeries.gens(ring, n)

    m11 = r_main
    # multiplying by the degree-1 forms restores the degree lost to the
    # exact division, so lifting the quotient's truncation first is sound
    m12 = (b * (r_top - r_main).divide_exact("p").truncate(n)).truncate(n)
    m21 = (a * (r_low - r_main).divide_exact("q").truncate(n)).truncate(n)
    m22 = (CSeries.one(ring, n) + m12 * m21) * m11.inverse()
    m = MatSeries.of(m11, m12, m21, m22)

    if cross_check:
        main, top, low, diag = ratios
        a2, b2, p2, q2 = CSeries.gens(ring, n + 2)
        num = (a2 * b2 + p2 * q2) * diag + (a2 * b2) * (main - low - top)
        alt22 = num.divide_exact("pq")
        if not (alt22 == m22.truncate(alt22.truncation)):
            raise AssertionError("the two (2,2) entry routes disagree")

    return GammaMatrix(m)


def gamma_matrix_plus(truncation: int, ring=QQ) -> GammaMatrix:
    """The matrix of the even unitary gamma series."""
    return gamma_ratio_matrix(gamma_even(truncation + 2, ring), truncation)


def first_entry_mismatch(m1: MatSeries, m2: MatSeries):
    """None when equal; otherwise (entry, monomial, difference) for the first
    differing coefficient, by entry, then degree, then monomial."""
    d = (m1 - m2).terms
    if not d:
        return None
    k = min(d, key=lambda m: (m[:2], sum(m[2:]), m[2:]))
    return k[:2], k[2:], d[k]


def varphi_equals_gamma_matrix(cand: AssociatorCandidate):
    """Entrywise comparison of the evaluation of phi at (X, -Y) with the
    matrix built from its gamma series, up to the ring's noise floor."""
    lhs = ev_xy(cand.phi)
    gm = gamma_ratio_matrix(gamma_of_associator(cand), cand.truncation)
    tol = cand.ring.noise_floor
    diff_max = max_coeff(lhs - gm.m)
    report = {
        "equal": diff_max <= tol,
        "max_entry_difference": diff_max,
        "det_is_one": gm.det_is_one,
        "first_mismatch": None if diff_max <= tol else first_entry_mismatch(lhs, gm.m),
    }
    return report, lhs, gm


# -- evaluation homomorphism and the formal hypergeometric series ----------------------


class ThetaMap:
    """The "01" solution: x0 -> e^X, x1 -> M^(-1) e^(-Y) M for the even
    unitary gamma matrix M; the (1,1) entry of the image of a group element
    is the formal hypergeometric series.  Holds X, Y, M, M^(-1) and the log
    image of x1, M^(-1) (-Y) M, as MatSeries."""

    def __init__(self, truncation, ring=QQ, gamma_matrix=None):
        gm = gamma_matrix if gamma_matrix is not None else gamma_matrix_plus(truncation, ring)
        if gm.m.truncation != truncation or gm.m.ring is not ring:
            raise ValueError("the gamma matrix has another truncation or ring than the map")
        self.m_plus, self.m_inv = gm.m, gm.m.inverse()
        self.x, self.y = xy_matrices(ring, truncation)
        self.log_image1 = (self.m_inv * (-self.y)) * self.m_plus

    def _series(self, element) -> NCSeries:
        if isinstance(element, NCSeries):
            return element
        return free_group_word(self.x.ring, self.x.truncation, element)

    def __call__(self, element) -> MatSeries:
        """Image of a group-like series in the exponential picture, or of a
        free-group word [(generator, exponent), ...]."""
        return self._series(element).substitute(self.x, self.log_image1)

    def formal_2f1(self, element) -> CSeries:
        """The (1,1) entry of the image, by the first-row walk."""
        return first_row(self._series(element), self.x, self.log_image1)[0, 0]


# -- matrix logarithm for the non-conjugation closed forms ---------------------------


def mat_log_graded(m: MatSeries) -> MatSeries:
    return graded.log(m)


# -- the six solution matrices -----------------------------------------------------


V_STARS = ("01", "10", "1inf", "inf1", "inf0", "0inf")


def n_plus_matrix(phi: NCSeries) -> MatSeries:
    """Evaluation at (X, -Y) of phi(einf, e1), i.e. phi substituted at
    (Y - X, -Y)."""
    x, y = xy_matrices(phi.ring, phi.truncation)
    return ev_at(phi, y - x, -y)


def _row(star, theta, n_plus=None):
    """(u, C, C^(-1), v, K) of a star.  The stars pair up by base point, one
    row (u, C, v) per pair: 01, 0inf at 0 with (X, M^(-1), -Y); 10, 1inf at
    1 with (-Y, M, X); inf1, inf0 at infinity with (Y - X, N^(-1), -Y).  K is
    the star's constant column mix times its clearing monomial, b at 0 and
    infinity, bq at 1, so that its entries are polynomials."""
    x, y, m, m_inv = theta.x, theta.y, theta.m_plus, theta.m_inv
    a, b, p, q = CSeries.gens(x.ring, x.truncation)
    zero = CSeries.zero(x.ring, x.truncation)
    if star in ("01", "0inf"):
        return x, m_inv, m, -y, MatSeries.of(b, b, zero, p)
    if star in ("10", "1inf"):
        q22 = q * q - q if star == "10" else q - q * q
        return -y, m, m_inv, x, MatSeries.of(b * q, zero, -(a * b), q22)
    if star in ("inf1", "inf0"):
        if n_plus is None:
            raise ValueError("stars inf1, inf0 need the n_plus matrix")
        return y - x, n_plus.inverse(), n_plus, -y, MatSeries.of(b, b, -a, -b)
    raise ValueError("unknown star %r" % star)


def _star_images(star, theta, n_plus=None):
    """The letter images (u, w) of a star's row (u, C, v): w = C v C^(-1) at
    the near stars 01 (theta's log image of x1, formed alike), 10 and inf1, and
    w = log(e^(-u/2) C e^(-v) C^(-1) e^(-u/2)) at the far stars 0inf, 1inf
    and inf0."""
    u, c, c_inv, v, _ = _row(star, theta, n_plus)
    if star in ("01", "10", "inf1"):
        return u, (c * v) * c_inv
    half = mat_exp_graded(u.scale(Fraction(-1, 2)))
    return u, mat_log_graded(half * c * mat_exp_graded(-v) * c_inv * half)


def cocycle_image(g: NCSeries, star: str, theta: ThetaMap,
                  n_plus: MatSeries = None) -> MatSeries:
    """Image of the cocycle stand-in g under the closed-form evaluation for
    one of the six solutions, g at the star's images (_star_images);
    multiplicative in g.  n_plus = N is needed for inf1 and inf0."""
    return g.substitute(*_star_images(star, theta, n_plus))


def v_matrix(g: NCSeries, star: str, theta: ThetaMap, n_plus: MatSeries = None) -> MatSeries:
    """One of the six solution matrices, built from the closed forms that are
    free of any associator choice: the cocycle image times the star's
    constant column mix, cleared by b at the base points 0 and infinity
    (01, 0inf, inf1, inf0) and by bq at 1 (10, 1inf).

    g is the group-like stand-in for the relevant cocycle, in the
    exponential picture.
    """
    return cocycle_image(g, star, theta, n_plus) * _row(star, theta, n_plus)[4]


# -- transformation identities for arbitrary group-like series ------------------------


def transformation_identities(g: NCSeries) -> dict:
    """The three solution-matrix compatibilities, verified exactly for an
    arbitrary group-like series g.

    Each identity compares the (1,1) entry of a column-mixed evaluation of g
    at one matrix pair against the reindexed (1,1) entry at another pair,
    with the scalar exponential prefactor expressed through the letter
    coefficients of g (the path bookkeeping fixes which coefficient appears).
    Checks are performed on b- or q-cleared forms, so everything stays in
    the polynomial ring.  Returns per-identity defect magnitudes.
    """
    x, y = xy_matrices(g.ring, g.truncation)
    a, b, _, q = CSeries.gens(g.ring, g.truncation)
    c0 = g.coeff((0,))
    c1 = g.coeff((1,))
    out = {}

    # identity "inf1": [g(Y-X, -Y) (1, -a/b)^T]_1 = e^(c0 a) iota([g(X,-Y)]_11)
    h = first_row(g, y - x, -y)
    gmat = first_row(g, x, -y)
    lhs = b * h[0, 0] - a * h[0, 1]
    rhs = b * (a.scale(c0).exp() * subst_reindex(gmat[0, 0]))
    out["inf1"] = max_coeff(lhs - rhs)

    # identity "1inf": q-cleared, same prefactor, reindexed on the cleared combo
    lhs2 = q * h[0, 0] - a * h[0, 1]
    inner = q * gmat[0, 0] - a * gmat[0, 1]
    rhs2 = a.scale(c0).exp() * subst_reindex(inner)
    out["1inf"] = max_coeff(lhs2 - rhs2)

    # identity "inf0": g at (Y-X, X) against g at (X, Y-X), prefactor e^((c0-c1) a)
    h3 = first_row(g, y - x, x)
    g3 = first_row(g, x, y - x)
    lhs3 = b * h3[0, 0] - a * h3[0, 1]
    rhs3 = b * (a.scale(c0 - c1).exp() * subst_reindex(g3[0, 0]))
    out["inf0"] = max_coeff(lhs3 - rhs3)

    return out


def swap_invariance_defect(g: NCSeries, theta: ThetaMap) -> float:
    """a <-> b invariance of the (1,1) entry of the "1inf" solution matrix,
    the core of the transformation theorem.

    The cleared entry W carries one factor b from the clearing, so the
    invariance of W/(bq) reads a W = b sw(W).  The property holds for any
    group-like stand-in (indeed word by word, which is the generating-
    function structure of the first row); it is asserted here on the first
    row of the assembled solution matrix, where the gamma ratios participate.
    """
    w = (first_row(g, *_star_images("1inf", theta)) * _row("1inf", theta)[4])[0, 0]
    a, b, _, _ = CSeries.gens(g.ring, g.truncation)
    return max_coeff(a * w - b * subst_swap_ab(w))


def _subst_euler(f: CSeries) -> CSeries:
    """(a, b, p) -> (b+p, a+p, -p): the parameter change of the Euler
    transformation (primed parameters (a', b') -> (c'-a', c'-b'), c' = q
    fixed): f(b, a, -p) in one pass over the stored numerators, then
    a -> a + p and b -> b + p."""
    nums = {(m[1], m[0], m[2]): -c if m[2] % 2 else c for m, c in f.numerators.items()}
    g = CSeries._stored(f.ring, f.truncation, nums, f.denominator)
    return g.shear(0, 2, 1).shear(1, 2, 1)


def formal_euler_identity(f: NCSeries, theta: ThetaMap) -> float:
    """The formal Euler transformation on the "10" solution matrix.

    With W the bq-cleared (1,1) entry and T the Euler parameter change, the
    transformation reads (a+p) W = e^(rho p) b T(W) where the scalar rho is
    the e1 coefficient of the cocycle stand-in (the abelianised cocycle
    datum standing in for the Kummer exponent).  Returns the defect.
    """
    w = (first_row(f, *_star_images("10", theta)) * _row("10", theta)[4])[0, 0]
    rho = f.coeff((1,))
    a, b, p, _ = CSeries.gens(f.ring, f.truncation)
    lhs = (a + p) * w
    rhs = p.scale(rho).exp() * b * _subst_euler(w)
    return max_coeff(lhs - rhs)


def weighted_sum_identities(g: NCSeries) -> dict:
    """The two generating-function expressions for the first row of the
    column-mixed evaluation of an arbitrary series g:

    (i) the (1,1) entry against the (weight, depth, height) aggregation;
    (ii) the row combination [g]_11 + p ([g]_12 / b) against the reflected
         aggregation (ab and ab+pq exchanged, p -> -p) with the e^(c0 p)
         prefactor (g group-like).
    """
    n = g.truncation
    x, y = xy_matrices(g.ring, n)
    gmat = first_row(g, x, -y)
    out = {"entry11_vs_stats": max_coeff(gmat[0, 0] - ohno_zagier_sum(g))}

    a, b, p, q = CSeries.gens(g.ring, n)
    lhs = gmat[0, 0] + p * gmat[0, 1].divide_exact("b")
    rhs = p.scale(g.coeff((0,))).exp() * _stats_sum(g, a * b + p * q, -p, q, a * b)
    out["row_reflection"] = max_coeff(lhs.truncate(n - 1) - rhs.truncate(n - 1))
    return out


# -- appendix entry relations -------------------------------------------------------


def appendix_entry_relations(phi: NCSeries) -> dict:
    """The four entry relations linking the column-mixed evaluations of a
    commutator group-like series at (X, -Y) and at (Y-X, -Y); they make the
    (einf, e1) evaluation independent of the choice of even unitary
    associator.  All checks are b-cleared and exact."""
    n = phi.truncation
    gmat = ev_xy(phi)          # P-side
    hmat = n_plus_matrix(phi)  # Q-side
    a, b, p, _ = CSeries.gens(phi.ring, n)

    g12_over_b = gmat[0, 1].divide_exact("b")
    h12_over_b = hmat[0, 1].divide_exact("b")
    p11 = gmat[0, 0]
    p12 = p11 + p * g12_over_b
    q11 = hmat[0, 0] - a * h12_over_b
    q12 = hmat[0, 0] - hmat[0, 1]
    q21_cleared = b * hmat[1, 0] - a * hmat[1, 1]          # b [Q]_21
    q22 = hmat[1, 0] - hmat[1, 1]
    v = b * gmat[1, 0] + p * gmat[1, 1] - p * p11 - p * p * g12_over_b  # b[P]_22 - p[P]_12

    nm = n - 1  # one division by b happened
    out = {}
    out["q11"] = max_coeff((q11 - subst_reindex(p11)).truncate(nm))
    out["q12"] = max_coeff((q12 - subst_reindex(p12)).truncate(nm))
    out["q21"] = max_coeff(
        (q21_cleared + a * subst_reindex(p11) + subst_reindex(b * gmat[1, 0])).truncate(nm))
    out["q22"] = max_coeff(
        (b * q22 + b * subst_reindex(p12) + subst_reindex(v)).truncate(nm))
    return out


# -- formal Gauss summation -----------------------------------------------------------


def formal_gauss_identity(gt: GTElement, truncation: int):
    """The formal Gauss summation identity for a GT element.

    The left side is the (1,1) entry of the evaluation homomorphism applied
    to the element's series.  The right side combines ratios of the even
    gamma series with ratios of the element's own gamma series; the stated
    prefactors are resolved by exact division of the bracketed combinations:

        ab | ((ab+pq) R_diag - ab R_low)   and   pq | (R_main - R_top)

    where R_* are the even-gamma ratios.  The printed form of the first
    bracket (a pq/ab prefactor on R_main + R_top) is attempted as well and
    its divisibility failure is recorded as a finding.
    """
    ring = gt.ring
    n = truncation
    n_int = n + 2
    gsig = gamma_of_gt(gt)
    if gsig.order < n:
        raise ValueError("GT element of truncation %d too short for truncation %d"
                         % (gsig.order, n))
    ratios = _ratios(gamma_even(n_int, ring), n_int)
    r_main, r_top, r_low, r_diag = ratios
    s_main, _, s_low, _ = _ratios(gsig, n_int)
    a, b, p, q = CSeries.gens(ring, n_int)

    term1 = (a * b) * (r_main - r_top).divide_exact("pq") * r_low * s_low
    term2 = ((a * b + p * q) * r_diag - (a * b) * r_low).divide_exact("pq") * r_main * s_main
    rhs = (term1 + term2).truncate(n)

    # M+ of the same ratios: ThetaMap would build them again
    theta = ThetaMap(n, ring, gamma_matrix=_matrix_of_ratios(ratios, n))
    lhs = theta.formal_2f1(gt.series)

    printed_form_divisible = True
    try:
        ((r_main + r_top)).divide_exact("ab")
    except ExactDivisionError:
        printed_form_divisible = False

    report = {
        "defect": max_coeff(lhs - rhs),
        "printed_first_bracket_divisible_by_ab": printed_form_divisible,
    }
    return report, lhs, rhs


def formal_gauss_oracle(gt: GTElement, truncation: int) -> CSeries:
    """Independent route to the same series: the (1,1) entry of
    M_plus^(-1) M_phi' where phi' is the torsor image of the even candidate,
    expressed purely through gamma matrices."""
    ring = gt.ring
    gsig = gamma_of_gt(gt)
    gplus = gamma_even(gsig.order, ring)
    gprime = gplus.multiply(gsig)
    m_plus = gamma_ratio_matrix(gplus, truncation).m
    m_prime = gamma_ratio_matrix(gprime, truncation).m
    prod = m_plus.inverse() * m_prime
    return prod[0, 0]
