"""The 2x2 matrix specialization and its entry-level identities.

Series in e0, e1 are evaluated at the matrices

    X = [[0, b], [0, p]],   Y = [[0, 0], [a, q]],   q = a + b + p,

over the commutative series ring in (a, b, p).  The module hosts: the
per-word closed forms of the evaluation entries (classified by weight,
depth, height), the gamma-ratio matrix attached to a gamma series together
with its SL2 property, the comparison of the two against each other, the
evaluation homomorphism sending x0 to e^X and x1 to the conjugated e^(-Y),
the six solution matrices, the transformation identities for arbitrary
group-like series, and the formal Gauss summation identity.

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
from .mat2 import Mat2, mat_exp_graded
from .ncseries import NCSeries
from .rings import QQ


# -- the base matrices --------------------------------------------------------


def xy_matrices(ring, truncation):
    a, b, p, q = CSeries.gens(ring, truncation)
    zero = CSeries.zero(ring, truncation)
    x = Mat2(zero, b, zero, p)
    y = Mat2(zero, zero, a, q)
    return x, y


def ev_at(f: NCSeries, m0: Mat2, m1: Mat2) -> Mat2:
    """Evaluation of a two-letter series at a pair of matrices."""
    return f.substitute(m0, m1)


def ev_xy(f: NCSeries, truncation=None) -> Mat2:
    """Evaluation at (X, -Y)."""
    n = f.truncation if truncation is None else truncation
    x, y = xy_matrices(f.ring, n)
    return ev_at(f.truncate(min(n, f.truncation)), x, -y)


# -- per-word closed forms of the evaluation entries ----------------------------


def _stats(w):
    return W.weight(w), W.depth(w), W.height(w)


def word_entry_closed_form(ring, truncation, w, entry):
    """Closed form of a single entry of the evaluation of a word at (X, -Y),
    as a polynomial in (ab, p, q, ab+pq) determined by (weight, depth,
    height); entries (1,1), (1,2) and (2,1) are covered.

    (1,1) is supported on words starting with e0 and ending with e1,
    (1,2) on words starting with e0, (2,1) on words ending with e1.
    """
    a, b, p, q = CSeries.gens(ring, truncation)
    one = CSeries.one(ring, truncation)
    if not w:
        return one if entry in ((0, 0), (1, 1)) else CSeries.zero(ring, truncation)
    k, n, s = _stats(w)
    sign = Fraction(-1) ** n
    abq = a * b + p * q
    if entry == (0, 0):
        if w[0] != W.E0 or w[-1] != W.E1:
            return CSeries.zero(ring, truncation)
        out = (a * b) * p.pow(k - n - s) * q.pow(n - s) * abq.pow(s - 1)
    elif entry == (0, 1):
        if w[0] != W.E0:
            return CSeries.zero(ring, truncation)
        out = b * p.pow(k - n - s) * q.pow(n - s + 1) * abq.pow(s - 1)
    elif entry == (1, 0):
        if w[-1] != W.E1:
            return CSeries.zero(ring, truncation)
        out = a * p.pow(k - n - s + 1) * q.pow(n - s) * abq.pow(s - 1)
    else:
        raise ValueError("closed form available for entries (0,0), (0,1), (1,0) only")
    return out.scale(sign)


def entry11_via_stats(f: NCSeries, truncation=None) -> CSeries:
    """(1,1) entry of the evaluation assembled from the per-word closed form;
    an independent route used as the oracle for the generating-function
    identities."""
    n = f.truncation if truncation is None else truncation
    acc = CSeries.zero(f.ring, n)
    for w, c in f.terms.items():
        if not w:
            acc = acc + CSeries.one(f.ring, n).scale(c)
            continue
        if w[0] != W.E0 or w[-1] != W.E1 or len(w) > n:
            continue
        acc = acc + word_entry_closed_form(f.ring, n, w, (0, 0)).scale(c)
    return acc


# -- gamma-ratio matrix ----------------------------------------------------------


class GammaMatrix:
    """The 2x2 matrix attached to a gamma series: a unimodular matrix m over
    the (a, b, p) series ring, plus the cleared row-2 data of the inner
    ratio matrix c (whose second row has denominator pq)."""

    def __init__(self, m: Mat2, c_row2_cleared, det_defect: float):
        self.m = m
        self.c_row2_cleared = c_row2_cleared  # (pq*c21, pq*c22)
        self.det_defect = det_defect
        self.det_is_one = det_defect == 0.0


def gamma_ratio_matrix(gamma: GammaSeries, truncation: int) -> GammaMatrix:
    """Assemble the associated 2x2 matrix from a gamma series.

    Off-diagonal entries go through the brace forms whose divisibility by p
    and q is exactly what the unimodularity argument promises.  The (2,2)
    entry is produced from det = 1 (which only needs gamma up to the
    truncation order); when two extra orders of gamma are available, the
    explicit pq-division route is computed as well and cross-checked.
    """
    ring = gamma.ring
    if gamma.order < truncation:
        raise ValueError("gamma series order %d too small for truncation %d"
                         % (gamma.order, truncation))
    a, b, p, q = CSeries.gens(ring, truncation)
    r_main = gamma.ratio(-p, -q, -p - a, -p - b)
    r_top = gamma.ratio(p, -q, -a, -b)
    r_low = gamma.ratio(-p, q, a, b)
    r_diag = gamma.ratio(p, q, p + a, p + b)

    m11 = r_main
    # multiplying by the degree-1 forms restores the degree lost to the
    # exact division, so lifting the quotient's truncation first is sound
    m12 = (b * (r_top - r_main).divide_exact("p").truncate(truncation)).truncate(truncation)
    m21 = (a * (r_low - r_main).divide_exact("q").truncate(truncation)).truncate(truncation)
    m22 = (CSeries.one(ring, truncation) + m12 * m21) * m11.inverse()
    m = Mat2(m11, m12, m21, m22)

    det_defect = max_coeff(m.det() - CSeries.one(ring, truncation))

    if ring.exact and gamma.order >= truncation + 2:
        n2 = truncation + 2
        a2, b2, p2, q2 = CSeries.gens(ring, n2)
        num = (a2 * b2 + p2 * q2) * gamma.ratio(p2, q2, p2 + a2, p2 + b2) \
            + (a2 * b2) * (gamma.ratio(-p2, -q2, -p2 - a2, -p2 - b2)
                           - gamma.ratio(-p2, q2, a2, b2)
                           - gamma.ratio(p2, -q2, -a2, -b2))
        alt22 = num.divide_exact("pq")
        if not (alt22 == m22.truncate(alt22.truncation)):
            raise AssertionError("the two (2,2) entry routes disagree")

    c_row2_cleared = ((a * b) * r_low, (a * b + p * q) * r_diag)
    return GammaMatrix(m, c_row2_cleared, det_defect)


def gamma_matrix_plus(truncation: int, ring=QQ) -> GammaMatrix:
    """The matrix of the even unitary gamma series."""
    return gamma_ratio_matrix(gamma_even(truncation + 2, ring), truncation)


def first_entry_mismatch(m1: Mat2, m2: Mat2):
    """None when equal; otherwise (entry, monomial, difference) for the first
    differing coefficient in a deterministic scan."""
    for i in range(2):
        for j in range(2):
            d = m1[i, j] - m2[i, j]
            if d.terms:
                mono = min(d.terms, key=lambda m: (sum(m), m))
                return ((i, j), mono, d.terms[mono])
    return None


def varphi_equals_gamma_matrix(cand: AssociatorCandidate, truncation=None, tol=0.0):
    """Entrywise comparison of the evaluation of phi at (X, -Y) with the
    matrix built from its gamma series."""
    n = cand.truncation if truncation is None else truncation
    lhs = ev_xy(cand.phi, n)
    gm = gamma_ratio_matrix(gamma_of_associator(cand), n)
    diff_max = max(max_coeff(lhs[i, j] - gm.m[i, j]) for i in range(2) for j in range(2))
    report = {
        "equal": diff_max <= tol,
        "max_entry_difference": diff_max,
        "det_is_one": gm.det_is_one,
        "first_mismatch": None if diff_max <= tol else first_entry_mismatch(lhs, gm.m),
    }
    return report, lhs, gm


# -- Ohno-Zagier style aggregation ------------------------------------------------


def zeta_value(phi: NCSeries, index):
    """zeta_phi(k_1, ..., k_m) = (-1)^m (phi | e0^(k_m - 1) e1 ... e0^(k_1 - 1) e1)."""
    c = phi.coeff(W.word_from_index(index))
    return -c if len(index) % 2 else c


def _admissible_indices_by_stats(max_weight):
    """Group admissible indices by (weight, depth, height)."""
    out = {}
    def rec(prefix, total):
        if prefix:
            if prefix[-1] > 1:
                idx = tuple(prefix)
                key = (total, len(idx), sum(1 for k in idx if k > 1))
                out.setdefault(key, []).append(idx)
        for k in range(1, max_weight - total + 1):
            prefix.append(k)
            rec(prefix, total + k)
            prefix.pop()
    rec([], 0)
    return out


def ohno_zagier_sum(phi: NCSeries, truncation, boundary="k>=n+s") -> CSeries:
    """1 + ab * sum g0(k,n,s) p^(k-n-s) q^(n-s) (ab+pq)^(s-1), where g0
    aggregates the zeta values of phi over admissible indices of fixed
    (weight, depth, height).

    boundary selects the summation constraint: "k>=n+s" (the reading forced
    by the weight-2 coefficient) or "k>n+s"."""
    if boundary not in ("k>=n+s", "k>n+s"):
        raise ValueError("unknown boundary %r" % boundary)
    ring = phi.ring
    a, b, p, q = CSeries.gens(ring, truncation)
    abq = a * b + p * q
    acc = CSeries.one(ring, truncation)
    grouped = _admissible_indices_by_stats(min(truncation, phi.truncation))
    for (k, n, s), indices in sorted(grouped.items()):
        if n < s:
            continue
        if boundary == "k>=n+s" and k < n + s:
            continue
        if boundary == "k>n+s" and k <= n + s:
            continue
        g0 = ring.zero
        for idx in indices:
            g0 = g0 + zeta_value(phi, idx)
        if ring.is_zero(g0):
            continue
        term = (a * b) * p.pow(k - n - s) * q.pow(n - s) * abq.pow(s - 1)
        acc = acc + term.scale(g0)
    return acc


def ohno_zagier_exponential(phi: NCSeries, truncation) -> CSeries:
    """exp sum_{n>=2} zeta_phi(n)/n {p^n + q^n - (a+p)^n - (b+p)^n}, i.e. the
    gamma ratio at (-p, -q; -p-a, -p-b)."""
    ring = phi.ring
    gamma = gamma_of_associator(AssociatorCandidate(ring.one, phi, phi.truncation))
    a, b, p, q = CSeries.gens(ring, truncation)
    return gamma.ratio(-p, -q, -p - a, -p - b)


# -- evaluation homomorphism and the formal hypergeometric series ----------------------


class ThetaMap:
    """x0 -> e^X, x1 -> M^(-1) e^(-Y) M for the even unitary gamma matrix;
    the (1,1) entry of the image of a group element is the formal
    hypergeometric series."""

    def __init__(self, truncation, ring=QQ, gamma_matrix=None):
        self.truncation = truncation
        self.ring = ring
        gm = gamma_matrix if gamma_matrix is not None else gamma_matrix_plus(truncation, ring)
        self.m_plus = gm.m
        x, y = xy_matrices(ring, truncation)
        self.x = x
        self.y = y
        one = CSeries.one(ring, truncation)
        zero = CSeries.zero(ring, truncation)
        self.identity = Mat2.identity(one, zero)
        self._m_inv = self.m_plus.inverse()
        self.log_image0 = x
        self.log_image1 = (self._m_inv * (-y)) * self.m_plus

    def image_of_series(self, s: NCSeries) -> Mat2:
        """Image of a group-like series in the exponential picture."""
        return s.truncate(self.truncation).substitute(
            self.log_image0, self.log_image1, one=self.identity)

    def image_of_word(self, word_pairs) -> Mat2:
        """Image of a free-group word [(generator, exponent), ...]."""
        acc = self.identity
        for gen, exp in word_pairs:
            base = self.log_image0 if gen == "x0" else self.log_image1
            acc = acc * mat_exp_graded(base.scale(Fraction(int(exp))))
        return acc

    def __call__(self, element) -> Mat2:
        if isinstance(element, NCSeries):
            return self.image_of_series(element)
        return self.image_of_word(element)

    def formal_2f1(self, element) -> CSeries:
        return self(element)[0, 0]


# -- matrix logarithm for the non-conjugation closed forms ---------------------------


def mat_log_graded(m: Mat2) -> Mat2:
    return graded.log(m)


# -- the six solution matrices -----------------------------------------------------


V_STARS = ("01", "10", "1inf", "inf1", "inf0", "0inf")


def n_plus_matrix(phi: NCSeries, truncation=None) -> Mat2:
    """Evaluation at (X, -Y) of phi(einf, e1), i.e. phi substituted at
    (Y - X, -Y)."""
    n = phi.truncation if truncation is None else truncation
    x, y = xy_matrices(phi.ring, n)
    return ev_at(phi.truncate(n), y - x, -y)


def cocycle_image(g: NCSeries, star: str, truncation=None, theta: ThetaMap = None,
                  n_plus: Mat2 = None) -> Mat2:
    """Image of the cocycle stand-in g under the closed-form evaluation for
    one of the six solutions; multiplicative in g."""
    n = g.truncation if truncation is None else truncation
    ring = g.ring
    if theta is None:
        theta = ThetaMap(n, ring)
    m_plus = theta.m_plus
    m_inv = m_plus.inverse()
    x, y = theta.x, theta.y
    gs = g.truncate(n)

    if star == "01":
        return theta.image_of_series(gs)
    if star == "10":
        return gs.substitute(-y, (m_plus * x) * m_inv, one=theta.identity)
    if star == "1inf":
        half = mat_exp_graded(y.scale(Fraction(1, 2)))
        inner = half * m_plus * mat_exp_graded(-x) * m_inv * half
        return gs.substitute(-y, mat_log_graded(inner), one=theta.identity)
    if n_plus is None:
        raise ValueError("stars inf1, inf0 need the n_plus matrix")
    n_inv = n_plus.inverse()
    if star == "inf1":
        return gs.substitute(y - x, (n_inv * (-y)) * n_plus, one=theta.identity)
    if star == "inf0":
        half = mat_exp_graded((x - y).scale(Fraction(1, 2)))
        inner = half * n_inv * mat_exp_graded(y) * n_plus * half
        return gs.substitute(y - x, mat_log_graded(inner), one=theta.identity)
    if star == "0inf":
        half = mat_exp_graded(-x.scale(Fraction(1, 2)))
        inner = half * m_inv * mat_exp_graded(y) * m_plus * half
        return gs.substitute(x, mat_log_graded(inner), one=theta.identity)
    raise ValueError("unknown star %r" % star)


def column_mix_cleared(ring, truncation, star):
    """The constant column-mix matrix of a star, multiplied by its clearing
    monomial so all entries are polynomial; returns (matrix, clearing)."""
    a, b, p, q = CSeries.gens(ring, truncation)
    zero = CSeries.zero(ring, truncation)
    one = CSeries.one(ring, truncation)
    if star in ("01", "0inf"):
        return Mat2(b, b, zero, p), "b"
    if star == "10":
        return Mat2(b * q, zero, -(a * b), q * (q - one)), "bq"
    if star == "1inf":
        return Mat2(b * q, zero, -(a * b), q * (one - q)), "bq"
    if star in ("inf1", "inf0"):
        return Mat2(b, b, -a, -b), "b"
    raise ValueError("unknown star %r" % star)


def v_matrix(g: NCSeries, star: str, truncation=None, theta: ThetaMap = None,
             n_plus: Mat2 = None):
    """One of the six solution matrices, built from the closed forms that are
    free of any associator choice, multiplied by the cleared column-mix
    matrix.  Returns (cleared matrix, clearing monomial).

    g is the group-like stand-in for the relevant cocycle, in the
    exponential picture.
    """
    n = g.truncation if truncation is None else truncation
    ring = g.ring
    gm = cocycle_image(g, star, n, theta=theta, n_plus=n_plus)
    k, clearing = column_mix_cleared(ring, n, star)
    return gm * k, clearing


# -- transformation identities for arbitrary group-like series ------------------------


def _exp_linear(ring, truncation, var, coeff):
    return CSeries.variable(ring, truncation, var).scale(coeff).exp()


def transformation_identities(g: NCSeries, truncation=None) -> dict:
    """The three solution-matrix compatibilities, verified exactly for an
    arbitrary group-like series g.

    Each identity compares the (1,1) entry of a column-mixed evaluation of g
    at one matrix pair against the reindexed (1,1) entry at another pair,
    with the scalar exponential prefactor expressed through the letter
    coefficients of g (the path bookkeeping fixes which coefficient appears).
    Checks are performed on b- or q-cleared forms, so everything stays in
    the polynomial ring.  Returns per-identity defect magnitudes.
    """
    n = g.truncation if truncation is None else truncation
    ring = g.ring
    gs = g.truncate(n)
    x, y = xy_matrices(ring, n)
    c0 = gs.coeff((0,))
    c1 = gs.coeff((1,))
    out = {}

    # identity "inf1": [g(Y-X, -Y) (1, -a/b)^T]_1 = e^(c0 a) iota([g(X,-Y)]_11)
    h = ev_at(gs, y - x, -y)
    gmat = ev_at(gs, x, -y)
    b_form = CSeries.variable(ring, n, "b")
    lhs = b_form * h[0, 0] - CSeries.variable(ring, n, "a") * h[0, 1]
    rhs = b_form * (_exp_linear(ring, n, "a", c0) * subst_reindex(gmat[0, 0]))
    out["inf1"] = max_coeff(lhs - rhs)

    # identity "1inf": q-cleared, same prefactor, reindexed on the cleared combo
    a_form = CSeries.variable(ring, n, "a")
    q_form = a_form + b_form + CSeries.variable(ring, n, "p")
    lhs2 = q_form * h[0, 0] - a_form * h[0, 1]
    inner = q_form * gmat[0, 0] - a_form * gmat[0, 1]
    rhs2 = _exp_linear(ring, n, "a", c0) * subst_reindex(inner)
    out["1inf"] = max_coeff(lhs2 - rhs2)

    # identity "inf0": g at (Y-X, X) against g at (X, Y-X), prefactor e^((c0-c1) a)
    h3 = ev_at(gs, y - x, x)
    g3 = ev_at(gs, x, y - x)
    lhs3 = b_form * h3[0, 0] - a_form * h3[0, 1]
    rhs3 = b_form * (_exp_linear(ring, n, "a", c0 - c1) * subst_reindex(g3[0, 0]))
    out["inf0"] = max_coeff(lhs3 - rhs3)

    return out


def swap_invariance_defect(g: NCSeries, truncation=None, theta: ThetaMap = None) -> float:
    """a <-> b invariance of the (1,1) entry of the "1inf" solution matrix,
    the core of the transformation theorem.

    The cleared entry W carries one factor b from the clearing, so the
    invariance of W/(bq) reads a W = b sw(W).  The property holds for any
    group-like stand-in (indeed word by word, which is the generating-
    function structure of the first row); it is asserted here on the
    assembled solution matrix where the gamma ratios participate.
    """
    n = g.truncation if truncation is None else truncation
    ring = g.ring
    v, clearing = v_matrix(g, "1inf", n, theta=theta)
    assert clearing == "bq"
    w = v[0, 0]
    a = CSeries.variable(ring, n, "a")
    b = CSeries.variable(ring, n, "b")
    return max_coeff(a * w - b * subst_swap_ab(w))


def _subst_euler(f: CSeries) -> CSeries:
    """(a, b, p) -> (b+p, a+p, -p): the parameter change of the Euler
    transformation (primed parameters (a', b') -> (c'-a', c'-b'), c' = q
    fixed)."""
    ring, n = f.ring, f.truncation
    a = CSeries.variable(ring, n, "a")
    b = CSeries.variable(ring, n, "b")
    p = CSeries.variable(ring, n, "p")
    return f.subst(b + p, a + p, -p)


def formal_euler_identity(f: NCSeries, truncation=None, theta: ThetaMap = None) -> float:
    """The formal Euler transformation on the "10" solution matrix.

    With W the bq-cleared (1,1) entry and T the Euler parameter change, the
    transformation reads (a+p) W = e^(rho p) b T(W) where the scalar rho is
    the e1 coefficient of the cocycle stand-in (the abelianised cocycle
    datum standing in for the Kummer exponent).  Returns the defect.
    """
    n = f.truncation if truncation is None else truncation
    ring = f.ring
    v, clearing = v_matrix(f, "10", n, theta=theta)
    assert clearing == "bq"
    w = v[0, 0]
    rho = f.coeff((1,))
    a = CSeries.variable(ring, n, "a")
    b = CSeries.variable(ring, n, "b")
    p = CSeries.variable(ring, n, "p")
    lhs = (a + p) * w
    rhs = p.scale(rho).exp() * b * _subst_euler(w)
    return max_coeff(lhs - rhs)


def weighted_sum_identities(g: NCSeries, truncation=None) -> dict:
    """The two generating-function expressions for the first row of the
    column-mixed evaluation of an arbitrary series g:

    (i) the (1,1) entry against the (weight, depth, height) aggregation;
    (ii) the row combination [g]_11 + p ([g]_12 / b) against the reflected
         aggregation with the e^(c0 p) prefactor (g group-like).
    """
    n = g.truncation if truncation is None else truncation
    ring = g.ring
    gs = g.truncate(n)
    x, y = xy_matrices(ring, n)
    gmat = ev_at(gs, x, -y)
    out = {}

    out["entry11_vs_stats"] = max_coeff(gmat[0, 0] - entry11_via_stats(gs, n))

    a, b, p, q = CSeries.gens(ring, n)
    abq = a * b + p * q
    lhs = gmat[0, 0] + p * gmat[0, 1].divide_exact("b")
    acc = CSeries.one(ring, n)
    for w, c in gs.terms.items():
        if not w or w[0] != W.E0 or w[-1] != W.E1 or len(w) > n:
            continue
        k, nn, s = _stats(w)
        sign = Fraction(-1) ** nn
        term = abq * (-p).pow(k - nn - s) * q.pow(nn - s) * (a * b).pow(s - 1)
        acc = acc + term.scale(c * ring.from_fraction(sign))
    rhs = _exp_linear(ring, n, "p", gs.coeff((0,))) * acc
    out["row_reflection"] = max_coeff(lhs.truncate(n - 1) - rhs.truncate(n - 1))
    return out


# -- appendix entry relations -------------------------------------------------------


def appendix_entry_relations(phi: NCSeries, truncation=None) -> dict:
    """The four entry relations linking the column-mixed evaluations of a
    commutator group-like series at (X, -Y) and at (Y-X, -Y); they make the
    (einf, e1) evaluation independent of the choice of even unitary
    associator.  All checks are b-cleared and exact."""
    n = phi.truncation if truncation is None else truncation
    ring = phi.ring
    gs = phi.truncate(n)
    x, y = xy_matrices(ring, n)
    gmat = ev_at(gs, x, -y)       # P-side
    hmat = ev_at(gs, y - x, -y)   # Q-side
    a, b, p, _ = CSeries.gens(ring, n)

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


def formal_gauss_identity(gt: GTElement, truncation: int, gamma_sigma: GammaSeries = None):
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
    gplus = gamma_even(n_int + 2, ring)
    gsig = gamma_sigma if gamma_sigma is not None else gamma_of_gt(gt)
    if gsig.order < n:
        raise ValueError("gamma_sigma order too small")
    a, b, p, q = CSeries.gens(ring, n_int)

    r_main = gplus.ratio(-p, -q, -p - a, -p - b)
    r_top = gplus.ratio(p, -q, -a, -b)
    r_low = gplus.ratio(-p, q, a, b)
    r_diag = gplus.ratio(p, q, p + a, p + b)
    s_main = gsig.ratio(-p, -q, -p - a, -p - b)
    s_low = gsig.ratio(-p, q, a, b)

    term1 = (a * b) * (r_main - r_top).divide_exact("pq") * r_low * s_low
    term2 = ((a * b + p * q) * r_diag - (a * b) * r_low).divide_exact("pq") * r_main * s_main
    rhs = (term1 + term2).truncate(n)

    theta = ThetaMap(n, ring)
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
