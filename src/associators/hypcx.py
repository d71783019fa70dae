"""The complex-analytic side: multiple polylogarithm coefficients of the
fundamental solution, the generating series of multiple zeta values, the
classical hypergeometric series, summed in fixed point on Gaussian
integers, and the numeric identity suite.

The fundamental solution of d/dz G = (e0/z + e1/(z-1)) G with
G z^(-e0) -> 1 as z -> 0+ is G_01.  Its coefficient on a word ending in e1
is a power series in z, which the MPL engine sums along one path of words;
the shuffle with (G_01|e0) = log z gives the words ending in e0.  Each point
has its own engine, sized for that point alone.  G_10(z)^(-1) G_01(z), with
G_10(z) = G_01(1 - z)(e1, e0), is the multiple zeta value generating series
phi_KZ, constant in z; kz_series takes it at z = 1/2, where one solution
gives both factors.  As the connection matrix of the Kummer solutions, G_01
= G_10 phi_KZ (Drinfeld 1990), it gives solution_matrix_at G_10(z) = G_01(z)
phi_KZ^(-1), and each solution at (X0, -Y0) a Kummer row of the
hypergeometric equation.
kz_series keeps per digits only the highest weight computed; no engine
outlives its call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, to_rational

from . import words as W
from .associator import AssociatorCandidate
from .gammafn import gamma_of_associator
from .mat2 import MatSeries
from .ncseries import NCSeries, max_coeff
from .rings import complex_field, gaussian


def _to_mpc(x, ctx=mp):
    """Fraction-aware conversion to an mpc of the mpmath context ctx: the
    global one at its working precision, or a complex ring's ``ring.mp``."""
    if isinstance(x, Fraction):
        return ctx.mpc(x.numerator) / x.denominator
    return ctx.mpc(x)


# -- multiple polylogarithm coefficient engine ------------------------------------


def series_terms(z, digits):
    """Terms T of the z-expansion that the solution at the one point z
    needs: z^(T+1) < 10^(-(digits + 12))."""
    return int((digits + 12) * math.log(10) / -math.log(float(z))) + 20


class MPLEngine:
    """Power-series coefficients (in z) of G_01 on the empty word and on
    words ending in e1, as integers scaled by 2^prec.  The derivative on such
    a word w is G_01 on w[1:], which ends in e1 too, over z (w[0] = e0) or z
    - 1 (w[0] = e1).

    Precision contract: for a word of length L, the exact coefficients obey
    |c_n| <= 2^L, and each stored one is within 2^(L - prec) of its exact
    value (each recursion step adds one floor division).  Horner adds one
    floor per term, so horner(word, z) 2^-prec is within
    2^L (2^-prec + z^(T+1)) / (1 - z) of G_01's coefficient at z, T =
    nterms.  With nterms >= series_terms(z, digits), which sizes the one
    point z, the absolute error is below 2^(L+1) 10^(-(digits + 10)) / (1 -
    z).  Both arguments are required: the caller sizes the engine for its
    point.

    walk drops each word's list on its way back up, so during a walk the
    memo is the current path: at most weight + 1 lists."""

    GUARD_BITS = 32

    def __init__(self, digits, nterms):
        self.digits, self.nterms = digits, nterms
        self.prec = math.ceil((digits + 10) * math.log2(10)) + self.GUARD_BITS
        self._memo = {}

    def coeff_series(self, word):
        """Coefficients c_0..c_T of the z-expansion of G_01 on a word that is
        empty or ends in e1, each scaled by 2^prec and floored to an integer."""
        got = self._memo.get(word)
        if got is not None:
            return got
        T = self.nterms
        if not word:
            cs = [1 << self.prec] + [0] * T
        elif word[-1] == W.E0:
            raise ValueError("the engine serves words ending in e1, not %r" % (word,))
        else:
            # a holds the coefficients of z^0..z^(T-1) in the derivative
            if word[0] == W.E0:
                a = self.coeff_series(word[1:])[1:]
            else:
                a = [-x for x in accumulate(self.coeff_series(word[1:])[:T])]
            cs = [0] + [x // n for n, x in enumerate(a, 1)]
        self._memo[word] = cs
        return cs

    def walk(self, weight):
        """The words of length 1..weight that end in e1, depth first by
        prepending letters, each with its list in the memo."""
        def visit(word):
            if len(word) <= weight:
                self.coeff_series(word)
                yield word
                for letter in (W.E0, W.E1):
                    yield from visit((letter,) + word)
                del self._memo[word]

        return visit((W.E1,))

    def horner(self, word, z):
        """G_01's coefficient on the word at a rational z in (0, 1) as an
        integer scaled by 2^prec, by Horner evaluation on the integers."""
        z = Fraction(z)
        p, q = z.numerator, z.denominator
        acc = 0
        for c in reversed(self.coeff_series(word)):
            acc = acc * p // q + c
        return acc

    def h_coefficient(self, word, z):
        """G_01's coefficient on a word ending in e1 at z, horner(word, z), as
        a real number at the complex ring's precision."""
        return complex_field(self.digits).mp.mpf((self.horner(word, z), -self.prec))


def fundamental_solution(z, weight, digits=50):
    """G_01 at a real point z in (0, 1), as a group-like series over the
    complex coefficient ring, from an engine of its own with
    series_terms(z, digits) terms, built once z is checked.  Coefficients
    are integers at scale 2^prec, rounded once to the ring's 2^-B.  log z =
    (G|e0) and log(1 - z) = (G|e1) are rounded to nearest at 2^-prec, so
    G_01(z) and G_01(1 - z)(e1, e0) share them: G_10^(-1) G_01 has linear
    terms 0 exactly.  Other words ending in e1 are the engine's horner.  A
    word w = v e0^k, v empty or ending in e1, follows by increasing k from
    the shuffle with e0, G being group-like (Le and Murakami, Nagoya Math. J.
    142, 1996): with u = v e0^(k-1), each step rounded once at 2^-prec,
        k (G|w) = (G|u) log z - sum_(i < |v|) (G|u[:i] e0 u[i:]).

    Bound.  Let L = weight, l = |log z|, X = 1 + l + L and d_0 = 2^(L+1)
    10^(-(digits + 10)) / (1 - z), the engine's bound.  Every coefficient of
    a word with k trailing e0s is within d_0 X^k / k! of G_01's, before the
    final rounding adds 2^-(B+1).  By induction on k: the step's error is at
    most ((l + L) d_(k-1) + r) / k, r = (|G|u| + k) 2^-prec, and |G|u| <=
    2^L e^(l/2) / (1 - z), since G_01 z^(-e0) has power-series coefficients
    of modulus at most 2^L on every word of length L, so r <= d_0 <= d_0
    X^(k-1) / (k-1)! for z > e^-44."""
    z = Fraction(z)
    if not (0 < z < 1):
        raise ValueError("z must lie in (0, 1)")
    ring, engine = complex_field(digits), MPLEngine(digits, series_terms(z, digits))
    den, ctx = 1 << engine.prec, ring.mp
    with ctx.workprec(engine.prec + 16):  # rounded to nearest at 2^-prec
        log_z, log_rest = (int(ctx.nint(ctx.log(ctx.mpf(x.numerator) / x.denominator) * den))
                           for x in (z, 1 - z))
    g = {(): den} | {w: log_rest if w == (1,) else engine.horner(w, z) for w in engine.walk(weight)}
    tails = list(g)  # the words u = v e0^(k-1), here for k = 1
    for k in range(1, weight + 1):
        tails = [u for u in tails if len(u) < weight]
        for u in tails:  # G|u e0 = ((G|u) log z - rest) / k, rest over i < |v|
            rest = sum(g[u[:i] + (W.E0,) + u[i:]] for i in range(len(u) - k + 1))
            g[u + (W.E0,)] = (2 * (g[u] * log_z - rest * den) + k * den) // (2 * k * den)
        tails = [u + (W.E0,) for u in tails]
    return NCSeries._stored(ring, weight, g, den)


def kz_residual_defect(z, weight, digits, step):
    """Finite-difference defect of the differential equation at a point; the
    defect decreases quadratically in the step until precision is hit."""
    gm, g, gp = (fundamental_solution(x, weight, digits) for x in (z - step, z, z + step))
    ring = g.ring
    deriv = (gp - gm).scale(1 / (2 * _to_mpc(step, ring.mp)))
    e0 = NCSeries.letter(ring, weight, 0)
    e1 = NCSeries.letter(ring, weight, 1)
    zz = _to_mpc(z, ring.mp)
    op = e0.scale(1 / zz) + e1.scale(1 / (zz - 1))
    return max_coeff(deriv - op * g)


# -- the multiple zeta value generating series --------------------------------------


_PHI_CACHE = {}  # digits -> the candidate of the highest weight computed


def kz_series(weight, digits=50):
    """The MZV generating series with mu = 2 pi i, phi_KZ = G_10^(-1) G_01 at
    z = 1/2, where G_10 = G_01(1/2)(e1, e0): one fundamental solution gives
    both factors, so the linear terms cancel exactly.  Returns an
    AssociatorCandidate over the complex ring."""
    got = _PHI_CACHE.get(digits)
    if got is None or got.truncation < weight:
        g = fundamental_solution(Fraction(1, 2), weight, digits)
        # G_10 is group-like: its antipode is its inverse
        phi = g.swap_letters().antipode() * g
        got = AssociatorCandidate(mu=g.ring.mp.mpc(0, 2) * g.ring.mp.pi, phi=phi, truncation=weight)
        _PHI_CACHE[digits] = got
    # coefficients of words of length <= weight do not depend on the
    # truncation, so the cached series answers every lower weight
    return AssociatorCandidate(mu=got.mu, phi=got.phi.truncate(weight), truncation=weight)


MZV_WEIGHT_CAP = 12


def mzv(index, digits=40):
    """Multiple zeta value for an admissible index (k_1, ..., k_m), the sum
    over 0 < n_1 < ... < n_m of prod n_i^(-k_i), for weights up to
    MZV_WEIGHT_CAP.

    Raise the cap only together with tests at the new cap: zeta(w) against
    mpmath.zeta, the sum theorem, one duality pair, and
    test_kz_series_keeps_its_digits at that weight."""
    index = tuple(int(k) for k in index)
    if not W.is_admissible(index):
        raise ValueError("index %r is not admissible (last entry must exceed 1)" % (index,))
    wt = sum(index)
    if wt > MZV_WEIGHT_CAP:
        raise ValueError("weight %d beyond cap %d" % (wt, MZV_WEIGHT_CAP))
    return W.zeta_value(kz_series(wt, digits).phi, index)


def mzv_direct(index, nterms=3000):
    """Multiple zeta value by direct nested summation, independent of the KZ
    route, for cross-checks.

    One forward pass over n <= nterms forms every partial sum
    S(N) = sum over 0 < n_1 < ... < n_m <= N of prod n_i^(-k_i).  Its tail
    zeta - S(N) has an asymptotic expansion in log^j N / N^i with j < depth,
    so this fits S(N) at 1 + 3 * depth geometrically spaced N in [nterms/4,
    nterms] against {1} and {log^j N / N^i : 1 <= i <= 3, j < depth}, one
    unknown per point, and returns the constant term.

    Measured bound, not a proven one (30 working digits): on every
    admissible index of weight <= 7 with 100 <= nterms <= 4000, the error
    is at most half of 16 * log(nterms)^(depth-1) / nterms^4 (e.g. 4e-11
    at depth 1 and nterms = 800); above weight 7 it is unmeasured.  Raises
    ValueError when nterms is too small to give 1 + 3 * depth distinct
    sample points.  The partial sums are ints at scale 2^128, one floor per term."""
    index = tuple(int(k) for k in index)
    if not W.is_admissible(index):
        raise ValueError("non-admissible index")
    depth = len(index)
    unknowns = 1 + 3 * depth
    points = sorted({round(nterms * 4 ** (-k / (unknowns - 1))) for k in range(unknowns)})
    if len(points) < unknowns or points[0] < 2:
        raise ValueError("nterms=%d gives too few sample points for depth %d" % (nterms, depth))
    # inner[j] is the partial sum over the first j entries of the index
    inner = [1 << 128] + [0] * depth
    partial = dict.fromkeys(points)
    for n in range(1, nterms + 1):
        for j in range(depth, 0, -1):
            inner[j] += inner[j - 1] // n ** index[j - 1]
        if n in partial:
            partial[n] = inner[depth]
    with mp.workdps(30):
        rows = [[1] + [mp.log(N) ** j / mp.mpf(N) ** i for i in range(1, 4) for j in range(depth)]
                for N in points]
        return mp.lu_solve(mp.matrix(rows), mp.matrix([mp.mpf((partial[N], -128)) for N in points]))[0]


# -- shuffle regularization oracle ----------------------------------------------------


def shuffle_words(u, v):
    """Shuffle product of two words as a word -> multiplicity dict."""
    out = {}

    def rec(x, y, prefix):
        if not x and not y:
            out[prefix] = out.get(prefix, 0) + 1
            return
        if x:
            rec(x[1:], y, prefix + (x[0],))
        if y:
            rec(x, y[1:], prefix + (y[0],))

    rec(tuple(u), tuple(v), ())
    return out


def _run_length(w, letter):
    return next((i for i, x in enumerate(w) if x != letter), len(w))


def regularized_table(base_values, max_weight):
    """Extend iterated-integral values from convergent words (starting with
    e0 and ending with e1) to all words, using vanishing single-letter values
    and the shuffle relations: leading e1 runs and trailing e0 runs are
    peeled off through shuffle identities."""
    table = {(): 1}
    table.update(base_values)

    def peel(w, u, v):
        # I(u) I(v) = 0 since one factor is a letter power, I(e^m) = I(e)^m / m!;
        # solve the shuffle relation for w, which occurs in u sh v with the
        # reported multiplicity (1 here: u sh v is one shuffle of two words)
        sh = shuffle_words(u, v)
        acc = sum(mult * value(word) for word, mult in sh.items() if word != w)
        return -acc / sh[w]

    def value(w):
        if w in table:
            return table[w]
        lead = _run_length(w, W.E1)
        trail = _run_length(w[::-1], W.E0)
        if lead == len(w) or trail == len(w):
            val = 0  # a letter power
        elif lead:
            val = peel(w, w[:lead], w[lead:])
        elif trail:
            val = peel(w, w[:-trail], w[-trail:])
        else:
            raise AssertionError("word %r should have been convergent" % (w,))
        table[w] = val
        return val

    for n in range(max_weight + 1):
        for w in W.words_of_weight(n):
            value(w)
    return table


# -- the classical hypergeometric series ------------------------------------------------


def _rational(v):
    """A real part as an exact Fraction: an mpmath real by its dyadic tuple."""
    if not hasattr(v, "_mpf_"):
        return Fraction(v)
    if not v._mpf_[1] and v._mpf_[3]:
        raise ValueError("an infinity or nan is no hypergeometric argument")
    return Fraction(*to_rational(v._mpf_))


def _gaussian_integers(*xs):
    """xs read exactly, an int, Fraction, float, complex or mpmath number,
    over their least common denominator d: d and the Gaussian integers d x."""
    parts = [(_rational(x.real), _rational(x.imag)) for x in xs]
    d = math.lcm(*(y.denominator for p in parts for y in p))
    return d, [gaussian(int(re * d), int(im * d)) for re, im in parts]


def _step(t, err, x, d):
    """t x / d, each part floored, t a Gaussian integer within err units of
    its exact value, x one too and d a positive int: the result and its
    error, ceil(err (abs(x) + 1) / d) + 2 units.  abs(x) + 1 bounds |x|, and
    a floor per part costs under sqrt 2 units."""
    return t * x // d, -(-err * (abs(x) + 1) // d) + 2


def _gauss_prefactor(alpha, beta, gamma, den, m, bits):
    """Gauss's prefactor P = prod_(k<m) (c-a+k)(c-b+k) / ((c+k)(c-a-b+k)) at
    scale 2^bits, alpha, beta and gamma the Gaussian integers den a, den b
    and den c: 2^bits prod g_k conj(h_k) over prod |h_k|^2, g_k / h_k the
    k-th factor over den^2, formed exactly and floored once; returns P and
    its error delta_P = 2 units of 2^-bits (a floor per part, under sqrt 2)."""
    num, d = 1 << bits, 1
    for k in range(m):
        c = gamma + k * den
        h = c * (c - alpha - beta)
        num, d = num * (c - alpha) * (c - beta) * h.conjugate(), d * (h * h.conjugate())
    return num // d, 2


def hyp2f1(a, b, c, z, digits=50):
    """The Gauss series F(a, b; c; z) = sum_n t_n, t_n = (a)_n (b)_n z^n /
    ((c)_n n!), for |z| < 1 and for z = 1 with Re(c - a - b) > 0; c must not
    be a non-positive integer.  Contract: the absolute error is below
    eps = 10^-(digits + 10), half for truncation and half for rounding.

    One term loop sums the series, its first term the prefactor P.  The loop
    stops at an exact zero term or once a proven bound on the rest from n is
    below eps/2.  z = 1, by Gauss's proof (Andrews, Askey and Roy, Special
    Functions, 1999, 2.2): m shifts c -> c + 1 leave the series at c + m
    times the prefactor P = prod_(k<m) (c-a+k)(c-b+k) / ((c+k)(c-a-b+k)),
    where m = max(0, ceil(A + B - Re c)) + ceil((digits + 12) / log10(2e)),
    raised if need be so that Re c + m >= sqrt(2 A B (digits + 12)): a large
    |a||b| against c + m makes the terms grow before they fall slowly, and
    the root balances the m factors of P against the terms (near the
    cheapest total in a sweep of |a||b| from 25 to 10^4 at 40 and 100
    digits).  Every test and bound reads the Gaussian integers alpha, beta,
    gamma = den (a, b, c) and zeta = zden z (see Rounding): c is a
    non-positive integer when gamma is real, gamma <= 0 and den | gamma; z =
    1 when zeta = zden; |z| < 1 when |zeta|^2 < zden^2.  With Q = 2^32, A >=
    |a| is ceil(Q abs(alpha) / den) / Q, abs(alpha) exact on the real line
    and the floored modulus plus 1 off it; B >= |b| and the bound on |z|
    likewise, and C <= Re c + m is rounded down at 1/Q.  With sigma = C - A
    - B > 0, |t_n| <= u_n, the term of the real series at (A, B; C);
    telescoping (n + C - 1) u_n bounds the rest by |P| (n + C - 1) u_n /
    kappa_n, kappa_n = min(sigma, (sigma n + C - 1 - AB) / (n + 1)) > 0.
    |z| < 1: P = 1, C <= Re c; once |t_n| < eps/2 and n + C > 0, later term
    ratios are at most rho = |z| max(1, (n + A) / (n + 1)) max(1, (n + B) /
    (n + C)); for rho < 1 the rest is below |t_n| / (1 - rho).

    Rounding.  a, b, c and z enter exactly (_gaussian_integers; an mpmath
    number by its dyadic tuples), den and zden their least common
    denominators; no mpmath arithmetic runs.  The terms are Gaussian
    integers (``rings.Gaussian``, a plain int on the real line) at scale
    2^W, T_0 = P: with g = gamma + (m + n) den, T_(n+1) = T_n N // D, N =
    (alpha + n den)(beta + n den) zeta conj(g), D = |g|^2 den zden (n + 1),
    each part floored.  Every term factor takes one error step (_step) and
    P one floor, so T_n is within delta_n units of 2^W P t_n, delta_0 =
    delta_P, and the exact sum S of the terms is within sum_n delta_n 2^-W
    of their exact sum: no product of two fixed-point numbers follows.  W starts at the
    bits of digits + 20 digits; a pass whose sum_n delta_n 2^-W exceeds
    eps/2 reruns at the bits of 2 sum_n delta_n / eps, plus 1.  The mpc
    returned is S 2^-W, every bit of it, so its precision follows |F| and
    the contract stays absolute."""
    den, (alpha, beta, gamma) = _gaussian_integers(a, b, c)
    zden, (zeta,) = _gaussian_integers(z)
    if not gamma.imag and gamma <= 0 and not gamma % den:
        raise ValueError("c must not be a non-positive integer")
    Q = 1 << 32  # Q A, Q B and Q |z| rounded up, Q C = Q (Re c + m) rounded down
    a_up, b_up, z_up = (-(-(abs(x * Q) + bool(x.imag)) // d)
                        for x, d in ((alpha, den), (beta, den), (zeta, zden)))
    at_one = zeta == zden
    if at_one and gamma.real - alpha.real - beta.real > 0:
        m = max(max(0, -((gamma.real * Q - (a_up + b_up) * den) // (Q * den)))
                + math.ceil((digits + 12) / math.log10(2 * math.e)),
                math.ceil(math.sqrt(2 * a_up * b_up * (digits + 12)) / Q - gamma.real / den))
    elif zeta * zeta.conjugate() < zden * zden:
        m = 0
    else:
        raise ValueError("need |z| < 1, or z = 1 with Re(c - a - b) > 0")
    c_lo = (gamma.real + m * den) * Q // den
    sigma = c_lo - a_up - b_up
    two_over_eps = 2 * 10 ** (digits + 10)
    bits = math.ceil((digits + 20) * math.log2(10))
    while True:
        t, err = _gauss_prefactor(alpha, beta, gamma, den, m, bits) if at_one else (1 << bits, 0)
        one, s, errs, n = 1 << bits, 0, 0, 0
        pu = (abs(t) + 1 + err) << bits  # |P| u_n at scale 2^(2 bits), rounded up, at z = 1
        while two_over_eps * errs <= one:  # else the rounding bound fails: rerun at more bits
            nq = n * Q
            if at_one:
                kappa = min(sigma * Q * (n + 1), sigma * nq + c_lo * Q - Q * Q - a_up * b_up)
                if kappa > 0 and two_over_eps * Q * pu * (nq + c_lo - Q) * (n + 1) < kappa << 2 * bits:
                    break
            else:
                u = abs(t) + 1 + err
                if two_over_eps * u < one and nq + c_lo > 0:
                    rho_den = Q * Q * (n + 1) * (nq + c_lo)
                    rho = z_up * max(Q * (n + 1), nq + a_up) * max(nq + c_lo, nq + b_up)
                    if two_over_eps * u * rho_den < (rho_den - rho) * one:
                        break
            s, errs = s + t, errs + err
            x = (alpha + n * den) * (beta + n * den) * zeta
            if not x:
                break  # the series terminates
            g = gamma + (m + n) * den
            t, err = _step(t, err, x * g.conjugate(), g * g.conjugate() * den * zden * (n + 1))
            if at_one:
                pu = -(-pu * (nq + a_up) * (nq + b_up) // ((nq + c_lo) * (n + 1) * Q))
            n += 1
        if two_over_eps * errs <= one:
            return mp.make_mpc((from_man_exp(s.real, -bits), from_man_exp(s.imag, -bits)))
        bits = (two_over_eps * errs).bit_length() + 1


def gauss_summation_defect(a, b, c, digits=50):
    """Distance between the series value at z = 1 and the classical gamma
    quotient.  The left side calls no gamma function: it is hyp2f1's
    directly summed series at the shifted c, whose first term is the
    prefactor P, formed exactly and floored once per part.
    hyp2f1 reads a, b and c exactly; only the gamma quotient rounds them, at
    digits + 15."""
    with mp.workdps(digits + 15):
        rhs = mpmath.gammaprod([_to_mpc(c), _to_mpc(c - a - b)], [_to_mpc(c - a), _to_mpc(c - b)])
        return float(mpmath.fabs(hyp2f1(a, b, c, 1, digits) - rhs))


def euler_transformation_defect(a, b, c, z, digits=50):
    """Distance between F(a, b; c; z) and (1 - z)^(c - a - b) F(c - a, c - b; c; z).
    Both series read their parameters exactly, c - a and c - b formed in the
    parameters' own type; only the power rounds, at digits + 15."""
    with mp.workdps(digits + 15):
        lhs = hyp2f1(a, b, c, z, digits)
        rhs = mpmath.power(_to_mpc(1 - z), _to_mpc(c - a - b)) * hyp2f1(c - a, c - b, c, z, digits)
        return float(mpmath.fabs(lhs - rhs))


# -- the numeric solution-matrix checks -----------------------------------------------------


@lru_cache
def solution_matrix_at(a, b, c, z, weight, digits=50):
    """The 01 and 10 solutions at (X0, -Y0), each column mixed, as the pair
    (V_01, V_10) of {(i, j): entry} dicts.  X0 = [[0, b], [0, 1 - c]] and
    Y0 = [[0, 0], [a, a + b + 1 - c]].  Cached: hg11_defect and
    kummer_row_defects ask for the same 01 matrix.  The walk takes X0 t and
    -Y0 t, t the first variable of MatSeries' keys, and an entry is its
    value at t = 1.  The walk contract (``rings``) puts each degree within
    2^-B of the exact walk, so only the truncation at the weight costs
    digits.  Only G_01(z) is summed, to series_terms(z) terms; G_10(z) = G_01(z) S(phi), S the antipode and phi
    = kz_series(weight, digits).phi (cached), by G_01 = G_10 phi.  By the
    ``rings`` product contract its coefficients are within u + d_01 |S(phi)|
    + d_phi |G_01| of the exact product, d the errors of the stored factors."""
    g01 = fundamental_solution(z, weight, digits)
    g10 = g01 * kz_series(weight, digits).phi.antipode()
    ring = g01.ring
    a, b, c = (_to_mpc(x, ring.mp) for x in (a, b, c))
    p, q = 1 - c, a + b + 1 - c

    def matrix(d, *entries):  # the entries (ints or ring numbers) times t^d
        return MatSeries(ring, weight, {(i >> 1, i & 1, d, 0, 0): e for i, e in enumerate(entries)})

    def at_one(g, mix):
        m = g.substitute(matrix(1, 0, b, 0, p), matrix(1, 0, 0, -a, -q)) * mix
        return {ij: ring.value(sum(m[ij].numerators.values()), m.denominator)
                for ij in ((0, 0), (0, 1), (1, 0), (1, 1))}

    return (at_one(g01, matrix(0, 1, 1, 0, p / b)),
            at_one(g10, matrix(0, 1, 0, -a / q, (q - 1) / b)))


def hg11_defect(a, b, c, z, weight, digits=50):
    """[G_01(X0, -Y0)(z)]_11 against the hypergeometric series; the column
    mix of solution_matrix_at leaves that entry unchanged."""
    v01, _ = solution_matrix_at(a, b, c, z, weight, digits)
    return float(mpmath.fabs(v01[0, 0] - hyp2f1(a, b, c, z, digits)))


def kummer_row_defects(a, b, c, z, weight, digits=50):
    """First-row identities of the 01 and 10 solution matrices against
    hypergeometric values (four scalar checks); the 01 left one is
    hg11_defect.  The series read their parameters exactly, formed in the
    parameters' own type; only the powers read ring numbers."""
    v01, v10 = solution_matrix_at(a, b, c, z, weight, digits)
    ctx = complex_field(digits).mp
    a_, b_, c_, z_ = (_to_mpc(x, ctx) for x in (a, b, c, z))
    out = {}
    out["01_left"] = hg11_defect(a, b, c, z, weight, digits)
    rhs = ctx.power(z_, 1 - c_) * hyp2f1(b + 1 - c, a + 1 - c, 2 - c, z, digits)
    out["01_right"] = float(mpmath.fabs(v01[0, 1] - rhs))
    out["10_left"] = float(mpmath.fabs(v10[0, 0] - hyp2f1(a, b, a + b + 1 - c, 1 - z, digits)))
    rhs = ctx.power(1 - z_, c_ - a_ - b_) * hyp2f1(c - a, c - b, c - a - b + 1, 1 - z, digits)
    out["10_right"] = float(mpmath.fabs(v10[0, 1] - rhs))
    return out


def gamma_log_defect(weight, digits=50):
    """Log-coefficients of the gamma series of the MZV generating series
    against zeta values from an independent backend."""
    cand = kz_series(weight, digits)
    log = gamma_of_associator(cand).log
    ctx = cand.ring.mp
    worst = 0.0
    for n in range(2, weight + 1):
        expect = ctx.zeta(n) * ctx.mpc(-1) ** n / n
        worst = max(worst, float(mpmath.fabs(log.coeff((n, 0, 0)) - expect)))
    # the t^1 coefficient vanishes (no single-letter terms)
    return max(worst, float(mpmath.fabs(log.coeff((1, 0, 0)))))
