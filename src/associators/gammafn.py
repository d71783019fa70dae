"""Gamma series attached to associators and GT elements.

A GammaSeries is a truncated series in one variable t with constant term
1, stored as its logarithm: one CSeries in the variable a (standing for t)
without constant term.  Gamma at a degree-1 form in (a, b, p) is the
substitution of that log at the form, and ratios of gamma values are
assembled in log space, which keeps the unavoidable cancellations exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .cseries import CSeries
from .graded import max_coeff, substitute
from .rings import QQ

# -- Bernoulli numbers -----------------------------------------------------------


def bernoulli_numbers(m):
    """Exact B_0 .. B_m, by B_n = -1/(n+1) sum_{j<n} C(n+1, j) B_j, with
    the von Staudt-Clausen check of each even denominator."""
    out = [Fraction(1)]
    for n in range(1, m + 1):
        out.append(-sum(comb(n + 1, j) * out[j] for j in range(n)) / (n + 1))
    for n in range(2, m + 1, 2):
        # the product of the primes p with (p - 1) | n
        expect = prod(p for p in range(2, n + 2)
                      if n % (p - 1) == 0 and all(p % r for r in range(2, p)))
        if out[n].denominator != expect:
            raise AssertionError("Bernoulli denominator check failed at n=%d: %s vs %d"
                                 % (n, out[n].denominator, expect))
    return out


# -- GammaSeries -------------------------------------------------------------------


class GammaSeries:
    """Gamma-type series with constant term 1, held as its logarithm: a
    CSeries in the variable a without constant term."""

    __slots__ = ("log",)

    def __init__(self, log: CSeries):
        if log.min_degree() < 1 or any(m[1] or m[2] for m in log.numerators):
            raise ValueError("the log of a gamma series is a series in a without constant term")
        self.log = log

    @property
    def ring(self):
        return self.log.ring

    @property
    def order(self):
        return self.log.truncation

    @property
    def log_coeffs(self):
        """The log's coefficients at a^0 .. a^order, as a list."""
        return [self.log.coeff((k, 0, 0)) for k in range(self.order + 1)]

    @classmethod
    def one(cls, ring, order):
        return cls(CSeries.zero(ring, order))

    def series(self):
        """The gamma series itself, a CSeries in a."""
        return self.log.exp()

    def multiply(self, other):
        # + would truncate to the lower order without a word
        if other.order != self.order or other.ring is not self.ring:
            raise ValueError("order/ring mismatch")
        return GammaSeries(self.log + other.log)

    def scale_argument(self, mu):
        """Gamma(mu * t): the log's numerator at a^k times mu^k, one
        rounding over the complex ring; no walk."""
        log, n = self.log, self.order
        c, d = self.ring.split(mu)
        w = [d ** n]  # w[k] = c^k d^(n - k)
        for _ in range(n):
            w.append(w[-1] // d * c)
        nums = {m: v * w[m[0]] for m, v in log.numerators.items()} if c else {}
        return GammaSeries(CSeries._stored(self.ring, n, nums, log.denominator * d ** n))

    def log_at_form(self, form: CSeries) -> CSeries:
        """log Gamma at a degree-1 form in (a, b, p): the walk of the log at it."""
        return substitute(self.log, form)

    def ratio(self, s: CSeries, t: CSeries, u: CSeries, v: CSeries) -> CSeries:
        """Gamma(s) Gamma(t) / (Gamma(u) Gamma(v)) as a CSeries."""
        log = self.log_at_form(s) + self.log_at_form(t) \
            - self.log_at_form(u) - self.log_at_form(v)
        return log.exp()

    def reflection_defect(self, mu):
        """Largest coefficient of Gamma(t) Gamma(-t) (e^(mu t/2)-e^(-mu t/2))/(mu t) - 1."""
        both = (self.log + self.log.reflect()).exp() * _sinh_quotient(self.ring, self.order, mu)
        return max_coeff(both - both.one_like())


def _sinh_quotient(ring, order, mu):
    """(e^(mu t / 2) - e^(-mu t / 2)) / (mu t) as a CSeries in a."""
    return CSeries(ring, order, {(2 * m, 0, 0): (mu * mu) ** m * ring.from_fraction(
        Fraction(1, 4 ** m * factorial(2 * m + 1))) for m in range(order // 2 + 1)})


def gamma_even(order, ring=QQ):
    """The even unitary gamma series: square root of t / (e^(t/2) - e^(-t/2)),
    computed in log space from that closed form."""
    return GammaSeries(_sinh_quotient(ring, order, ring.one).log().scale(Fraction(-1, 2)))


def gamma_even_bernoulli_report(order):
    """Reconcile the closed form of the even gamma series with Bernoulli
    exponents over QQ.

    Two candidate exponents are compared against the closed form: the
    corrected one, -sum B_2n / (2 (2n) (2n)!) t^(2n), which matches, and the
    variant without the (2n) factor, which does not (its t^2 coefficient is
    -1/24 instead of -1/48).  Returns a dict with both verdicts so the
    discrepancy is recorded rather than silently resolved.
    """
    bernoulli = bernoulli_numbers(2 * (order // 2) + 2)
    closed = gamma_even(order)

    def build(with_2n_factor):
        coeffs = [QQ.zero] * (order + 1)
        for n in range(1, order // 2 + 1):
            den = 2 * factorial(2 * n)
            if with_2n_factor:
                den *= 2 * n
            coeffs[2 * n] = -bernoulli[2 * n] / den
        return coeffs

    corrected = build(True)
    displayed = build(False)
    return {
        "corrected_exponent_matches_closed_form": corrected == closed.log_coeffs,
        "plain_exponent_matches_closed_form": displayed == closed.log_coeffs,
        "plain_exponent_t2_coefficient": str(displayed[2]) if order >= 2 else None,
        "closed_form_t2_coefficient": str(closed.log_coeffs[2]) if order >= 2 else None,
    }


def _gamma_of_series(s) -> GammaSeries:
    """Log coefficients (-1)^(k+1)/k * (s | e0^(k-1) e1), k = 1..truncation."""
    ring, n = s.ring, s.truncation
    return GammaSeries(CSeries(ring, n, {
        (k, 0, 0): s.coeff((0,) * (k - 1) + (1,)) * ring.from_fraction(Fraction((-1) ** (k + 1), k))
        for k in range(1, n + 1)}))


def gamma_of_associator(cand) -> GammaSeries:
    """Gamma series of an associator, read off its series phi."""
    return _gamma_of_series(cand.phi)


def gamma_of_gt(gt) -> GammaSeries:
    """Gamma series of a GT element, read off its exponential-picture series
    f(e^(e0), e^(e1))."""
    return _gamma_of_series(gt.series)


def gamma_from_kappa(ring, order, kappa) -> GammaSeries:
    """Gamma series from supplied exponential coefficients
    {m: kappa_m, m >= 2}: log coefficient at t^m is kappa_m / m!."""
    return GammaSeries(CSeries(ring, order, {
        (int(m), 0, 0): val * ring.from_fraction(Fraction(1, factorial(int(m))))
        for m, val in kappa.items() if 2 <= int(m) <= order}))
