"""Truncated exp, log and inverse, written once for every graded algebra of
the package.

An element x only needs +, -, *, scale(Fraction), one_like(), min_degree()
and a .truncation (inverse also needs constant_term() and .ring).  Products
beyond the truncation vanish, so a power series in x of positive minimal
degree v stops after truncation // v terms.  NCSeries and CSeries bind these
functions as their methods; 2x2 matrices over CSeries use exp and log.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def power_sum(x, coeff):
    """The sum over k >= 1 of coeff(k) x^k, for x of positive minimal degree."""
    pw = x.one_like()
    acc = pw.scale(0)
    for k in range(1, x.truncation // x.min_degree() + 1):
        pw = pw * x
        acc = acc + pw.scale(coeff(k))
    return acc


def exp(x):
    if x.min_degree() < 1:
        raise ValueError("exp requires zero constant term")
    return x.one_like() + power_sum(x, lambda k: Fraction(1, factorial(k)))


def log(x):
    g = x - x.one_like()
    if g.min_degree() < 1:
        raise ValueError("log requires constant term 1")
    return power_sum(g, lambda k: Fraction((-1) ** (k + 1), k))


def inverse(x):
    """Inverse of an element whose constant term is a unit of its ring."""
    c0inv = x.ring.inv(x.constant_term())
    y = x.scale(c0inv)
    # subtract the constant term as computed, so no rounding residue is left
    g = y.one_like().scale(y.constant_term()) - y
    return (y.one_like() + power_sum(g, lambda k: 1)).scale(c0inv)
