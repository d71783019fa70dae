"""2x2 matrices over an arbitrary entry ring (series or complex numbers)."""

from __future__ import annotations

from math import lcm

from . import graded


class Mat2:
    __slots__ = ("e",)

    def __init__(self, e00, e01, e10, e11):
        self.e = (e00, e01, e10, e11)

    @classmethod
    def identity(cls, one, zero):
        return cls(one, zero, zero, one)

    def __getitem__(self, ij):
        i, j = ij
        return self.e[2 * i + j]

    def __repr__(self):
        return "Mat2(%r, %r, %r, %r)" % self.e

    def __add__(self, other):
        a, b = self.e, other.e
        return Mat2(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other):
        a, b = self.e, other.e
        return Mat2(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __neg__(self):
        a = self.e
        return Mat2(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        a, b = self.e, other.e
        return Mat2(
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        )

    def scale(self, c):
        return Mat2(*(x.scale(c) if hasattr(x, "scale") else x * c for x in self.e))

    def truncate(self, n):
        return Mat2(*(x.truncate(n) if hasattr(x, "truncate") else x for x in self.e))

    # the entries' grading and integer copies, read by graded and NCSeries.substitute
    @property
    def truncation(self):
        return min(x.truncation for x in self.e)

    def min_degree(self):
        return min(x.min_degree() for x in self.e)

    @property
    def denominator(self):
        return lcm(*(x.denominator for x in self.e))

    def as_integers(self, k):
        return Mat2(*(x.as_integers(k) if hasattr(x, "as_integers") else int(x * k) for x in self.e))

    def det(self):
        a = self.e
        return a[0] * a[3] - a[1] * a[2]

    def one_like(self):
        if not hasattr(self.e[0], "one_like"):
            raise TypeError("entries do not expose one_like; build the identity explicitly")
        one = self.e[0].one_like()
        return Mat2.identity(one, one - one)

    def adjugate(self):
        a = self.e
        return Mat2(a[3], -a[1], -a[2], a[0])

    def inverse(self):
        """Inverse via the adjugate and the determinant's own .inverse()."""
        return self.adjugate().scale_left(self.det().inverse())

    def scale_left(self, c):
        return Mat2(*(c * x for x in self.e))


def mat_exp_graded(m: Mat2) -> Mat2:
    """exp of a matrix whose entries (CSeries) have positive degree."""
    return graded.exp(m)
