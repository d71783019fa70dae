"""2x2 matrices over the (a, b, p) series.  MatSeries holds one as a
single graded series: what NCSeries.substitute and graded's exp and log act
on.  Its product is one contraction loop over the stored numerators, which
sums into the dict it is given (graded.product: a new one per __mul__, a
node's own in the walk) and reads the right factor by row and degree; its 1
has two keys, so its inverse is the adjugate over the determinant.  Mat2
multiplies four CSeries: the matrix of the tests' word-by-word oracle, and
the mat2 method that perfbench times."""

from __future__ import annotations

from math import lcm

from . import graded
from .cseries import CSeries


class Mat2:
    __slots__ = ("e",)

    def __init__(self, e00, e01, e10, e11):
        self.e = (e00, e01, e10, e11)

    def __getitem__(self, ij):
        i, j = ij
        return self.e[2 * i + j]

    def __add__(self, other):
        a, b = self.e, other.e
        return Mat2(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __mul__(self, other):
        a, b = self.e, other.e
        return Mat2(
            a[0] * b[0] + a[1] * b[2],
            a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2],
            a[2] * b[1] + a[3] * b[3],
        )

    def scale(self, c):
        return Mat2(*(x.scale(c) for x in self.e))

    def truncate(self, n):
        return Mat2(*(x.truncate(n) for x in self.e))


class MatSeries(graded.Series):
    """A 2x2 matrix over the (a, b, p) series ring: the key (i, j, a, b, p)
    is the monomial a^a b^b p^p of entry (i, j), of degree a + b + p.
    m[i, j] is that entry as a CSeries.  The rest is graded's."""

    __slots__ = ()

    degree = staticmethod(lambda k: k[2] + k[3] + k[4])

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, dict.fromkeys(((0, 0, 0, 0, 0), (1, 1, 0, 0, 0)), ring.one))

    @classmethod
    def of(cls, e00, e01, e10, e11):
        """The matrix of four CSeries over one ring, at their smallest
        truncation: their stored numerators over the lcm of their
        denominators."""
        es = (e00, e01, e10, e11)
        if any(type(x) is not CSeries or x.ring is not e00.ring for x in es):
            raise graded.RingMismatch("MatSeries.of takes four CSeries over one ring")
        n, den = min(x.truncation for x in es), lcm(*(x.denominator for x in es))
        return cls._stored(e00.ring, n, {(i >> 1, i & 1) + k: c * (den // x.denominator)
                                         for i, x in enumerate(es)
                                         for k, c in x.numerators.items() if sum(k) <= n}, den)

    def __getitem__(self, ij):
        nums = {k[2:]: c for k, c in self.numerators.items() if k[:2] == ij}
        return CSeries._stored(self.ring, self.truncation, nums, self.denominator)

    def transpose(self):
        return self.relabel(lambda k: (k[1], k[0]) + k[2:])

    def det(self) -> CSeries:
        return self[0, 0] * self[1, 1] - self[0, 1] * self[1, 0]

    def inverse(self):
        """The adjugate times the determinant's inverse."""
        c = self.det().inverse()
        return MatSeries.of(c * self[1, 1], c * -self[0, 1], c * -self[1, 0], c * self[0, 0])

    @graded.product
    def __mul__(x, y, n, out):
        # entry (i, j) of x against entry (j, k) of y, y's terms by row and degree
        rows = ({}, {})
        for (j, k, a, b, p), c in y.items():
            rows[j].setdefault(a + b + p, []).append((k, a, b, p, c))
        for (i, j, a, b, p), ca in x.items():
            room = n - a - b - p
            for db, items in rows[j].items():
                if db > room:
                    continue
                for k, a2, b2, p2, cb in items:
                    key = (i, k, a + a2, b + b2, p + p2)
                    v = ca * cb
                    s = out.get(key)
                    out[key] = v if s is None else s + v


def mat_exp_graded(m: MatSeries) -> MatSeries:
    """exp of a matrix series of positive minimal degree."""
    return graded.exp(m)
