"""2x2 matrices: Mat2 over numbers (``hypcx``) or CSeries (the gamma-ratio
matrix and its inverse), and MatSeries, a matrix over the (a, b, p) series
held as one graded series: what NCSeries.substitute and graded's exp and log
act on, one dict and one contraction loop per product instead of four CSeries."""

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

    # the integer copy NCSeries.substitute takes of a rational number matrix
    @property
    def denominator(self):
        return lcm(*(x.denominator for x in self.e))

    def as_integers(self, k):
        return Mat2(*(int(x * k) for x in self.e))

    def det(self):
        a = self.e
        return a[0] * a[3] - a[1] * a[2]

    def inverse(self):
        """The adjugate times the determinant's own .inverse(), from the left."""
        c, a = self.det().inverse(), self.e
        return Mat2(c * a[3], c * -a[1], c * -a[2], c * a[0])


class MatSeries(graded.Series):
    """A 2x2 matrix over the (a, b, p) series ring: the key (i, j, a, b, p)
    is the monomial a^a b^b p^p of entry (i, j), of degree a + b + p; from a
    Mat2 at its entries' smallest truncation.  The rest is graded's."""

    __slots__ = ()

    degree = staticmethod(lambda k: k[2] + k[3] + k[4])

    @classmethod
    def one(cls, ring, truncation):
        return cls(ring, truncation, dict.fromkeys(((0, 0, 0, 0, 0), (1, 1, 0, 0, 0)), ring.one))

    @classmethod
    def from_mat2(cls, m: Mat2):
        return cls(m.e[0].ring, min(x.truncation for x in m.e),
                   {(i >> 1, i & 1) + k: c for i, x in enumerate(m.e) for k, c in x.terms.items()})

    def to_mat2(self) -> Mat2:
        entries = ({}, {}, {}, {})
        for (i, j, *k), c in self.terms.items():
            entries[2 * i + j][tuple(k)] = c
        return Mat2(*(CSeries(self.ring, self.truncation, e, _clean=True) for e in entries))

    def __mul__(self, other):
        n = self._common(other)
        rows, out = ([], []), {}
        for (j, k, a, b, p), c in other.terms.items():
            rows[j].append((k, a, b, p, a + b + p, c))
        for (i, j, a, b, p), ca in self.terms.items():
            da = a + b + p
            if da > n:
                continue
            for k, a2, b2, p2, db, cb in rows[j]:
                if da + db > n:
                    continue
                key = (i, k, a + a2, b + b2, p + p2)
                v = ca * cb
                s = out.get(key)
                out[key] = v if s is None else s + v
        is_zero = self.ring.is_zero
        return MatSeries(self.ring, n, {k: c for k, c in out.items() if not is_zero(c)}, _clean=True)


def mat_exp_graded(m: MatSeries) -> MatSeries:
    """exp of a matrix series of positive minimal degree."""
    return graded.exp(m)
