"""The three benchmark workloads and their correctness gate.

Each workload has a ``setup`` that imports nothing beyond the package and
builds the seeded inputs, and a ``run`` that calls the package's public
functions from outside, in a produce ("solve") phase followed by a check
("verify") phase.  Every check is recorded with its defect, its tolerance and
whether it passed; a failing check is counted, never raised.  Exact (QQ)
checks pass only on equality.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import mpmath
from mpmath import mp

from associators import associator, hypcx, matspec
from associators import words as W
from associators.cseries import max_cseries_coeff
from associators.ncseries import lie_element
from associators.pentagon import P5Quotient
from associators.rings import QQ

# The workloads call the package through module attributes, so that the
# traced run, which rebinds those attributes, sees every call.

# Checks that failed when the benchmark was added, because of a known defect
# (ROADMAP item 5).  They stay in the gate and in ``failed``; ``correct``
# only turns false when a check outside this group fails.
KNOWN_DEFECT_PREFIX = "regtable."


class Checks:
    """Ordered record of checks: name, defect (None when the program only
    returns a verdict), tolerance (0 for exact checks) and outcome."""

    def __init__(self):
        self.items = []

    def _add(self, name, defect, tol, passed, error=None):
        item = {"name": name, "defect": defect, "tol": tol, "passed": bool(passed)}
        if error is not None:
            item["error"] = error
        self.items.append(item)

    def exact(self, name, equal, defect=None):
        """An exact QQ comparison: passes only when the values are equal."""
        self._add(name, defect, 0.0, equal)

    def within(self, name, defect, tol):
        self._add(name, float(defect), tol, defect <= tol)

    def verdict(self, name, verdict, expected=True):
        """A check whose program only reports a verdict, not a defect."""
        self._add(name, None, None, verdict == expected)

    @contextmanager
    def guard(self, name):
        """Count an exception raised by a group of checks as one failed check."""
        try:
            yield
        except Exception as exc:  # a broken check is a finding, not a crash
            self._add(name, None, None, False, error="%s: %s" % (type(exc).__name__, exc))

    @property
    def failed(self):
        return [c["name"] for c in self.items if not c["passed"]]


class Clock:
    """Wall time per phase of the timed run, without the speed gauge's
    sampling time."""

    def __init__(self, gauge=None):
        self.phases = {"solve": 0.0, "verify": 0.0}
        self.gauge = gauge

    def _now(self):
        return perf_counter() - (self.gauge.busy_s if self.gauge is not None else 0.0)

    @contextmanager
    def phase(self, name):
        t0 = self._now()
        try:
            yield
        finally:
            self.phases[name] += self._now() - t0


def associator_checks(checks, label, cand, quotient, degree, tol=0.0, even=True):
    """The program's own axiom verdicts for an associator candidate; the
    evenness verdict must match what the candidate was built to be."""
    with checks.guard(label + ".check_associator"):
        report = associator.check_associator(cand, quotient, tol=tol, pentagon_degree=degree)
        for axiom in ("mu_invertible", "quadratic", "commutator_grouplike", "pentagon",
                      "two_cycle", "three_cycle"):
            checks.verdict("%s.%s" % (label, axiom), report[axiom])
        checks.verdict(label + ".even", report["even"], expected=even)


# -- exact_pentagon5 -----------------------------------------------------------


class ExactPentagon:
    """Solve and verify two unitary associators over QQ at degree n.

    No random input: the seed only labels the run."""

    default_size = 5

    def setup(self, seed, size):
        return {"degree": size}

    def run(self, inputs, clock, checks):
        n = inputs["degree"]
        with clock.phase("solve"):
            q = P5Quotient(n)
            even, _ = associator.solve_unitary(n, q, tiebreak="zero", even=True)
            skew, _ = associator.solve_unitary(n, q, tiebreak="lex", even=False)
            f = associator.gt_from_pair(even, skew)
        with clock.phase("verify"):
            # the quotient's Hilbert series is 1/((1-2t)(1-3t))
            expect = [3 ** (d + 1) - 2 ** (d + 1) for d in range(n + 1)]
            checks.exact("pentagon.dimensions", q.dimensions() == expect)
            associator_checks(checks, "even", even, q, n, even=True)
            associator_checks(checks, "skew", skew, q, n, even=False)
            with checks.guard("torsor"):
                checks.exact("torsor.quadratic", f.quadratic_defect() == 0,
                             abs(float(f.quadratic_defect())))
                back = associator.gt_act(f, even)
                checks.exact("torsor.round_trip", back.phi == skew.phi and back.mu == skew.mu)
            with checks.guard("gauss"):
                report, lhs, rhs = matspec.formal_gauss_identity(f, n)
                oracle = matspec.formal_gauss_oracle(f, n)
                checks.exact("gauss.identity", report["defect"] == 0.0, report["defect"])
                checks.exact("gauss.oracle", lhs == oracle, max_cseries_coeff(lhs - oracle))
            for label, cand in (("even", even), ("skew", skew)):
                with checks.guard(label + ".varphi"):
                    report, _, gm = matspec.varphi_equals_gamma_matrix(cand)
                    checks.exact(label + ".varphi", report["equal"], report["max_entry_difference"])
                    checks.exact(label + ".gamma_det", gm.det_is_one, gm.det_defect)


# -- kz_numeric8 -------------------------------------------------------------------


DIGITS = 40
MZV_TOL = 1e-30
Z_2F1 = Fraction(3, 10)  # fixed: the MPL engine's term count depends on z


def admissible_indices(max_weight):
    out = []

    def rec(prefix, total):
        if prefix and prefix[-1] > 1:
            out.append(tuple(prefix))
        for k in range(1, max_weight - total + 1):
            prefix.append(k)
            rec(prefix, total + k)
            prefix.pop()

    rec([], 0)
    return out


def hypergeometric_parameters(rng):
    """(a, b, c) with c not a non-positive integer, Re(c - a - b) > 0, and
    every entry of the numeric X0, Y0 at most 0.18 in size, so the weight-8
    truncation tail stays far below the row tolerance."""
    a = Fraction(rng.randint(5, 15), 100)
    b = Fraction(rng.randint(5, 15), 100)
    c = 1 + (a + b) / 2 + Fraction(rng.randint(-3, 3), 100)
    return a, b, c


def truncation_tolerance(a, b, c, weight):
    """Size of the first neglected weight of the fundamental solution at
    (X0, -Y0), with unit polylogarithm coefficients: (2 r)^(weight + 1),
    r the largest entry of X0 and Y0."""
    r = max(abs(a), abs(b), abs(1 - c), abs(a + b + 1 - c))
    return float(2 * r) ** (weight + 1)


def correct_digits(value, reference):
    err = abs(value - reference)
    if err == 0:
        return float(DIGITS + 10)
    return float(-mpmath.log10(err / max(abs(reference), mp.mpf(10) ** -DIGITS)))


class KZNumeric:
    """The MZV generating series and the 2F1 identities over mpmath."""

    default_size = 8

    def setup(self, seed, size):
        a, b, c = hypergeometric_parameters(random.Random(seed))
        return {"weight": size, "a": a, "b": b, "c": c, "z": Z_2F1}

    def run(self, inputs, clock, checks):
        w = inputs["weight"]
        a, b, c, z = inputs["a"], inputs["b"], inputs["c"], inputs["z"]
        indices = admissible_indices(w)
        with clock.phase("solve"):
            cand = hypcx.kz_series(w, DIGITS)
            values = {idx: hypcx.mzv(idx, DIGITS) for idx in indices}
        with clock.phase("verify"):
            digits = self.mzv_checks(checks, w, values)
            associator_checks(checks, "kz", cand, P5Quotient(min(4, w)), min(4, w),
                              tol=MZV_TOL, even=False)
            with checks.guard("gamma_log"):
                checks.within("gamma_log", hypcx.gamma_log_defect(w, DIGITS), MZV_TOL)
            tail = truncation_tolerance(a, b, c, w)
            with checks.guard("kummer"):
                rows = hypcx.kummer_row_defects(a, b, c, z, w, DIGITS)
                for key in sorted(rows):
                    checks.within("kummer." + key, rows[key], tail)
            with checks.guard("hg11"):
                checks.within("hg11", hypcx.hg11_defect(a, b, c, z, w, DIGITS), tail)
            with checks.guard("gauss_summation"):
                checks.within("gauss_summation", hypcx.gauss_summation_defect(a, b, c, DIGITS), 1e-20)
            with checks.guard("euler_transformation"):
                checks.within("euler_transformation",
                              hypcx.euler_transformation_defect(a, b, c, z, DIGITS), MZV_TOL)
            self.regularized_table_checks(checks)
        return {"mzv_digits_min": digits}

    @staticmethod
    def mzv_checks(checks, w, values):
        """zeta(k) against mpmath, the sum theorem and duality; returns the
        fewest correct digits among them."""
        digits = []
        with mp.workdps(DIGITS + 10):
            def record(name, value, reference):
                err = float(abs(value - reference))
                checks.within(name, err, MZV_TOL)
                digits.append(correct_digits(value, reference))

            for k in range(2, w + 1):
                record("mzv.zeta%d" % k, values[(k,)], mpmath.zeta(k))
            for k in range(3, w + 1):
                for depth in range(2, k):
                    total = sum(v for idx, v in values.items()
                                if sum(idx) == k and len(idx) == depth)
                    record("mzv.sum_w%d_d%d" % (k, depth), total, values[(k,)])
            for idx in sorted(values):
                dual = W.index_from_word(W.dual_word(W.word_from_index(idx)))
                if idx < dual:
                    record("mzv.dual_%s" % "_".join(map(str, idx)), values[idx], values[dual])
        return min(digits)

    @staticmethod
    def regularized_table_checks(checks):
        """The tier-1 check test_regularized_table_matches_kz_coefficients:
        slow direct sums for the convergent words of weight <= 4, extended by
        shuffle regularization, against the weight-4 KZ series on all 31
        words with the same 2e-3 bound."""
        with checks.guard("regtable"):
            cand = hypcx.kz_series(4, DIGITS)
            base = {}
            for n in range(2, 5):
                for word in W.words_of_weight(n):
                    if word[0] == W.E0 and word[-1] == W.E1:
                        idx = W.index_from_word(word)
                        base[word] = float(hypcx.mzv_direct(idx, 800)) * (-1) ** len(idx)
            table = hypcx.regularized_table(base, 4)
            with mp.workdps(DIGITS):
                for n in range(5):
                    for word in W.words_of_weight(n):
                        err = float(abs(table[word] - cand.phi.coeff(word)))
                        name = KNOWN_DEFECT_PREFIX + ("".join(map(str, word)) or "empty")
                        checks.within(name, err, 2e-3)


# -- matrix_suite8 -----------------------------------------------------------------


def commutator_grouplike(rng, n):
    """exp of a Lie series with a nonzero coefficient on every Lyndon word of
    degree 2..n, so the term count barely depends on the seed."""
    coords = {}
    for d in range(2, n + 1):
        for lw, _ in W.lie_basis(d):
            coords[lw] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    return lie_element(QQ, n, coords).exp()


class MatrixSuite:
    """The 2x2 gamma-matrix identities over QQ at truncation n on one seeded
    commutator group-like series."""

    default_size = 8

    def setup(self, seed, size):
        return {"truncation": size, "g": commutator_grouplike(random.Random(seed), size)}

    def run(self, inputs, clock, checks):
        n, g = inputs["truncation"], inputs["g"]
        with clock.phase("solve"):
            gm = matspec.gamma_matrix_plus(n)
            theta = matspec.ThetaMap(n, gamma_matrix=gm)
        with clock.phase("verify"):
            checks.exact("gamma_plus.det", gm.det_is_one, gm.det_defect)
            for label, fn in (("transformation", matspec.transformation_identities),
                              ("weighted_sum", matspec.weighted_sum_identities),
                              ("appendix", matspec.appendix_entry_relations)):
                with checks.guard(label):
                    for key, defect in sorted(fn(g).items()):
                        checks.exact("%s.%s" % (label, key), defect == 0.0, defect)
            for label, fn in (("swap_invariance", matspec.swap_invariance_defect),
                              ("formal_euler", matspec.formal_euler_identity)):
                with checks.guard(label):
                    defect = fn(g, theta=theta)
                    checks.exact(label, defect == 0.0, defect)


WORKLOADS = {
    "exact_pentagon5": ExactPentagon(),
    "kz_numeric8": KZNumeric(),
    "matrix_suite8": MatrixSuite(),
}
