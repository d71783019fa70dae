"""Which package calls the traced run wraps, and the per-layer metrics
derived from their spans and counters.

A layer is a module of the ``associators`` package.  Span names are
``<module>.<qualified name>`` of the wrapped function, so a span belongs to
the layer that defines the function.
"""

from __future__ import annotations

import weakref

from associators import (
    associator,
    cseries,
    gammafn,
    hypcx,
    mat2,
    matspec,
    ncseries,
    pentagon,
    words,
)

LAYERS = ("words", "ncseries", "pentagon", "associator", "cseries", "mat2",
          "gammafn", "matspec", "hypcx")

# The layers each workload is expected to spend its time in; the traced run
# reports the share of wall time whose self time falls in them.
NAMED_LAYERS = {
    "exact_pentagon5": ("pentagon", "associator", "ncseries", "words", "gammafn"),
    "kz_numeric8": ("hypcx", "ncseries", "pentagon", "associator", "words"),
    "matrix_suite8": ("cseries", "mat2", "matspec", "gammafn", "ncseries"),
}

MATSPEC_IDENTITIES = ("transformation_identities", "weighted_sum_identities",
                      "appendix_entry_relations", "swap_invariance_defect",
                      "formal_euler_identity", "formal_gauss_identity",
                      "formal_gauss_oracle", "varphi_equals_gamma_matrix")
HYPCX_CHECKS = ("kummer_row_defects", "hg11_defect", "gauss_summation_defect",
                "euler_transformation_defect")


# -- probes: counters taken at the traced boundary --------------------------


def _echelon_rows(counters, args, result):
    counters["pentagon.echelon_rows"] += sum(len(rows) for rows in args[0].echelon.values())


def _linsolve_cols(counters, args):
    counters["associator.linsolve_cols"] += len(args[0])


def _nullspace_dim(counters, args, result):
    counters["associator.nullspace_dim"] += len(result[1])


def _terms_out(key):
    def post(counters, args, result):
        counters[key] += len(result.terms)
    return post


class _MPLWords:
    """Counts the words an MPL engine computes, i.e. the first request of
    each (engine, word); the engine's memo answers later requests."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, counters, args):
        engine, word = args[0], args[1]
        words_seen = self.seen.setdefault(engine, set())
        if word not in words_seen:
            words_seen.add(word)
            counters["hypcx.mpl_words"] += 1
            counters["hypcx.mpl_coeff_ops"] += engine.nterms
            counters["hypcx.mpl_nterms"] = max(counters["hypcx.mpl_nterms"], engine.nterms)


def install(tracer):
    """Wrap the traced calls; the tracer's restore() undoes all of it."""
    fn, meth = tracer.patch_function, tracer.patch_method
    P5Q, P5E = pentagon.P5Quotient, pentagon.P5Element
    NC, CS = ncseries.NCSeries, cseries.CSeries

    fn(words, "lie_basis", "words.lie_basis")
    fn(words, "lie_coordinates", "words.lie_coordinates")

    meth(NC, "__mul__", "ncseries.NCSeries.__mul__", post=_terms_out("ncseries.mul_terms_out"))
    for name in ("exp", "log", "inverse", "substitute", "lie_defect"):
        meth(NC, name, "ncseries.NCSeries." + name)
    fn(ncseries, "lie_element", "ncseries.lie_element")

    meth(P5Q, "__init__", "pentagon.P5Quotient.__init__", post=_echelon_rows)
    meth(P5Q, "nf_monomial", "pentagon.P5Quotient.nf_monomial")
    meth(P5Q, "reduce_vector", "pentagon.P5Quotient.reduce_vector")
    meth(P5E, "__mul__", "pentagon.P5Element.__mul__")
    fn(pentagon, "embed", "pentagon.embed")
    fn(pentagon, "pentagon_residual", "pentagon.pentagon_residual")

    fn(associator, "solve_unitary", "associator.solve_unitary")
    fn(associator, "solve_fraction_system", "associator.solve_fraction_system",
       pre=_linsolve_cols, post=_nullspace_dim)
    for name in ("check_associator", "two_cycle_defect", "three_cycle_defect",
                 "gt_act", "gt_from_pair", "gt_compose"):
        fn(associator, name, "associator." + name)

    meth(CS, "__mul__", "cseries.CSeries.__mul__", post=_terms_out("cseries.mul_terms_out"))
    for name in ("exp", "log", "inverse", "divide_exact", "subst"):
        meth(CS, name, "cseries.CSeries." + name)

    meth(mat2.Mat2, "__mul__", "mat2.Mat2.__mul__")
    fn(mat2, "mat_exp_graded", "mat2.mat_exp_graded")

    fn(gammafn, "gamma_even", "gammafn.gamma_even")
    meth(gammafn.GammaSeries, "ratio", "gammafn.GammaSeries.ratio")
    fn(gammafn, "gamma_of_associator", "gammafn.gamma_of_associator")
    fn(gammafn, "gamma_of_gt", "gammafn.gamma_of_gt")

    for name in ("ev_at", "gamma_ratio_matrix", "gamma_matrix_plus", "cocycle_image",
                 "mat_log_graded") + MATSPEC_IDENTITIES:
        fn(matspec, name, "matspec." + name)
    meth(matspec.ThetaMap, "__init__", "matspec.ThetaMap.__init__")

    meth(hypcx.MPLEngine, "coeff_series", "hypcx.MPLEngine.coeff_series", pre=_MPLWords())
    meth(hypcx.MPLEngine, "h_coefficient", "hypcx.MPLEngine.h_coefficient")
    for name in ("fundamental_solution", "kz_series", "mzv", "mzv_direct", "regularized_table",
                 "hyp2f1", "solution_matrix_at", "gamma_log_defect") + HYPCX_CHECKS:
        fn(hypcx, name, "hypcx." + name)


# -- per-layer metrics: (name, unit, better, how to compute it) ---------------


def _cum(*names):
    return lambda ix: ix.cum_time(names)


def _self(*names):
    return lambda ix: ix.self_time(names)


def _calls(*names):
    return lambda ix: ix.calls(names)


def _counter(key):
    return lambda ix: ix.tracer.counters[key]


def _ratio(num, den):
    return lambda ix: num(ix) / den(ix) if den(ix) else 0.0


_NF = "pentagon.P5Quotient.nf_monomial"
_EXP_LOG_INV = ("exp", "log", "inverse")

PER_LAYER = [
    ("pentagon.build_s", "s", "lower", _cum("pentagon.P5Quotient.__init__")),
    ("pentagon.echelon_rows", "count", "lower", _counter("pentagon.echelon_rows")),
    ("pentagon.mul_calls", "count", "lower", _calls("pentagon.P5Element.__mul__")),
    ("pentagon.mul_self_s", "s", "lower", _self("pentagon.P5Element.__mul__")),
    ("pentagon.nf_calls", "count", "lower", _calls(_NF)),
    ("pentagon.nf_s", "s", "lower", _cum(_NF)),
    ("pentagon.nf_hit_ratio", "ratio", "higher", _ratio(
        lambda ix: ix.calls([_NF]) - ix.calls_with_parent("pentagon.P5Quotient.reduce_vector", _NF),
        _calls(_NF))),
    ("pentagon.embed_s", "s", "lower", _cum("pentagon.embed")),
    ("pentagon.residual_s", "s", "lower", _cum("pentagon.pentagon_residual")),
    ("associator.solve_s", "s", "lower", _cum("associator.solve_unitary")),
    ("associator.linsolve_s", "s", "lower", _cum("associator.solve_fraction_system")),
    ("associator.linsolve_cols", "count", "lower", _counter("associator.linsolve_cols")),
    ("associator.nullspace_dim", "count", "lower", _counter("associator.nullspace_dim")),
    ("associator.check_s", "s", "lower", _cum("associator.check_associator")),
    ("associator.cycle_s", "s", "lower", _cum("associator.two_cycle_defect",
                                               "associator.three_cycle_defect")),
    ("associator.torsor_s", "s", "lower", _cum("associator.gt_act", "associator.gt_from_pair",
                                                "associator.gt_compose")),
    ("ncseries.mul_calls", "count", "lower", _calls("ncseries.NCSeries.__mul__")),
    ("ncseries.mul_s", "s", "lower", _cum("ncseries.NCSeries.__mul__")),
    ("ncseries.mul_terms_out", "count", "lower", _counter("ncseries.mul_terms_out")),
    ("ncseries.exp_log_inv_s", "s", "lower", _cum(*("ncseries.NCSeries." + n for n in _EXP_LOG_INV))),
    ("ncseries.substitute_s", "s", "lower", _cum("ncseries.NCSeries.substitute")),
    ("ncseries.lie_defect_s", "s", "lower", _cum("ncseries.NCSeries.lie_defect")),
    ("words.lie_basis_s", "s", "lower", _cum("words.lie_basis")),
    ("words.lie_coordinates_s", "s", "lower", _cum("words.lie_coordinates")),
    ("cseries.mul_calls", "count", "lower", _calls("cseries.CSeries.__mul__")),
    ("cseries.mul_s", "s", "lower", _cum("cseries.CSeries.__mul__")),
    ("cseries.mul_terms_out", "count", "lower", _counter("cseries.mul_terms_out")),
    ("cseries.exp_log_inv_s", "s", "lower", _cum(*("cseries.CSeries." + n for n in _EXP_LOG_INV))),
    ("cseries.divide_exact_s", "s", "lower", _cum("cseries.CSeries.divide_exact")),
    ("cseries.subst_s", "s", "lower", _cum("cseries.CSeries.subst")),
    ("mat2.mul_calls", "count", "lower", _calls("mat2.Mat2.__mul__")),
    ("mat2.mul_self_s", "s", "lower", _self("mat2.Mat2.__mul__")),
    ("mat2.exp_log_s", "s", "lower", _cum("mat2.mat_exp_graded", "matspec.mat_log_graded")),
    ("gammafn.gamma_even_s", "s", "lower", _cum("gammafn.gamma_even")),
    ("gammafn.ratio_s", "s", "lower", _cum("gammafn.GammaSeries.ratio")),
    ("gammafn.gamma_of_s", "s", "lower", _cum("gammafn.gamma_of_associator", "gammafn.gamma_of_gt")),
    ("matspec.ev_s", "s", "lower", _cum("matspec.ev_at")),
    ("matspec.gamma_ratio_matrix_s", "s", "lower", _cum("matspec.gamma_ratio_matrix")),
    ("matspec.cocycle_image_s", "s", "lower", _cum("matspec.cocycle_image")),
    ("matspec.identities_s", "s", "lower", _cum(*("matspec." + n for n in MATSPEC_IDENTITIES))),
    ("hypcx.mpl_coeff_s", "s", "lower", _self("hypcx.MPLEngine.coeff_series")),
    ("hypcx.mpl_words", "count", "lower", _counter("hypcx.mpl_words")),
    ("hypcx.mpl_nterms", "count", "lower", _counter("hypcx.mpl_nterms")),
    ("hypcx.mpl_coeff_ops", "count", "lower", _counter("hypcx.mpl_coeff_ops")),
    ("hypcx.horner_s", "s", "lower", _self("hypcx.MPLEngine.h_coefficient")),
    ("hypcx.fundamental_solution_s", "s", "lower", _cum("hypcx.fundamental_solution")),
    ("hypcx.kz_series_calls", "count", "lower", _calls("hypcx.kz_series")),
    ("hypcx.kz_cache_hit_ratio", "ratio", "higher", _ratio(
        lambda ix: ix.calls_without_child("hypcx.kz_series", "hypcx.fundamental_solution"),
        _calls("hypcx.kz_series"))),
    ("hypcx.hyp2f1_calls", "count", "lower", _calls("hypcx.hyp2f1")),
    ("hypcx.hyp2f1_s", "s", "lower", _cum("hypcx.hyp2f1")),
] + [
    ("%s.self_s" % layer, "s", "lower", (lambda layer: lambda ix: ix.self_time_by_prefix(layer))(layer))
    for layer in LAYERS
]


def per_layer_metrics(index):
    return {name: (compute(index), unit) for name, unit, _better, compute in PER_LAYER}


def named_layers_self(index, workload):
    return sum(index.self_time_by_prefix(layer) for layer in NAMED_LAYERS[workload])
