"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import associators  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from associators import hypcx  # noqa: E402
from associators.associator import AssociatorCandidate, solve_unitary  # noqa: E402
from associators.ncseries import NCSeries  # noqa: E402
from associators.pentagon import P5Quotient  # noqa: E402
from associators.rings import QQ  # noqa: E402
from tracer import SpanIndex, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, Clock, associator_checks  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"exact_pentagon5": 3, "kz_numeric8": 4, "matrix_suite8": 4}


def package_bindings():
    """Every function-valued attribute of the package's modules and classes,
    by identity."""
    import pkgutil

    out = {}
    for info in pkgutil.iter_modules(associators.__path__):
        mod = sys.modules.get("associators." + info.name)
        if mod is None:
            continue
        for key, val in vars(mod).items():
            if callable(val):
                out[(mod.__name__, key)] = val
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_benchmark_lists_the_metrics_the_runner_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    per_layer_names = [m["name"] for m in BENCHMARK["per_layer"]]
    for name, unit, better, _ in layers.PER_LAYER:
        assert {"name": name, "unit": unit, "better": better} in BENCHMARK["per_layer"]
    assert len(per_layer_names) == len(set(per_layer_names))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, 1, 0.0, trace, size=TINY[workload])
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    if not trace:
        metrics = result["metrics"]
        assert all(metrics[m["name"]]["value"] > 0 for m in expected)


def test_tracer_restores_every_patched_function():
    before = package_bindings()
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        assert hypcx.kz_series is not before[("associators.hypcx", "kz_series")]
        # a function imported by name into another module is patched there too
        from associators import associator, pentagon

        assert associator.pentagon_residual is pentagon.pentagon_residual
        assert associator.pentagon_residual is not before[("associators.pentagon",
                                                          "pentagon_residual")]
    after = package_bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def traced(fn):
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        t0 = perf_counter()
        fn()
        wall = perf_counter() - t0
    return SpanIndex(tracer), tracer, wall


@pytest.mark.parametrize("workload", ["exact_pentagon5", "kz_numeric8"])
def test_self_times_are_nonnegative_and_within_wall_time(workload):
    w = WORKLOADS[workload]
    inputs = w.setup(1, TINY[workload])
    index, tracer, wall = traced(lambda: w.run(inputs, Clock(), Checks()))
    assert tracer.spans
    selfs = [s[4] - s[3] - s[5] for s in tracer.spans]
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall + 1e-9
    assert sum(index.self_time_by_prefix(layer) for layer in layers.LAYERS) <= wall + 1e-9


def test_recursive_self_time_is_counted_once():
    engine = hypcx.MPLEngine(20, 30)
    index, tracer, wall = traced(lambda: engine.coeff_series((0, 1, 1)))
    name = "hypcx.MPLEngine.coeff_series"
    assert index.calls([name]) > 1  # the recursion is traced
    assert index.self_time([name]) <= index.cum_time([name]) + 1e-9
    assert index.cum_time([name]) <= wall + 1e-9
    assert tracer.counters["hypcx.mpl_words"] == index.calls([name])  # cold memo


def test_corrupted_associator_is_a_failed_check():
    n = 3
    q = P5Quotient(n)
    cand, _ = solve_unitary(n, q)
    bad_terms = dict(cand.phi.terms)
    bad_terms[(0, 1)] += Fraction(1, 7)
    bad = AssociatorCandidate(mu=cand.mu, phi=NCSeries(QQ, n, bad_terms), truncation=n)

    good_checks, bad_checks = Checks(), Checks()
    associator_checks(good_checks, "good", cand, q, n)
    associator_checks(bad_checks, "bad", bad, q, n)
    assert good_checks.failed == []
    assert "bad.quadratic" in bad_checks.failed
    rep = {"checks": bad_checks.items}
    attempted, failed, correct = run.check_summary([rep])
    assert attempted == len(bad_checks.items) and failed >= 1 and not correct


def test_known_defect_failures_are_counted_but_keep_the_run_correct():
    checks = Checks()
    checks.within("regtable.011", 1.0, 2e-3)
    checks.within("mzv.zeta2", 0.0, 1e-30)
    attempted, failed, correct = run.check_summary([{"checks": checks.items}])
    assert (attempted, failed, correct) == (2, 1, True)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kz_numeric8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_gauge_samples_during_the_run_and_restores_the_handler():
    import signal

    from gauge import SpeedGauge

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedGauge() as gauge:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.7:
            pass
    assert len(gauge.samples) >= 4  # before, after and ticks in between
    assert 0.0 < gauge.busy_s < 0.7
    assert gauge.in_ref(1.0) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
