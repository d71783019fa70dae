"""The traced benchmark run (perfbench/run.py --trace 1) wraps package names
that perfbench/layers.py lists; a name that is deleted or moved breaks it.
This installs those wrappers in memory and takes them out again, and runs
each workload of perfbench/workloads.py once against the package, so that a
changed call site or gate fails here; it writes no file."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from associators import associator, pentagon  # noqa: E402


def bindings():
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("associators."):
            for key, val in vars(mod).items():
                out[name, key] = val
                if isinstance(val, type) and val.__module__ == name:
                    out.update(((name, key, attr), m) for attr, m in vars(val).items())
    return out


def changed(before, after):
    return [k for k in before if after.get(k) is not before[k]]


def test_layers_install_wraps_the_package_and_restores_it():
    before = bindings()
    with tracer.Tracer() as t:
        layers.install(t)
        assert ("associators.ncseries", "NCSeries", "substitute") in changed(before, bindings())
        pentagon.P5Quotient(2)
    assert t.names[t.spans[-1][2]] == "pentagon.P5Quotient.__init__"
    assert changed(before, bindings()) == []


def test_solver_probes_count_the_lyndon_systems():
    # the non-even degree-5 solve has 2 + 3 + 6 unknowns at degrees 3, 4, 5
    # and grt_1's sigma_3 and sigma_5 as nullspace
    with tracer.Tracer() as t:
        layers.install(t)
        associator.solve_unitary(5, pentagon.P5Quotient(5), tiebreak="lex", even=False)
    assert t.counters["associator.linsolve_cols"] == 11
    assert t.counters["associator.nullspace_dim"] == 2


@pytest.mark.parametrize("name, attempted", [
    ("exact_pentagon5", 23), ("kz_numeric8", 130), ("matrix_suite8", 12)])
def test_each_workload_passes_its_checks(name, attempted):
    workload = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    workload.run(workload.setup(7, workload.default_size), workloads.Clock(), checks)
    assert checks.failed == []
    assert len(checks.items) == attempted
