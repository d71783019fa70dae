"""Benchmark of the associators package: one workload, measured for a while.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn

Every repetition runs in a fresh interpreter (closed loop, one process, one
thread), so the package's caches start empty as they do for a one-shot user.
Repetitions are started until --seconds have passed, at least MIN_REPS of
them.  Before each, SETUPS_PER_REP extra interpreters only import the
package and build the inputs, to steady the set-up figure.  Timings are
medians over repetitions.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics; with --trace 1 untraced and traced repetitions alternate
and the result holds the per-layer metrics of the traced ones, the tracing
overhead and the untraced solve/verify split.  Per-run records (environment, every check, per-repetition
figures) and the spans of the last traced repetition are written under
.perfbench_out/ in the checkout.

The exit code is non-zero, and no result is printed, when the package is
missing or a repetition fails to complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exact_pentagon5", "kz_numeric8", "matrix_suite8")

MIN_REPS = 3
SETUPS_PER_REP = 2
WALL_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def environment(seed):
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git without running git; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload, seed, started, size=None):
        self.base = ["--workload", workload, "--seed", str(seed)]
        if size is not None:
            self.base += ["--size", str(size)]
        self.hard_end = started + WALL_LIMIT_S

    def rep(self, *flags):
        cmd = [sys.executable, str(HERE / "rep.py"), *self.base, *flags]
        timeout = self.hard_end - perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before a repetition could start")
        # no bytecode is written, so every set-up compiles the package from
        # source alike and nothing is written outside the checkout
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                                  env=env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError("repetition exceeded the time limit: %s" % " ".join(flags))
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchError("repetition failed (exit %d): %s" % (proc.returncode, " ".join(flags)))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def fits(self, estimate):
        return perf_counter() + estimate < self.hard_end


def check_summary(reps):
    """(attempted, failed, correct) over the repetitions.  Every repetition
    must record the same checks; a failure outside the known-defect group
    makes the run incorrect."""
    from workloads import KNOWN_DEFECT_PREFIX

    names = [[c["name"] for c in r["checks"]] for r in reps]
    attempted = sum(len(n) for n in names)
    failed = [c["name"] for r in reps for c in r["checks"] if not c["passed"]]
    consistent = all(n == names[0] for n in names)
    correct = consistent and all(f.startswith(KNOWN_DEFECT_PREFIX) for f in failed)
    return attempted, len(failed), correct


def measure(workload, seed, seconds, trace, size=None):
    """Run one workload and return the result object; size overrides the
    workload's problem size (the smoke tests use a tiny one)."""
    started = perf_counter()
    deadline = started + seconds
    runner = Runner(workload, seed, started, size)
    spans = OUT / ("%s-seed%d.spans.json" % (workload, seed))

    setups, plain, traced = [], [], []
    while True:
        t0 = perf_counter()
        setups += [runner.rep("--setup-only")["setup_s"] for _ in range(SETUPS_PER_REP)]
        plain.append(runner.rep())
        if trace:
            traced.append(runner.rep("--trace", "--spans", str(spans)))
        took = perf_counter() - t0
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if (enough and perf_counter() >= deadline) or not runner.fits(took):
            break
    if len(plain) < (1 if trace else MIN_REPS):
        raise BenchError("too few repetitions fit in the time limit")

    reps = plain + traced
    attempted, failed, correct = check_summary(reps)
    checks = plain[0]["checks"]
    if trace:
        metrics = per_layer(plain, traced)
    else:
        passed = sum(c["passed"] for c in checks)
        metrics = {
            "setup_s": (median(setups + [r["setup_s"] for r in reps]), "s"),
            "run_ref": (median([r["run_ref"] for r in plain]), "ref"),
            "checks_attempted": (len(checks), "count"),
            "checks_passed_frac": (passed / len(checks), "ratio"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
        }
    record = {
        "workload": workload, "env": environment(seed), "seconds": seconds, "trace": trace,
        "setup_samples_s": setups, "repetitions": [
            {k: v for k, v in r.items() if k not in ("checks", "layers")} for r in reps],
        "checks": checks, "metrics": metrics,
    }
    (OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(record, indent=1))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(plain, traced):
    out = {}
    for k, (_v, unit) in traced[0]["layers"].items():
        pick = median_low if unit == "count" else median  # counts stay whole
        out[k] = (pick([r["layers"][k][0] for r in traced]), unit)
    traced_run = median([r["run_s"] for r in traced])
    # wall times of the untraced repetitions, too noisy on a shared machine
    # to carry an end-to-end bound
    for key in ("setup_wall_s", "run_s", "solve_s", "verify_s"):
        out[key] = (median([r[key] for r in plain]), "s")
    out["trace.run_s"] = (traced_run, "s")
    out["trace.overhead_s"] = (traced_run - out["run_s"][0], "s")
    out["trace.overhead_frac"] = (median([r["run_ref"] for r in traced])
                                  / median([r["run_ref"] for r in plain]) - 1, "ratio")
    out["trace.named_layers_share"] = (median([r["named_layers_share"] for r in traced]), "ratio")
    out["trace.spans"] = (median_low([r["spans"] for r in traced]), "count")
    out["hypcx.mzv_digits_min"] = (median([r.get("mzv_digits_min", 0.0) for r in traced]), "digits")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "associators" / "__init__.py").is_file():
        sys.stderr.write("perfbench: the associators package is not in %s\n" % (ROOT / "src"))
        return 2
    # like the repetitions, write no bytecode, so that no run leaves compiled
    # package files that make the next run's set-up faster
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 3

    print("environment: %s" % json.dumps(environment(args.seed)))
    for name, res in results.items():
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("  %-32s %.6g %s" % (metric, m["value"], m["unit"]))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
