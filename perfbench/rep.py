"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--setup-only]
                             [--size K] [--spans PATH]

Prints one JSON line: the set-up time (package import plus input
generation) as measured and at the gauge's nominal speed (gauge.py), the
timed run split into solve and verify phases, the run's time in units of a
reference computation timed alongside it, peak resident memory, every
check, and with --trace the per-layer metrics of this repetition.
"""

from time import perf_counter

_T0 = perf_counter()

from gauge import SpeedGauge, at_nominal_speed, reference_product_s  # noqa: E402

_REF0 = reference_product_s()  # its own duration is left out of the set-up time

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS, Checks, Clock

    workload = WORKLOADS[args.workload]
    size = args.size if args.size is not None else workload.default_size
    inputs = workload.setup(args.seed, size)
    setup_wall_s = perf_counter() - _T0 - _REF0
    out = {"setup_s": at_nominal_speed(setup_wall_s, [_REF0, reference_product_s()]),
           "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    checks = Checks()
    try:
        with SpeedGauge() as gauge:
            clock = Clock(gauge)
            t0 = perf_counter()
            extra = workload.run(inputs, clock, checks) or {}
            wall_s = perf_counter() - t0
            run_s = wall_s - gauge.busy_s
    finally:
        if tracer is not None:
            tracer.restore()

    out.update(run_s=run_s, run_ref=gauge.in_ref(run_s),
               solve_s=clock.phases["solve"], verify_s=clock.phases["verify"],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               checks=checks.items, **extra)
    if tracer is not None:
        from tracer import SpanIndex

        index = SpanIndex(tracer)
        out["layers"] = layers.per_layer_metrics(index)
        # span self times include the gauge's sampling, so divide by the
        # full wall time
        out["named_layers_share"] = layers.named_layers_self(index, args.workload) / wall_s
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
