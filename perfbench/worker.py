"""One pass of one workload, in a fresh interpreter (started by run.py).

The pass imports bbpkit, loads the packaged catalog and builds its seeded
operations (set-up), then runs every operation once, closed loop, and only
then checks the outputs.  It writes one JSON result to --out:

    setup_s      time.monotonic() at the first timed operation minus --t-spawn,
                 the parent's time.monotonic() just before it started this process
    wall_s       time to run every operation
    latencies    seconds per operation, in run order
    peak_rss_mb  peak resident memory of this interpreter (VmHWM), read after the
                 timed loop
    failures     [index, reason] per failed operation

With --setup-only it stops before the first operation.  With --spans it
calibrates the tracer, traces the pass (tracing.py) and writes the spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  Unlike getrusage's ru_maxrss,
    which exec carries over from the parent's memory, VmHWM starts at zero."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import bbpkit
    if os.path.dirname(os.path.abspath(bbpkit.__file__)) != os.path.join(SRC, "bbpkit"):
        raise SystemExit(f"bbpkit imported from {bbpkit.__file__}, not from {SRC}")
    import bbpkit.catalog
    import workloads

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
        tracer.op = "setup"
    catalog = bbpkit.catalog.default_catalog()
    ops = workloads.build(args.workload, args.seed, catalog, args.pass_index)
    result = {"attempted": len(ops), "setup_s": time.monotonic() - args.t_spawn}
    if not args.setup_only:
        on_op = None
        if tracer is not None:
            def on_op(i):
                tracer.op = str(i)
        outputs, latencies, wall = workloads.time_ops(ops, on_op)
        rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.op = None
            tracer.dump(args.spans)
        failures = workloads.check_ops(ops, outputs)
        result.update(wall_s=wall, latencies=latencies, labels=[op.label for op in ops], peak_rss_mb=rss_mb, failures=failures)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
