"""The bbpkit benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload extract-deep --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the bbpkit sources in src/ next to this
directory and needs no build.  Workloads (inputs in workloads.py, reasons in
BENCHMARK.json, which leaves out verify-1000: its median and tail fall on a
few records of a few milliseconds that run back to back, so the host's speed
over some tens of milliseconds sets them, and a seeded order would move the
one-off cost of shared constants between records instead):

    extract-deep  `bbp digits` for the 33 extractable catalog formulas at bits ~5e4
    verify-1000   `catalog.verify` of all 69 records at 1000 digits, caches cold
    relations     the criterion-4 PSLQ lattice, `derive_bbp` of the printed
                  tables and a PSLQ rediscovery of each generator/bbp_ready identity
    session-warm  549 mixed requests in one process: an `evaluate_expr` precision
                  ladder, shallow `bbp digits` and low-precision `verify`

Every pass runs in a fresh interpreter (worker.py), one client, closed loop,
so no library cache survives from one pass to the next.

--trace 0 runs a set-up-only interpreter ten times, then passes until
--seconds would be exceeded (at least one; pass i draws its positions and
order from the seed and i), and prints the end-to-end metrics: setup_s
(median over every interpreter), wall_s and peak_rss_mb (medians over the
passes), op_p50_s and op_tail_s (Harrell-Davis quantiles of the latencies
of all passes pooled).
failed_frac is printed on its own line; it is also the `failed`/`attempted`
of the result.

--trace 1 runs two untraced and two traced passes of the same operations
and prints the per-layer metrics derived from the traced passes' spans
(tracing.py, whose times leave out the tracer's own cost), the tracing
overhead (mean traced minus mean untraced wall_s, and the part of it the
spans account for), the functions with the largest self times and the
requests that took most of the untraced passes.

Before measuring, every run checks that its output checker counts each kind
of failure exactly once (workloads.self_test).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  A failed pass or a
missing src/ ends the run with exit code 1 or 2 and no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 10
TIME_LIMIT_S = 170  # every child is stopped by then


class BenchError(Exception):
    pass


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the average of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density (integrated by
    the midpoint rule).  Unlike a single order statistic it moves smoothly
    where the latencies have a gap, as verify-1000's do around the median."""
    steps = 16  # midpoint-rule points per order statistic
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = ((k + 0.5) / (steps * n) for k in range(steps * n))
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in grid]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_stats(passes: list[dict]) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of the latencies of all passes pooled.

    The tail is the highest percentile with at least ten operations of each
    pass beyond it, so its percentile does not depend on the pass count."""
    pooled = [x for p in passes for x in p["latencies"]]
    tail_p = 1 - 10 * len(passes) / len(pooled)
    return quantile(pooled, 0.5), quantile(pooled, tail_p), 100 * tail_p


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def spawn(self, *extra: str) -> dict:
        """Start worker.py, wait for it, return its JSON result."""
        self.count += 1
        out = os.path.join(OUT, f"{self.workload}-{self.seed}-{self.count}.json")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        t_spawn = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--out", out, "--t-spawn", repr(t_spawn), *extra]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass exceeded the {TIME_LIMIT_S} s limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        return result


def run_untraced(runner: Runner, seconds: int) -> tuple[dict, list]:
    setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.spawn("--pass-index", str(len(passes))))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    p50, tail, pct = latency_stats(passes)
    metrics = {
        "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    print(f"# {len(passes)} pass(es) of {passes[0]['attempted']} operations; "
          f"setup_s over {len(setups) + len(passes)} interpreters; "
          f"op_tail_s is the p{pct:.1f} latency of {sum(p['attempted'] for p in passes)}")
    return metrics, passes


def run_traced(runner: Runner) -> tuple[dict, list]:
    from tracing import METRICS, layer_metrics, load_spans, summarize

    # untraced, traced, traced, untraced: a linear drift of the host's speed
    # cancels out of the traced-minus-untraced difference
    spans_paths = [os.path.join(OUT, f"spans-{runner.workload}-{runner.seed}-{k}.jsonl")
                   for k in (1, 2)]
    plain = [runner.spawn()]
    traced = [runner.spawn("--spans", path) for path in spans_paths]
    plain.append(runner.spawn())
    # the traced passes run the same operations; average their per-function stats
    per_fn: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    accounted = 0.0
    for path in spans_paths:
        calibration, spans = load_spans(path)
        pass_fn, pass_overhead = summarize(spans, calibration)
        accounted += pass_overhead / len(spans_paths)
        for name, stats in pass_fn.items():
            for key, value in stats.items():
                per_fn[name][key] += value / len(spans_paths)
    values = layer_metrics(per_fn)
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    plain_wall = statistics.mean(p["wall_s"] for p in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    total_self = sum(fn["self_s"] for fn in per_fn.values())
    ranked = sorted(per_fn.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    values["trace.top_self_share"] = ranked[0][1]["self_s"] / total_self
    for name, fn in ranked[:5]:
        print(f"# self time {name}: {fn['self_s']:.3f} s "
              f"({fn['self_s'] / total_self:.1%} of traced time)")
    kinds: dict[str, float] = defaultdict(float)
    for p in plain:
        for label, latency in zip(p["labels"], p["latencies"]):
            kinds[label.split(" @")[0]] += latency / len(plain)
    for kind, total in sorted(kinds.items(), key=lambda kv: kv[1], reverse=True)[:3]:
        print(f"# requests {kind}: {total:.3f} s ({total / plain_wall:.1%} of untraced wall_s)")
    print(f"# traced wall_s {traced_wall:.3f} s, untraced {plain_wall:.3f} s (means of two "
          f"passes each); tracing overhead in the spans {accounted:.3f} s; "
          f"spans in {os.path.relpath(OUT, ROOT)}")
    metrics = {name: (values[name], unit) for name, unit in METRICS}
    return metrics, plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bbpkit", "__init__.py")):
        print(f"perfbench: no bbpkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bbpkit.catalog
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workloads.self_test(bbpkit.catalog.default_catalog())
    print("# checker self-test: ok")

    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, passes = run_traced(runner)
        else:
            metrics, passes = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [reason for p in passes for _, reason in p["failures"]]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
