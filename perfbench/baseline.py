"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For each of the seeds 1 to 10, one untraced run.py of every workload, with
BENCHMARK.json's run_seconds; then one traced run of each workload with
seed 1.  Records,
per workload, the median, quartiles and spread
((q3 - q1) / median) of every end-to-end metric with its sample count, the
failures with their causes, and from the traced run the per-layer metrics,
the tracing overhead and the functions with the largest self time.  Takes
about (seeds + 2) * run_seconds per workload.
"""
from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# run.py --trace 1 prints one such line for each of the five largest self times
SELF_TIME = re.compile(r"# self time (\S+): ([0-9.]+) s \(([0-9.]+)% of traced time\)")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = list(range(1, 11))
    out = {
        "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "system": platform.system()},
        "run_seconds": seconds,
        "seeds": seeds,
        "in_benchmark_json": [wl["name"] for wl in bench["workloads"]],
        "workloads": {},
    }
    # every workload run.py knows, also those BENCHMARK.json leaves out
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS
    names = list(WORKLOADS)
    results = {name: [] for name in names}
    causes = {name: [] for name in names}
    for seed in seeds:  # seeds outer, so slow drift of the host spreads over every workload
        for name in names:
            result, lines = run(name, seed, seconds, 0)
            results[name].append(result)
            causes[name] += [f"seed {seed}: {l[len('# FAILED '):]}" for l in lines
                             if l.startswith("# FAILED ")]
            print(name, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                  flush=True)
    for name in names:
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[name]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "n": len(values), "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
        traced, lines = run(name, seeds[0], seconds, 1)
        top = [SELF_TIME.fullmatch(l).groups() for l in lines if l.startswith("# self time ")]
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results[name]),
            "failed": sum(r["failed"] for r in results[name]),
            "failure_causes": causes[name],
            "end_to_end": end_to_end,
            "trace": {
                "seed": seeds[0],
                "top_self": [{"function": fn, "self_s": float(self_s), "share": float(pct) / 100}
                             for fn, self_s, pct in top[:3]],
                "overhead": next(l[2:] for l in lines if l.startswith("# traced wall_s ")),
                "top_requests": [l[len("# requests "):] for l in lines
                                 if l.startswith("# requests ")],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
