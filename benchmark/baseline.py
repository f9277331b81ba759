#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Measures the committed baseline: benchmark/baseline/<workload>.json.

  python3 benchmark/baseline.py [--runs 5] [--seeds 1,2] [--workloads W,..]

For each workload and seed, makes --runs untraced runs and --traced traced
runs (the same seed every time, so the runs differ only by the host), and
records per seed each end-to-end metric's values, median, quartiles and
spread, whether the seeds' medians agree within the metric's bound, and
the tracing overhead: the traced runs' median latency_p50_ms over the
untraced runs' median, minus one. Takes about an hour on a 4-core host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402  (sibling module)


def run(workload, seed, traced):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"baseline.py: {workload} seed {seed} failed")
    extras_path = (HERE.parent / "build-benchmark" / "out" /
                   f"result_{workload}_seed{seed}_trace{int(traced)}.json")
    with open(extras_path) as f:
        return result, json.load(f)["end_to_end"]


def summarize(values):
    q1, med, q3 = stats.quartiles(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": stats.spread(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--workloads")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out_dir = HERE / "baseline"
    out_dir.mkdir(exist_ok=True)
    for w in workloads:
        doc = {"workload": w, "runs_per_seed": args.runs,
               "traced_runs_per_seed": args.traced,
               "host": f"{platform.machine()}, "
                       f"{len(os.sched_getaffinity(0))} cores",
               "measured": time.strftime("%Y-%m-%d"),
               "seeds": {}, "medians_agree": {}, "tracing_overhead": {}}
        for seed in seeds:
            plain = [run(w, seed, False) for _ in range(args.runs)]
            traced = [run(w, seed, True)[1] for _ in range(args.traced)]
            doc["seeds"][str(seed)] = {
                m["name"]: summarize([r["metrics"][m["name"]]["value"]
                                      for r, _ in plain])
                for m in spec["end_to_end"]}
            untraced_p50 = statistics.median(e["latency_p50_ms"]
                                             for _, e in plain)
            traced_p50 = statistics.median(e["latency_p50_ms"]
                                           for e in traced)
            doc["tracing_overhead"][str(seed)] = traced_p50 / untraced_p50 - 1
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
        for m in spec["end_to_end"]:
            medians = [doc["seeds"][str(s)][m["name"]]["median"]
                       for s in seeds]
            gap = (max(medians) - min(medians)) / abs(min(medians))
            doc["medians_agree"][m["name"]] = {
                "gap": gap, "bound": m["bound"], "ok": gap < m["bound"]}
        with open(out_dir / f"{w}.json", "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
