#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Parent-vs-change comparison with gkbench.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR \
      --claim METRIC@WORKLOAD [--pairs 10] [--first-seed 101]
      [--workloads W,W,...]

PARENT_DIR and CHANGE_DIR are two checkouts (each with its own
benchmark/run.py and BENCHMARK.json; the benchmark must be identical in
both). For every workload, runs --pairs pairs of untraced runs, one seed
per pair, alternating which side runs first. Then reports, per workload
and end-to-end metric, each side's median and quartiles and the change's
win fraction, and applies the rules of the choosing-metrics method:

  * the claimed metric is a gain only if the change wins at least nine
    tenths of all pairs (ties count for neither) and the medians differ by
    more than the parent's own quartile spread, and no more operations
    fail than at the parent;
  * every other (metric, workload) pair is held, regressed (worse than the
    parent's median by more than its BENCHMARK.json bound) or unresolved
    (run-to-run spread wider than the bound).

Writes the raw runs and the verdicts to build-benchmark/compare.json
beside this directory. Exits 0 when the claim holds and nothing
regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402  (sibling module)


def run(checkout, workload, seed):
    """One untraced run; returns its result object."""
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=1200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", required=True,
                        help="claimed metric as METRIC@WORKLOAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("the method needs at least 10 pairs")
    claim_metric, _, claim_workload = args.claim.partition("@")

    with open(Path(args.parent) / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(Path(args.change) / "BENCHMARK.json") as f:
        if json.load(f) != spec:
            sys.exit("compare.py: the checkouts define different benchmarks")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    if claim_metric not in metrics or claim_workload not in workloads:
        parser.error(f"unknown claim {args.claim}")

    runs = {w: [] for w in workloads}  # w -> [(parent result, change result)]
    for w in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [args.parent, args.change]
            if i % 2:
                order.reverse()
            got = {side: run(side, w, seed) for side in order}
            runs[w].append((got[args.parent], got[args.change]))
            print(f"{w} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr, flush=True)

    report = {"claim": args.claim, "pairs": args.pairs, "rows": []}
    claim_ok = False
    regressed = False
    print(f"{'workload':14s} {'metric':18s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    for w in workloads:
        pairs_w = runs[w]
        failed_parent = sum(p["failed"] for p, _ in pairs_w)
        failed_change = sum(c["failed"] for _, c in pairs_w)
        for name, m in metrics.items():
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in pairs_w]
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins = stats.win_fraction(pairs, m["better"])
            if name == claim_metric and w == claim_workload:
                claim_ok = (stats.gain_claimed(pairs, m["better"])
                            and failed_change <= failed_parent)
                verdict = "GAIN" if claim_ok else "claim not met"
            else:
                verdict = stats.verdict(parent, change, m["better"],
                                        m["bound"])
                regressed = regressed or verdict == "regressed"
            qp, qc = stats.quartiles(parent), stats.quartiles(change)
            print(f"{w:14s} {name:18s} "
                  f"{'/'.join(f'{v:.4g}' for v in qp):>30s} "
                  f"{'/'.join(f'{v:.4g}' for v in qc):>30s} "
                  f"{wins:5.2f}  {verdict}")
            report["rows"].append({
                "workload": w, "metric": name, "unit": m["unit"],
                "parent": parent, "change": change,
                "parent_quartiles": qp, "change_quartiles": qc,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "win_fraction": wins, "verdict": verdict})
        report.setdefault("failed", {})[w] = {"parent": failed_parent,
                                              "change": failed_change}
    out = Path(__file__).resolve().parent.parent / "build-benchmark"
    out.mkdir(exist_ok=True)
    with open(out / "compare.json", "w") as f:
        json.dump(report, f, indent=1)
    return 0 if claim_ok and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
