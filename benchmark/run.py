#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""gkbench runner: builds gkbench, runs workloads, reduces their raw
records to the metrics BENCHMARK.json names, checks correctness, prints.

  python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                           [--trace [0|1]]

With --workload, runs that one workload once and prints, as the last line
of stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics untraced (--trace 0, the default), the per-layer metrics traced
(--trace 1). Without --workload, runs every workload untraced — and, with
--trace, traced too, reporting the tracing overhead — and prints one
summary line. Each workload runs in its own gkbench process. Builds go to
build-benchmark/ and results to build-benchmark/out/, beside this
directory. Exits non-zero when a build, a run or a correctness check
fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
OUT = BUILD / "out"
sys.path.insert(0, str(HERE))
import stats  # noqa: E402  (sibling module)

# One gkbench process may run this long; a run must end within 180 s.
RUN_TIMEOUT_S = 170
# Serve latency tails are judged per block of consecutive requests (see
# stats.median_block): the end-to-end tail over blocks of 100 requests
# (p90 by the ten-beyond rule), p99 over blocks of 1000 for diagnosis.
TAIL_BLOCK = 100
P99_BLOCK = 1000


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds gkbench; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", "-DGKM_CCACHE=OFF"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gkbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build failed:", " ".join(cmd))
            return False
    return True


def run_gkbench(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, record,
    trace document or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    for stale in (OUT / f"{workload}.json", OUT / f"trace_{workload}.json"):
        stale.unlink(missing_ok=True)
    cmd = [str(BUILD / "gkbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out-dir", str(OUT)]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None, None
    record = trace_doc = None
    if (OUT / f"{workload}.json").exists():
        with open(OUT / f"{workload}.json") as f:
            record = json.load(f)["record"]
    if trace and (OUT / f"trace_{workload}.json").exists():
        with open(OUT / f"trace_{workload}.json") as f:
            trace_doc = json.load(f)
    return code, record, trace_doc


# ------------------------------------------------------------ reduction --

def finite(values):
    """JSON has no infinity: gkbench writes a missed request as null."""
    return [math.inf if v is None else v for v in values]


def ladder(record):
    """[(rate, passed)] for every search phase (the operating phase
    included), judged by stats.step_passes, plus a flag telling whether
    gkbench judged every step the same way."""
    se = record["series"]
    steps, agree = [], True
    for p, rate in enumerate(se["phase.rate"]):
        ok = stats.step_passes(finite(se["phase.block_p99_us"])[p],
                               se["phase.block_failed_frac"][p],
                               se["phase.sends_last_s"][p],
                               se["phase.completions_last_s"][p])
        agree = agree and ok == bool(se["phase.passes"][p])
        steps.append((rate, ok))
    return steps, agree


def end_to_end(workload, record):
    """End-to-end metric values, plus notes on how tails were taken."""
    sc, se = record["scalars"], record["series"]
    out = {"setup_s": statistics.median(se["setup_s"]),
           "recall_at_10": sc["recall_at_10"],
           "distortion": sc["distortion"]}
    notes = {}
    if workload == "batch_sift":
        reps = se["cluster_s"]
        out["latency_p50_ms"] = statistics.median(reps) * 1e3
        q, t = stats.tail(reps)
        out["latency_tail_ms"] = t * 1e3
        out["throughput_per_s"] = sc["points"] / statistics.median(reps)
        out["peak_rss_mb"] = sc["peak_rss_mb"]
        notes["tail"] = f"p{q * 100:g} of {len(reps)} clustering calls"
    elif workload == "stream_window":
        windows = se["window_s"]
        out["latency_p50_ms"] = statistics.median(windows) * 1e3
        q, t = stats.tail(windows)
        out["latency_tail_ms"] = t * 1e3
        out["throughput_per_s"] = sc["timed_points"] / sum(windows)
        out["peak_rss_mb"] = sc["peak_rss_mb"]
        notes["tail"] = f"p{q * 100:g} of {len(windows)} windows"
    else:
        lat = finite(se["search_us"])
        out["latency_p50_ms"] = stats.percentile(lat, 0.5) / 1e3
        q, t = stats.blocked_tail(lat, TAIL_BLOCK)
        out["latency_tail_ms"] = t / 1e3
        steps, agree = ladder(record)
        out["throughput_per_s"] = stats.ladder_max_rate(steps)
        out["peak_rss_mb"] = record["raw"]["server"]["peak_rss_mb"]
        notes["tail"] = (f"median over blocks of {TAIL_BLOCK} searches of "
                         f"p{q * 100:g}, {len(lat)} searches")
        notes["ladder"] = [[round(r, 1), ok] for r, ok in steps]
        notes["ladder_agrees"] = agree
    return out, notes


def interval(record, workload):
    """Registry counters and histogram means accumulated over the measured
    interval: the timed windows of stream_window, the operating phase of
    the serve workloads (in the daemon's registry), the whole batch run."""
    raw = record["raw"]
    if workload.startswith("serve_"):
        start, end = raw["server"]["snapshots"][:2]
    else:
        start, end = raw.get("registry_timed_start", {}), raw["registry"]
    c0, h0 = start.get("counters", {}), start.get("histograms", {})
    counters = {k: v - c0.get(k, 0) for k, v in end["counters"].items()}
    means = {}
    for k, h in end["histograms"].items():
        before = h0.get(k, {"count": 0, "sum": 0.0})
        n = h["count"] - before["count"]
        means[k] = (h["sum"] - before["sum"]) / n if n else 0.0
    return counters, means


# Registry histograms of the stream and durability layers; the serve
# daemon runs the same streaming model, so they apply there too.
STREAM_HISTOGRAMS = ("stream.ingest.walk_us", "stream.ingest.commit_us",
                     "stream.shard.insert_batch_us", "stream.purge_us",
                     "stream.window_us", "serve.ingest.insert_us",
                     "serve.ingest.remove_us", "ckpt.delta.append_window_us")
# Registry counters reported per ingested window.
WINDOW_COUNTERS = ("stream.window.touched", "stream.window.expired",
                   "stream.window.split_merges", "stream.purge.tombstones",
                   "stream.migrate.rows")


def per_layer(workload, record, trace_doc, names):
    """Per-layer metric values; layers a workload leaves idle read 0."""
    sc, se = record["scalars"], record["series"]
    counters, means = interval(record, workload)
    out = dict.fromkeys(names, 0.0)
    for key in ("kernels.l2sqr_batch_ns_per_row.d128",
                "kernels.l2sqr_gather_ns_per_row.d32"):
        out[key] = sc[key]
    for key in STREAM_HISTOGRAMS:
        out[key] = means.get(key, 0.0)
    windows = counters.get("stream.window.count", 0)
    for key in WINDOW_COUNTERS:
        out[key] = counters.get(key, 0) / windows if windows else 0.0

    spans = trace_doc["trace"]["spans"] if trace_doc else []
    if workload == "batch_sift":
        self_ns = stats.self_times(spans)
        reps = len(se["cluster_s"])
        out["core.graph_build_s"] = (self_ns.get("core.graph_build", 0)
                                     / 1e9 / reps)
        for key in ("core.gkmeans_init_s", "core.gkmeans_iter_s",
                    "core.gkmeans_iters", "core.gkmeans_moves_per_point_last",
                    "core.graph_rounds", "core.graph_round_updates",
                    "core.graph_update_rate_last"):
            out[key] = statistics.median(se[key])
        out["core.graph_recall_at_1"] = sc["core.graph_recall_at_1"]
        # Share of the clustering calls' wall time that the blocking steps
        # account for: graph build (span self time) plus the init and
        # iteration time GkMeansWithGraph reports.
        cluster_ns = stats.span_totals(spans).get("core.cluster", (0, 0))[0]
        blocking_s = (self_ns.get("core.graph_build", 0) / 1e9
                      + sum(se["core.gkmeans_init_s"])
                      + sum(se["core.gkmeans_iter_s"]))
        out["core.accounted_frac"] = (blocking_s / (cluster_ns / 1e9)
                                      if cluster_ns else 0.0)
    elif workload == "stream_window":
        # Span ids are window indices; only timed windows count.
        def timed(span):
            return span[4] >= sc["warm_windows"]
        self_ns = stats.self_times(spans, timed)
        window_ns = stats.span_totals(spans, timed).get("stream.window",
                                                        (0, 0))[0]
        steps = ("stream.observe", "stream.journal_append", "stream.compact")
        timed_windows = len(se["window_s"])
        out["stream.observe_ms"] = (self_ns.get(steps[0], 0) / 1e6
                                    / timed_windows)
        out["stream.journal_append_ms"] = (self_ns.get(steps[1], 0) / 1e6
                                           / timed_windows)
        out["stream.compact_s"] = self_ns.get(steps[2], 0) / 1e9
        out["stream.window_accounted_frac"] = (
            sum(self_ns.get(step, 0) for step in steps) / window_ns
            if window_ns else 0.0)
        out["stream.moves_per_touched"] = (
            sum(se["stream.moves"]) / max(1.0, sum(se["stream.touched"])))
        out["stream.epochs_per_window"] = statistics.mean(se["stream.epochs"])
        out["stream.search_recall_at_10"] = sc["stream.search_recall_at_10"]
        out["ckpt.delta.journal_bytes"] = statistics.mean(
            se["ckpt.delta.journal_bytes"])
    else:
        out["gen.send_late_us.p99"] = stats.median_block(
            se["gen.send_late_us"], 0.99, P99_BLOCK)
        out["serve.search_p99_ms"] = stats.median_block(
            finite(se["search_us"]), 0.99, P99_BLOCK) / 1e3
        out["wire.rtt_us.p50"] = stats.percentile(se["wire.rtt_us"], 0.5)
        for key in ("serve.frame_us", "serve.batcher.flush_us",
                    "serve.batcher.batch_rows", "serve.search_us"):
            out[key] = means.get(key, 0.0)
        # Derived, not measured: what a round trip spends outside the
        # frame handler and the flush is mostly waiting in the batcher.
        out["serve.batcher.wait_us_est"] = (
            statistics.mean(se["wire.rtt_us"]) - out["serve.frame_us"]
            - out["serve.batcher.flush_us"])
        out["serve.batcher.flushes"] = counters.get("serve.batcher.flushes", 0)
        hits = counters.get("serve.route.hit", 0)
        out["serve.route.spill_ratio"] = (
            counters.get("serve.route.spill", 0) / hits if hits else 0.0)
        out["serve.overloaded"] = counters.get("serve.overloaded", 0)
        out["serve.remove_misses"] = sc["serve.remove_misses"]
        if se.get("insert_us"):
            for q in (50, 95):
                out[f"serve.insert_p{q}_ms"] = stats.percentile(
                    se["insert_us"], q / 100) / 1e3
    return {k: float(out[k]) for k in names}


def checks_ok(record):
    failed = [c for c in record["checks"] if not c["ok"]]
    for c in failed:
        log(f"run.py: check {c['name']} failed: {c['detail']}")
    return not failed


def run_one(spec, workload, seed, seconds, trace):
    """Runs and reduces one workload; returns the result
    object plus the extras written to the results file."""
    code, record, trace_doc = run_gkbench(workload, seed, seconds, trace)
    if record is None:
        return None
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    e2e, notes = end_to_end(workload, record)
    if trace:
        values = per_layer(workload, record, trace_doc,
                           [m["name"] for m in spec["per_layer"]])
    else:
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    correct = (code == 0 and checks_ok(record)
               and notes.get("ladder_agrees", True))
    result = {
        "correct": bool(correct),
        "attempted": int(record["scalars"]["attempted"]),
        "failed": int(record["scalars"]["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    extras = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "notes": notes, "end_to_end": e2e,
              "checks": record["checks"]}
    with open(OUT / f"result_{workload}_seed{seed}_trace{int(trace)}.json",
              "w") as f:
        json.dump({**result, **extras}, f, indent=1)
    return result, extras


def print_metrics(workload, result, notes):
    print(f"== {workload} ({'correct' if result['correct'] else 'INCORRECT'}, "
          f"{result['attempted']} attempted, {result['failed']} failed)")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:16.6g} {m['unit']}")
    for key, note in notes.items():
        print(f"  [{key}] {note}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    args = parser.parse_args()
    trace = args.trace == "1"

    if not build():
        return 1
    if args.workload:
        done = run_one(spec, args.workload, args.seed, args.seconds, trace)
        if done is None:
            return 1
        result, extras = done
        print_metrics(args.workload, result, extras["notes"])
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload: untraced, then traced when asked, with overhead.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = {}
    for workload in workloads:
        modes = [False, True] if trace else [False]
        p50 = {}
        for traced in modes:
            started = time.monotonic()
            done = run_one(spec, workload, args.seed, args.seconds, traced)
            if done is None:
                return 1
            result, extras = done
            print_metrics(f"{workload}{' (traced)' if traced else ''}",
                          result, extras["notes"])
            log(f"run.py: {workload} took {time.monotonic() - started:.1f} s")
            p50[traced] = extras["end_to_end"]["latency_p50_ms"]
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = m
        if trace:
            overhead[workload] = p50[True] / p50[False] - 1.0
            print(f"  tracing overhead on latency_p50_ms: "
                  f"{overhead[workload] * 100:+.2f}%")
    with open(OUT / f"summary_seed{args.seed}.json", "w") as f:
        json.dump({**summary, "tracing_overhead": overhead}, f, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
