#!/usr/bin/env python3
# Copyright 2026 The gkmeans Authors.
"""Validates BENCH_*.json artifacts against the gkm-bench-v1 schema.

Usage: check_bench_json.py FILE [FILE...]

Each file must be a single JSON object with:
  schema     == "gkm-bench-v1"
  bench      non-empty string
  scale      positive number
  simd_tier  one of scalar/avx2/avx512/neon
  metrics    object of finite-number (or null) values, non-empty

Benches with quantized-arena coverage must additionally emit their SQ8
metrics (REQUIRED_KEYS below), so a refactor that silently drops the SQ8
section from a bench fails this check instead of passing vacuously.

Exits non-zero with a per-file report on any violation, so CI catches a
bench that silently stopped emitting (or emits a malformed) result file.
"""

import json
import math
import sys

VALID_TIERS = {"scalar", "avx2", "avx512", "neon"}

# Per-bench metrics that must be present (value may be null for
# non-finite measurements, but the key itself has to exist).
REQUIRED_KEYS = {
    "online_search": [
        "arena_bytes_per_point",
        "sq8_rerank_fraction",
        "sq8_arena_ratio",
        "recall_at_10_sq8",
        "recall_at_10_sq8_post_churn",
        # Cluster-routed sharding: the single-shard fast path must report
        # its recall (fresh + post-churn) and its QPS edge over the merged
        # fan-out, or the routed section silently vanished.
        "recall_at_10_routed",
        "recall_at_10_routed_post_churn",
        "qps_routed",
        "qps_merged_s4",
        "routed_qps_ratio",
    ],
    "stream_throughput": [
        "sq8_ingest_ratio",
    ],
    # The serving daemon's load-test contract (docs/serving.md): latency
    # percentiles, sustained throughput, and the admission-control
    # refusal rate. A loadtest that stops measuring one of these would
    # otherwise pass vacuously.
    "serve_loadtest": [
        "p50_us",
        "p99_us",
        "qps",
        "overload_rate",
        # Routed fan-out (routed placement, four search workers) vs the
        # single-reader merged baseline over the same corpus.
        "routed_qps",
        "merged_qps",
        "routed_merged_qps_ratio",
    ],
}


def check(path: str) -> list:
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot parse: {e}"]

    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if doc.get("schema") != "gkm-bench-v1":
        errors.append(f"schema is {doc.get('schema')!r}, want 'gkm-bench-v1'")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("missing/empty 'bench' name")
    scale = doc.get("scale")
    if not isinstance(scale, (int, float)) or not scale > 0:
        errors.append(f"'scale' is {scale!r}, want a positive number")
    if doc.get("simd_tier") not in VALID_TIERS:
        errors.append(
            f"'simd_tier' is {doc.get('simd_tier')!r}, want one of "
            f"{sorted(VALID_TIERS)}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append("'metrics' missing, not an object, or empty")
    else:
        for key, value in metrics.items():
            if value is None:  # emitter writes null for non-finite values
                continue
            if not isinstance(value, (int, float)) or (
                    isinstance(value, float) and not math.isfinite(value)):
                errors.append(f"metric {key!r} is {value!r}, want a number")
        for key in REQUIRED_KEYS.get(doc.get("bench"), []):
            if key not in metrics:
                errors.append(f"required metric {key!r} missing")
    return errors


def main(argv: list) -> int:
    if len(argv) < 2:
        print(f"usage: {argv[0]} FILE [FILE...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check(path)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for e in errors:
                print(f"  - {e}")
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
