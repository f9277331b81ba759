# Copyright 2026 The gkmeans Authors.
"""Pure reductions shared by run.py and compare.py (unit-tested in
test_stats.py): percentile rules, the serve ladder's step rule and max-rate
selection, span self time, and the parent-vs-change decision rules."""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q*n)-th smallest value (the
    rule gkbench's C++ side uses too). Infinite values sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n, candidates=TAIL_PERCENTILES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with at least `min_beyond` of `n`
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for q in candidates:
        if n - math.ceil(q * n) >= min_beyond:
            best = q
    return best


def tail(values):
    """(q, value) at the highest percentile with ten samples beyond it;
    (1.0, max) when there are too few samples for any percentile."""
    q = tail_percentile(len(values))
    if q is None:
        return 1.0, max(values)
    return q, percentile(values, q)


def blocks(values, size=1000):
    """Consecutive blocks of `size` values; the remainder joins the last
    block, and fewer than `size` values make one block."""
    count = max(1, len(values) // size)
    return [values[b * size:(b + 1) * size if b + 1 < count else None]
            for b in range(count)]


def median_block(values, q, size=1000):
    """Nearest-rank median over blocks of each block's q-percentile
    (gkbench's BlockedP99 is this with q = 0.99). A host stall spoils a
    few blocks, not the result."""
    return percentile([percentile(b, q) for b in blocks(values, size)], 0.5)


def blocked_tail(values, size=1000):
    """median_block at the highest percentile a block supports by the
    ten-beyond rule; returns (q, value)."""
    q = tail_percentile(len(blocks(values, size)[0]))
    if q is None:
        return 1.0, max(values)
    return q, median_block(values, q, size)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


# ---------------------------------------------------------------- ladder --

LATENCY_LIMIT_US = 10000.0
MAX_FAILED_FRAC = 0.001
MIN_COMPLETION_RATIO = 0.95


def step_passes(block_p99_us, block_failed_frac, sends_last_s,
                completions_last_s):
    """A ladder step passes when, in its median block of 1000 requests,
    search p99 is within the limit (failures count as misses) and at most
    0.1% of requests fail, and when its last second completes at least 95%
    of what that second sent (a growing backlog fails even at low
    latency)."""
    return (block_p99_us <= LATENCY_LIMIT_US
            and block_failed_frac <= MAX_FAILED_FRAC
            and completions_last_s >= MIN_COMPLETION_RATIO * sends_last_s)


def ladder_max_rate(steps):
    """Highest passing rate below every failing rate, from (rate, passed)
    pairs in the order they ran; a rate run more than once counts by its
    last attempt. 0.0 when no rate passed."""
    verdict = {}
    for rate, ok in steps:
        verdict[rate] = ok
    lowest_fail = min((r for r, ok in verdict.items() if not ok),
                      default=math.inf)
    return max((r for r, ok in verdict.items() if ok and r < lowest_fail),
               default=0.0)


# ----------------------------------------------------------------- spans --

def self_times(spans, keep=None):
    """Total self time per span name, in the spans' time unit. A span's
    self time is its duration minus the part of it its children cover.
    `spans` holds [name, start, end, parent, id] rows; parent is the row
    index of the parent span, or -1. `keep(span)`, when given, selects
    the spans that are totalled."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    totals = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if keep is not None and not keep(spans[i]):
            continue
        covered = 0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2])
                                     for c in children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals


def span_totals(spans, keep=None):
    """Total duration and count per span name (of the spans `keep`
    selects, when given)."""
    totals = {}
    for name, start, end, _, _ in (s for s in spans
                                   if keep is None or keep(s)):
        total, count = totals.get(name, (0, 0))
        totals[name] = (total + end - start, count + 1)
    return totals


# ----------------------------------------------------- parent vs change --

def better(a, b, direction):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def win_fraction(pairs, direction):
    """Share of (parent, change) pairs the change wins; ties count for
    neither side but stay in the denominator."""
    if not pairs:
        return 0.0
    return sum(better(c, p, direction) for p, c in pairs) / len(pairs)


def gain_claimed(pairs, direction):
    """The claim rule: the change wins at least nine tenths of all pairs,
    and the medians differ by more than the parent's own quartile spread."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    return (win_fraction(pairs, direction) >= 0.9
            and better(c_med, p_med, direction)
            and abs(c_med - p_med) > q3 - q1)


def verdict(parent, change, direction, bound):
    """'held', 'regressed' or 'unresolved' for a metric not claimed.
    Worse-than-parent beyond `bound` (a share of the parent's median) is a
    regression. When either side's quartile spread exceeds the bound the
    runs cannot tell, so the metric is unresolved, unless every change run
    beats every parent run."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if all(better(c, p, direction) for c in change for p in parent):
        return "held"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    return "regressed" if worse > bound * abs(p_med) else "held"
