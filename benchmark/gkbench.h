// Copyright 2026 The gkmeans Authors.
// Shared plumbing of the gkbench program: command-line arguments, the raw
// record each workload fills (reduced to metrics by benchmark/run.py), the
// in-memory span recorder behind --trace, and helpers several workloads
// use. Every layer is measured from outside, through the library's public
// headers; nothing here reaches into src/.

#ifndef GKBENCH_GKBENCH_H_
#define GKBENCH_GKBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/mutex.h"
#include "common/top_k.h"

namespace gkbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;  ///< drives input generation only
  /// Measurement length in seconds. Workloads size their measured phase
  /// from it deterministically (never from the clock), so one seed gives
  /// one input and one amount of work.
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Raw measurements of one run: scalars, sample series, pre-serialized
/// JSON blobs (registry snapshots) and named correctness checks.
/// Single-threaded: workload threads keep their own buffers and the
/// workload's main thread folds them in.
class Record {
 public:
  void Set(const std::string& key, double v) { scalars_[key] = v; }
  void Push(const std::string& key, double v) { series_[key].push_back(v); }
  void SetSeries(const std::string& key, std::vector<double> v) {
    series_[key] = std::move(v);
  }
  void SetRaw(const std::string& key, std::string json) {
    raw_[key] = std::move(json);
  }
  /// Records a correctness check; any failure makes the run invalid.
  void Check(const std::string& name, bool ok, const std::string& detail);
  bool ok() const;
  std::string ToJson() const;

 private:
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> raw_;
  std::vector<CheckResult> checks_;
};

/// In-memory span recorder for the traced run: one span per call the
/// benchmark makes into a layer, with its parent span and the request or
/// window id it belongs to. Written out once, at exit. Disabled tracers
/// record nothing and cost one branch per call site.
class Tracer {
 public:
  static constexpr std::int64_t kNoSpan = -1;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span starting now; returns its handle (kNoSpan when off).
  std::int64_t Begin(const char* name, std::int64_t id,
                     std::int64_t parent = kNoSpan);
  void End(std::int64_t span);
  /// Records a finished span measured by the caller (cross-thread spans:
  /// a request sent on one thread and answered on another); returns its
  /// handle (kNoSpan when off).
  std::int64_t Add(const char* name, std::int64_t id, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns);
  /// {"spans":[[name,start_ns,end_ns,parent,id],..]}, times relative to
  /// the tracer's construction.
  std::string ToJson() const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNoSpan;
    std::int64_t id = 0;
  };
  const bool enabled_;
  const std::int64_t origin_ns_;
  mutable gkm::Mutex mu_;
  std::vector<Span> spans_ GKM_GUARDED_BY(mu_);
};

/// RAII span over a scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int64_t id,
            std::int64_t parent = Tracer::kNoSpan)
      : tracer_(tracer), span_(tracer.Begin(name, id, parent)) {}
  ~SpanScope() { tracer_.End(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int64_t handle() const { return span_; }

 private:
  Tracer& tracer_;
  std::int64_t span_;
};

// ----------------------------------------------------------------- helpers --

/// Peak resident set of the calling process (ru_maxrss), in MB.
double PeakRssMb();

/// Seconds on the monotonic clock since `start_ns` (obs::MonotonicNanos).
double SecondsSince(std::int64_t start_ns);

/// The process-wide metrics registry as JSON: counters, gauges, and per
/// histogram its count, exact sum, p50 and p99 — enough for run.py to take
/// exact means over the interval between two snapshots.
std::string RegistryJson();

/// JSON number with every significant digit (round-trips a double).
std::string JsonNumber(double v);
/// JSON string literal with escaping.
std::string JsonString(const std::string& s);

/// Every workload draws its inputs from one fixed distribution: a pool
/// generated with this seed. --seed picks the sample (SampleRows), so runs
/// with different seeds differ by sampling, not by distribution.
inline constexpr std::uint64_t kPoolSeed = 42;

/// `n` distinct rows of `pool` in a seeded random order.
gkm::Matrix SampleRows(const gkm::Matrix& pool, std::size_t n,
                       std::uint64_t seed);

/// Exact top-`k` ids of each query row among `base` rows whose id is in
/// `ids` (row i of `base` is point ids[i]); self-matches are not skipped.
std::vector<std::vector<std::uint32_t>> ExactTopK(
    const gkm::Matrix& base, const std::vector<std::uint32_t>& ids,
    const gkm::Matrix& queries, std::size_t k);

/// Mean |got_i ∩ truth_i| / |truth_i| over queries (ids only).
double RecallAt(const std::vector<std::vector<std::uint32_t>>& truth,
                const std::vector<std::vector<gkm::Neighbor>>& got);

/// recall@10 of k-NN lists: lists[i], sorted nearest first, holds the
/// listed neighbors of row rows[i] of `base`; its first ten are scored
/// against the exact ten nearest other rows (ids as in ExactTopK).
double ListRecallAt10(const gkm::Matrix& base,
                      const std::vector<std::uint32_t>& ids,
                      const std::vector<std::size_t>& rows,
                      std::vector<std::vector<gkm::Neighbor>> lists);

/// Times the public exact kernels at the workloads' shapes, recording
/// kernels.l2sqr_batch_ns_per_row.d128 and
/// kernels.l2sqr_gather_ns_per_row.d32 (medians of several passes).
void ProbeKernels(Record& rec, std::uint64_t seed);

/// Workload entry points. Each fills `rec` and `tracer`; a failed
/// correctness check is recorded through rec.Check.
void RunBatchSift(const Args& args, Record& rec, Tracer& tracer);
void RunStreamWindow(const Args& args, Record& rec, Tracer& tracer);
/// `mixed` selects serve_mixed (reads beside writes) over serve_search.
void RunServe(const Args& args, bool mixed, Record& rec, Tracer& tracer);

}  // namespace gkbench

#endif  // GKBENCH_GKBENCH_H_
