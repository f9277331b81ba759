// Copyright 2026 The gkmeans Authors.
// gkbench: runs one benchmark workload in this process and writes its raw
// measurements as JSON for benchmark/run.py, which reduces them to the
// metrics named in BENCHMARK.json.
//
//   gkbench --workload batch_sift|stream_window|serve_mixed|serve_search
//           [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Writes DIR/<workload>.json (the record) and, with --trace 1, also
// DIR/trace_<workload>.json (spans plus the metrics-registry snapshot).
// Exits 2 when a correctness check fails, 1 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/kernels.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gkbench.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace gkbench {

void Record::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, ok ? "" : detail});
  if (!ok) {
    std::fprintf(stderr, "gkbench: check %s FAILED: %s\n", name.c_str(),
                 detail.c_str());
  }
}

bool Record::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.ok; });
}

std::string Record::ToJson() const {
  std::string out = "{\"scalars\":{";
  bool first = true;
  for (const auto& [key, v] : scalars_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonNumber(v);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [key, values] : series_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonNumber(values[i]);
    }
    out += "]";
  }
  out += "},\"raw\":{";
  first = true;
  for (const auto& [key, json] : raw_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + json;
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + JsonString(checks_[i].name) +
           ",\"ok\":" + (checks_[i].ok ? "true" : "false") +
           ",\"detail\":" + JsonString(checks_[i].detail) + "}";
  }
  out += "]}";
  return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_ns_(gkm::obs::MonotonicNanos()) {}

std::int64_t Tracer::Begin(const char* name, std::int64_t id,
                           std::int64_t parent) {
  if (!enabled_) return kNoSpan;
  const std::int64_t now = gkm::obs::MonotonicNanos();
  gkm::MutexLock lock(mu_);
  spans_.push_back(Span{name, now, now, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::End(std::int64_t span) {
  if (span == kNoSpan) return;
  const std::int64_t now = gkm::obs::MonotonicNanos();
  gkm::MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = now;
}

std::int64_t Tracer::Add(const char* name, std::int64_t id,
                         std::int64_t parent, std::int64_t start_ns,
                         std::int64_t end_ns) {
  if (!enabled_) return kNoSpan;
  gkm::MutexLock lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::string Tracer::ToJson() const {
  gkm::MutexLock lock(mu_);
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i > 0 ? ",[" : "[";
    out += JsonString(s.name);
    for (const std::int64_t v : {s.start_ns - origin_ns_, s.end_ns - origin_ns_,
                                 s.parent, s.id}) {
      out += ",";
      out += std::to_string(v);
    }
    out += "]";
  }
  out += "]}";
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(std::int64_t start_ns) {
  return gkm::obs::NanosToSeconds(gkm::obs::MonotonicNanos() - start_ns);
}

std::string RegistryJson() {
  const gkm::obs::RegistrySnapshot snap =
      gkm::obs::MetricsRegistry::Global().Snapshot();
  std::string out = "{\"counters\":{";
  const auto levels = [&out](const auto& named) {
    for (std::size_t i = 0; i < named.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(named[i].first);
      out += ":";
      out += std::to_string(named[i].second);
    }
  };
  levels(snap.counters);
  out += "},\"gauges\":{";
  levels(snap.gauges);
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const gkm::obs::HistogramData& h = snap.histograms[i].second;
    if (i > 0) out += ",";
    out += JsonString(snap.histograms[i].first);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + JsonNumber(h.sum);
    out += ",\"p50\":" + JsonNumber(h.Quantile(0.5));
    out += ",\"p99\":" + JsonNumber(h.Quantile(0.99));
    out += "}";
  }
  return out + "}}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

gkm::Matrix SampleRows(const gkm::Matrix& pool, std::size_t n,
                       std::uint64_t seed) {
  GKM_CHECK(n <= pool.rows());
  gkm::Rng rng(seed);
  std::vector<std::uint32_t> order(pool.rows());
  std::iota(order.begin(), order.end(), 0u);
  gkm::Matrix out(n, pool.cols());
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(order[i], order[i + rng.Index(order.size() - i)]);
    out.SetRow(i, pool.Row(order[i]));
  }
  return out;
}

std::vector<std::vector<std::uint32_t>> ExactTopK(
    const gkm::Matrix& base, const std::vector<std::uint32_t>& ids,
    const gkm::Matrix& queries, std::size_t k) {
  std::vector<std::vector<std::uint32_t>> out(queries.rows());
  gkm::ThreadPool pool(4);
  pool.ParallelFor(0, queries.rows(), [&](std::size_t q) {
    std::vector<float> dist(base.rows());
    gkm::L2SqrBatch(queries.Row(q), base.Row(0), base.stride(), base.rows(),
                    base.cols(), dist.data());
    std::vector<std::uint32_t> order(base.rows());
    std::iota(order.begin(), order.end(), 0u);
    const std::size_t top = std::min(k, order.size());
    // Ties broken by id, the order the library's searches use.
    std::partial_sort(order.begin(), order.begin() + top, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        return dist[a] != dist[b] ? dist[a] < dist[b]
                                                  : ids[a] < ids[b];
                      });
    for (std::size_t i = 0; i < top; ++i) out[q].push_back(ids[order[i]]);
  });
  return out;
}

double RecallAt(const std::vector<std::vector<std::uint32_t>>& truth,
                const std::vector<std::vector<gkm::Neighbor>>& got) {
  double sum = 0.0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    std::size_t hits = 0;
    for (const std::uint32_t id : truth[q]) {
      for (const gkm::Neighbor& n : got[q]) {
        if (n.id == id) {
          ++hits;
          break;
        }
      }
    }
    sum += truth[q].empty() ? 1.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(truth[q].size());
  }
  return truth.empty() ? 0.0 : sum / static_cast<double>(truth.size());
}

double ListRecallAt10(const gkm::Matrix& base,
                      const std::vector<std::uint32_t>& ids,
                      const std::vector<std::size_t>& rows,
                      std::vector<std::vector<gkm::Neighbor>> lists) {
  gkm::Matrix queries(rows.size(), base.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    queries.SetRow(i, base.Row(rows[i]));
  }
  std::vector<std::vector<std::uint32_t>> truth =
      ExactTopK(base, ids, queries, 11);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Drop the point itself; exact duplicates may tie with it, so it is
    // not necessarily first.
    std::vector<std::uint32_t>& t = truth[i];
    const auto self = std::find(t.begin(), t.end(), ids[rows[i]]);
    t.erase(self != t.end() ? self : t.end() - 1);
    if (lists[i].size() > 10) lists[i].resize(10);
  }
  return RecallAt(truth, lists);
}

namespace {

constexpr std::size_t kProbeRows = 65536;  // exceeds L2, like the corpora

gkm::Matrix RandomArena(std::size_t dim, gkm::Rng& rng) {
  gkm::Matrix arena(kProbeRows, dim);
  for (std::size_t i = 0; i < kProbeRows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) arena.At(i, j) = rng.UniformFloat();
  }
  return arena;
}

/// Median over several passes of the ns per row one `pass` over
/// kProbeRows rows takes.
template <typename Pass>
double NsPerRow(Pass pass) {
  constexpr int kPasses = 7;
  std::vector<double> ns;
  for (int i = 0; i < kPasses; ++i) {
    const std::int64_t t0 = gkm::obs::MonotonicNanos();
    pass();
    ns.push_back(static_cast<double>(gkm::obs::MonotonicNanos() - t0) /
                 kProbeRows);
  }
  std::sort(ns.begin(), ns.end());
  return ns[kPasses / 2];
}

}  // namespace

void ProbeKernels(Record& rec, std::uint64_t seed) {
  gkm::Rng rng(seed);
  std::vector<float> out(kProbeRows);
  float sink = 0.0f;

  // Strided one-to-many at d=128: the shape of batch_sift's exhaustive
  // in-cluster comparisons and centroid scans.
  const gkm::Matrix wide = RandomArena(128, rng);
  rec.Set("kernels.l2sqr_batch_ns_per_row.d128", NsPerRow([&] {
            gkm::L2SqrBatch(wide.Row(0), wide.Row(0), wide.stride(),
                            kProbeRows, 128, out.data());
            sink += out[kProbeRows - 1];
          }));

  // Gathered at d=32, 64 random rows per call: one beam expansion of the
  // stream and serve graph walks.
  constexpr std::size_t kGather = 64;
  const gkm::Matrix narrow = RandomArena(32, rng);
  std::vector<const float*> rows(kProbeRows);
  for (const float*& row : rows) row = narrow.Row(rng.Index(kProbeRows));
  rec.Set("kernels.l2sqr_gather_ns_per_row.d32", NsPerRow([&] {
            for (std::size_t b = 0; b < kProbeRows; b += kGather) {
              gkm::L2SqrBatchGather(narrow.Row(0), rows.data() + b, kGather,
                                    32, out.data() + b);
            }
            sink += out[kProbeRows - 1];
          }));
  rec.Set("kernels.probe_sink", sink);  // keeps the kernel calls live
}

}  // namespace gkbench

namespace {

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "gkbench: %s\nusage: gkbench --workload batch_sift|"
               "stream_window|serve_mixed|serve_search [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  gkbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  const bool serve = args.workload == "serve_mixed" ||
                     args.workload == "serve_search";
  if (!serve && args.workload != "batch_sift" &&
      args.workload != "stream_window") {
    return Usage("unknown workload");
  }

  gkbench::Record rec;
  gkbench::Tracer tracer(args.trace);
  if (args.trace) {
    // Kernel probes run first, in the same state for every workload (the
    // serve workloads later pin this process to one core).
    gkbench::ProbeKernels(rec, args.seed);
  }
  if (args.workload == "batch_sift") {
    gkbench::RunBatchSift(args, rec, tracer);
  } else if (args.workload == "stream_window") {
    gkbench::RunStreamWindow(args, rec, tracer);
  } else {
    gkbench::RunServe(args, args.workload == "serve_mixed", rec, tracer);
  }

  const std::string snapshot = gkbench::RegistryJson();
  rec.SetRaw("registry", snapshot);
  const std::string header =
      "{\"workload\":" + gkbench::JsonString(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + gkbench::JsonNumber(args.seconds) +
      ",\"traced\":" + (args.trace ? "1" : "0");
  const std::string dir = args.out_dir + "/";
  bool wrote = WriteFile(dir + args.workload + ".json",
                         header + ",\"record\":" + rec.ToJson() + "}\n");
  if (args.trace) {
    wrote = WriteFile(dir + "trace_" + args.workload + ".json",
                      header + ",\"trace\":" + tracer.ToJson() +
                          ",\"registry\":" + snapshot + "}\n") &&
            wrote;
  }
  if (!wrote) {
    std::fprintf(stderr, "gkbench: cannot write results under %s\n",
                 args.out_dir.c_str());
    return 1;
  }
  return rec.ok() ? 0 : 2;
}
