// Copyright 2026 The gkmeans Authors.
// stream_window: library-level streaming ingest — StreamingGkMeans fed
// 1000-row windows with a 50-window TTL (a steady 50k live points once
// warm), every window journaled by a StreamDeltaLog with auto-compaction,
// exactly the journal-then-apply loop stream/checkpoint.h documents. No
// wire and no batcher: walk/commit, TTL expiry and repair, Delta-I epochs,
// split/merge maintenance and journal appends are the whole cost.

#include <malloc.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/synthetic.h"
#include "gkbench.h"
#include "obs/clock.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace gkbench {
namespace {

constexpr std::size_t kDim = 32;
constexpr std::size_t kClusters = 64;
constexpr std::size_t kKappa = 16;
constexpr std::size_t kWindow = 1000;
constexpr std::size_t kTtlWindows = 50;
/// Windows ingested during set-up: past the TTL horizon, so the timed
/// phase starts at the steady live-set size with expiry running.
constexpr std::size_t kWarmWindows = 60;
/// Set-ups per run (run.py reports the median).
constexpr int kSetupReps = 3;
/// Timed windows per requested second (nominal rate on the reference
/// host), fixing the amount of work from --seconds alone.
constexpr double kWindowsPerSecond = 10.0;
constexpr std::size_t kProbes = 500;

}  // namespace

void RunStreamWindow(const Args& args, Record& rec, Tracer& tracer) {
  const auto timed = static_cast<std::size_t>(args.seconds * kWindowsPerSecond);
  const std::size_t windows = kWarmWindows + timed;

  const std::size_t rows = windows * kWindow + kProbes;
  gkm::SyntheticSpec spec;
  spec.n = rows + rows / 4;
  spec.dim = kDim;
  spec.modes = kClusters;
  spec.seed = kPoolSeed;

  gkm::StreamingGkMeansParams params;
  params.k = kClusters;
  params.kappa = kKappa;
  params.graph.kappa = kKappa;
  params.graph.beam_width = 48;
  params.bootstrap_min = 2000;
  params.max_splits_per_window = 16;
  params.ttl_windows = kTtlWindows;
  params.ingest_threads = 4;

  const std::string base = args.out_dir + "/stream_window.base.gkmc";
  const std::string delta = args.out_dir + "/stream_window.delta.gkmd";
  gkm::Matrix data;
  std::optional<gkm::StreamingGkMeans> model;
  std::optional<gkm::StreamDeltaLog> log;
  std::size_t expired = 0;
  bool alive_ok = true;
  std::string alive_detail;
  // Journals, applies and maybe compacts window `w`; returns its seconds.
  const auto ingest = [&](std::size_t w) {
    const gkm::Matrix rows =
        gkm::SliceRows(data, w * kWindow, (w + 1) * kWindow);
    const std::int64_t t0 = gkm::obs::MonotonicNanos();
    {
      const SpanScope window(tracer, "stream.window", w);
      {
        const SpanScope span(tracer, "stream.journal_append", w,
                             window.handle());
        log->AppendWindow(rows);
      }
      {
        const SpanScope span(tracer, "stream.observe", w, window.handle());
        model->ObserveWindow(rows);
      }
      {
        const SpanScope span(tracer, "stream.compact", w, window.handle());
        log->MaybeCompact(*model);
      }
    }
    const double secs = SecondsSince(t0);
    expired += model->history().back().expired;
    const std::size_t want = (w + 1) * kWindow - expired;
    if (alive_ok && model->points_alive() != want) {
      alive_ok = false;
      alive_detail = "window " + std::to_string(w) + ": points_alive " +
                     std::to_string(model->points_alive()) + " != " +
                     std::to_string(want);
    }
    return secs;
  };

  // Set-up — input generation and the warm windows, from an empty model —
  // runs kSetupReps times; run.py reports the median. The last rep's model
  // and journal go on to the timed windows.
  for (int r = 0; r < kSetupReps; ++r) {
    log.reset();
    model.reset();
    data = gkm::Matrix();
    // Hands the last rep's freed heap back, so peak_rss_mb measures one
    // model, not the allocator's leftovers from several.
    malloc_trim(0);
    expired = 0;
    const std::int64_t t0 = gkm::obs::MonotonicNanos();
    data = SampleRows(gkm::MakeGaussianMixture(spec).vectors, rows, args.seed);
    model.emplace(kDim, params);
    log.emplace(base, delta, *model);
    log->SetAutoCompaction({0.5, 256});
    for (std::size_t w = 0; w < kWarmWindows; ++w) ingest(w);
    rec.Push("setup_s", SecondsSince(t0));
  }

  rec.SetRaw("registry_timed_start", RegistryJson());
  for (std::size_t w = kWarmWindows; w < windows; ++w) {
    rec.Push("window_s", ingest(w));
    const gkm::WindowStats& ws = model->history().back();
    rec.Push("stream.touched", static_cast<double>(ws.touched));
    rec.Push("stream.moves", static_cast<double>(ws.moves));
    rec.Push("stream.epochs", static_cast<double>(ws.epochs));
    rec.Push("stream.expired", static_cast<double>(ws.expired));
    rec.Push("stream.split_merges", static_cast<double>(ws.split_merges));
    rec.Push("ckpt.delta.journal_bytes",
             static_cast<double>(log->journal_bytes()));
  }
  log.reset();
  std::remove(base.c_str());
  std::remove(delta.c_str());
  rec.Check("stream.points_alive", alive_ok, alive_detail);
  rec.Set("timed_points", static_cast<double>(timed * kWindow));
  rec.Set("warm_windows", kWarmWindows);
  rec.Set("attempted", static_cast<double>(timed));
  rec.Set("failed", 0);
  rec.Set("distortion", model->Distortion());

  // recall@10 of the graph the clusterer runs on: sampled live nodes'
  // lists against the exact nearest live points. Walk-search recall over
  // the same graph, from held-out probes, is a per-layer metric.
  const gkm::ShardedOnlineKnnGraph& graph = model->graph();
  gkm::Matrix live(0, kDim);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t g = 0; g < graph.size(); ++g) {
    if (!graph.IsAliveUnlocked(g)) continue;
    live.AppendRow(graph.Point(g));
    ids.push_back(g);
  }
  gkm::Rng rng(args.seed ^ 0x5eedu);
  std::vector<std::size_t> nodes(kProbes);
  std::vector<std::vector<gkm::Neighbor>> lists(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    nodes[i] = rng.Index(ids.size());
    graph.SortedNeighborsInto(ids[nodes[i]], lists[i]);
  }
  rec.Set("recall_at_10", ListRecallAt10(live, ids, nodes, std::move(lists)));

  const gkm::Matrix probes =
      gkm::SliceRows(data, windows * kWindow, windows * kWindow + kProbes);
  std::vector<std::vector<gkm::Neighbor>> got(kProbes);
  for (std::size_t q = 0; q < kProbes; ++q) {
    got[q] = graph.SearchKnn(probes.Row(q), 10);
  }
  rec.Set("stream.search_recall_at_10",
          RecallAt(ExactTopK(live, ids, probes, 10), got));
  rec.Set("peak_rss_mb", PeakRssMb());
}

}  // namespace gkbench
