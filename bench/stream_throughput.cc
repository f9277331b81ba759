// Copyright 2026 The gkmeans Authors.
// Streaming subsystem bench: streams >= 50k synthetic points through
// StreamingGkMeans in windows, reporting ingest throughput (points/sec),
// per-window distortion evolution, and the end-to-end quality gap against
// the batch GK-means pipeline (Alg. 3 + Alg. 2) run once over the same
// data. Also round-trips a checkpoint mid-stream and verifies the restored
// model finishes the stream with an identical clustering.
//
// Shape targets: streamed SSE within 10% of batch; checkpoint restore
// exact; parallel results bit-identical to serial; graph ingest >= 2x and
// the full pipeline >= 1x the 1-thread rate at 4 threads; SQ8 ingest
// within 0.9x of fp32 with byte-exact SQ8 checkpoints. Timing ratios gate
// only on >= 4 cores at full scale (see the per-gate comments).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace {

void Feed(gkm::StreamingGkMeans& model, const gkm::Matrix& data,
          std::size_t begin, std::size_t end, std::size_t window) {
  for (; begin < end; begin += window) {
    const std::size_t stop = std::min(begin + window, end);
    model.ObserveWindow(gkm::SliceRows(data, begin, stop));
  }
}

std::size_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<std::size_t>(size);
}

std::vector<char> ReadBytesOrDie(const std::string& path) {
  std::vector<char> bytes(FileBytes(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr || std::fread(bytes.data(), 1, bytes.size(), f) !=
                          bytes.size()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke pins the CI smoke workload (the scale build-and-test already
  // runs via GKM_SCALE=0.2) so gate scripts get a stable BENCH json.
  gkm::bench::SmokeFromArgs(argc, argv, 0.2);
  const std::size_t n = gkm::bench::ScaledN(50000, 50000);
  const std::size_t dim = 32;
  const std::size_t k = 64;
  const std::size_t window = 1000;

  gkm::bench::Header("Streaming subsystem",
                     "GK-means over a window stream vs the batch pipeline");
  std::printf("dataset: GMM n=%zu d=%zu; k=%zu, window=%zu\n", n, dim, k,
              window);

  gkm::SyntheticSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.modes = k;
  spec.seed = 3;
  const gkm::SyntheticData data = gkm::MakeGaussianMixture(spec);

  gkm::StreamingGkMeansParams sp;
  sp.k = k;
  sp.kappa = 16;
  sp.graph.kappa = 16;
  sp.graph.beam_width = 48;
  sp.bootstrap_min = 2000;
  // Production-shaped maintenance budget: enough split/merge ops per
  // window that the model keeps tracking the mode structure as the corpus
  // grows far beyond the bootstrap sample.
  sp.max_splits_per_window = 16;

  // --- Parallel ingest scaling: same stream at 1 and 4 walk threads. ---
  // Two measurements. (1) Graph ingest (OnlineKnnGraph::InsertBatch),
  // the path the thread pool actually parallelizes (~15% serial commit):
  // this carries the >= 2x speedup gate. (2) The full streaming pipeline,
  // whose Delta-I epochs are sequential by design: reported for context,
  // gated only on being bit-identical to the serial run (thread count is
  // an execution knob, not model state). Speedup gates apply only on
  // hardware that can actually run 4 walkers.
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t scale_n = std::min<std::size_t>(n / 2, 25000);
  double graph_speedup = 0.0;
  bool graph_identical = true;
  double pipeline_speedup = 0.0;
  bool parallel_identical = false;
  {
    gkm::ThreadPool pool1(1);
    gkm::ThreadPool pool4(4);
    gkm::OnlineKnnGraph g1(dim, sp.graph);
    gkm::OnlineKnnGraph g4(dim, sp.graph);
    gkm::Timer t1;
    for (std::size_t b = 0; b < scale_n; b += window) {
      g1.InsertBatch(gkm::SliceRows(data.vectors, b,
                                    std::min(b + window, scale_n)), &pool1);
    }
    const double secs1 = t1.Seconds();
    gkm::Timer t4;
    for (std::size_t b = 0; b < scale_n; b += window) {
      g4.InsertBatch(gkm::SliceRows(data.vectors, b,
                                    std::min(b + window, scale_n)), &pool4);
    }
    const double secs4 = t4.Seconds();
    graph_speedup = secs1 / secs4;
    for (std::size_t i = 0; i < scale_n && graph_identical; ++i) {
      graph_identical =
          g1.graph().SortedNeighbors(i) == g4.graph().SortedNeighbors(i);
    }
    std::printf("\ngraph ingest (%zu points, %zu cores): 1 thread %.0f "
                "pts/s, 4 threads %.0f pts/s (%.2fx)\n",
                scale_n, cores, static_cast<double>(scale_n) / secs1,
                static_cast<double>(scale_n) / secs4, graph_speedup);
  }
  // --- Sharded multi-writer ingest: 4 shards committed by 4 concurrent
  // writer threads vs the single-shard single-writer path, both fanning
  // their walks over the same 4-thread pool. Sharding parallelizes the
  // serial commit fraction (and walks smaller per-shard graphs), so
  // multi-writer ingest must clear 1.5x the single-shard rate wherever 4
  // writers can actually run. Also re-checked: for a FIXED shard count the
  // pool size changes nothing (per-shard edges byte-identical). ---
  double shard_speedup = 0.0;
  bool shard_identical = true;
  {
    gkm::ThreadPool pool1(1);
    gkm::ThreadPool pool4(4);
    gkm::OnlineGraphParams sg = sp.graph;
    sg.shards = 1;
    gkm::ShardedOnlineKnnGraph g1(dim, sg);
    sg.shards = 4;
    gkm::ShardedOnlineKnnGraph g4(dim, sg);
    gkm::ShardedOnlineKnnGraph g4_serial(dim, sg);
    gkm::Timer t1;
    for (std::size_t b = 0; b < scale_n; b += window) {
      g1.InsertBatch(gkm::SliceRows(data.vectors, b,
                                    std::min(b + window, scale_n)), &pool4);
    }
    const double secs1 = t1.Seconds();
    gkm::Timer t4;
    for (std::size_t b = 0; b < scale_n; b += window) {
      g4.InsertBatch(gkm::SliceRows(data.vectors, b,
                                    std::min(b + window, scale_n)), &pool4);
    }
    const double secs4 = t4.Seconds();
    for (std::size_t b = 0; b < scale_n; b += window) {
      g4_serial.InsertBatch(gkm::SliceRows(data.vectors, b,
                                           std::min(b + window, scale_n)),
                            &pool1);
    }
    shard_speedup = secs1 / secs4;
    for (std::size_t s = 0; s < 4 && shard_identical; ++s) {
      const gkm::OnlineKnnGraph& a = g4.shard(s);
      const gkm::OnlineKnnGraph& b = g4_serial.shard(s);
      shard_identical = a.size() == b.size();
      for (std::size_t i = 0; i < a.size() && shard_identical; ++i) {
        shard_identical =
            a.graph().SortedNeighbors(i) == b.graph().SortedNeighbors(i);
      }
    }
    std::printf("sharded ingest (%zu points): single shard %.0f pts/s, "
                "4 shards x 4 writers %.0f pts/s (%.2fx)\n",
                scale_n, static_cast<double>(scale_n) / secs1,
                static_cast<double>(scale_n) / secs4, shard_speedup);
  }
  {
    gkm::StreamingGkMeansParams one = sp;
    one.ingest_threads = 1;
    gkm::StreamingGkMeansParams four = sp;
    four.ingest_threads = 4;
    gkm::StreamingGkMeans m1(dim, one);
    gkm::Timer t1;
    Feed(m1, data.vectors, 0, scale_n, window);
    const double secs1 = t1.Seconds();
    gkm::StreamingGkMeans m4(dim, four);
    gkm::Timer t4;
    Feed(m4, data.vectors, 0, scale_n, window);
    const double secs4 = t4.Seconds();
    pipeline_speedup = secs1 / secs4;
    parallel_identical = m1.labels() == m4.labels() &&
                         m1.Distortion() == m4.Distortion();
    std::printf("full pipeline (ingest + epochs): 1 thread %.0f pts/s, "
                "4 threads %.0f pts/s (%.2fx)\n",
                static_cast<double>(scale_n) / secs1,
                static_cast<double>(scale_n) / secs4, pipeline_speedup);
  }

  // --- SQ8 quantized arena: the same stream through the u8 storage mode.
  // Ingest must stay within 0.9x of fp32 — the walk scores become integer
  // SADs (cheaper per candidate) but every batch adds an encode pass and
  // the final pool re-ranks through decoded fp32 rows. A mid-stream
  // checkpoint must round-trip byte-identically AND be byte-identical
  // across ingest thread counts: codes, norms and quantizer are integer
  // state and the walk pool carries a strict (dist, id) total order, so
  // neither scheduling nor tie arrival order can leak into the file. The
  // same argument covers SIMD tiers (asymmetric kernels accumulate in
  // integers; the forced-scalar CI job runs this binary to prove it). ---
  double sq8_ingest_ratio = 0.0;
  bool sq8_ckpt_identical = false;
  bool sq8_threads_identical = false;
  {
    gkm::StreamingGkMeansParams qp = sp;
    qp.graph.storage = gkm::StorageMode::kSq8;
    // Same rationale as bench_online_search: the 128-row default trains
    // the quantizer on too thin a sample for this 64-mode stream.
    qp.graph.bootstrap = 1024;
    gkm::StreamingGkMeans fbase(dim, sp);
    gkm::Timer tf;
    Feed(fbase, data.vectors, 0, scale_n, window);
    const double fp32_secs = tf.Seconds();
    gkm::StreamingGkMeans q1(dim, qp);
    gkm::Timer tq;
    Feed(q1, data.vectors, 0, scale_n, window);
    const double sq8_secs = tq.Seconds();
    sq8_ingest_ratio = fp32_secs / sq8_secs;

    gkm::StreamingGkMeansParams qp4 = qp;
    qp4.ingest_threads = 4;
    gkm::StreamingGkMeans q4(dim, qp4);
    Feed(q4, data.vectors, 0, scale_n, window);

    const std::string qa = "/tmp/gkm_stream_sq8_a.ckpt";
    const std::string qb = "/tmp/gkm_stream_sq8_b.ckpt";
    gkm::SaveStreamCheckpoint(qa, q1);
    gkm::SaveStreamCheckpoint(qb, q4);
    sq8_threads_identical = ReadBytesOrDie(qa) == ReadBytesOrDie(qb);
    gkm::StreamingGkMeans qr = gkm::LoadStreamCheckpoint(qa);
    gkm::SaveStreamCheckpoint(qb, qr);
    sq8_ckpt_identical = ReadBytesOrDie(qa) == ReadBytesOrDie(qb);
    std::remove(qa.c_str());
    std::remove(qb.c_str());
    std::printf("sq8 ingest (%zu points): fp32 %.0f pts/s, sq8 %.0f pts/s "
                "(%.2fx)\n",
                scale_n, static_cast<double>(scale_n) / fp32_secs,
                static_cast<double>(scale_n) / sq8_secs, sq8_ingest_ratio);
  }

  // --- Stream the first half, checkpoint, stream the rest. ---
  gkm::StreamingGkMeans model(dim, sp);
  gkm::Timer ingest;
  Feed(model, data.vectors, 0, n / 2, window);

  const std::string ckpt = "/tmp/gkm_stream_throughput.ckpt";
  gkm::Timer save_timer;
  gkm::SaveStreamCheckpoint(ckpt, model);
  const double save_secs = save_timer.Seconds();
  gkm::Timer load_timer;
  gkm::StreamingGkMeans resumed = gkm::LoadStreamCheckpoint(ckpt);
  const double load_secs = load_timer.Seconds();
  std::remove(ckpt.c_str());

  Feed(model, data.vectors, n / 2, n, window);
  const double stream_secs = ingest.Seconds() - save_secs - load_secs;
  const double stream_e_raw = model.Distortion();

  gkm::Timer consolidate;
  model.Consolidate(3);
  const double consolidate_secs = consolidate.Seconds();
  const double stream_e = model.Distortion();

  std::printf("\nstreaming: %.2fs ingest (%.0f points/sec), %.2fs "
              "consolidation\n",
              stream_secs, static_cast<double>(n) / stream_secs,
              consolidate_secs);
  std::printf("online graph: %zu nodes, %zu edges (degree %zu)\n",
              model.graph().size(), model.graph().shard(0).graph().NumEdges(),
              model.graph().shard(0).graph().k());
  std::printf("checkpoint: save %.3fs, load %.3fs\n", save_secs, load_secs);

  gkm::bench::PrintSeriesHeader("window", "distortion", "streaming GK-means");
  const auto& history = model.history();
  for (std::size_t w = 0; w < history.size(); w += 5) {
    if (history[w].distortion > 0.0) {
      std::printf("%-12zu %-14.4f\n", w, history[w].distortion);
    }
  }

  // --- Finish the stream on the restored model: must match exactly.
  // The restored copy also drives the incremental-checkpoint path: its
  // second half is journaled window by window into a GKMD delta log, and
  // the resumed base+journal chain must reproduce the full snapshot of the
  // finished model byte for byte — at O(window) instead of O(corpus) bytes
  // per checkpoint. ---
  const std::string delta_base = "/tmp/gkm_stream_delta_base.ckpt";
  const std::string delta_journal = "/tmp/gkm_stream_delta.gkmd";
  gkm::Timer delta_timer;
  gkm::StreamDeltaLog dlog(delta_base, delta_journal, resumed);
  std::size_t delta_windows = 0;
  for (std::size_t b = n / 2; b < n; b += window) {
    const gkm::Matrix w = gkm::SliceRows(data.vectors, b, std::min(b + window, n));
    dlog.AppendWindow(w);
    resumed.ObserveWindow(w);
    ++delta_windows;
  }
  dlog.AppendStateCheck(resumed);
  const double delta_secs = delta_timer.Seconds();

  const std::string full_a = "/tmp/gkm_stream_full_a.ckpt";
  const std::string full_b = "/tmp/gkm_stream_full_b.ckpt";
  gkm::SaveStreamCheckpoint(full_a, resumed);
  const std::size_t full_bytes = FileBytes(full_a);
  const std::size_t journal_bytes = FileBytes(delta_journal);
  gkm::Timer delta_load_timer;
  gkm::StreamingGkMeans delta_resumed =
      gkm::ResumeStreamCheckpoint(delta_base, delta_journal);
  const double delta_load_secs = delta_load_timer.Seconds();
  gkm::SaveStreamCheckpoint(full_b, delta_resumed);
  std::vector<char> bytes_a = ReadBytesOrDie(full_a);
  std::vector<char> bytes_b = ReadBytesOrDie(full_b);
  const bool delta_identical = bytes_a == bytes_b;
  std::printf("\ndelta checkpoints: %zu windows journaled in %.2fs "
              "(%.0f bytes/window vs %.0f for a full snapshot rewrite, "
              "%.1fx smaller); chain replay %.2fs\n",
              delta_windows, delta_secs,
              static_cast<double>(journal_bytes) /
                  static_cast<double>(delta_windows),
              static_cast<double>(full_bytes),
              static_cast<double>(full_bytes) * delta_windows /
                  static_cast<double>(journal_bytes),
              delta_load_secs);
  for (const char* f : {delta_base.c_str(), delta_journal.c_str(),
                        full_a.c_str(), full_b.c_str()}) {
    std::remove(f);
  }

  resumed.Consolidate(3);
  const bool identical = resumed.labels() == model.labels() &&
                         resumed.Distortion() == model.Distortion();

  // --- Batch reference on the same data. ---
  gkm::PipelineParams bp;
  bp.k = k;
  bp.clustering.kappa = sp.kappa;
  bp.graph.kappa = sp.kappa;
  bp.graph.tau = 6;
  gkm::Timer batch_timer;
  const gkm::PipelineResult batch = gkm::GkMeansCluster(data.vectors, bp);
  const double batch_secs = batch_timer.Seconds();
  const double batch_e = batch.clustering.distortion;

  // --- Serving probe: per-query SearchKnn latency against the finished
  // graph. Latency/QPS only — recall@10 needs ground truth and lives in
  // bench_online_search's json. The concrete obs::Histogram is used
  // directly (not via the registry), so the probe reports quantiles in
  // GKM_NO_STATS builds too — which is what the overhead gate compares.
  const std::size_t probe_queries = std::min<std::size_t>(n, 2000);
  gkm::obs::Histogram serve_hist;
  gkm::Timer serve_timer;
  for (std::size_t i = 0; i < probe_queries; ++i) {
    gkm::obs::ScopedTimer span(serve_hist);
    model.graph().SearchKnn(data.vectors.Row(i), 10);
  }
  const double serve_secs = serve_timer.Seconds();
  const gkm::obs::HistogramData serve_lat = serve_hist.Snapshot();
  std::printf("\nserving probe: %zu queries, %.0f qps, p50 %.0f us, "
              "p99 %.0f us\n",
              probe_queries, static_cast<double>(probe_queries) / serve_secs,
              serve_lat.Quantile(0.5), serve_lat.Quantile(0.99));

  std::printf("\nbatch GK-means: %.2fs, distortion %.4f\n", batch_secs,
              batch_e);
  std::printf("streaming:      distortion %.4f raw, %.4f consolidated "
              "(gap %+.2f%%)\n",
              stream_e_raw, stream_e, 100.0 * (stream_e - batch_e) / batch_e);

  // The speedup gate needs 4 schedulable walkers and a full-scale
  // workload: reduced-scale smoke runs (CI's GKM_SCALE=0.2 on shared
  // 4-vCPU runners, where SMT and noisy neighbors sit right at the 2x
  // ceiling) print the measurement but do not turn it into an exit code.
  const bool can_gate_speedup = cores >= 4 && gkm::bench::Scale() >= 1.0;
  std::printf("\nshape checks:\n");
  std::printf("  streamed SSE within 10%% of batch:      %s\n",
              stream_e <= batch_e * 1.10 ? "PASS" : "FAIL");
  std::printf("  checkpoint restore continues identically: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("  delta chain resumes bit-identical:        %s\n",
              delta_identical ? "PASS" : "FAIL");
  std::printf("  parallel ingest identical to serial:      %s\n",
              parallel_identical && graph_identical ? "PASS" : "FAIL");
  if (can_gate_speedup) {
    std::printf("  graph ingest >= 2x at 4 threads:          %s (%.2fx)\n",
                graph_speedup >= 2.0 ? "PASS" : "FAIL", graph_speedup);
  } else {
    std::printf("  graph ingest >= 2x at 4 threads:          SKIP "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), graph_speedup);
  }
  // Full-pipeline floor. Span profiling (stream.ingest.*) puts the window
  // at ~60% pooled walk, ~22% serial commit, rest sequential Delta-I
  // epochs — an Amdahl ceiling near 1.8x even at perfect walk scaling. At
  // smoke scale the 1000-row windows leave the parallel section too short
  // to amortize per-window pool dispatch, which is where the historical
  // 0.94x came from; that is a measurement floor, not a regression. At
  // full scale on >= 4 cores the pipeline must at least break even.
  if (can_gate_speedup) {
    std::printf("  full pipeline >= 1x at 4 threads:         %s (%.2fx)\n",
                pipeline_speedup >= 1.0 ? "PASS" : "FAIL", pipeline_speedup);
  } else {
    std::printf("  full pipeline >= 1x at 4 threads:         SKIP "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), pipeline_speedup);
  }
  std::printf("  sharded ingest identical across pools:    %s\n",
              shard_identical ? "PASS" : "FAIL");
  // Multi-writer gate: same floor pattern as the speedup gates. The
  // sharded/unsharded comparison runs a fixed workload, but at smoke
  // scale the per-shard graphs are small enough that commit serialization
  // no longer dominates and the measured ratio (~1.0x) says nothing about
  // the contended regime the gate protects — so reduced-scale runs report
  // the number without turning it into an exit code.
  const bool can_gate_shards = cores >= 4 && gkm::bench::Scale() >= 1.0;
  if (can_gate_shards) {
    std::printf("  multi-writer >= 1.5x single shard (4T):   %s (%.2fx)\n",
                shard_speedup >= 1.5 ? "PASS" : "FAIL", shard_speedup);
  } else {
    std::printf("  multi-writer >= 1.5x single shard (4T):   SKIP "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), shard_speedup);
  }
  std::printf("  sq8 checkpoint round-trips byte-exact:    %s\n",
              sq8_ckpt_identical ? "PASS" : "FAIL");
  std::printf("  sq8 checkpoint identical across threads:  %s\n",
              sq8_threads_identical ? "PASS" : "FAIL");
  if (can_gate_speedup) {
    std::printf("  sq8 ingest >= 0.9x fp32:                  %s (%.2fx)\n",
                sq8_ingest_ratio >= 0.9 ? "PASS" : "FAIL", sq8_ingest_ratio);
  } else {
    std::printf("  sq8 ingest >= 0.9x fp32:                  SKIP "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), sq8_ingest_ratio);
  }
  const bool pass = stream_e <= batch_e * 1.10 && identical &&
                    delta_identical && parallel_identical &&
                    graph_identical && shard_identical &&
                    sq8_ckpt_identical && sq8_threads_identical &&
                    (!can_gate_speedup || (graph_speedup >= 2.0 &&
                                           pipeline_speedup >= 1.0 &&
                                           sq8_ingest_ratio >= 0.9)) &&
                    (!can_gate_shards || shard_speedup >= 1.5);

  gkm::bench::JsonReport report("stream_throughput");
  report.Add("n", static_cast<double>(n));
  report.Add("ingest_pts_per_sec", static_cast<double>(n) / stream_secs);
  report.Add("graph_speedup_4t", graph_speedup);
  report.Add("shard_speedup_4t", shard_speedup);
  report.Add("pipeline_speedup_4t", pipeline_speedup);
  report.Add("sq8_ingest_ratio", sq8_ingest_ratio);
  report.Add("stream_distortion", stream_e);
  report.Add("batch_distortion", batch_e);
  report.Add("ckpt_save_secs", save_secs);
  report.Add("ckpt_load_secs", load_secs);
  report.Add("journal_bytes_per_window",
             static_cast<double>(journal_bytes) /
                 static_cast<double>(delta_windows));
  report.Add("serve_qps", static_cast<double>(probe_queries) / serve_secs);
  report.Add("serve_p50_us", serve_lat.Quantile(0.5));
  report.Add("serve_p99_us", serve_lat.Quantile(0.99));
  report.Add("pass", pass ? 1.0 : 0.0);
  report.Write();

  return pass ? 0 : 1;
}
