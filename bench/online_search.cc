// Copyright 2026 The gkmeans Authors.
// Serving-path bench: promotes OnlineKnnGraph::SearchKnn from a debugging
// helper to a measured ANN query engine. Streams a synthetic corpus into
// the online graph (batched, thread-parallel ingest), then serves held-out
// queries three ways and compares recall@10 and QPS:
//   - online SearchKnn, single thread, reused SearchScratch
//   - online SearchKnn, thread-parallel over the pool (per-slot scratch)
//   - anns/GraphSearcher beam search over the same graph + vectors (the
//     batch serving stack, as the reference point)
// Ground truth is brute force. A churn phase then removes 30% of the
// corpus and backfills with fresh points, re-measuring recall against the
// survivors — the deletion/repair path must hold serving quality.
// Shape targets: online recall@10 >= 0.8, post-churn recall@10 >= 0.8.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "anns/graph_search.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataset/synthetic.h"
#include "graph/brute_force.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/online_knn_graph.h"
#include "stream/sharded_online_knn_graph.h"
#include "stream/streaming_gkmeans.h"

namespace {

double RecallAt10(const std::vector<std::vector<gkm::Neighbor>>& got,
                  const std::vector<std::vector<gkm::Neighbor>>& truth) {
  std::size_t hit = 0, want = 0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    want += truth[q].size();
    for (const gkm::Neighbor& t : truth[q]) {
      for (const gkm::Neighbor& g : got[q]) {
        if (g.id == t.id) {
          ++hit;
          break;
        }
      }
    }
  }
  return want == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(want);
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke pins the CI smoke workload (build-and-test runs this bench at
  // GKM_SCALE=0.3) so gate scripts get a stable BENCH json.
  gkm::bench::SmokeFromArgs(argc, argv, 0.3);
  const std::size_t n = gkm::bench::ScaledN(20000, 5000);
  const std::size_t nq = 500;
  const std::size_t dim = 32;
  const std::size_t topk = 10;

  gkm::bench::Header("Online serving path",
                     "OnlineKnnGraph::SearchKnn vs anns/graph_search");
  std::printf("dataset: GMM n=%zu d=%zu, %zu held-out queries, top-%zu\n", n,
              dim, nq, topk);

  gkm::SyntheticSpec spec;
  spec.n = n + nq;
  spec.dim = dim;
  spec.modes = 40;
  spec.seed = 7;
  const gkm::SyntheticData data = gkm::MakeGaussianMixture(spec);
  const gkm::Matrix base = gkm::SliceRows(data.vectors, 0, n);
  const gkm::Matrix queries = gkm::SliceRows(data.vectors, n, n + nq);

  // --- Ingest (batched, thread-parallel). ---
  gkm::OnlineGraphParams p;
  p.kappa = 16;
  p.beam_width = 64;
  p.num_seeds = 64;
  gkm::ThreadPool pool;
  gkm::OnlineKnnGraph graph(dim, p);
  gkm::Timer ingest;
  const std::size_t window = 1000;
  for (std::size_t b = 0; b < n; b += window) {
    graph.InsertBatch(gkm::SliceRows(base, b, std::min(b + window, n)), &pool);
  }
  const double ingest_secs = ingest.Seconds();
  std::printf("ingest: %zu points in %.2fs (%.0f pts/s, %zu threads), "
              "adaptive seeds settled at %zu (from %zu)\n",
              n, ingest_secs, static_cast<double>(n) / ingest_secs,
              pool.num_threads(), graph.live_num_seeds(), p.num_seeds);

  const std::vector<std::vector<gkm::Neighbor>> truth =
      gkm::BruteForceSearch(base, queries, topk);

  // --- Online SearchKnn, single thread, reused scratch. Per-query
  // latency lands in a concrete obs::Histogram (works in GKM_NO_STATS
  // builds too), so the json carries p50/p99 alongside QPS. ---
  std::vector<std::vector<gkm::Neighbor>> online(nq);
  gkm::SearchScratch scratch;
  gkm::obs::Histogram query_hist;
  gkm::Timer single;
  for (std::size_t q = 0; q < nq; ++q) {
    gkm::obs::ScopedTimer span(query_hist);
    online[q] = graph.SearchKnn(queries.Row(q), topk, scratch);
  }
  const double single_secs = single.Seconds();
  const gkm::obs::HistogramData query_lat = query_hist.Snapshot();
  const double online_recall = RecallAt10(online, truth);

  // --- Online SearchKnnBatch: one rwlock acquisition per batch of 64. ---
  std::vector<std::vector<gkm::Neighbor>> batched;
  batched.reserve(nq);
  gkm::Timer batch_timer;
  const std::size_t qbatch = 64;
  for (std::size_t b = 0; b < nq; b += qbatch) {
    auto part = graph.SearchKnnBatch(
        gkm::SliceRows(queries, b, std::min(b + qbatch, nq)), topk, scratch);
    for (auto& r : part) batched.push_back(std::move(r));
  }
  const double batched_secs = batch_timer.Seconds();
  const double batched_recall = RecallAt10(batched, truth);

  // --- Online SearchKnn, thread-parallel with per-slot scratch. ---
  std::vector<gkm::SearchScratch> slot_scratch(pool.num_threads());
  std::vector<std::vector<gkm::Neighbor>> parallel(nq);
  gkm::Timer multi;
  pool.ParallelForSlots(0, nq, [&](std::size_t slot, std::size_t q) {
    parallel[q] = graph.SearchKnn(queries.Row(q), topk, slot_scratch[slot]);
  });
  const double multi_secs = multi.Seconds();
  const double parallel_recall = RecallAt10(parallel, truth);

  // --- Batch serving stack over the same graph, as reference. ---
  // Like-for-like budgets: same beam and the same entry-point count the
  // online path's adaptive policy settled on, so the comparison isolates
  // the searchers, not their seed budgets.
  gkm::GraphSearcher searcher(graph.points(), graph.graph());
  gkm::SearchParams srch;
  srch.topk = topk;
  srch.beam_width = p.beam_width;
  srch.num_seeds = graph.live_num_seeds();
  gkm::Timer batch;
  const std::vector<std::vector<gkm::Neighbor>> reference =
      searcher.SearchAll(queries, srch);
  const double batch_secs = batch.Seconds();
  const double reference_recall = RecallAt10(reference, truth);

  std::printf("\n%-28s %-10s %-10s\n", "serving path", "recall@10", "QPS");
  std::printf("%-28s %-10.3f %-10.0f\n", "online SearchKnn (1 thread)",
              online_recall, static_cast<double>(nq) / single_secs);
  std::printf("%-28s %-10.3f %-10.0f\n", "online SearchKnnBatch (64)",
              batched_recall, static_cast<double>(nq) / batched_secs);
  std::printf("%-28s %-10.3f %-10.0f\n", "online SearchKnn (pool)",
              parallel_recall, static_cast<double>(nq) / multi_secs);
  std::printf("%-28s %-10.3f %-10.0f\n", "anns/graph_search",
              reference_recall, static_cast<double>(nq) / batch_secs);

  // --- Churn phase: remove 30% of the corpus, backfill, re-measure. ---
  // Tombstoned nodes must drop out of results immediately, the repair
  // join has to keep the graph navigable, and the amortized purge +
  // slot reuse keep the arena dense (it must not grow past the original
  // corpus even though 30% of it was replaced).
  gkm::Timer churn_timer;
  std::size_t removed = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (id % 10 < 3) {
      graph.Remove({&id, 1});
      ++removed;
    }
  }
  // Sweep the stragglers below the auto-purge threshold at a quiet moment
  // so the whole backfill lands in reclaimed slots.
  graph.CompactTombstones();
  gkm::SyntheticSpec refill_spec = spec;
  refill_spec.n = removed;
  refill_spec.seed = 1234;
  const gkm::SyntheticData refill = gkm::MakeGaussianMixture(refill_spec);
  for (std::size_t b = 0; b < removed; b += window) {
    graph.InsertBatch(
        gkm::SliceRows(refill.vectors, b, std::min(b + window, removed)),
        &pool);
  }
  const double churn_secs = churn_timer.Seconds();
  std::printf("\nchurn: removed %zu (30%%) + backfilled %zu in %.2fs "
              "(%.0f ops/s); arena %zu slots, %zu alive\n",
              removed, removed, churn_secs,
              2.0 * static_cast<double>(removed) / churn_secs, graph.size(),
              graph.num_alive());

  // Ground truth over the survivors, mapped back to graph slot ids.
  std::vector<std::uint32_t> alive_ids;
  gkm::Matrix alive(0, dim);
  for (std::uint32_t id = 0; id < graph.size(); ++id) {
    if (!graph.IsAlive(id)) continue;
    alive_ids.push_back(id);
    alive.AppendRow(graph.points().Row(id));
  }
  const std::vector<std::vector<gkm::Neighbor>> churn_truth =
      gkm::BruteForceSearch(alive, queries, topk);
  std::vector<std::vector<gkm::Neighbor>> churn_got(nq);
  gkm::Timer churn_search;
  for (std::size_t q = 0; q < nq; ++q) {
    churn_got[q] = graph.SearchKnn(queries.Row(q), topk, scratch);
  }
  const double churn_search_secs = churn_search.Seconds();
  std::size_t hit = 0, want = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    want += churn_truth[q].size();
    for (const gkm::Neighbor& t : churn_truth[q]) {
      for (const gkm::Neighbor& g : churn_got[q]) {
        if (g.id == alive_ids[t.id]) {
          ++hit;
          break;
        }
      }
    }
  }
  const double churn_recall =
      want == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(want);
  std::printf("%-28s %-10.3f %-10.0f\n", "online SearchKnn post-churn",
              churn_recall, static_cast<double>(nq) / churn_search_secs);

  // --- Sharded serving (S=4): the stall-free multi-writer configuration.
  // Cross-shard SearchKnn fans over 4 independent arenas and merges; the
  // quality bar is the same as the single-arena path, fresh AND after the
  // same 30% churn + backfill cycle (each shard repairs and reuses slots
  // independently). ---
  gkm::OnlineGraphParams sharded_params = p;
  sharded_params.shards = 4;
  gkm::ShardedOnlineKnnGraph sharded(dim, sharded_params);
  std::vector<std::uint32_t> sharded_ids;
  gkm::Timer sharded_ingest;
  for (std::size_t b = 0; b < n; b += window) {
    sharded.InsertBatch(gkm::SliceRows(base, b, std::min(b + window, n)),
                        &pool, nullptr, nullptr, &sharded_ids);
  }
  const double sharded_ingest_secs = sharded_ingest.Seconds();

  std::vector<std::vector<gkm::Neighbor>> sharded_got(nq);
  gkm::Timer sharded_timer;
  for (std::size_t q = 0; q < nq; ++q) {
    sharded_got[q] = sharded.SearchKnn(queries.Row(q), topk, scratch);
  }
  const double sharded_secs = sharded_timer.Seconds();
  std::size_t sharded_hit = 0, sharded_want = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    sharded_want += truth[q].size();
    for (const gkm::Neighbor& t : truth[q]) {
      for (const gkm::Neighbor& g : sharded_got[q]) {
        if (g.id == sharded_ids[t.id]) {
          ++sharded_hit;
          break;
        }
      }
    }
  }
  const double sharded_recall =
      sharded_want == 0 ? 0.0
                        : static_cast<double>(sharded_hit) /
                              static_cast<double>(sharded_want);
  std::printf("\nsharded (S=4): ingest %.0f pts/s; %-10.3f %-10.0f "
              "(recall@10, QPS)\n",
              static_cast<double>(n) / sharded_ingest_secs, sharded_recall,
              static_cast<double>(nq) / sharded_secs);

  // Churn the sharded graph the same way: 30% out (by insertion identity),
  // purge, backfill.
  std::size_t sharded_removed = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (r % 10 < 3) {
      sharded.Remove({&sharded_ids[r], 1});
      ++sharded_removed;
    }
  }
  sharded.CompactTombstones();
  for (std::size_t b = 0; b < sharded_removed; b += window) {
    sharded.InsertBatch(
        gkm::SliceRows(refill.vectors, b,
                       std::min(b + window, sharded_removed)),
        &pool);
  }
  std::vector<std::uint32_t> sharded_alive_ids;
  gkm::Matrix sharded_alive(0, dim);
  for (std::uint32_t g = 0; g < sharded.size(); ++g) {
    if (!sharded.IsAlive(g)) continue;
    sharded_alive_ids.push_back(g);
    sharded_alive.AppendRow(sharded.Point(g));
  }
  const std::vector<std::vector<gkm::Neighbor>> sharded_churn_truth =
      gkm::BruteForceSearch(sharded_alive, queries, topk);
  std::size_t schurn_hit = 0, schurn_want = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    const auto got = sharded.SearchKnn(queries.Row(q), topk, scratch);
    schurn_want += sharded_churn_truth[q].size();
    for (const gkm::Neighbor& t : sharded_churn_truth[q]) {
      for (const gkm::Neighbor& g : got) {
        if (g.id == sharded_alive_ids[t.id]) {
          ++schurn_hit;
          break;
        }
      }
    }
  }
  const double sharded_churn_recall =
      schurn_want == 0 ? 0.0
                       : static_cast<double>(schurn_hit) /
                             static_cast<double>(schurn_want);
  std::printf("sharded (S=4) post-churn recall@10: %.3f (%zu alive, arena "
              "%zu)\n",
              sharded_churn_recall, sharded.num_alive(), sharded.size());

  // --- SQ8 quantized arena: the same workload with u8 row storage and
  // asymmetric (fp32 query vs u8 row) kernels. Ground truth is brute force
  // over the DECODED arena — the SQ8 contract is exactness against what
  // the arena stores; pool membership is where quantization error lives.
  // Quality bars: recall@10 >= 0.8 fresh and after the same 30% churn +
  // backfill cycle, arena bytes/point >= 3.5x smaller than fp32, serve QPS
  // >= 0.9x fp32 (timing ratio gated at the documented scale, like every
  // other perf ratio in these benches). ---
  gkm::OnlineGraphParams qp = p;
  qp.storage = gkm::StorageMode::kSq8;
  // The per-dimension quantizer trains on the bootstrap window. The graph
  // default (128 rows) is far too thin a sample for a 40-mode corpus at
  // d=32 — later rows clamp to the trained range and walk quality drops.
  // Train on 1k rows, the same order of magnitude the streaming clusterer's
  // bootstrap feeds it (StreamingGkMeans additionally retrains on drift).
  qp.bootstrap = 1024;
  gkm::OnlineKnnGraph qgraph(dim, qp);
  gkm::Timer sq8_ingest;
  for (std::size_t b = 0; b < n; b += window) {
    qgraph.InsertBatch(gkm::SliceRows(base, b, std::min(b + window, n)),
                       &pool);
  }
  const double sq8_ingest_secs = sq8_ingest.Seconds();

  const std::size_t fp32_bytes = graph.arena_bytes_per_point();
  const std::size_t sq8_bytes = qgraph.arena_bytes_per_point();
  const double arena_ratio =
      static_cast<double>(fp32_bytes) / static_cast<double>(sq8_bytes);

  gkm::Matrix decoded(0, dim);
  for (std::uint32_t id = 0; id < qgraph.size(); ++id) {
    decoded.AppendRow(qgraph.PointPtr(id));
  }
  const std::vector<std::vector<gkm::Neighbor>> sq8_truth =
      gkm::BruteForceSearch(decoded, queries, topk);
  std::vector<std::vector<gkm::Neighbor>> sq8_got(nq);
  gkm::Timer sq8_single;
  for (std::size_t q = 0; q < nq; ++q) {
    sq8_got[q] = qgraph.SearchKnn(queries.Row(q), topk, scratch);
  }
  const double sq8_single_secs = sq8_single.Seconds();
  const double sq8_recall = RecallAt10(sq8_got, sq8_truth);
  const double sq8_rerank_fraction =
      qgraph.sq8_scored() == 0
          ? 0.0
          : static_cast<double>(qgraph.sq8_reranked()) /
                static_cast<double>(qgraph.sq8_scored());

  std::printf("\nSQ8 arena: %zu B/pt vs fp32 %zu B/pt (%.2fx smaller); "
              "ingest %.0f pts/s (fp32 %.0f); rerank fraction %.3f\n",
              sq8_bytes, fp32_bytes, arena_ratio,
              static_cast<double>(n) / sq8_ingest_secs,
              static_cast<double>(n) / ingest_secs, sq8_rerank_fraction);
  std::printf("%-28s %-10.3f %-10.0f\n", "SQ8 SearchKnn (1 thread)",
              sq8_recall, static_cast<double>(nq) / sq8_single_secs);

  // Same churn cycle against the quantized arena: tombstone repair decodes
  // rows, slot reuse re-encodes in place, and walks stay quantized.
  std::size_t sq8_removed = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (id % 10 < 3) {
      qgraph.Remove({&id, 1});
      ++sq8_removed;
    }
  }
  qgraph.CompactTombstones();
  for (std::size_t b = 0; b < sq8_removed; b += window) {
    qgraph.InsertBatch(
        gkm::SliceRows(refill.vectors, b, std::min(b + window, sq8_removed)),
        &pool);
  }
  std::vector<std::uint32_t> sq8_alive_ids;
  gkm::Matrix sq8_alive(0, dim);
  for (std::uint32_t id = 0; id < qgraph.size(); ++id) {
    if (!qgraph.IsAlive(id)) continue;
    sq8_alive_ids.push_back(id);
    sq8_alive.AppendRow(qgraph.PointPtr(id));
  }
  const std::vector<std::vector<gkm::Neighbor>> sq8_churn_truth =
      gkm::BruteForceSearch(sq8_alive, queries, topk);
  std::size_t sq8_hit = 0, sq8_want = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    const auto got = qgraph.SearchKnn(queries.Row(q), topk, scratch);
    sq8_want += sq8_churn_truth[q].size();
    for (const gkm::Neighbor& t : sq8_churn_truth[q]) {
      for (const gkm::Neighbor& g : got) {
        if (g.id == sq8_alive_ids[t.id]) {
          ++sq8_hit;
          break;
        }
      }
    }
  }
  const double sq8_churn_recall =
      sq8_want == 0
          ? 0.0
          : static_cast<double>(sq8_hit) / static_cast<double>(sq8_want);
  std::printf("%-28s %-10.3f\n", "SQ8 SearchKnn post-churn", sq8_churn_recall);

  const double sq8_qps_ratio = single_secs / sq8_single_secs;
  const double sq8_ingest_ratio = ingest_secs / sq8_ingest_secs;

  // --- Cluster-routed sharding (S=4): the streaming clusterer homes every
  // cluster on one shard and inserts each point onto its nearest cluster's
  // home, so a routed query searches ONE shard (plus a margin-guarded
  // spill) instead of merging four. Same quality bar as merged search —
  // recall@10 >= 0.8 fresh and after the 30% churn cycle — with the
  // headline claim that routing answers >= 2x the merged QPS. ---
  gkm::StreamingGkMeansParams rp;
  rp.k = 16;
  rp.kappa = 16;
  rp.graph = p;
  rp.graph.shards = 4;
  rp.routed_placement = true;
  rp.migrate_budget = 2048;
  gkm::StreamingGkMeans routed_model(dim, rp);
  std::vector<std::uint32_t> routed_ids;
  routed_ids.reserve(n);
  gkm::Timer routed_ingest;
  for (std::size_t b = 0; b < n; b += window) {
    std::vector<std::uint32_t> ids;
    routed_model.ObserveWindow(
        gkm::SliceRows(base, b, std::min(b + window, n)), &ids);
    routed_ids.insert(routed_ids.end(), ids.begin(), ids.end());
  }
  const double routed_ingest_secs = routed_ingest.Seconds();
  const gkm::ShardedOnlineKnnGraph& rgraph = routed_model.graph();

  // One measurement pass: brute-force truth over the live arena, then the
  // merged and routed paths answer the same queries back to back.
  const auto measure_routed = [&](double* merged_qps, double* routed_qps,
                                  double* merged_recall,
                                  double* routed_recall) {
    std::vector<std::uint32_t> live_ids;
    gkm::Matrix live(0, dim);
    for (std::uint32_t g = 0; g < rgraph.size(); ++g) {
      if (!rgraph.IsAlive(g)) continue;
      live_ids.push_back(g);
      live.AppendRow(rgraph.Point(g));
    }
    const std::vector<std::vector<gkm::Neighbor>> live_truth =
        gkm::BruteForceSearch(live, queries, topk);
    const auto recall_of =
        [&](const std::vector<std::vector<gkm::Neighbor>>& got) {
          std::size_t r_hit = 0, r_want = 0;
          for (std::size_t q = 0; q < nq; ++q) {
            r_want += live_truth[q].size();
            for (const gkm::Neighbor& t : live_truth[q]) {
              for (const gkm::Neighbor& g : got[q]) {
                if (g.id == live_ids[t.id]) {
                  ++r_hit;
                  break;
                }
              }
            }
          }
          return r_want == 0 ? 0.0
                             : static_cast<double>(r_hit) /
                                   static_cast<double>(r_want);
        };
    const int reps = 3;  // timing resolution; answers are deterministic
    std::vector<std::vector<gkm::Neighbor>> merged_got(nq), routed_got(nq);
    gkm::SearchScratch rscratch;
    gkm::Timer merged_timer;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t q = 0; q < nq; ++q) {
        merged_got[q] = rgraph.SearchKnn(queries.Row(q), topk, rscratch);
      }
    }
    *merged_qps = reps * static_cast<double>(nq) / merged_timer.Seconds();
    gkm::Timer routed_timer;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t q = 0; q < nq; ++q) {
        routed_got[q] = rgraph.SearchKnnRouted(queries.Row(q), topk, rscratch);
      }
    }
    *routed_qps = reps * static_cast<double>(nq) / routed_timer.Seconds();
    *merged_recall = recall_of(merged_got);
    *routed_recall = recall_of(routed_got);
  };

  double merged_qps = 0.0, routed_qps = 0.0;
  double merged_recall = 0.0, routed_recall = 0.0;
  measure_routed(&merged_qps, &routed_qps, &merged_recall, &routed_recall);
  const double spill_rate =
      rgraph.route_hits() + rgraph.route_spills() == 0
          ? 0.0
          : static_cast<double>(rgraph.route_spills()) /
                static_cast<double>(rgraph.route_hits() +
                                    rgraph.route_spills());
  std::printf("\nrouted (S=4, k=%zu): ingest %.0f pts/s, spill rate %.3f\n",
              rp.k, static_cast<double>(n) / routed_ingest_secs, spill_rate);
  std::printf("%-28s %-10.3f %-10.0f\n", "merged SearchKnn (S=4)",
              merged_recall, merged_qps);
  std::printf("%-28s %-10.3f %-10.0f\n", "routed SearchKnn (S=4)",
              routed_recall, routed_qps);

  // Same churn cycle through the clusterer: 30% removed by insertion
  // identity, backfilled through windowed ingest (routed placement, TTL
  // clocks and the migration sweep all exercised).
  std::size_t routed_removed = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (r % 10 < 3 && rgraph.IsAlive(routed_ids[r])) {
      routed_model.RemovePoint(routed_ids[r]);
      ++routed_removed;
    }
  }
  for (std::size_t b = 0; b < routed_removed; b += window) {
    routed_model.ObserveWindow(gkm::SliceRows(
        refill.vectors, b, std::min(b + window, routed_removed)));
  }
  double churn_merged_qps = 0.0, churn_routed_qps = 0.0;
  double churn_merged_recall = 0.0, churn_routed_recall = 0.0;
  measure_routed(&churn_merged_qps, &churn_routed_qps, &churn_merged_recall,
                 &churn_routed_recall);
  const double routed_qps_ratio = routed_qps / merged_qps;
  std::printf("%-28s %-10.3f %-10.0f\n", "merged post-churn (S=4)",
              churn_merged_recall, churn_merged_qps);
  std::printf("%-28s %-10.3f %-10.0f\n", "routed post-churn (S=4)",
              churn_routed_recall, churn_routed_qps);

  // Element-wise determinism: pooled serving with per-slot scratch must
  // return exactly the serial answers, not merely the same recall — and
  // the batch API must be a pure lock-amortization of the per-query path.
  const bool pool_identical = parallel == online;
  const bool batch_identical = batched == online;
  const bool arena_dense = graph.size() == n && graph.num_alive() == n;
  std::printf("\nshape checks:\n");
  std::printf("  online recall@10 >= 0.8:  %s\n",
              online_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  pool results match serial: %s\n",
              pool_identical ? "PASS" : "FAIL");
  std::printf("  batch results match serial: %s\n",
              batch_identical ? "PASS" : "FAIL");
  std::printf("  post-churn recall@10 >= 0.8 (30%% churn): %s\n",
              churn_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  slot reuse keeps arena dense: %s\n",
              arena_dense ? "PASS" : "FAIL");
  std::printf("  sharded (S=4) recall@10 >= 0.8 fresh:     %s\n",
              sharded_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  sharded (S=4) recall@10 >= 0.8 post-churn: %s\n",
              sharded_churn_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  SQ8 arena >= 3.5x smaller:  %s (%.2fx)\n",
              arena_ratio >= 3.5 ? "PASS" : "FAIL", arena_ratio);
  std::printf("  SQ8 recall@10 >= 0.8 fresh: %s\n",
              sq8_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  SQ8 recall@10 >= 0.8 post-churn: %s\n",
              sq8_churn_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  routed (S=4) recall@10 >= 0.8 fresh:     %s\n",
              routed_recall >= 0.8 ? "PASS" : "FAIL");
  std::printf("  routed (S=4) recall@10 >= 0.8 post-churn: %s\n",
              churn_routed_recall >= 0.8 ? "PASS" : "FAIL");
  // Timing ratios are only meaningful at the documented scale on a real
  // multi-core box; CI smoke runs (GKM_SCALE < 1) report but don't gate,
  // matching the speedup-floor pattern in stream_throughput.
  const std::size_t cores = std::thread::hardware_concurrency();
  const bool can_gate_sq8_qps = cores >= 4 && gkm::bench::Scale() >= 1.0;
  bool sq8_qps_ok = true;
  if (can_gate_sq8_qps) {
    sq8_qps_ok = sq8_qps_ratio >= 0.9;
    std::printf("  SQ8 serve QPS >= 0.9x fp32: %s (%.2fx)\n",
                sq8_qps_ok ? "PASS" : "FAIL", sq8_qps_ratio);
  } else {
    std::printf("  SQ8 serve QPS >= 0.9x fp32: SKIPPED "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), sq8_qps_ratio);
  }
  bool routed_qps_ok = true;
  if (can_gate_sq8_qps) {
    routed_qps_ok = routed_qps_ratio >= 2.0;
    std::printf("  routed QPS >= 2.0x merged (S=4): %s (%.2fx)\n",
                routed_qps_ok ? "PASS" : "FAIL", routed_qps_ratio);
  } else {
    std::printf("  routed QPS >= 2.0x merged (S=4): SKIPPED "
                "(need >= 4 cores and GKM_SCALE >= 1; %zu cores, scale "
                "%.2g; measured %.2fx)\n",
                cores, gkm::bench::Scale(), routed_qps_ratio);
  }
  const bool pass = online_recall >= 0.8 && pool_identical &&
                    batch_identical && churn_recall >= 0.8 && arena_dense &&
                    sharded_recall >= 0.8 && sharded_churn_recall >= 0.8 &&
                    arena_ratio >= 3.5 && sq8_recall >= 0.8 &&
                    sq8_churn_recall >= 0.8 && sq8_qps_ok &&
                    routed_recall >= 0.8 && churn_routed_recall >= 0.8 &&
                    routed_qps_ok;

  gkm::bench::JsonReport report("online_search");
  report.Add("n", static_cast<double>(n));
  report.Add("num_queries", static_cast<double>(nq));
  report.Add("ingest_pts_per_sec", static_cast<double>(n) / ingest_secs);
  report.Add("recall_at_10", online_recall);
  report.Add("qps", static_cast<double>(nq) / single_secs);
  report.Add("qps_batch64", static_cast<double>(nq) / batched_secs);
  report.Add("qps_pool", static_cast<double>(nq) / multi_secs);
  report.Add("p50_us", query_lat.Quantile(0.5));
  report.Add("p99_us", query_lat.Quantile(0.99));
  report.Add("recall_at_10_post_churn", churn_recall);
  report.Add("recall_at_10_sharded", sharded_recall);
  report.Add("arena_bytes_per_point", static_cast<double>(sq8_bytes));
  report.Add("arena_bytes_per_point_fp32", static_cast<double>(fp32_bytes));
  report.Add("sq8_arena_ratio", arena_ratio);
  report.Add("sq8_rerank_fraction", sq8_rerank_fraction);
  report.Add("recall_at_10_sq8", sq8_recall);
  report.Add("recall_at_10_sq8_post_churn", sq8_churn_recall);
  report.Add("qps_sq8", static_cast<double>(nq) / sq8_single_secs);
  report.Add("sq8_qps_ratio", sq8_qps_ratio);
  report.Add("sq8_ingest_ratio", sq8_ingest_ratio);
  report.Add("recall_at_10_routed", routed_recall);
  report.Add("recall_at_10_routed_post_churn", churn_routed_recall);
  report.Add("qps_routed", routed_qps);
  report.Add("qps_merged_s4", merged_qps);
  report.Add("routed_qps_ratio", routed_qps_ratio);
  report.Add("route_spill_rate", spill_rate);
  report.Add("pass", pass ? 1.0 : 0.0);
  report.Write();

  return pass ? 0 : 1;
}
