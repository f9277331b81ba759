// Copyright 2026 The gkmeans Authors.

#include "core/gk_means.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/distance.h"
#include "common/kernels.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/candidate_harvest.h"
#include "kmeans/cluster_state.h"
#include "kmeans/two_means_tree.h"
#include "obs/trace.h"

namespace gkm {

namespace {

/// Hints every cache line of [p, p + bytes) into the cache.
inline void PrefetchBytes(const void* p, std::size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(c + off);
  __builtin_prefetch(c + bytes - 1);
}

/// DeltaIEpochs' view of a batch: the data rows with their precomputed
/// norms, the static graph's rows read in place, and the label vector.
struct BatchView {
  const Matrix& data;
  const std::vector<float>& norms;
  const KnnGraph& graph;
  const std::vector<std::uint32_t>& labels;
  std::size_t kappa;

  std::pair<const float*, float> Point(std::uint32_t i) const {
    return {data.Row(i), norms[i]};
  }
  std::span<const Neighbor> Neighbors(std::uint32_t i) const {
    return graph.NeighborsOf(i);
  }
  const std::vector<std::uint32_t>& HarvestLabels(std::uint32_t) const {
    return labels;
  }
  void OnMove(std::uint32_t, std::uint32_t) {}
  void Prefetch(std::uint32_t i) const {
    PrefetchBytes(data.Row(i), data.cols() * sizeof(float));
    // A row holds graph.k() >= kappa slots, so its first kappa are in
    // bounds however many of them are filled.
    PrefetchBytes(graph.NeighborsOf(i).data(), kappa * sizeof(Neighbor));
  }
};

}  // namespace

GkStart MakeGkStart(const Matrix& data, const GkMeansParams& params) {
  GKM_TRACE_SPAN("core.two_means_tree");
  Timer timer;
  GkStart start{{}, Rng(params.seed)};
  TwoMeansParams tree;
  tree.k = params.k;
  tree.bisect_epochs = params.bisect_epochs;
  start.labels = TwoMeansTree(data, tree, start.rng);
  start.seconds = timer.Seconds();
  return start;
}

ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params) {
  return GkMeansWithGraph(data, graph, params, MakeGkStart(data, params));
}

ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params, GkStart start,
                                  ThreadPool* pool) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  const std::size_t k = params.k;
  GKM_CHECK(k > 0 && k <= n);
  GKM_CHECK_MSG(graph.num_nodes() == n, "graph/data size mismatch");
  GKM_CHECK(params.kappa > 0);
  GKM_CHECK_MSG(start.labels.size() == n, "start/data size mismatch");

  ClusteringResult res;
  res.method = params.traditional ? "gk-means-" : "gk-means";
  Rng& rng = start.rng;
  std::vector<std::uint32_t>& labels = start.labels;

  // The run's clock starts when obtaining the start did.
  Timer timer;
  const auto elapsed = [&] { return start.seconds + timer.Seconds(); };
  // The graph is static during batch clustering: epochs read its sorted
  // rows in place.
  const std::size_t kappa = std::min(params.kappa, graph.k());

  ClusterState state(data, labels, k);
  std::vector<float> norms(n);
  RowNormsSqr(data, norms.data());

  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  res.init_seconds = elapsed();

  Timer iter_timer;
  if (!params.traditional) {
    // --- BKM mode: incremental Delta-I moves over harvested candidates.
    // The first epoch moves about half the points, so most block
    // decisions would go stale: it runs inline, as do all epochs without
    // a pool. ---
    DeltaIStayCache stays;
    DeltaIEpochs<BatchView> epochs({data, norms, graph, labels, kappa}, kappa,
                                   pool, state, labels, stays);
    for (std::size_t it = 0; it < params.max_iters; ++it) {
      rng.Shuffle(order);
      const std::size_t moves = epochs.Run(order, it == 0);
      res.trace.push_back(
          IterStat{it, state.Distortion(), elapsed(), moves});
      res.iterations = it + 1;
      if (moves == 0) break;
    }
    res.work = epochs.work();
  } else {
    // --- Traditional mode (GK-means⁻): nearest candidate centroid with
    // batch Lloyd updates. ---
    std::vector<std::uint32_t> stamp(k, 0);
    std::uint32_t cur_stamp = 0;
    std::vector<std::uint32_t> cand;
    cand.reserve(kappa + 1);
    Matrix centroids = state.Centroids();
    std::vector<const float*> cand_rows;
    std::vector<float> cand_dist;
    for (std::size_t it = 0; it < params.max_iters; ++it) {
      std::size_t moves = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t u = labels[i];
        // The current cluster competes too, listed first so a tie stays.
        HarvestCandidates(graph.NeighborsOf(i), kappa, labels, u, stamp,
                          ++cur_stamp, cand);
        cand.insert(cand.begin(), u);
        // One gathered batch over the harvested candidate centroids.
        const float* x = data.Row(i);
        cand_rows.clear();
        for (const std::uint32_t v : cand) cand_rows.push_back(centroids.Row(v));
        cand_dist.resize(cand.size());
        L2SqrBatchGather(x, cand_rows.data(), cand.size(), d,
                         cand_dist.data());
        float best_dist = std::numeric_limits<float>::max();
        std::uint32_t best_v = u;
        for (std::size_t ci = 0; ci < cand.size(); ++ci) {
          if (cand_dist[ci] < best_dist) {
            best_dist = cand_dist[ci];
            best_v = cand[ci];
          }
        }
        if (best_v != u) {
          ++moves;
          labels[i] = best_v;
        }
      }
      state.Rebuild(data, labels);
      centroids = state.Centroids();
      res.trace.push_back(
          IterStat{it, state.Distortion(), elapsed(), moves});
      res.iterations = it + 1;
      if (moves == 0) break;
    }
  }
  res.iter_seconds = iter_timer.Seconds();
  res.total_seconds = elapsed();

  res.distortion = state.Distortion();
  res.centroids = state.Centroids();
  res.assignments = std::move(labels);
  return res;
}

}  // namespace gkm
