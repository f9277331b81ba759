// Copyright 2026 The gkmeans Authors.
// GK-means (Alg. 2) — the paper's primary contribution. Boost k-means in
// which a sample is compared only against the clusters where its κ nearest
// graph neighbors currently reside, making the per-sample cost O(κ d)
// instead of O(k d) and the overall epoch cost independent of k.
//
// Two modes are provided, matching §4.2:
//   * BKM mode (default): candidates scored by the Delta-I move gain;
//     immediate (incremental) moves. The standard "GK-means" run.
//   * Traditional mode: candidates scored by centroid distance with batch
//     Lloyd updates. The "GK-means minus" run of the configuration test
//     (Fig. 4), kept for completeness and ablation.

#ifndef GKM_CORE_GK_MEANS_H_
#define GKM_CORE_GK_MEANS_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/knn_graph.h"
#include "kmeans/types.h"

namespace gkm {

/// Options for GK-means proper (graph already available).
struct GkMeansParams {
  std::size_t k = 8;
  std::size_t kappa = 50;        ///< neighbors harvested per sample (κ, §4.4)
  std::size_t max_iters = 30;    ///< epochs; stops earlier on convergence
  bool traditional = false;      ///< true = GK-means⁻ (Lloyd-style updates)
  std::size_t bisect_epochs = 6; ///< BKM-2 epochs inside the 2M-tree init
  std::uint64_t seed = 42;
};

/// The start Alg. 2 continues from: the 2M tree's labels, plus the Rng
/// state the BKM epochs draw from next. Both come from one Rng(seed), the
/// tree first, so a start reads `data` and never the graph: Alg. 3 builds
/// every round's start ahead of the round that needs it.
struct GkStart {
  std::vector<std::uint32_t> labels;
  Rng rng;
  /// What obtaining the start cost the caller's clock: the tree's build
  /// time when built inline, the wait when built ahead. Counted in the
  /// run's init_seconds.
  double seconds = 0.0;
};

/// Builds the 2M tree of `params.k` leaves from Rng(params.seed).
GkStart MakeGkStart(const Matrix& data, const GkMeansParams& params);

/// Runs Alg. 2 on `data` from `start`, with candidate clusters harvested
/// from `graph`. `graph` must span exactly data.rows() nodes. The graph's
/// out-degree may exceed `kappa`; only the `kappa` closest neighbors are
/// consulted, read in place from the graph's sorted rows. `params.seed` is
/// not read: the start carries the randomness. `pool`, when given, runs
/// every epoch after the first in DeltaIEpochs' blocks
/// (core/candidate_harvest.h): labels, distortion and trace equal the
/// pool-less run's, and work counts are the same at any pool size.
ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params, GkStart start,
                                  ThreadPool* pool = nullptr);

/// Runs Alg. 2 from MakeGkStart(data, params).
ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params);

}  // namespace gkm

#endif  // GKM_CORE_GK_MEANS_H_
