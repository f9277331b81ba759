// Copyright 2026 The gkmeans Authors.
// KNN-graph construction with fast k-means (Alg. 3) — the paper's secondary
// contribution and the default graph supplier for GK-means.
//
// Starting from a random graph, each of the τ rounds (i) partitions the
// data into k0 = ⌊n/ξ⌋ small clusters by calling the fast k-means itself
// (2M-tree init + one graph-guided BKM epoch, guided by the *current*
// graph), then (ii) exhaustively compares points inside every cluster and
// refreshes the KNN lists with any closer pairs found. Graph quality and
// partition quality improve alternately (Fig. 3); unlike NN-Descent the
// resulting graph carries the intermediate clustering structure, which is
// why it yields lower final clustering distortion at equal recall (Fig. 4).
//
// Threading. A round's 2M tree reads only the data and a seed drawn from
// the builder's Rng, never the graph, so all τ trees are queued on a
// thread pool and built ahead of the rounds that need them; the random
// init's candidates are drawn before the seeds and scored while tree 0
// builds. A round's clusters partition the nodes and each cluster's join
// writes only its members' lists, so the joins run side by side on a
// second pool. Each round runs one graph-guided Δ-I epoch over the graph's
// sorted rows, read in place, and GkMeansWithGraph runs a call's first
// epoch inline, so the epochs stay on the calling thread, in round order;
// the final clustering's later epochs go to the tree pool
// (core/gk_means.h). Every list sees the same offers in the same order
// whatever the pools' sizes, so the graph, the per-round stats and every
// label are bit-identical at any thread count.

#ifndef GKM_CORE_GRAPH_BUILDER_H_
#define GKM_CORE_GRAPH_BUILDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/thread_pool.h"
#include "core/gk_means.h"
#include "graph/knn_graph.h"

namespace gkm {

/// Options for Alg. 3. Paper defaults (§4.4): τ=10, ξ=50, κ=50.
struct GraphBuildParams {
  std::size_t kappa = 50;         ///< graph out-degree κ
  std::size_t xi = 50;            ///< target cluster size ξ (range [40,100])
  std::size_t tau = 10;           ///< evolution rounds τ (up to ~32 for ANNS)
  std::size_t inner_epochs = 1;   ///< graph-guided epochs per round (paper: 1)
  std::size_t bisect_epochs = 4;  ///< BKM-2 epochs inside each 2M-tree call
  /// Extension beyond the paper (which fixes τ): when > 0, construction
  /// stops as soon as a round changes fewer than early_stop_delta * n * κ
  /// list entries — the update-rate criterion NN-Descent uses. τ remains
  /// the hard cap.
  double early_stop_delta = 0.0;
  std::uint64_t seed = 42;
  /// Threads of the whole build: the pool that builds the rounds' 2M
  /// trees ahead gets one worker per thread beyond the caller's, and the
  /// pool that runs each round's joins gets one per thread. 0 means all
  /// hardware threads; 1 runs every phase inline, in round order. An
  /// execution knob only: the graph is bit-identical at any value.
  std::size_t threads = 0;
};

/// Per-round measurements (the series of Fig. 2).
struct GraphBuildStats {
  std::vector<double> round_distortion;  ///< E of the round's k0-clustering
  std::vector<double> round_seconds;     ///< cumulative wall-clock per round
  std::vector<std::size_t> round_updates;///< KNN-list entries changed per round
};

/// Observer invoked after every round with the evolving graph (used by the
/// Fig. 2 bench to track recall against a sampled ground truth).
using RoundObserver = std::function<void(std::size_t round, const KnnGraph&)>;

/// Builds an approximate KNN graph over `data` (Alg. 3), on pools sized by
/// `params.threads`.
KnnGraph BuildKnnGraph(const Matrix& data, const GraphBuildParams& params,
                       GraphBuildStats* stats = nullptr,
                       const RoundObserver& observer = {});

/// The pool that builds `trees` 2M trees ahead for `threads` threads (the
/// GraphBuildParams::threads convention): one worker per thread beyond
/// the caller's, capped at `trees`. Null when there is no worker to add.
std::unique_ptr<ThreadPool> MakeTreePool(std::size_t threads,
                                         std::size_t trees);

/// The start of one Alg. 2 call (MakeGkStart), built ahead on a pool once
/// queued, or inline by Take when never queued. Destroying a handle drops
/// a build no worker has begun and waits for one that is running, so
/// `data` need only outlive the handle.
class PendingStart {
 public:
  PendingStart(const Matrix& data, const GkMeansParams& params);
  PendingStart(PendingStart&&) noexcept = default;
  PendingStart& operator=(PendingStart&&) = delete;
  ~PendingStart();

  /// Submits the build to `pool`; nullptr leaves it to Take. At most once.
  void Queue(ThreadPool* pool);

  /// Hands over the start, waiting for a queued build to finish. Once only.
  GkStart Take();

 private:
  class Build;  // state shared with the pool task

  const Matrix* data_;
  GkMeansParams params_;
  std::shared_ptr<Build> build_;  // null until queued on a pool
};

/// BuildKnnGraph on a caller's tree pool (nullptr: every tree inline, in
/// round order); the pool for joins is still the call's own.
/// `then`, when given, is queued on the tree pool right behind the τ round
/// trees: GkMeansCluster overlaps its final clustering's tree with the
/// last rounds this way.
KnnGraph BuildKnnGraph(const Matrix& data, const GraphBuildParams& params,
                       GraphBuildStats* stats, const RoundObserver& observer,
                       ThreadPool* pool, PendingStart* then);

}  // namespace gkm

#endif  // GKM_CORE_GRAPH_BUILDER_H_
