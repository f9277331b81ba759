// Copyright 2026 The gkmeans Authors.
// Result and trace types shared by every clustering algorithm in the
// library, so benches can treat Lloyd / BKM / Mini-Batch / closure /
// GK-means uniformly.

#ifndef GKM_KMEANS_TYPES_H_
#define GKM_KMEANS_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace gkm {

/// Distortion/time pair recorded after each iteration — the raw series
/// behind the paper's Fig. 5 plots.
struct IterStat {
  std::size_t iteration = 0;
  double distortion = 0.0;     ///< E of Eqn. 4 at the end of this iteration
  double elapsed_seconds = 0.0;///< cumulative wall-clock since algorithm start
  std::size_t moves = 0;       ///< samples that changed cluster this iteration
};

/// Output of a clustering run.
struct ClusteringResult {
  std::vector<std::uint32_t> assignments;  ///< cluster id per input row
  Matrix centroids;                        ///< k x d cluster means
  double distortion = 0.0;                 ///< final E (Eqn. 4)
  std::size_t iterations = 0;              ///< iterations actually executed
  double init_seconds = 0.0;               ///< seeding / graph / tree time
  double iter_seconds = 0.0;               ///< optimization loop time
  double total_seconds = 0.0;              ///< init + iter
  std::vector<IterStat> trace;             ///< per-iteration series
  std::string method;                      ///< identifier for reports
  /// GK-means BKM work counts (zero for every other method). Each Δ-I
  /// visit is exactly one of the three, and all three are exact for a
  /// fixed input: they do not depend on the pool's size (≥ 1 worker).
  std::size_t cached_stays = 0;          ///< stays reused, nothing scored
  std::size_t proposals_committed = 0;   ///< decisions committed as computed
  std::size_t proposals_recomputed = 0;  ///< decisions gone stale, redone
};

}  // namespace gkm

#endif  // GKM_KMEANS_TYPES_H_
