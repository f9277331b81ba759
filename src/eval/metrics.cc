// Copyright 2026 The gkmeans Authors.

#include "eval/metrics.h"

#include <algorithm>

#include "common/distance.h"
#include "common/kernels.h"
#include "common/macros.h"

namespace gkm {

double AverageDistortion(const Matrix& data,
                         const std::vector<std::uint32_t>& labels,
                         std::size_t k) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  GKM_CHECK(labels.size() == n);
  GKM_CHECK(n > 0);
  std::vector<double> sums(k * d, 0.0);
  std::vector<std::uint32_t> counts(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    GKM_CHECK(labels[i] < k);
    const float* x = data.Row(i);
    double* s = sums.data() + labels[i] * d;
    for (std::size_t j = 0; j < d; ++j) s[j] += x[j];
    ++counts[labels[i]];
  }
  Matrix centroids(k, d);
  for (std::size_t r = 0; r < k; ++r) {
    if (counts[r] == 0) continue;
    const double inv = 1.0 / counts[r];
    float* c = centroids.Row(r);
    const double* s = sums.data() + r * d;
    for (std::size_t j = 0; j < d; ++j) c[j] = static_cast<float>(s[j] * inv);
  }
  return Inertia(data, centroids, labels);
}

double Inertia(const Matrix& data, const Matrix& centroids,
               const std::vector<std::uint32_t>& labels) {
  GKM_CHECK(labels.size() == data.rows());
  // Grouped one-to-many batches: each centroid is the shared query, its
  // members the gathered rows. Per-pair float distances are bit-identical
  // to the scalar loop; only the double accumulation order changes (by
  // cluster instead of by row), which moves the total by O(1e-12)
  // relative — far inside every consumer's tolerance.
  const std::size_t k = centroids.rows();
  std::vector<std::vector<const float*>> members(k);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    GKM_CHECK(labels[i] < k);
    members[labels[i]].push_back(data.Row(i));
  }
  double total = 0.0;
  std::vector<float> dist;
  for (std::size_t r = 0; r < k; ++r) {
    if (members[r].empty()) continue;
    dist.resize(members[r].size());
    L2SqrBatchGather(centroids.Row(r), members[r].data(), members[r].size(),
                     data.cols(), dist.data());
    for (const float v : dist) total += v;
  }
  return total / static_cast<double>(data.rows());
}

double GraphRecallAt1(const KnnGraph& graph, const KnnGraph& truth) {
  return GraphRecallAtK(graph, truth, 1);
}

double GraphRecallAtK(const KnnGraph& graph, const KnnGraph& truth,
                      std::size_t at) {
  const std::size_t n = graph.num_nodes();
  GKM_CHECK(truth.num_nodes() == n);
  GKM_CHECK(at > 0);
  GKM_CHECK_MSG(truth.k() >= at, "ground truth is shallower than `at`");
  double hits = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Neighbor> true_top = truth.SortedNeighbors(i);
    const std::span<const Neighbor> approx = graph.NeighborsOf(i);
    std::size_t found = 0;
    const std::size_t limit = std::min(at, true_top.size());
    for (std::size_t r = 0; r < limit; ++r) {
      const std::uint32_t want = true_top[r].id;
      for (const Neighbor& nb : approx) {
        if (nb.id == want) {
          ++found;
          break;
        }
      }
    }
    hits += static_cast<double>(found) / static_cast<double>(at);
  }
  return hits / static_cast<double>(n);
}

double SampledRecallAt1(const KnnGraph& graph,
                        const std::vector<std::uint32_t>& subset,
                        const std::vector<std::uint32_t>& truth_ids) {
  GKM_CHECK(subset.size() == truth_ids.size());
  GKM_CHECK(!subset.empty());
  double hits = 0.0;
  for (std::size_t s = 0; s < subset.size(); ++s) {
    for (const Neighbor& nb : graph.NeighborsOf(subset[s])) {
      if (nb.id == truth_ids[s]) {
        hits += 1.0;
        break;
      }
    }
  }
  return hits / static_cast<double>(subset.size());
}

std::vector<double> CoOccurrenceByRank(const KnnGraph& truth,
                                       const std::vector<std::uint32_t>& labels,
                                       std::size_t max_rank) {
  const std::size_t n = truth.num_nodes();
  GKM_CHECK(labels.size() == n);
  GKM_CHECK_MSG(truth.k() >= max_rank, "need a deep enough exact graph");
  std::vector<double> prob(max_rank, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Neighbor> sorted = truth.SortedNeighbors(i);
    const std::size_t limit = std::min(max_rank, sorted.size());
    for (std::size_t r = 0; r < limit; ++r) {
      if (labels[sorted[r].id] == labels[i]) prob[r] += 1.0;
    }
  }
  for (double& p : prob) p /= static_cast<double>(n);
  return prob;
}

ClusterSizeStats SummarizeClusterSizes(const std::vector<std::uint32_t>& labels,
                                       std::size_t k) {
  std::vector<std::size_t> counts(k, 0);
  for (const std::uint32_t l : labels) {
    GKM_CHECK(l < k);
    ++counts[l];
  }
  ClusterSizeStats stats;
  stats.min = *std::min_element(counts.begin(), counts.end());
  stats.max = *std::max_element(counts.begin(), counts.end());
  stats.mean = static_cast<double>(labels.size()) / static_cast<double>(k);
  stats.empty = static_cast<std::size_t>(
      std::count(counts.begin(), counts.end(), std::size_t{0}));
  return stats;
}

}  // namespace gkm
