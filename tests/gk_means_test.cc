// Copyright 2026 The gkmeans Authors.
// Tests for GK-means (Alg. 2): contract, monotone objective in BKM mode,
// quality close to full BKM when the graph is exact, degradation to the
// init when the graph is useless, and the GK-means⁻ variant.

#include "core/gk_means.h"

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"
#include "kmeans/boost_kmeans.h"

namespace gkm {
namespace {

SyntheticData SmallData(std::size_t n = 600, std::uint64_t seed = 100) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 10;
  spec.modes = 15;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

TEST(GkMeansTest, BasicContract) {
  const SyntheticData data = SmallData();
  const KnnGraph graph = BruteForceGraph(data.vectors, 10);
  GkMeansParams p;
  p.k = 20;
  p.kappa = 10;
  const ClusteringResult res = GkMeansWithGraph(data.vectors, graph, p);
  EXPECT_EQ(res.method, "gk-means");
  EXPECT_EQ(res.assignments.size(), 600u);
  EXPECT_EQ(res.centroids.rows(), 20u);
  for (const auto a : res.assignments) EXPECT_LT(a, 20u);
}

TEST(GkMeansTest, DistortionMonotoneInBkmMode) {
  const SyntheticData data = SmallData();
  const KnnGraph graph = BruteForceGraph(data.vectors, 10);
  GkMeansParams p;
  p.k = 25;
  p.kappa = 10;
  p.max_iters = 20;
  const ClusteringResult res = GkMeansWithGraph(data.vectors, graph, p);
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    EXPECT_LE(res.trace[i].distortion, res.trace[i - 1].distortion + 1e-9);
  }
}

TEST(GkMeansTest, WithExactGraphNearBkmQuality) {
  // With a perfect graph and enough neighbors, the candidate pruning loses
  // almost nothing versus scanning all k clusters (the Fig. 5 claim).
  const SyntheticData data = SmallData(700, 101);
  const KnnGraph graph = BruteForceGraph(data.vectors, 15);
  GkMeansParams gp;
  gp.k = 20;
  gp.kappa = 15;
  gp.max_iters = 40;
  const double gk = GkMeansWithGraph(data.vectors, graph, gp).distortion;
  BkmParams bp;
  bp.k = 20;
  bp.max_iters = 40;
  const double bkm = BoostKMeans(data.vectors, bp).distortion;
  EXPECT_LT(gk, 1.10 * bkm);
}

TEST(GkMeansTest, NeverEmptiesClustersInBkmMode) {
  const SyntheticData data = SmallData(300, 102);
  const KnnGraph graph = BruteForceGraph(data.vectors, 8);
  GkMeansParams p;
  p.k = 60;
  p.kappa = 8;
  const ClusteringResult res = GkMeansWithGraph(data.vectors, graph, p);
  EXPECT_EQ(SummarizeClusterSizes(res.assignments, 60).empty, 0u);
}

TEST(GkMeansTest, TraditionalModeRuns) {
  const SyntheticData data = SmallData(400, 103);
  const KnnGraph graph = BruteForceGraph(data.vectors, 10);
  GkMeansParams p;
  p.k = 16;
  p.kappa = 10;
  p.traditional = true;
  const ClusteringResult res = GkMeansWithGraph(data.vectors, graph, p);
  EXPECT_EQ(res.method, "gk-means-");
  EXPECT_EQ(res.assignments.size(), 400u);
  ASSERT_GE(res.trace.size(), 2u);
  EXPECT_LT(res.trace.back().distortion, res.trace.front().distortion * 1.01);
}

TEST(GkMeansTest, BkmModeBeatsTraditionalMode) {
  // The Fig. 4 configuration-test claim: GK-means (BKM engine) converges
  // to lower distortion than GK-means⁻ (traditional engine).
  const SyntheticData data = SmallData(700, 104);
  const KnnGraph graph = BruteForceGraph(data.vectors, 12);
  double bkm_total = 0.0, trad_total = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    GkMeansParams p;
    p.k = 20;
    p.kappa = 12;
    p.max_iters = 30;
    p.seed = s;
    p.traditional = false;
    bkm_total += GkMeansWithGraph(data.vectors, graph, p).distortion;
    p.traditional = true;
    trad_total += GkMeansWithGraph(data.vectors, graph, p).distortion;
  }
  EXPECT_LT(bkm_total, trad_total);
}

TEST(GkMeansTest, HonorsStartLabels) {
  const SyntheticData data = SmallData(100, 105);
  const KnnGraph graph = BruteForceGraph(data.vectors, 5);
  GkMeansParams p;
  p.k = 4;
  p.kappa = 5;
  p.max_iters = 0;
  GkStart start;
  start.labels.assign(100, 0);
  for (std::size_t i = 0; i < 100; ++i) {
    start.labels[i] = static_cast<std::uint32_t>(i % 4);
  }
  const std::vector<std::uint32_t> want = start.labels;
  const ClusteringResult res =
      GkMeansWithGraph(data.vectors, graph, p, std::move(start));
  EXPECT_EQ(res.assignments, want);
}

// The three-argument call is the start overload fed by MakeGkStart.
TEST(GkMeansTest, DefaultStartIsMakeGkStart) {
  const SyntheticData data = SmallData(300, 108);
  const KnnGraph graph = BruteForceGraph(data.vectors, 8);
  GkMeansParams p;
  p.k = 12;
  p.kappa = 8;
  p.seed = 9;
  const ClusteringResult a = GkMeansWithGraph(data.vectors, graph, p);
  const ClusteringResult b =
      GkMeansWithGraph(data.vectors, graph, p, MakeGkStart(data.vectors, p));
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.distortion, b.distortion);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(GkMeansTest, KappaLargerThanGraphDegreeIsClamped) {
  const SyntheticData data = SmallData(200, 106);
  const KnnGraph graph = BruteForceGraph(data.vectors, 5);
  GkMeansParams p;
  p.k = 10;
  p.kappa = 50;  // graph only holds 5
  const ClusteringResult res = GkMeansWithGraph(data.vectors, graph, p);
  EXPECT_EQ(res.assignments.size(), 200u);
}

TEST(GkMeansTest, DeterministicForSeed) {
  const SyntheticData data = SmallData(250, 107);
  const KnnGraph graph = BruteForceGraph(data.vectors, 8);
  GkMeansParams p;
  p.k = 12;
  p.kappa = 8;
  p.seed = 77;
  EXPECT_EQ(GkMeansWithGraph(data.vectors, graph, p).assignments,
            GkMeansWithGraph(data.vectors, graph, p).assignments);
}

}  // namespace
}  // namespace gkm
