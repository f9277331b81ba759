// Copyright 2026 The gkmeans Authors.
// Tests for the end-to-end GK-means pipeline, including the batch golden:
// hashes of the graph bytes, labels and distortion bits of a fixed input,
// captured from the serial pipeline. Any change to the batch path's
// arithmetic or its RNG draws shows up here as a hash mismatch.
//
// Run with GKM_PRINT_GOLDEN=1 to print the values of the current build
// (used to re-capture the golden after an *intentional* semantic change).

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "kmeans/lloyd.h"

namespace gkm {
namespace {

SyntheticData SmallData(std::size_t n = 600, std::uint64_t seed = 120) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 12;
  spec.modes = 15;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

TEST(PipelineTest, EndToEndContract) {
  const SyntheticData data = SmallData();
  PipelineParams p;
  p.k = 20;
  p.graph.kappa = 10;
  p.graph.xi = 25;
  p.graph.tau = 4;
  p.clustering.kappa = 10;
  const PipelineResult res = GkMeansCluster(data.vectors, p);
  EXPECT_EQ(res.clustering.assignments.size(), 600u);
  EXPECT_EQ(res.clustering.centroids.rows(), 20u);
  EXPECT_EQ(res.graph.num_nodes(), 600u);
  EXPECT_GT(res.graph_seconds, 0.0);
  // Timing accounting: init covers the graph; totals are consistent.
  EXPECT_GE(res.clustering.init_seconds, res.graph_seconds);
  EXPECT_NEAR(res.clustering.total_seconds,
              res.clustering.init_seconds + res.clustering.iter_seconds,
              0.05 + 0.1 * res.clustering.total_seconds);
}

TEST(PipelineTest, QualityWithinRangeOfLloyd) {
  const SyntheticData data = SmallData(800, 121);
  PipelineParams p;
  p.k = 25;
  p.graph.kappa = 12;
  p.graph.xi = 25;
  p.graph.tau = 6;
  p.clustering.kappa = 12;
  p.clustering.max_iters = 30;
  const PipelineResult gk = GkMeansCluster(data.vectors, p);

  LloydParams lp;
  lp.k = 25;
  lp.max_iters = 30;
  const ClusteringResult lloyd = LloydKMeans(data.vectors, lp);
  // The paper shows GK-means at or below k-means distortion on SIFT/GIST;
  // allow modest slack on tiny data.
  EXPECT_LT(gk.clustering.distortion, 1.15 * lloyd.distortion);
}

TEST(PipelineTest, DistortionEqualsIndependentRecomputation) {
  const SyntheticData data = SmallData(300, 122);
  PipelineParams p;
  p.k = 10;
  p.graph.kappa = 8;
  p.graph.xi = 20;
  p.graph.tau = 3;
  p.clustering.kappa = 8;
  const PipelineResult res = GkMeansCluster(data.vectors, p);
  EXPECT_NEAR(res.clustering.distortion,
              AverageDistortion(data.vectors, res.clustering.assignments, 10),
              1e-4 * std::max(1.0, res.clustering.distortion));
}

// FNV-1a 64-bit, chained over byte ranges.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Hash of the graph's SaveTo bytes.
std::uint64_t GraphHash(const KnnGraph& g) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) {
    ADD_FAILURE() << "tmpfile failed";
    return 0;
  }
  g.SaveTo(f);
  const long size = std::ftell(f);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  std::rewind(f);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return Fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t LabelsHash(const std::vector<std::uint32_t>& labels) {
  return Fnv1a64(labels.data(), labels.size() * sizeof(labels[0]));
}

const SyntheticData& BatchGoldenData() {
  static const SyntheticData data = MakeSiftLike(3000, 32, 2026);
  return data;
}

PipelineParams BatchGoldenParams() {
  PipelineParams p;
  p.k = 60;
  p.graph.kappa = 16;
  p.graph.xi = 40;
  p.graph.tau = 4;
  p.graph.seed = 17;
  p.clustering.kappa = 16;
  p.clustering.seed = 23;
  return p;
}

bool PrintGolden() { return std::getenv("GKM_PRINT_GOLDEN") != nullptr; }

// Pins captured from the serial pipeline, before trees were built ahead.
constexpr std::uint64_t kGoldenGraphHash = 0x006c79422241e0f6ULL;
constexpr std::uint64_t kGoldenLabelsHash = 0x822088c519f5e6c4ULL;
constexpr std::uint64_t kGoldenDistortionBits = 0x40b002aa51d9199aULL;

// Threads the pins must hold at: 1 runs every phase inline, in round
// order; more build the trees ahead on one pool and run the joins on
// another. 3 splits clusters and nodes unevenly.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4};

TEST(BatchGolden, PipelineBytesAreBitStable) {
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    PipelineParams p = BatchGoldenParams();
    p.graph.threads = threads;
    const PipelineResult res = GkMeansCluster(BatchGoldenData().vectors, p);
    const std::uint64_t graph = GraphHash(res.graph);
    const std::uint64_t labels = LabelsHash(res.clustering.assignments);
    const std::uint64_t distortion = DoubleBits(res.clustering.distortion);
    if (PrintGolden()) {
      std::printf("threads %zu: pipeline graph = 0x%016llxULL "
                  "labels = 0x%016llxULL distortion = 0x%016llxULL\n",
                  threads, static_cast<unsigned long long>(graph),
                  static_cast<unsigned long long>(labels),
                  static_cast<unsigned long long>(distortion));
      continue;
    }
    EXPECT_EQ(graph, kGoldenGraphHash);
    EXPECT_EQ(labels, kGoldenLabelsHash);
    EXPECT_EQ(distortion, kGoldenDistortionBits);
  }
}

// One BuildKnnGraph pin: the graph bytes, the per-round update counts and
// a hash over the per-round distortion bits.
struct GraphPin {
  std::uint64_t graph_hash;
  std::vector<std::size_t> round_updates;
  std::uint64_t round_distortion_hash;
};

void ExpectGraphPin(GraphBuildParams params, const GraphPin& want) {
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    params.threads = threads;
    GraphBuildStats stats;
    std::vector<std::size_t> seen;
    const KnnGraph g = BuildKnnGraph(
        BatchGoldenData().vectors, params, &stats,
        [&seen](std::size_t round, const KnnGraph&) { seen.push_back(round); });
    const std::uint64_t graph = GraphHash(g);
    std::uint64_t dist_hash = Fnv1a64(nullptr, 0);
    for (const double e : stats.round_distortion) {
      const std::uint64_t bits = DoubleBits(e);
      dist_hash = Fnv1a64(&bits, sizeof(bits), dist_hash);
    }
    if (PrintGolden()) {
      std::printf("threads %zu: graph = 0x%016llxULL distortion = "
                  "0x%016llxULL updates =",
                  threads, static_cast<unsigned long long>(graph),
                  static_cast<unsigned long long>(dist_hash));
      for (const std::size_t u : stats.round_updates) std::printf(" %zu", u);
      std::printf("\n");
      continue;
    }
    EXPECT_EQ(graph, want.graph_hash);
    EXPECT_EQ(stats.round_updates, want.round_updates);
    EXPECT_EQ(dist_hash, want.round_distortion_hash);
    const std::size_t rounds = want.round_updates.size();
    ASSERT_EQ(stats.round_distortion.size(), rounds);
    ASSERT_EQ(stats.round_seconds.size(), rounds);
    // The observer fires once per round, in order, and the cumulative
    // clock never runs backwards.
    ASSERT_EQ(seen.size(), rounds);
    for (std::size_t t = 0; t < rounds; ++t) {
      EXPECT_EQ(seen[t], t);
      if (t > 0) EXPECT_GE(stats.round_seconds[t], stats.round_seconds[t - 1]);
    }
  }
}

TEST(BatchGolden, GraphBuildIsBitStable) {
  ExpectGraphPin(BatchGoldenParams().graph,
                 GraphPin{kGoldenGraphHash,
                          {86955, 27619, 12575, 7599},
                          0xf129c232fb4dace2ULL});
}

TEST(BatchGolden, EarlyStoppedGraphBuildIsBitStable) {
  GraphBuildParams p = BatchGoldenParams().graph;
  p.tau = 10;
  p.early_stop_delta = 0.05;  // stops after round 7: 2355 < 0.05 * n * κ
  ExpectGraphPin(p, GraphPin{0xfdff4862b43e5e56ULL,
                             {86955, 27619, 12575, 7599, 4304, 3326, 2355},
                             0x43f7c883beddea60ULL});
}

TEST(PipelineTest, TraceTimesIncludeGraphOffset) {
  const SyntheticData data = SmallData(300, 123);
  PipelineParams p;
  p.k = 10;
  p.graph.kappa = 8;
  p.graph.xi = 20;
  p.graph.tau = 3;
  p.clustering.kappa = 8;
  const PipelineResult res = GkMeansCluster(data.vectors, p);
  for (const IterStat& s : res.clustering.trace) {
    EXPECT_GE(s.elapsed_seconds, res.graph_seconds);
  }
}

}  // namespace
}  // namespace gkm
