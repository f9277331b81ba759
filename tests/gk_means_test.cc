// Copyright 2026 The gkmeans Authors.
// Tests for GK-means (Alg. 2): contract, monotone objective in BKM mode,
// quality close to full BKM when the graph is exact, degradation to the
// init when the graph is useless, the GK-means⁻ variant, and the blocked
// multi-core epochs against the serial BKM loop they must reproduce.

#include "core/gk_means.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/distance.h"
#include "common/thread_pool.h"
#include "core/candidate_harvest.h"
#include "core/graph_builder.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"
#include "kmeans/boost_kmeans.h"
#include "kmeans/cluster_state.h"

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

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The serial BKM loop of Alg. 2 — one HarvestCandidates + DeltaIStep per
// point, in shuffled order — kept as the reference the blocked epochs of
// GkMeansWithGraph must reproduce bit for bit. Fills labels, distortion
// and the per-epoch trace (elapsed time left at 0).
ClusteringResult ReferenceBkm(const Matrix& data, const KnnGraph& graph,
                              const GkMeansParams& params, GkStart start) {
  const std::size_t n = data.rows();
  const std::size_t kappa = std::min(params.kappa, graph.k());
  const std::vector<std::uint32_t> flat =
      graph.FlattenNeighborIds(kappa, nullptr);
  std::vector<std::uint32_t>& labels = start.labels;
  ClusterState state(data, labels, params.k);
  std::vector<float> norms(n);
  RowNormsSqr(data, norms.data());
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> stamp(params.k, 0);
  std::uint32_t cur_stamp = 0;
  std::vector<std::uint32_t> cand;
  std::vector<double> gains;
  ClusteringResult res;
  for (std::size_t it = 0; it < params.max_iters; ++it) {
    start.rng.Shuffle(order);
    std::size_t moves = 0;
    for (const std::uint32_t i : order) {
      const std::uint32_t u = labels[i];
      if (state.CountOf(u) < 2) continue;
      ++cur_stamp;
      HarvestCandidates(flat.data() + static_cast<std::size_t>(i) * kappa,
                        kappa, labels, u, stamp, cur_stamp, cand);
      if (cand.empty()) continue;
      const std::uint32_t v =
          DeltaIStep(state, data.Row(i), norms[i], u, cand, gains);
      if (v != u) {
        labels[i] = v;
        ++moves;
      }
    }
    res.trace.push_back(IterStat{it, state.Distortion(), 0.0, moves});
    res.iterations = it + 1;
    if (moves == 0) break;
  }
  res.distortion = state.Distortion();
  res.assignments = std::move(labels);
  return res;
}

void ExpectSameRun(const ClusteringResult& got, const ClusteringResult& want) {
  EXPECT_EQ(got.assignments, want.assignments);
  EXPECT_EQ(Bits(got.distortion), Bits(want.distortion));
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t t = 0; t < want.trace.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(got.trace[t].moves, want.trace[t].moves);
    EXPECT_EQ(Bits(got.trace[t].distortion), Bits(want.trace[t].distortion));
  }
}

// Runs GkMeansWithGraph with no pool and on pools of 1-4 workers, checks
// every run against ReferenceBkm, and stores in `counts` the pool runs'
// result, whose work counts must agree across pool sizes and cover every
// visit.
void ExpectBlockedMatchesReference(const Matrix& data, const KnnGraph& graph,
                                   const GkMeansParams& params,
                                   ClusteringResult* counts) {
  const GkStart start = MakeGkStart(data, params);
  const ClusteringResult want = ReferenceBkm(data, graph, params, start);
  ASSERT_GT(want.iterations, 1u);  // the pool only joins from epoch 1 on
  {
    SCOPED_TRACE("no pool");
    const ClusteringResult got =
        GkMeansWithGraph(data, graph, params, start, nullptr);
    ExpectSameRun(got, want);
    EXPECT_EQ(got.proposals_recomputed, 0u);
  }
  ClusteringResult& first = *counts;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    const ClusteringResult got =
        GkMeansWithGraph(data, graph, params, start, &pool);
    ExpectSameRun(got, want);
    EXPECT_EQ(got.cached_stays + got.proposals_committed +
                  got.proposals_recomputed,
              data.rows() * got.iterations);
    if (workers == 1) {
      first = got;
      continue;
    }
    EXPECT_EQ(got.cached_stays, first.cached_stays);
    EXPECT_EQ(got.proposals_committed, first.proposals_committed);
    EXPECT_EQ(got.proposals_recomputed, first.proposals_recomputed);
  }
  // Each path of the commit ran, so the match above is not the inline
  // path alone.
  EXPECT_GT(first.cached_stays, 0u);
  EXPECT_GT(first.proposals_committed, 0u);
  EXPECT_GT(first.proposals_recomputed, 0u);
}

// The batch golden's input, graph and final clustering parameters
// (tests/pipeline_test.cc).
TEST(GkMeansBlockedTest, MatchesSerialLoopOnBatchGolden) {
  const SyntheticData data = MakeSiftLike(3000, 32, 2026);
  GraphBuildParams gp;
  gp.kappa = 16;
  gp.xi = 40;
  gp.tau = 4;
  gp.seed = 17;
  gp.threads = 1;
  const KnnGraph graph = BuildKnnGraph(data.vectors, gp);
  GkMeansParams p;
  p.k = 60;
  p.kappa = 16;
  p.seed = 23;
  ClusteringResult counts;
  ExpectBlockedMatchesReference(data.vectors, graph, p, &counts);
}

// Three clusters over one Gaussian blob: every move dirties a cluster
// that nearly every later decision of its block read, and moves keep
// coming for a dozen epochs, so most proposals are recomputed.
TEST(GkMeansBlockedTest, MatchesSerialLoopWhenMostProposalsGoStale) {
  SyntheticSpec spec;
  spec.n = 1000;
  spec.dim = 10;
  spec.modes = 1;
  spec.seed = 109;
  const SyntheticData data = MakeGaussianMixture(spec);
  const KnnGraph graph = BruteForceGraph(data.vectors, 10);
  GkMeansParams p;
  p.k = 3;
  p.kappa = 10;
  p.seed = 5;
  ClusteringResult counts;
  ExpectBlockedMatchesReference(data.vectors, graph, p, &counts);
  EXPECT_GT(counts.proposals_recomputed, counts.proposals_committed);
}

}  // namespace
}  // namespace gkm
