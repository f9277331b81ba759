// Copyright 2026 The gkmeans Authors.
// Tests for GK-means (Alg. 2): contract, monotone objective in BKM mode,
// quality close to full BKM when the graph is exact, degradation to the
// init when the graph is useless, the GK-means⁻ variant, and the blocked
// multi-core epochs — batch-shaped and stream-shaped — against the serial
// loops they must reproduce.

#include "core/gk_means.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

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

// Ten well-separated modes, clustered with k = 20 over an exact κ = 10
// graph: the GK-means⁻ fixture.
struct TraditionalFixture {
  SyntheticData data;
  KnnGraph graph;
  GkMeansParams params;
};

TraditionalFixture MakeTraditionalFixture() {
  SyntheticSpec spec;
  spec.n = 2000;
  spec.dim = 8;
  spec.modes = 10;
  spec.seed = 3;
  TraditionalFixture f{MakeGaussianMixture(spec), {}, {}};
  f.graph = BruteForceGraph(f.data.vectors, 10);
  f.params.k = 20;
  f.params.kappa = 10;
  f.params.max_iters = 30;
  f.params.seed = 3;
  f.params.traditional = true;
  return f;
}

// GK-means⁻ sends each point to the nearest centroid among its own cluster
// and its neighbors' clusters, then recomputes the centroids. Both halves
// are Lloyd steps over a candidate set that includes the current cluster,
// so no iteration raises the distortion.
TEST(GkMeansTest, TraditionalModeDistortionNeverRises) {
  const TraditionalFixture f = MakeTraditionalFixture();
  const ClusteringResult res =
      GkMeansWithGraph(f.data.vectors, f.graph, f.params);
  ASSERT_GE(res.trace.size(), 2u);
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_LE(res.trace[i].distortion,
              res.trace[i - 1].distortion * (1.0 + 1e-9));
  }
}

// A point stays when its own centroid is nearest, so on well-separated
// modes the moves run out before max_iters.
TEST(GkMeansTest, TraditionalModeConvergesBeforeMaxIters) {
  const TraditionalFixture f = MakeTraditionalFixture();
  const ClusteringResult res =
      GkMeansWithGraph(f.data.vectors, f.graph, f.params);
  EXPECT_LT(res.iterations, f.params.max_iters);
  ASSERT_FALSE(res.trace.empty());
  EXPECT_EQ(res.trace.back().moves, 0u);
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

// The harvest reads the first κ labeled neighbors of a sorted row: an
// unlabeled one (a stream's tombstone or same-window insert) is passed over
// and not counted, a repeated cluster is counted but listed once, and the
// skipped cluster is counted but not listed.
TEST(HarvestCandidatesTest, CountsTheFirstKappaLabeledNeighbors) {
  const std::vector<std::uint32_t> labels = {0, kNoLabel, 1, 1, kNoLabel, 2};
  const std::vector<Neighbor> row = {
      {1, 0.5f}, {0, 1.0f}, {4, 1.5f}, {2, 2.0f}, {3, 2.5f}, {5, 3.0f}};
  std::vector<std::uint32_t> stamp(3, 0);
  std::vector<std::uint32_t> cand;
  HarvestCandidates(row, 3, labels, 9, stamp, 1, cand);
  EXPECT_EQ(cand, (std::vector<std::uint32_t>{0, 1}));
  HarvestCandidates(row, 4, labels, 9, stamp, 2, cand);
  EXPECT_EQ(cand, (std::vector<std::uint32_t>{0, 1, 2}));
  HarvestCandidates(row, 3, labels, 0, stamp, 3, cand);
  EXPECT_EQ(cand, (std::vector<std::uint32_t>{1}));
  HarvestCandidates(std::span<const Neighbor>(row).first(3), 3, labels, 9,
                    stamp, 4, cand);
  EXPECT_EQ(cand, (std::vector<std::uint32_t>{0}));
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// One Delta-I move step of the serial reference loops: DeltaIDecide, then
// the move it chose. Returns the cluster `x` ends in.
std::uint32_t DeltaIStep(ClusterState& state, const float* x, float xn,
                         std::uint32_t u,
                         const std::vector<std::uint32_t>& cand,
                         std::vector<double>& gains) {
  const std::uint32_t v = DeltaIDecide(state, x, xn, u, cand, gains);
  if (v != u) state.Move(x, u, v);
  return v;
}

// The serial BKM loop of Alg. 2 — one harvest + DeltaIStep per point, in
// shuffled order — kept as the reference the blocked epochs of
// GkMeansWithGraph must reproduce bit for bit. It harvests from its own
// copy of each node's first κ neighbor ids, taken from SortedNeighbors,
// not from the graph rows the library reads in place. Fills labels,
// distortion and the per-epoch trace (elapsed time left at 0).
ClusteringResult ReferenceBkm(const Matrix& data, const KnnGraph& graph,
                              const GkMeansParams& params, GkStart start) {
  const std::size_t n = data.rows();
  const std::size_t kappa = std::min(params.kappa, graph.k());
  std::vector<std::vector<std::uint32_t>> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Neighbor& nb : graph.SortedNeighbors(i)) {
      if (ids[i].size() == kappa) break;
      ids[i].push_back(nb.id);
    }
  }
  std::vector<std::uint32_t>& labels = start.labels;
  ClusterState state(data, labels, params.k);
  std::vector<float> norms(n);
  RowNormsSqr(data, norms.data());
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::vector<bool> seen(params.k);
  std::vector<std::uint32_t> cand;
  std::vector<double> gains;
  ClusteringResult res;
  for (std::size_t it = 0; it < params.max_iters; ++it) {
    start.rng.Shuffle(order);
    std::size_t moves = 0;
    for (const std::uint32_t i : order) {
      const std::uint32_t u = labels[i];
      if (state.CountOf(u) < 2) continue;
      // The distinct clusters of the neighbors other than u, nearest first.
      cand.clear();
      for (const std::uint32_t nb : ids[i]) {
        const std::uint32_t c = labels[nb];
        if (c == u || seen[c]) continue;
        seen[c] = true;
        cand.push_back(c);
      }
      for (const std::uint32_t c : cand) seen[c] = false;
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
    EXPECT_EQ(got.work.proposals_recomputed, 0u);
  }
  ClusteringResult& first = *counts;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    const ClusteringResult got =
        GkMeansWithGraph(data, graph, params, start, &pool);
    ExpectSameRun(got, want);
    EXPECT_EQ(got.work.cached_stays + got.work.proposals_committed +
                  got.work.proposals_recomputed,
              data.rows() * got.iterations);
    if (workers == 1) {
      first = got;
      continue;
    }
    EXPECT_EQ(got.work.cached_stays, first.work.cached_stays);
    EXPECT_EQ(got.work.proposals_committed, first.work.proposals_committed);
    EXPECT_EQ(got.work.proposals_recomputed, first.work.proposals_recomputed);
  }
  // Each path of the commit ran, so the match above is not the inline
  // path alone.
  EXPECT_GT(first.work.cached_stays, 0u);
  EXPECT_GT(first.work.proposals_committed, 0u);
  EXPECT_GT(first.work.proposals_recomputed, 0u);
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
  EXPECT_GT(counts.work.proposals_recomputed, counts.work.proposals_committed);
}

// Epochs consult only the first κ < graph.k() entries of each row, and a
// cleared row harvests nothing, so its point never moves.
TEST(GkMeansBlockedTest, MatchesSerialLoopWithShortKappaAndAnEmptyRow) {
  SyntheticSpec spec;
  spec.n = 1200;
  spec.dim = 12;
  spec.modes = 8;
  spec.seed = 211;
  const SyntheticData data = MakeGaussianMixture(spec);
  KnnGraph graph = BruteForceGraph(data.vectors, 12);
  constexpr std::size_t kCleared = 37;
  graph.ClearList(kCleared);
  GkMeansParams p;
  p.k = 24;
  p.kappa = 5;
  p.seed = 8;
  ClusteringResult counts;
  ExpectBlockedMatchesReference(data.vectors, graph, p, &counts);
  const GkStart start = MakeGkStart(data.vectors, p);
  EXPECT_EQ(counts.assignments[kCleared], start.labels[kCleared]);
}

// --- The driver over a stream-shaped view. ---

constexpr std::size_t kShards = 4;

// A stream-shaped epoch input: points indexed by global id, one graph per
// shard whose rows hold shard-local slot ids, labels with kNoLabel points
// among them (so also among graph neighbors), and a visit list that skips
// some ids and includes unlabeled ones.
struct ShardedFixture {
  Matrix data;
  std::vector<float> norms;
  std::vector<KnnGraph> shards;
  std::vector<std::uint32_t> labels;
  std::vector<std::uint32_t> visits;
  std::size_t k = 30;
  std::size_t kappa = 6;
};

ShardedFixture MakeShardedFixture() {
  SyntheticSpec spec;
  spec.n = 1600;
  spec.dim = 8;
  spec.modes = 12;
  spec.seed = 307;
  ShardedFixture f;
  f.data = MakeGaussianMixture(spec).vectors;
  const std::size_t n = f.data.rows();
  f.norms.resize(n);
  RowNormsSqr(f.data, f.norms.data());
  for (std::size_t s = 0; s < kShards; ++s) {
    Matrix part(n / kShards, f.data.cols());
    for (std::size_t j = 0; j < part.rows(); ++j) {
      part.SetRow(j, f.data.Row(j * kShards + s));
    }
    f.shards.push_back(BruteForceGraph(part, 10));
  }
  GkMeansParams p;
  p.k = f.k;
  p.seed = 41;
  f.labels = MakeGkStart(f.data, p).labels;
  for (std::size_t i = 0; i < n; i += 11) f.labels[i] = kNoLabel;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 5 != 0) f.visits.push_back(static_cast<std::uint32_t>(i));
  }
  return f;
}

// DeltaIEpochs' view of a ShardedFixture; records every on-move call.
struct ShardedView {
  const ShardedFixture& f;
  const std::vector<std::uint32_t>& labels;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& hook_calls;

  std::pair<const float*, float> Point(std::uint32_t i) const {
    return {f.data.Row(i), f.norms[i]};
  }
  std::span<const Neighbor> Neighbors(std::uint32_t i) const {
    return f.shards[i % kShards].NeighborsOf(i / kShards);
  }
  StridedLabels HarvestLabels(std::uint32_t i) const {
    return {labels.data() + i % kShards, kShards};
  }
  void OnMove(std::uint32_t i, std::uint32_t v) {
    hook_calls.emplace_back(i, v);
  }
  void Prefetch(std::uint32_t) const {}
};

struct ShardedRun {
  std::vector<std::uint32_t> labels;
  double distortion = 0.0;
  std::vector<std::size_t> moves;  // per epoch
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hook_calls;
  DeltaIWork work;
};

// The fixture's labeled points as a cluster state.
ClusterState ShardedState(const ShardedFixture& f) {
  ClusterState state(f.data.cols(), f.k);
  for (std::size_t i = 0; i < f.labels.size(); ++i) {
    if (f.labels[i] != kNoLabel) state.AddPoint(f.data.Row(i), f.labels[i]);
  }
  return state;
}

constexpr std::size_t kShardedEpochs = 12;
constexpr std::uint64_t kShardedSeed = 99;
// Epochs per driver, as a stream window runs them; the stay cache outlives
// each driver.
constexpr std::size_t kEpochsPerDriver = 2;

// Between its epoch calls the stream changes clusters on its own (arrival,
// expiry, split/merge). Here, after `epochs` epochs, every 100th visited
// point moves to the next cluster, so stays cached before go stale.
void MoveBetweenDrivers(const ShardedFixture& f, std::size_t epochs,
                        std::vector<std::uint32_t>& labels,
                        ClusterState& state) {
  for (std::size_t j = epochs % 100; j < f.visits.size(); j += 100) {
    const std::uint32_t i = f.visits[j];
    const std::uint32_t u = labels[i];
    if (u == kNoLabel || state.CountOf(u) < 2) continue;
    const std::uint32_t v = static_cast<std::uint32_t>((u + 1) % f.k);
    state.Move(f.data.Row(i), u, v);
    labels[i] = v;
  }
}

// The stream's serial epoch loop: per shuffled visit, skip an unlabeled
// point or a cluster of one, harvest through the strided labels, and take
// one DeltaIStep; stop after an epoch without a move.
ShardedRun ReferenceShardedEpochs(const ShardedFixture& f) {
  ShardedRun run;
  run.labels = f.labels;
  ClusterState state = ShardedState(f);
  Rng rng(kShardedSeed);
  std::vector<std::uint32_t> order = f.visits;
  std::vector<std::uint32_t> stamp(f.k, 0);
  std::uint32_t cur_stamp = 0;
  std::vector<std::uint32_t> cand;
  std::vector<double> gains;
  for (std::size_t e = 0; e < kShardedEpochs; ++e) {
    rng.Shuffle(order);
    std::size_t moves = 0;
    for (const std::uint32_t i : order) {
      const std::uint32_t u = run.labels[i];
      if (u == kNoLabel || state.CountOf(u) < 2) continue;
      const StridedLabels shard_labels{run.labels.data() + i % kShards,
                                       kShards};
      HarvestCandidates(f.shards[i % kShards].NeighborsOf(i / kShards),
                        f.kappa, shard_labels, u, stamp, ++cur_stamp, cand);
      if (cand.empty()) continue;
      const std::uint32_t v =
          DeltaIStep(state, f.data.Row(i), f.norms[i], u, cand, gains);
      if (v != u) {
        run.labels[i] = v;
        run.hook_calls.emplace_back(i, v);
        ++moves;
      }
    }
    run.moves.push_back(moves);
    if (moves == 0) break;
    if ((e + 1) % kEpochsPerDriver == 0) {
      MoveBetweenDrivers(f, e + 1, run.labels, state);
    }
  }
  run.distortion = state.Distortion();
  return run;
}

// The same epochs through DeltaIEpochs, in blocks on `pool` when given: a
// driver per kEpochsPerDriver epochs, all sharing one stay cache.
ShardedRun DriverShardedEpochs(const ShardedFixture& f, ThreadPool* pool) {
  ShardedRun run;
  run.labels = f.labels;
  ClusterState state = ShardedState(f);
  Rng rng(kShardedSeed);
  std::vector<std::uint32_t> order = f.visits;
  DeltaIStayCache cache;
  bool converged = false;
  for (std::size_t e = 0; !converged && e < kShardedEpochs;) {
    DeltaIEpochs<ShardedView> driver({f, run.labels, run.hook_calls}, f.kappa,
                                     pool, state, run.labels, cache);
    for (std::size_t d = 0; d < kEpochsPerDriver && !converged; ++d, ++e) {
      rng.Shuffle(order);
      const std::size_t moves = driver.Run(order, false);
      run.moves.push_back(moves);
      converged = moves == 0;
    }
    run.work.cached_stays += driver.work().cached_stays;
    run.work.proposals_committed += driver.work().proposals_committed;
    run.work.proposals_recomputed += driver.work().proposals_recomputed;
    if (!converged) MoveBetweenDrivers(f, e, run.labels, state);
  }
  run.distortion = state.Distortion();
  return run;
}

// Unlabeled visits and neighbors, a partial visit list, strided labels and
// a stay cache kept across drivers change nothing: with no pool and on
// pools of 1-4 workers the drivers reproduce the stream's serial loop, hook
// calls included.
TEST(DeltaIEpochsTest, StreamShapedViewMatchesSerialLoop) {
  const ShardedFixture f = MakeShardedFixture();
  const ShardedRun want = ReferenceShardedEpochs(f);
  ASSERT_GT(want.moves.size(), 2u);
  ASSERT_FALSE(want.hook_calls.empty());
  for (std::size_t workers = 0; workers <= 4; ++workers) {
    SCOPED_TRACE(workers);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    const ShardedRun got = DriverShardedEpochs(f, pool.get());
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(Bits(got.distortion), Bits(want.distortion));
    EXPECT_EQ(got.moves, want.moves);
    EXPECT_EQ(got.hook_calls, want.hook_calls);
    EXPECT_GT(got.work.cached_stays, 0u);
    // Without a pool nothing goes stale; with one, some decisions do.
    if (workers == 0) {
      EXPECT_EQ(got.work.proposals_recomputed, 0u);
    } else {
      EXPECT_GT(got.work.proposals_recomputed, 0u);
    }
  }
}

// A driver run to convergence leaves a stay in the kept cache for every
// visited point it scored. After clusters change between drivers, the
// next driver must read all of them as stale, and so match a driver that
// starts from a fresh cache.
TEST(DeltaIEpochsTest, KeptStayCacheReadsEarlierStaysAsStale) {
  const ShardedFixture f = MakeShardedFixture();
  std::vector<std::uint32_t> labels = f.labels;
  ClusterState state = ShardedState(f);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hooks;
  Rng rng(kShardedSeed);
  std::vector<std::uint32_t> order = f.visits;
  DeltaIStayCache kept;
  {
    DeltaIEpochs<ShardedView> driver({f, labels, hooks}, f.kappa, nullptr,
                                     state, labels, kept);
    std::size_t moves = 1;
    for (std::size_t e = 0; e < 50 && moves > 0; ++e) {
      rng.Shuffle(order);
      moves = driver.Run(order, false);
    }
    ASSERT_EQ(moves, 0u);
  }
  MoveBetweenDrivers(f, 0, labels, state);
  rng.Shuffle(order);

  std::vector<std::uint32_t> fresh_labels = labels;
  ClusterState fresh_state = state;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh_hooks;
  DeltaIStayCache fresh;
  DeltaIEpochs<ShardedView> with_kept({f, labels, hooks}, f.kappa, nullptr,
                                      state, labels, kept);
  DeltaIEpochs<ShardedView> with_fresh({f, fresh_labels, fresh_hooks},
                                       f.kappa, nullptr, fresh_state,
                                       fresh_labels, fresh);
  const std::size_t moves = with_kept.Run(order, false);
  EXPECT_GT(moves, 0u);
  EXPECT_EQ(moves, with_fresh.Run(order, false));
  EXPECT_EQ(labels, fresh_labels);
  EXPECT_EQ(with_kept.work().cached_stays, 0u);
}

}  // namespace
}  // namespace gkm
