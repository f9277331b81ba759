// Copyright 2026 The gkmeans Authors.
// Tests for Alg. 3 (intertwined KNN graph construction): recall rises with
// tau (the Fig. 2 behaviour), structural invariants, determinism, and the
// observer/stats plumbing.

#include "core/graph_builder.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>

#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"

namespace gkm {
namespace {

SyntheticData SmallData(std::size_t n = 800, std::uint64_t seed = 110) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 12;
  spec.modes = 16;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

TEST(GraphBuilderTest, ProducesFullValidLists) {
  const SyntheticData data = SmallData(400, 111);
  GraphBuildParams p;
  p.kappa = 8;
  p.xi = 20;
  p.tau = 3;
  const KnnGraph g = BuildKnnGraph(data.vectors, p);
  EXPECT_EQ(g.num_nodes(), 400u);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto nbs = g.SortedNeighbors(i);
    EXPECT_EQ(nbs.size(), 8u);
    for (const Neighbor& nb : nbs) {
      EXPECT_NE(nb.id, i);
      EXPECT_LT(nb.id, 400u);
    }
  }
}

TEST(GraphBuilderTest, RecallImprovesWithTau) {
  const SyntheticData data = SmallData();
  const KnnGraph truth = BruteForceGraph(data.vectors, 1);

  GraphBuildParams p;
  p.kappa = 10;
  p.xi = 25;
  p.seed = 7;
  p.tau = 1;
  const double recall1 = GraphRecallAt1(BuildKnnGraph(data.vectors, p), truth);
  p.tau = 8;
  const double recall8 = GraphRecallAt1(BuildKnnGraph(data.vectors, p), truth);
  EXPECT_GT(recall8, recall1);
  EXPECT_GT(recall8, 0.6);  // the paper's Fig. 2 plateau level
}

TEST(GraphBuilderTest, BeatsRandomInitDramatically) {
  const SyntheticData data = SmallData(500, 112);
  const KnnGraph truth = BruteForceGraph(data.vectors, 1);
  Rng rng(1);
  KnnGraph random(500, 10);
  random.InitRandom(data.vectors, rng);

  GraphBuildParams p;
  p.kappa = 10;
  p.xi = 25;
  p.tau = 6;
  const KnnGraph built = BuildKnnGraph(data.vectors, p);
  EXPECT_GT(GraphRecallAt1(built, truth),
            GraphRecallAt1(random, truth) + 0.3);
}

TEST(GraphBuilderTest, StatsTrackRounds) {
  const SyntheticData data = SmallData(300, 113);
  GraphBuildParams p;
  p.kappa = 6;
  p.xi = 15;
  p.tau = 5;
  GraphBuildStats stats;
  BuildKnnGraph(data.vectors, p, &stats);
  ASSERT_EQ(stats.round_distortion.size(), 5u);
  ASSERT_EQ(stats.round_seconds.size(), 5u);
  // Wall-clock is cumulative.
  for (std::size_t t = 1; t < 5; ++t) {
    EXPECT_GE(stats.round_seconds[t], stats.round_seconds[t - 1]);
  }
  // The clustering guided by a matured graph beats the first round's.
  EXPECT_LT(stats.round_distortion.back(), stats.round_distortion.front());
}

TEST(GraphBuilderTest, ObserverSeesEveryRound) {
  const SyntheticData data = SmallData(200, 114);
  GraphBuildParams p;
  p.kappa = 5;
  p.xi = 10;
  p.tau = 4;
  std::vector<std::size_t> seen;
  BuildKnnGraph(data.vectors, p, nullptr,
                [&seen](std::size_t round, const KnnGraph& g) {
                  EXPECT_EQ(g.num_nodes(), 200u);
                  seen.push_back(round);
                });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(GraphBuilderTest, DeterministicForSeed) {
  const SyntheticData data = SmallData(250, 115);
  GraphBuildParams p;
  p.kappa = 6;
  p.xi = 12;
  p.tau = 3;
  p.seed = 5;
  const KnnGraph a = BuildKnnGraph(data.vectors, p);
  const KnnGraph b = BuildKnnGraph(data.vectors, p);
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.SortedNeighbors(i), b.SortedNeighbors(i));
  }
}

TEST(GraphBuilderTest, TauZeroLeavesRandomGraph) {
  const SyntheticData data = SmallData(150, 116);
  GraphBuildParams p;
  p.kappa = 5;
  p.xi = 10;
  p.tau = 0;
  const KnnGraph g = BuildKnnGraph(data.vectors, p);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.SortedNeighbors(i).size(), 5u);
  }
}

TEST(GraphBuilderTest, PendingStartEqualsMakeGkStart) {
  const SyntheticData data = SmallData(300, 117);
  GkMeansParams p;
  p.k = 10;
  p.seed = 3;
  GkStart want = MakeGkStart(data.vectors, p);
  ThreadPool pool(2);
  PendingStart ahead(data.vectors, p);
  ahead.Queue(&pool);
  PendingStart inline_start(data.vectors, p);
  inline_start.Queue(nullptr);
  for (GkStart got : {ahead.Take(), inline_start.Take()}) {
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.rng.Next(), Rng(want.rng).Next());
  }
}

// A handle destroyed before any worker begins its build drops it: the
// build never runs, so it never reads the (by then freed) data.
TEST(GraphBuilderTest, PendingStartDropsAnUnbegunBuild) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });  // holds the only worker
  {
    const auto data =
        std::make_unique<SyntheticData>(SmallData(200, 118));
    GkMeansParams p;
    p.k = 8;
    PendingStart start(data->vectors, p);
    start.Queue(&pool);
  }
  release.set_value();
  pool.Wait();
}

// Rounds after an early stop never take their starts; the builder drops
// or joins them before it returns, at any thread count, so freeing the
// data right after the call is safe.
TEST(GraphBuilderTest, EarlyStopDropsUntakenStarts) {
  GraphBuildParams p;
  p.kappa = 6;
  p.xi = 10;
  p.tau = 12;
  p.early_stop_delta = 10.0;  // no round changes 10 n κ entries
  for (const std::size_t threads : {1, 2, 3, 4}) {
    p.threads = threads;
    auto data = std::make_unique<SyntheticData>(SmallData(400, 119));
    GraphBuildStats stats;
    BuildKnnGraph(data->vectors, p, &stats);
    data.reset();
    EXPECT_EQ(stats.round_updates.size(), 1u);
  }
}

// Every phase that runs on a pool writes disjoint lists, so the rounds
// see the same graph at any thread count: equal per-round stats and the
// observer called in round order on equal graphs. k0 = 50 clusters and
// 700 nodes split unevenly over 3 and 4 slots.
TEST(GraphBuilderTest, RoundsAreEqualAtEveryThreadCount) {
  const SyntheticData data = SmallData(700, 120);
  GraphBuildParams p;
  p.kappa = 8;
  p.xi = 14;
  p.tau = 5;
  p.seed = 9;
  struct Run {
    GraphBuildStats stats;
    std::vector<std::size_t> rounds;
    // Per observed round, every node's list.
    std::vector<std::vector<std::vector<Neighbor>>> lists;
  };
  const auto build = [&](std::size_t threads) {
    p.threads = threads;
    Run run;
    BuildKnnGraph(data.vectors, p, &run.stats,
                  [&run](std::size_t round, const KnnGraph& g) {
                    run.rounds.push_back(round);
                    std::vector<std::vector<Neighbor>>& seen =
                        run.lists.emplace_back();
                    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
                      seen.push_back(g.SortedNeighbors(i));
                    }
                  });
    return run;
  };
  const Run want = build(1);
  ASSERT_EQ(want.rounds, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  for (const std::size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(threads);
    const Run got = build(threads);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.lists, want.lists);
    EXPECT_EQ(got.stats.round_updates, want.stats.round_updates);
    EXPECT_EQ(got.stats.round_distortion, want.stats.round_distortion);
  }
}

}  // namespace
}  // namespace gkm
