// Copyright 2026 The gkmeans Authors.
// Reproduces the §4.3 ANNS claims: the Alg. 3 graph, though built for
// clustering, supports approximate nearest neighbor search with recall
// comparable to an NN-Descent graph at a fraction of the construction
// cost. Reports construction time and the recall/latency frontier of
// greedy search over both graphs.

#include <cstdio>
#include <vector>

#include "anns/graph_search.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/graph_builder.h"
#include "dataset/synthetic.h"
#include "graph/brute_force.h"
#include "graph/nn_descent.h"
#include "graph/nsw.h"
#include "graph/rp_forest.h"

namespace {

void Frontier(const char* name, const gkm::Matrix& base,
              const gkm::KnnGraph& graph, const gkm::Matrix& queries,
              const std::vector<std::vector<gkm::Neighbor>>& truth,
              const std::vector<std::uint32_t>& entries) {
  gkm::GraphSearcher searcher(base, graph);
  searcher.SetEntryPoints(entries);
  gkm::bench::PrintSeriesHeader("beam", "recall@1 | dists | ms/query", name);
  for (const std::size_t beam : {8u, 16u, 32u, 64u, 128u}) {
    gkm::SearchParams sp;
    sp.topk = 1;
    sp.beam_width = beam;
    std::size_t hits = 0, dists = 0;
    gkm::Timer timer;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      gkm::SearchStats stats;
      const auto got = searcher.Search(queries.Row(q), sp, &stats);
      hits += (!got.empty() && got[0].id == truth[q][0].id) ? 1 : 0;
      dists += stats.distance_evals;
    }
    const double secs = timer.Seconds();
    std::printf("%-12zu %-10.3f %-8.0f %-10.3f\n", beam,
                static_cast<double>(hits) / static_cast<double>(queries.rows()),
                static_cast<double>(dists) / static_cast<double>(queries.rows()),
                secs * 1e3 / static_cast<double>(queries.rows()));
  }
}

}  // namespace

int main() {
  const std::size_t n = gkm::bench::ScaledN(20000);
  const std::size_t nq = 200;
  gkm::bench::Header("Section 4.3", "ANN search over the Alg. 3 graph vs an "
                                    "NN-Descent graph");
  std::printf("base: SIFT-like n=%zu d=128; %zu queries\n", n, nq);
  // Base and queries split from one sample so they share a distribution.
  const gkm::SyntheticData all = gkm::MakeSiftLike(n + nq, 128, 1);
  const gkm::Matrix base = gkm::SliceRows(all.vectors, 0, n);
  const gkm::Matrix queries = gkm::SliceRows(all.vectors, n, n + nq);
  const auto truth = gkm::BruteForceSearch(base, queries, 1);

  // ANNS-grade graphs use the paper's kappa ~= 50 regime, where
  // NN-Descent's local joins (quadratic in kappa) dominate its cost while
  // Alg. 3's cost is governed by xi and tau, not kappa.
  const std::size_t kappa = 40;
  gkm::Timer t1;
  gkm::GraphBuildParams gp;
  gp.kappa = kappa;
  gp.xi = 50;
  gp.tau = 12;
  gp.threads = 1;  // one core, like the baselines
  const gkm::KnnGraph alg3 = BuildKnnGraph(base, gp);
  const double alg3_secs = t1.Seconds();

  gkm::Timer t2;
  gkm::NnDescentParams np;
  np.k = kappa;
  const gkm::KnnGraph nnd = NnDescent(base, np);
  const double nnd_secs = t2.Seconds();

  gkm::Timer t3;
  gkm::NswParams sw;
  sw.degree = kappa;
  // ef chosen so the NSW graph reaches search utility comparable to the
  // KNN graphs — the construction-cost comparison is meaningless at a
  // quality level nobody would deploy.
  sw.ef_construction = 200;
  const gkm::KnnGraph nsw = NswBuild(base, sw);
  const double nsw_secs = t3.Seconds();

  gkm::Timer t4;
  gkm::RpForestParams rp;
  rp.num_trees = 8;
  rp.leaf_size = 50;
  const gkm::KnnGraph rpg = RpForestGraph(base, kappa, rp);
  const double rp_secs = t4.Seconds();

  std::printf("\nconstruction time: Alg.3 %.2fs | NN-Descent %.2fs | "
              "NSW %.2fs | RP-forest %.2fs\n",
              alg3_secs, nnd_secs, nsw_secs, rp_secs);

  // Shared medoid entry points (2M-tree representatives): routing into the
  // right region is an entry problem, not a graph-quality problem.
  const std::vector<std::uint32_t> entries =
      gkm::SelectEntryPoints(base, 256);

  Frontier("Alg.3 graph", base, alg3, queries, truth, entries);
  Frontier("NN-Descent graph", base, nnd, queries, truth, entries);
  Frontier("NSW graph", base, nsw, queries, truth, entries);
  Frontier("RP-forest graph ([42][43])", base, rpg, queries, truth, entries);

  // The paper's §4.3 claim: Alg. 3 is "at least two times faster than NN
  // Descent [32] and small world graph construction [34]". The RP-forest
  // baseline shows the opposite trade-off (§2.2): cheap but low recall.
  std::printf("\nshape checks:\n");
  std::printf("  Alg.3 build cheaper than NN-Descent: %s (%.2fs vs %.2fs)\n",
              alg3_secs < nnd_secs ? "PASS" : "FAIL", alg3_secs, nnd_secs);
  std::printf("  Alg.3 build cheaper than NSW:        %s (%.2fs vs %.2fs)\n",
              alg3_secs < nsw_secs ? "PASS" : "FAIL", alg3_secs, nsw_secs);
  return 0;
}
