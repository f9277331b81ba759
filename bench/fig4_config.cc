// Copyright 2026 The gkmeans Authors.
// Reproduces Fig. 4 (configuration test): clustering distortion as a
// function of the supplied KNN graph's recall, for three configurations —
//   KGraph+GK-means : graph from NN-Descent, clustering = BKM-mode Alg. 2
//   GK-means        : graph from Alg. 3,     clustering = BKM-mode Alg. 2
//   GK-means-       : graph from Alg. 3,     clustering = traditional mode
// Graphs of increasing recall are produced by sweeping the builders'
// iteration counts. Paper shapes: distortion falls as recall rises;
// BKM-mode dominates traditional mode; at equal recall the Alg. 3 graph
// clusters at least as well as the NN-Descent graph.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/gk_means.h"
#include "core/graph_builder.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"
#include "graph/nn_descent.h"

namespace {

struct Point {
  double recall;
  double distortion;
};

}  // namespace

int main() {
  const std::size_t n = gkm::bench::ScaledN(20000);
  const std::size_t k = n / 100;  // paper: 10,000 clusters on 1M points
  const std::size_t kappa = 20;

  gkm::bench::Header("Figure 4", "distortion vs supplied-graph recall for "
                                 "three GK-means configurations");
  std::printf("dataset: SIFT-like, n=%zu d=128; k=%zu, kappa=%zu\n", n, k,
              kappa);
  const gkm::SyntheticData data = gkm::MakeSiftLike(n, 128, 42);

  // Sampled recall ground truth (the paper's VLAD10M protocol, §5.1).
  const std::size_t probes = 500;
  gkm::Rng rng(7);
  const std::vector<std::uint32_t> subset = rng.SampleDistinct(n, probes);
  const std::vector<std::uint32_t> subset_nn =
      gkm::ExactNearestForSubset(data.vectors, subset);

  auto cluster_with = [&](const gkm::KnnGraph& g, bool traditional) {
    gkm::GkMeansParams p;
    p.k = k;
    p.kappa = kappa;
    p.max_iters = 30;
    p.traditional = traditional;
    return GkMeansWithGraph(data.vectors, g, p).distortion;
  };
  auto recall_of = [&](const gkm::KnnGraph& g) {
    return gkm::SampledRecallAt1(g, subset, subset_nn);
  };

  std::vector<Point> run_alg3_bkm, run_alg3_trad, run_kgraph;

  std::printf("\nsweeping Alg. 3 graphs (tau = 1..12)...\n");
  for (const std::size_t tau : {1u, 2u, 4u, 6u, 9u, 12u}) {
    gkm::GraphBuildParams gp;
    gp.kappa = kappa;
    gp.xi = 50;
    gp.tau = tau;
    gp.threads = 1;  // one core, like the baselines
    const gkm::KnnGraph g = BuildKnnGraph(data.vectors, gp);
    const double rec = recall_of(g);
    run_alg3_bkm.push_back({rec, cluster_with(g, false)});
    run_alg3_trad.push_back({rec, cluster_with(g, true)});
  }

  std::printf("sweeping NN-Descent graphs (iters = 1..8)...\n");
  for (const std::size_t iters : {1u, 2u, 3u, 5u, 8u}) {
    gkm::NnDescentParams np;
    np.k = kappa;
    np.max_iters = iters;
    const gkm::KnnGraph g = NnDescent(data.vectors, np);
    run_kgraph.push_back({recall_of(g), cluster_with(g, false)});
  }

  auto print_series = [](const char* name, const std::vector<Point>& pts) {
    gkm::bench::PrintSeriesHeader("recall", "distortion", name);
    for (const Point& p : pts) {
      std::printf("%-12.4f %-14.2f\n", p.recall, p.distortion);
    }
  };
  print_series("KGraph+GK-means", run_kgraph);
  print_series("GK-means", run_alg3_bkm);
  print_series("GK-means-", run_alg3_trad);

  std::printf("\nshape checks:\n");
  const bool falls =
      run_alg3_bkm.back().distortion < run_alg3_bkm.front().distortion;
  std::printf("  higher recall -> lower distortion (GK-means): %s\n",
              falls ? "PASS" : "FAIL");
  double bkm_worst = 0.0, trad_best = 1e300;
  for (const Point& p : run_alg3_bkm) bkm_worst = std::max(bkm_worst, p.distortion);
  for (const Point& p : run_alg3_trad) trad_best = std::min(trad_best, p.distortion);
  std::printf("  BKM-mode dominates traditional mode:          %s "
              "(worst BKM %.1f vs best trad %.1f)\n",
              bkm_worst < trad_best ? "PASS" : "FAIL", bkm_worst, trad_best);
  return 0;
}
