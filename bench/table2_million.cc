// Copyright 2026 The gkmeans Authors.
// Reproduces Tab. 2 (the paper's headline): partitioning VLAD10M into 1M
// clusters — here scaled to keep the paper's n/k = 10 ratio. Compares
// KGraph+GK-means, GK-means and closure k-means on init/iteration/total
// time, final distortion E and the recall of the supplied KNN graph
// (sampled over 100 nodes, the paper's protocol).
// Paper shapes: GK-means fastest total and best E; KGraph+GK-means far
// slower init (NN-Descent) yet *higher* graph recall — its E still loses
// to GK-means because Alg. 3's graph carries clustering structure;
// closure k-means sits between on time and worst on E.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/gk_means.h"
#include "core/graph_builder.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"
#include "graph/nn_descent.h"
#include "kmeans/closure_kmeans.h"

namespace {

struct Row {
  const char* method;
  double init_s;
  double iter_s;
  double total_s;
  double distortion;
  double recall;  // -1 = N.A.
};

void Print(const Row& r) {
  std::printf("%-18s %-9.1f %-9.1f %-9.1f %-10.5f ", r.method, r.init_s,
              r.iter_s, r.total_s, r.distortion);
  if (r.recall >= 0.0) {
    std::printf("%-8.2f\n", r.recall);
  } else {
    std::printf("%-8s\n", "N.A.");
  }
}

}  // namespace

int main() {
  const std::size_t n = gkm::bench::ScaledN(30000);
  const std::size_t k = n / 10;  // the paper's 10M -> 1M ratio
  // kappa = 40 (paper: 50): NN-Descent's local-join cost grows
  // quadratically in kappa, which is precisely why the paper's
  // KGraph init is 10x slower than Alg. 3 at equal degree.
  const std::size_t kappa = 40;
  const std::size_t iters = 30;  // all methods early-stop on convergence

  gkm::bench::Header("Table 2", "challenge test: n/k = 10 ultra-fine "
                                "clustering on VLAD-like data");
  std::printf("dataset: VLAD-like n=%zu d=512; k=%zu; kappa=%zu\n\n", n, k,
              kappa);
  const gkm::SyntheticData data = gkm::MakeVladLike(n, 512, 42);
  const gkm::Matrix& x = data.vectors;

  // Sampled graph-recall ground truth (100 probes, as in §5.1).
  gkm::Rng rng(3);
  const std::vector<std::uint32_t> subset = rng.SampleDistinct(n, 100);
  const std::vector<std::uint32_t> subset_nn =
      gkm::ExactNearestForSubset(x, subset);

  std::vector<Row> rows;

  {  // KGraph+GK-means
    gkm::Timer timer;
    gkm::NnDescentParams np;
    np.k = kappa;
    const gkm::KnnGraph g = NnDescent(x, np);
    const double graph_secs = timer.Seconds();
    gkm::GkMeansParams p;
    p.k = k;
    p.kappa = kappa;
    p.max_iters = iters;
    const gkm::ClusteringResult res = GkMeansWithGraph(x, g, p);
    rows.push_back({"KGraph+GK-means", graph_secs + res.init_seconds,
                    res.iter_seconds, graph_secs + res.total_seconds,
                    res.distortion,
                    gkm::SampledRecallAt1(g, subset, subset_nn)});
  }
  {  // GK-means (standard: Alg. 3 graph)
    gkm::Timer timer;
    gkm::GraphBuildParams gp;
    gp.kappa = kappa;
    gp.xi = 50;
    gp.tau = 10;
    gp.threads = 1;  // one core, like the baselines
    const gkm::KnnGraph g = BuildKnnGraph(x, gp);
    const double graph_secs = timer.Seconds();
    gkm::GkMeansParams p;
    p.k = k;
    p.kappa = kappa;
    p.max_iters = iters;
    const gkm::ClusteringResult res = GkMeansWithGraph(x, g, p);
    rows.push_back({"GK-means", graph_secs + res.init_seconds,
                    res.iter_seconds, graph_secs + res.total_seconds,
                    res.distortion,
                    gkm::SampledRecallAt1(g, subset, subset_nn)});
  }
  {  // closure k-means
    gkm::ClosureParams p;
    p.k = k;
    p.num_trees = 3;
    p.leaf_size = 50;
    p.max_iters = iters;
    const gkm::ClusteringResult res = ClosureKMeans(x, p);
    rows.push_back({"Closure k-means", res.init_seconds, res.iter_seconds,
                    res.total_seconds, res.distortion, -1.0});
  }

  std::printf("%-18s %-9s %-9s %-9s %-10s %-8s\n", "Method", "Init(s)",
              "Iter(s)", "Total(s)", "E", "Recall");
  for (const Row& r : rows) Print(r);

  std::printf("\nshape checks:\n");
  // At paper scale NN-Descent's init dominates (27.3h vs 2.7h); the same
  // ordering must hold here at equal graph degree.
  std::printf("  GK-means beats KGraph+GK-means on total time: %s "
              "(%.1fs vs %.1fs)\n",
              rows[1].total_s < rows[0].total_s ? "PASS" : "FAIL",
              rows[1].total_s, rows[0].total_s);
  // Quality: GK-means at worst within 1%% of the (near-exact-graph)
  // KGraph config — the paper even reports it slightly ahead — and
  // clearly below closure.
  std::printf("  GK-means E within 1%% of KGraph+GK-means E: %s "
              "(%.5f vs %.5f)\n",
              rows[1].distortion <= 1.01 * rows[0].distortion ? "PASS"
                                                              : "FAIL",
              rows[1].distortion, rows[0].distortion);
  std::printf("  closure worst E:               %s\n",
              rows[2].distortion >=
                      std::max(rows[0].distortion, rows[1].distortion)
                  ? "PASS"
                  : "FAIL");
  std::printf("  KGraph recall >= Alg.3 recall: %s (%.2f vs %.2f) — higher "
              "recall buys no E advantage\n",
              rows[0].recall >= rows[1].recall ? "PASS" : "FAIL",
              rows[0].recall, rows[1].recall);
  return 0;
}
