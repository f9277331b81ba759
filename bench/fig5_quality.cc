// Copyright 2026 The gkmeans Authors.
// Reproduces Fig. 5: average distortion as a function of (a/c/e) iteration
// and (b/d/f) wall-clock time on SIFT1M-, GloVe1M- and GIST1M-like data
// (scaled), for Mini-Batch, closure k-means, k-means, BKM,
// KGraph+GK-means and GK-means. k = n/100 as in the paper (10,000 clusters
// per 1M points). Paper shapes: BKM best distortion; GK-means within a
// hair of BKM and fastest; Mini-Batch clearly worst; KGraph+GK-means ~=
// GK-means but slower end-to-end.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/gk_means.h"
#include "core/pipeline.h"
#include "dataset/synthetic.h"
#include "graph/nn_descent.h"
#include "kmeans/boost_kmeans.h"
#include "kmeans/closure_kmeans.h"
#include "kmeans/lloyd.h"
#include "kmeans/mini_batch.h"

namespace {

void PrintTrace(const gkm::ClusteringResult& res) {
  gkm::bench::PrintSeriesHeader("iteration", "distortion | elapsed(s)",
                                res.method.c_str());
  for (const gkm::IterStat& s : res.trace) {
    if (s.distortion < 0.0) continue;  // Mini-Batch off-cadence entries
    std::printf("%-12zu %-12.5f %-10.2f\n", s.iteration + 1, s.distortion,
                s.elapsed_seconds);
  }
  std::printf("final: E=%.5f total=%.2fs (init %.2fs + iter %.2fs)\n",
              res.distortion, res.total_seconds, res.init_seconds,
              res.iter_seconds);
}

void RunDataset(const std::string& family, std::size_t n,
                std::size_t iters, std::size_t points_per_cluster) {
  // The paper pairs n=1M with k=10,000 (k/kappa = 200). A proportional
  // k = n/100 at laptop scale would collapse that ratio to ~10 and hide
  // the k-independence of GK-means, so we keep k/kappa >= 25 instead.
  const std::size_t k = std::max<std::size_t>(16, n / points_per_cluster);
  std::printf("\n---------------- dataset %s: n=%zu k=%zu ----------------\n",
              family.c_str(), n, k);
  const gkm::SyntheticData data = gkm::MakeByFamily(family, n, 42);
  const gkm::Matrix& x = data.vectors;
  std::vector<gkm::ClusteringResult> all;

  {
    gkm::MiniBatchParams p;
    p.k = k;
    p.batch_size = 1000;
    p.max_iters = iters;
    p.eval_every = 5;
    all.push_back(MiniBatchKMeans(x, p));
  }
  {
    gkm::ClosureParams p;
    p.k = k;
    p.num_trees = 3;
    p.leaf_size = 50;
    p.max_iters = iters;
    all.push_back(ClosureKMeans(x, p));
  }
  {
    gkm::LloydParams p;
    p.k = k;
    p.max_iters = iters;
    all.push_back(LloydKMeans(x, p));
  }
  {
    gkm::BkmParams p;
    p.k = k;
    p.max_iters = iters;
    all.push_back(BoostKMeans(x, p));
  }
  {
    // KGraph+GK-means: NN-Descent graph, then BKM-mode Alg. 2. The graph
    // cost is charged to init, as in the paper's accounting.
    gkm::Timer timer;
    gkm::NnDescentParams np;
    np.k = 20;
    const gkm::KnnGraph g = NnDescent(x, np);
    const double graph_secs = timer.Seconds();
    gkm::GkMeansParams p;
    p.k = k;
    p.kappa = 20;
    p.max_iters = iters;
    gkm::ClusteringResult res = GkMeansWithGraph(x, g, p);
    res.method = "kgraph+gk-means";
    res.init_seconds += graph_secs;
    res.total_seconds += graph_secs;
    for (gkm::IterStat& s : res.trace) s.elapsed_seconds += graph_secs;
    all.push_back(std::move(res));
  }
  {
    gkm::PipelineParams p;
    p.k = k;
    p.graph.kappa = 20;
    p.graph.xi = 50;
    p.graph.tau = 8;
    p.graph.threads = 1;  // one core, like the baselines
    p.clustering.kappa = 20;
    p.clustering.max_iters = iters;
    all.push_back(GkMeansCluster(x, p).clustering);
  }

  for (const auto& res : all) PrintTrace(res);

  // Shape checks for this dataset.
  const double mb = all[0].distortion, closure = all[1].distortion,
               km = all[2].distortion, bkm = all[3].distortion,
               kgraph_gk = all[4].distortion, gk = all[5].distortion;
  std::printf("\nshape checks (%s):\n", family.c_str());
  std::printf("  BKM best distortion:        %s (bkm %.4f vs min-others %.4f)\n",
              bkm <= std::min({mb, closure, km, gk, kgraph_gk}) * 1.02
                  ? "PASS"
                  : "FAIL",
              bkm, std::min({mb, closure, km, gk, kgraph_gk}));
  std::printf("  GK within 10%% of BKM:       %s (gk/bkm = %.3f)\n",
              gk < 1.10 * bkm ? "PASS" : "FAIL", gk / bkm);
  std::printf("  Mini-Batch worst:           %s\n",
              mb >= std::max({closure, km, bkm, gk, kgraph_gk}) ? "PASS"
                                                                : "FAIL");
  // Timing checks mirror what Fig. 5(b/d/f) actually plots: the paper
  // excludes k-means/BKM/Mini-Batch from the time axis ("efficiency ...
  // not on the same level"); the k-scaling of those methods is checked in
  // the Fig. 6 bench. Here: GK must reach its (BKM-grade) distortion in a
  // fraction of BKM's time, and at worst be comparable to the NN-Descent
  // supplied configuration.
  std::printf("  GK much faster than BKM:     %s (gk %.1fs vs bkm %.1fs; "
              "km %.1fs, closure %.1fs)\n",
              all[5].total_seconds < 0.5 * all[3].total_seconds ? "PASS"
                                                                : "FAIL",
              all[5].total_seconds, all[3].total_seconds,
              all[2].total_seconds, all[1].total_seconds);
  std::printf("  GK <= 1.5x KGraph+GK time:   %s (%.1fs vs %.1fs)\n",
              all[5].total_seconds < 1.5 * all[4].total_seconds ? "PASS"
                                                                : "FAIL",
              all[5].total_seconds, all[4].total_seconds);
}

}  // namespace

int main() {
  gkm::bench::Header("Figure 5", "distortion vs iteration and vs time, six "
                                 "methods, three corpora");
  const std::size_t iters = 30;
  RunDataset("sift", gkm::bench::ScaledN(20000), iters, 40);
  RunDataset("glove", gkm::bench::ScaledN(20000), iters, 40);
  // GIST is scaled to fewer points (d=960 dominates cost); k is raised
  // proportionally so the k >> kappa regime is preserved.
  RunDataset("gist", gkm::bench::ScaledN(6000), iters, 15);
  return 0;
}
