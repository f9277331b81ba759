// Copyright 2026 The gkmeans Authors.
// Ablations for §4.4 ("Discussion on Parameters") plus the §1/§2 claims
// about triangle-inequality accelerations:
//   (1) kappa sweep: quality stabilizes once enough neighbors are consulted
//       while cost grows with kappa;
//   (2) xi sweep: larger build-clusters improve the graph but cost more;
//   (3) tau sweep: more evolution rounds improve recall with diminishing
//       returns;
//   (4) Elkan/Hamerly vs Lloyd: identical assignments, lower time, but
//       memory/cost that grows with k (why the paper dismisses them for
//       very large k).

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
#include "kmeans/bisecting.h"
#include "kmeans/boost_kmeans.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/init.h"
#include "kmeans/kd_kmeans.h"
#include "kmeans/lloyd.h"
#include "kmeans/two_means_tree.h"

int main() {
  const std::size_t n = gkm::bench::ScaledN(15000);
  const std::size_t k = n / 100;
  gkm::bench::Header("Section 4.4 ablations",
                     "kappa / xi / tau trade-offs + exact accelerations");
  std::printf("dataset: SIFT-like n=%zu d=128; k=%zu\n", n, k);
  const gkm::SyntheticData data = gkm::MakeSiftLike(n, 128, 42);
  const gkm::Matrix& x = data.vectors;

  // Sampled recall ground truth.
  gkm::Rng rng(5);
  const std::vector<std::uint32_t> subset = rng.SampleDistinct(n, 300);
  const std::vector<std::uint32_t> subset_nn =
      gkm::ExactNearestForSubset(x, subset);

  // --- (1) kappa sweep (graph fixed, clustering kappa varies). ---
  {
    gkm::GraphBuildParams gp;
    gp.kappa = 50;
    gp.xi = 50;
    gp.tau = 8;
    gp.threads = 1;  // one core, like the baselines
    const gkm::KnnGraph g = BuildKnnGraph(x, gp);
    gkm::bench::PrintSeriesHeader("kappa", "E | iter time(s)", "kappa sweep");
    for (const std::size_t kappa : {5u, 10u, 20u, 40u, 50u}) {
      gkm::GkMeansParams p;
      p.k = k;
      p.kappa = kappa;
      p.max_iters = 30;
      const gkm::ClusteringResult res = GkMeansWithGraph(x, g, p);
      std::printf("%-12zu %-12.2f %-10.2f\n", kappa, res.distortion,
                  res.iter_seconds);
    }
  }

  // --- (2) xi sweep (cluster size during graph construction). ---
  gkm::bench::PrintSeriesHeader("xi", "recall@1 | build time(s)", "xi sweep");
  for (const std::size_t xi : {20u, 40u, 50u, 80u, 100u}) {
    gkm::Timer timer;
    gkm::GraphBuildParams gp;
    gp.kappa = 20;
    gp.xi = xi;
    gp.tau = 6;
    gp.threads = 1;  // one core, like the baselines
    const gkm::KnnGraph g = BuildKnnGraph(x, gp);
    std::printf("%-12zu %-12.4f %-10.2f\n", xi,
                gkm::SampledRecallAt1(g, subset, subset_nn), timer.Seconds());
  }

  // --- (3) tau sweep. ---
  gkm::bench::PrintSeriesHeader("tau", "recall@1 | build time(s)", "tau sweep");
  for (const std::size_t tau : {2u, 4u, 8u, 16u, 32u}) {
    gkm::Timer timer;
    gkm::GraphBuildParams gp;
    gp.kappa = 20;
    gp.xi = 50;
    gp.tau = tau;
    gp.threads = 1;  // one core, like the baselines
    const gkm::KnnGraph g = BuildKnnGraph(x, gp);
    std::printf("%-12zu %-12.4f %-10.2f\n", tau,
                gkm::SampledRecallAt1(g, subset, subset_nn), timer.Seconds());
  }

  // --- (4) exact accelerations vs Lloyd across k. ---
  std::printf("\n# exact accelerations (identical output to Lloyd)\n");
  std::printf("%-8s %-12s %-12s %-12s %-14s\n", "k", "lloyd(s)", "elkan(s)",
              "hamerly(s)", "elkan mem (MB)");
  for (const std::size_t kk : {16u, 64u, 256u}) {
    gkm::LloydParams lp;
    lp.k = kk;
    lp.max_iters = 15;
    const double lloyd_s = LloydKMeans(x, lp).total_seconds;
    gkm::ElkanParams ep;
    ep.k = kk;
    ep.max_iters = 15;
    const double elkan_s = ElkanKMeans(x, ep).total_seconds;
    gkm::HamerlyParams hp;
    hp.k = kk;
    hp.max_iters = 15;
    const double hamerly_s = HamerlyKMeans(x, hp).total_seconds;
    const double elkan_mb =
        static_cast<double>(n * kk * sizeof(float) + kk * kk * sizeof(float)) /
        (1024.0 * 1024.0);
    std::printf("%-8zu %-12.2f %-12.2f %-12.2f %-14.1f\n", kk, lloyd_s,
                elkan_s, hamerly_s, elkan_mb);
  }
  std::printf("\nNote the O(n k) bound memory of Elkan growing linearly in "
              "k — the paper's §1 argument\nfor why triangle-inequality "
              "accelerations stop scaling at very large k.\n");

  // --- (5) KD-tree k-means across dimensionality (§2.1, Kanungo [35]):
  // "only feasible when the dimension of data is in few tens". ---
  std::printf("\n# KD-tree k-means vs dimensionality (n=8000, k=128, "
              "overlapping data)\n");
  std::printf("%-8s %-16s %-14s %-12s\n", "d", "avg c compared", "kd time(s)",
              "lloyd time(s)");
  for (const std::size_t dim : {4u, 16u, 64u, 128u}) {
    gkm::SyntheticSpec spec;
    spec.n = 8000;
    spec.dim = dim;
    spec.modes = 50;
    spec.center_spread = 1.2;
    spec.cluster_spread = 1.0;
    spec.seed = 99;
    const gkm::SyntheticData dd = gkm::MakeGaussianMixture(spec);
    gkm::KdKMeansParams kp;
    kp.k = 128;
    kp.max_iters = 10;
    gkm::KdKMeansStats stats;
    const double kd_s = KdKMeans(dd.vectors, kp, &stats).total_seconds;
    gkm::LloydParams lp;
    lp.k = 128;
    lp.max_iters = 10;
    const double lloyd_s = LloydKMeans(dd.vectors, lp).total_seconds;
    std::printf("%-8zu %-16.1f %-14.2f %-12.2f\n", dim,
                stats.avg_centroids_compared.back(), kd_s, lloyd_s);
  }
  std::printf("(pruning collapses toward k=128 as d grows — the curse of "
              "dimensionality)\n");

  // --- (6) Hierarchical family vs flat optimization (§2.1/§3.2). ---
  std::printf("\n# hierarchical vs flat (SIFT-like n=%zu, k=%zu)\n", n, k);
  std::printf("%-12s %-12s %-10s\n", "method", "E", "time(s)");
  {
    gkm::BisectingParams p;
    p.k = k;
    const auto r = BisectingKMeans(x, p);
    std::printf("%-12s %-12.2f %-10.2f\n", "bisecting", r.distortion,
                r.total_seconds);
  }
  {
    gkm::TwoMeansParams p;
    p.k = k;
    const auto r = TwoMeansTreeClustering(x, p);
    std::printf("%-12s %-12.2f %-10.2f\n", "2m-tree", r.distortion,
                r.total_seconds);
  }
  {
    gkm::BkmParams p;
    p.k = k;
    p.max_iters = 30;
    const auto r = BoostKMeans(x, p);
    std::printf("%-12s %-12.2f %-10.2f\n", "bkm", r.distortion,
                r.total_seconds);
  }

  // --- (7) Seeding strategies: cost and seed-quantization quality. ---
  std::printf("\n# seeding: random vs k-means++ vs k-means|| (k=%zu)\n", k);
  std::printf("%-12s %-14s %-12s\n", "seeding", "seed time(s)", "final E");
  for (const char* mode : {"random", "++", "||"}) {
    gkm::Rng seed_rng(4);
    gkm::Timer timer;
    gkm::Matrix seeds;
    if (std::string(mode) == "random") {
      seeds = RandomCentroids(x, k, seed_rng);
    } else if (std::string(mode) == "++") {
      seeds = KMeansPlusPlus(x, k, seed_rng);
    } else {
      seeds = KMeansParallel(x, k, 5, 2.0, seed_rng);
    }
    const double seed_secs = timer.Seconds();
    const auto labels = AssignAll(x, seeds);
    const double e0 = gkm::AverageDistortion(x, labels, k);
    std::printf("%-12s %-14.2f %-12.2f\n", mode, seed_secs, e0);
  }
  return 0;
}
