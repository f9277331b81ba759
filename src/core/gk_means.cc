// Copyright 2026 The gkmeans Authors.

#include "core/gk_means.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/distance.h"
#include "common/kernels.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/candidate_harvest.h"
#include "kmeans/cluster_state.h"
#include "kmeans/two_means_tree.h"
#include "obs/trace.h"

namespace gkm {

namespace {

/// Points of a block whose decisions are computed side by side.
constexpr std::size_t kBlock = 256;
/// Visits ahead whose row and neighbor list an epoch prefetches.
constexpr std::size_t kPrefetchAhead = 8;

/// Hints every cache line of [p, p + bytes) into the cache.
inline void PrefetchBytes(const void* p, std::size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(c + off);
  __builtin_prefetch(c + bytes - 1);
}

/// One point's Δ-I decision and what it read: its cluster `from` and the
/// harvested candidates. It holds for as long as none of those changes.
struct Proposal {
  std::uint32_t from = 0;
  std::uint32_t to = 0;  ///< equals `from` for a stay
  bool cached = false;   ///< a stay reused from the cache, nothing scored
  std::vector<std::uint32_t> cand;
};

/// One thread's harvest dedup stamps and gain buffer.
struct Scratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t cur_stamp = 0;
  std::vector<double> gains;
};

/// Alg. 2's BKM epochs, exact at any block size and pool size. An epoch
/// walks the visit order in blocks. Each point's decision is computed
/// against the state at its block's start, on the pool's workers when
/// there is a pool; the calling thread then commits the decisions in
/// order. A decision that read a cluster changed earlier in the block is
/// recomputed against the live state. That check is exact: a neighbor's
/// move changes its old cluster, which the decision read. So every commit
/// is the serial algorithm's step, and a block of 1 is that algorithm.
///
/// `moves_` counts the moves committed so far; `changed_[c]` holds its
/// value after the last move into or out of cluster c, and `stayed_[i]`
/// its value when point i last stayed. A point that has not moved since
/// it stayed and whose harvest returns only clusters unchanged since
/// would read the same state again (each neighbor's last move changed the
/// cluster it is in now), so it stays without being scored.
class DeltaIEpochs {
 public:
  DeltaIEpochs(const Matrix& data, const std::vector<float>& norms,
               const std::vector<std::uint32_t>& flat, std::size_t kappa,
               std::size_t k, ThreadPool* pool, ClusterState& state,
               std::vector<std::uint32_t>& labels)
      : data_(data), norms_(norms), flat_(flat), kappa_(kappa), pool_(pool),
        state_(state), labels_(labels), changed_(k, 0),
        stayed_(data.rows(), kNever), scratch_(NumSlots(pool)),
        props_(pool == nullptr ? 1 : kBlock) {
    for (Scratch& s : scratch_) {
      s.stamp.assign(k, 0);
      s.gains.reserve(kappa + 1);
    }
    for (Proposal& p : props_) p.cand.reserve(kappa);
  }

  /// Runs one epoch over `order`, in blocks of kBlock on the pool's
  /// workers, or one point at a time inline when `inline_only` is set or
  /// there is no pool. Adds its visits to `res`'s work counts and returns
  /// the moves committed.
  std::size_t Run(const std::vector<std::uint32_t>& order, bool inline_only,
                  ClusteringResult& res) {
    const std::size_t n = order.size();
    ThreadPool* const pool = inline_only ? nullptr : pool_;
    const std::size_t block = pool == nullptr ? 1 : kBlock;
    std::size_t b = 0;
    const std::function<void(std::size_t, std::size_t)> propose =
        [&](std::size_t slot, std::size_t j) {
          const std::size_t ahead = b + j + kPrefetchAhead;
          if (ahead < n) Prefetch(order[ahead]);
          Propose(order[b + j], scratch_[slot], props_[j]);
        };
    std::size_t moves = 0;
    for (; b < n; b += block) {
      const std::size_t m = std::min(block, n - b);
      const std::uint64_t start = moves_;
      ParallelForSlots(pool, 0, m, propose);
      for (std::size_t j = 0; j < m; ++j) {
        moves += Commit(order[b + j], props_[j], start, res);
      }
    }
    return moves;
  }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  void Prefetch(std::uint32_t i) const {
    PrefetchBytes(data_.Row(i), data_.cols() * sizeof(float));
    PrefetchBytes(flat_.data() + static_cast<std::size_t>(i) * kappa_,
                  kappa_ * sizeof(std::uint32_t));
  }

  /// Point i's decision against the current state. Writes only `s` and `p`.
  void Propose(std::uint32_t i, Scratch& s, Proposal& p) const {
    const std::uint32_t u = labels_[i];
    p.from = p.to = u;
    p.cached = false;
    p.cand.clear();
    if (state_.CountOf(u) < 2) return;
    HarvestCandidates(flat_.data() + static_cast<std::size_t>(i) * kappa_,
                      kappa_, labels_, u, s.stamp, ++s.cur_stamp, p.cand);
    if (p.cand.empty()) return;
    if (stayed_[i] != kNever && !ChangedSince(p, stayed_[i])) {
      p.cached = true;
      return;
    }
    p.to = DeltaIDecide(state_, data_.Row(i), norms_[i], u, p.cand, s.gains);
  }

  /// True when a cluster `p` read has changed since the move clock read
  /// `since`.
  bool ChangedSince(const Proposal& p, std::uint64_t since) const {
    if (changed_[p.from] > since) return true;
    for (const std::uint32_t c : p.cand) {
      if (changed_[c] > since) return true;
    }
    return false;
  }

  /// Commits point i's decision `p`, computed when the move clock read
  /// `start`, recomputing it first if a cluster it read has changed since.
  /// Returns 1 for a move, 0 for a stay.
  std::size_t Commit(std::uint32_t i, Proposal& p, std::uint64_t start,
                     ClusteringResult& res) {
    if (moves_ != start && ChangedSince(p, start)) {
      Propose(i, scratch_[0], p);
      ++res.proposals_recomputed;
    } else if (p.cached) {
      ++res.cached_stays;
    } else {
      ++res.proposals_committed;
    }
    if (p.to == p.from) {
      stayed_[i] = moves_;
      return 0;
    }
    state_.Move(data_.Row(i), p.from, p.to);
    labels_[i] = p.to;
    ++moves_;
    changed_[p.from] = changed_[p.to] = moves_;
    stayed_[i] = kNever;
    return 1;
  }

  const Matrix& data_;
  const std::vector<float>& norms_;
  const std::vector<std::uint32_t>& flat_;
  const std::size_t kappa_;
  ThreadPool* const pool_;
  ClusterState& state_;
  std::vector<std::uint32_t>& labels_;
  std::uint64_t moves_ = 0;
  std::vector<std::uint64_t> changed_;
  std::vector<std::uint64_t> stayed_;
  std::vector<Scratch> scratch_;  // one per pool slot; slot 0 also commits
  std::vector<Proposal> props_;   // the current block's decisions
};

}  // namespace

GkStart MakeGkStart(const Matrix& data, const GkMeansParams& params) {
  GKM_TRACE_SPAN("core.two_means_tree");
  Timer timer;
  GkStart start{{}, Rng(params.seed)};
  TwoMeansParams tree;
  tree.k = params.k;
  tree.bisect_epochs = params.bisect_epochs;
  start.labels = TwoMeansTree(data, tree, start.rng);
  start.seconds = timer.Seconds();
  return start;
}

ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params) {
  return GkMeansWithGraph(data, graph, params, MakeGkStart(data, params));
}

ClusteringResult GkMeansWithGraph(const Matrix& data, const KnnGraph& graph,
                                  const GkMeansParams& params, GkStart start,
                                  ThreadPool* pool) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  const std::size_t k = params.k;
  GKM_CHECK(k > 0 && k <= n);
  GKM_CHECK_MSG(graph.num_nodes() == n, "graph/data size mismatch");
  GKM_CHECK(params.kappa > 0);
  GKM_CHECK_MSG(start.labels.size() == n, "start/data size mismatch");

  ClusteringResult res;
  res.method = params.traditional ? "gk-means-" : "gk-means";
  Rng& rng = start.rng;
  std::vector<std::uint32_t>& labels = start.labels;

  // The run's clock starts when obtaining the start did.
  Timer timer;
  const auto elapsed = [&] { return start.seconds + timer.Seconds(); };
  // Flattened once per run — the graph is static during batch clustering.
  const std::size_t kappa = std::min(params.kappa, graph.k());
  const std::vector<std::uint32_t> flat =
      graph.FlattenNeighborIds(kappa, pool);

  ClusterState state(data, labels, k);
  std::vector<float> norms(n);
  RowNormsSqr(data, norms.data());

  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  res.init_seconds = elapsed();

  Timer iter_timer;
  if (!params.traditional) {
    // --- BKM mode: incremental Delta-I moves over harvested candidates.
    // The first epoch moves about half the points, so most block
    // decisions would go stale: it runs inline, as do all epochs without
    // a pool. ---
    DeltaIEpochs epochs(data, norms, flat, kappa, k, pool, state, labels);
    for (std::size_t it = 0; it < params.max_iters; ++it) {
      rng.Shuffle(order);
      const std::size_t moves = epochs.Run(order, it == 0, res);
      res.trace.push_back(
          IterStat{it, state.Distortion(), elapsed(), moves});
      res.iterations = it + 1;
      if (moves == 0) break;
    }
  } else {
    // --- Traditional mode (GK-means⁻): nearest candidate centroid with
    // batch Lloyd updates. ---
    std::vector<std::uint32_t> stamp(k, 0);
    std::uint32_t cur_stamp = 0;
    std::vector<std::uint32_t> cand;
    cand.reserve(kappa + 1);
    Matrix centroids = state.Centroids();
    std::vector<const float*> cand_rows;
    std::vector<float> cand_dist;
    for (std::size_t it = 0; it < params.max_iters; ++it) {
      std::size_t moves = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t u = labels[i];
        ++cur_stamp;
        // The current cluster always competes, so pass k (an impossible
        // label) as `skip` and seed the list with u.
        cand.clear();
        cand.push_back(u);
        stamp[u] = cur_stamp;
        HarvestCandidates(flat.data() + i * kappa, kappa, labels,
                          static_cast<std::uint32_t>(k), stamp, cur_stamp,
                          cand);
        // One gathered batch over the harvested candidate centroids.
        const float* x = data.Row(i);
        cand_rows.clear();
        for (const std::uint32_t v : cand) cand_rows.push_back(centroids.Row(v));
        cand_dist.resize(cand.size());
        L2SqrBatchGather(x, cand_rows.data(), cand.size(), d,
                         cand_dist.data());
        float best_dist = std::numeric_limits<float>::max();
        std::uint32_t best_v = u;
        for (std::size_t ci = 0; ci < cand.size(); ++ci) {
          if (cand_dist[ci] < best_dist) {
            best_dist = cand_dist[ci];
            best_v = cand[ci];
          }
        }
        if (best_v != u) {
          ++moves;
          labels[i] = best_v;
        }
      }
      state.Rebuild(data, labels);
      centroids = state.Centroids();
      res.trace.push_back(
          IterStat{it, state.Distortion(), elapsed(), moves});
      res.iterations = it + 1;
      if (moves == 0) break;
    }
  }
  res.iter_seconds = iter_timer.Seconds();
  res.total_seconds = elapsed();

  res.distortion = state.Distortion();
  res.centroids = state.Centroids();
  res.assignments = std::move(labels);
  return res;
}

}  // namespace gkm
