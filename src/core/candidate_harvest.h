// Copyright 2026 The gkmeans Authors.
// Alg. 2's Delta-I step, one copy for batch GK-means and the streaming
// subsystem: HarvestCandidates collects the distinct cluster ids of a
// sample's graph neighbors (epoch-stamped dedup, O(kappa) with no
// clearing), BestArrival and DeltaIDecide score them, and DeltaIEpochs is
// the epoch driver both pipelines run through a small point/graph view.

#ifndef GKM_CORE_CANDIDATE_HARVEST_H_
#define GKM_CORE_CANDIDATE_HARVEST_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/top_k.h"
#include "kmeans/cluster_state.h"
#include "kmeans/types.h"

namespace gkm {

/// The label of a point that belongs to no cluster (a streaming slot not
/// yet assigned, or tombstoned).
inline constexpr std::uint32_t kNoLabel =
    std::numeric_limits<std::uint32_t>::max();

/// Labels read at a stride: `[j]` is `base[j * stride]`. Slot j of shard s
/// of a sharded arena is global id j·S + s, so the global-id labels based
/// at s with stride S index shard s's local graph rows.
struct StridedLabels {
  const std::uint32_t* base;
  std::size_t stride;
  std::uint32_t operator[](std::uint32_t j) const { return base[j * stride]; }
};

/// Collects the distinct cluster ids of the first `kappa` labeled
/// neighbors of the graph row `nbrs` (nearest first) into `cand`,
/// excluding `skip` (pass an impossible label, e.g. k, to keep all). A
/// neighbor labeled kNoLabel is passed over and not counted. `labels[id]`
/// is neighbor `id`'s label: a label vector, or any view with that
/// operator. `stamp`/`cur_stamp` implement the allocation-free dedup; the
/// caller increments `cur_stamp` before every call.
template <typename Labels>
inline void HarvestCandidates(std::span<const Neighbor> nbrs,
                              std::size_t kappa, const Labels& labels,
                              std::uint32_t skip,
                              std::vector<std::uint32_t>& stamp,
                              std::uint32_t cur_stamp,
                              std::vector<std::uint32_t>& cand) {
  cand.clear();
  std::size_t taken = 0;
  for (std::size_t j = 0; j < nbrs.size() && taken < kappa; ++j) {
    const std::uint32_t c = labels[nbrs[j].id];
    if (c == kNoLabel) continue;
    ++taken;
    if (c == skip || stamp[c] == cur_stamp) continue;
    stamp[c] = cur_stamp;
    cand.push_back(c);
  }
}

/// A candidate cluster and its arrival gain.
struct Arrival {
  std::uint32_t cluster;
  double gain;
};

/// The candidate with the largest arrival gain for `x` (squared norm `xn`),
/// scored with one batched GainArriveBatch into `gains`. Candidates are
/// scanned in harvest order and only a strictly larger gain replaces the
/// best, so ties keep the earliest. The cluster is `none` when `cand` is
/// empty or no gain compares greater than the lowest double.
inline Arrival BestArrival(const ClusterState& state, const float* x, float xn,
                           const std::vector<std::uint32_t>& cand,
                           std::uint32_t none, std::vector<double>& gains) {
  gains.resize(cand.size());
  state.GainArriveBatch(x, xn, cand.data(), cand.size(), gains.data());
  Arrival best{none, -std::numeric_limits<double>::max()};
  for (std::size_t ci = 0; ci < cand.size(); ++ci) {
    if (gains[ci] > best.gain) best = {cand[ci], gains[ci]};
  }
  return best;
}

/// The Delta-I decision (Alg. 2) for point `x` in cluster `u`: its best
/// harvested candidate when the total gain (arrival + leave) is positive,
/// `u` otherwise. Reads only the clusters `u` and `cand` of `state`.
inline std::uint32_t DeltaIDecide(const ClusterState& state, const float* x,
                                  float xn, std::uint32_t u,
                                  const std::vector<std::uint32_t>& cand,
                                  std::vector<double>& gains) {
  const Arrival best = BestArrival(state, x, xn, cand, u, gains);
  if (best.cluster == u) return u;
  return best.gain + state.GainLeave(x, xn, u) > 0.0 ? best.cluster : u;
}

/// The stay cache's storage, kept by whoever runs drivers over the same
/// points: a stream runs a driver per epoch call, and a kept cache spares
/// each an O(n) fill. `stayed[i]` is the move clock when point i last
/// stayed. Each driver starts the clock past every stored value, so a
/// value stored by an earlier driver reads as stale.
struct DeltaIStayCache {
  std::uint64_t clock = 0;
  std::vector<std::uint64_t> stayed;
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
/// `clock_` advances at the driver's start and at every committed move;
/// `changed_[c]` holds its value at the driver's start or after the last
/// move into or out of cluster c, whichever is later, and `stayed_[i]`
/// its value when point i last stayed. A point that has not moved since
/// it stayed and whose harvest returns only clusters unchanged since
/// would read the same state again (each neighbor's last move changed the
/// cluster it is in now), so it stays without being scored. Points and
/// graph rows must not change during the driver's life, and only its
/// commits may change `labels` and `state`. A kNoLabel point is a stay.
///
/// The view serves point i's row and squared norm as a pair Point(i)
/// (re-read on the committing thread, so the row may live in thread-local
/// storage), its graph row Neighbors(i), the label view HarvestLabels(i)
/// its row's ids index, and a cache hint Prefetch(i); OnMove(i, v) follows
/// each move, in order.
template <typename View>
class DeltaIEpochs {
 public:
  DeltaIEpochs(View view, std::size_t kappa, ThreadPool* pool,
               ClusterState& state, std::vector<std::uint32_t>& labels,
               DeltaIStayCache& cache)
      : view_(std::move(view)), kappa_(kappa), pool_(pool), state_(state),
        labels_(labels), clock_(cache.clock), stayed_(cache.stayed),
        scratch_(NumSlots(pool)), props_(pool == nullptr ? 1 : kBlock) {
    // Past every stored value; a point never seen stays at 0, below it.
    changed_.assign(state.k(), ++clock_);
    stayed_.resize(labels.size(), 0);
    for (Scratch& s : scratch_) {
      s.stamp.assign(state.k(), 0);
      s.gains.reserve(kappa + 1);
    }
    for (Proposal& p : props_) p.cand.reserve(kappa);
  }

  /// Runs one epoch over `order`, in blocks of kBlock on the pool's
  /// workers, or one point at a time inline when `inline_only` is set or
  /// there is no pool. Returns the moves committed.
  std::size_t Run(const std::vector<std::uint32_t>& order, bool inline_only) {
    const std::size_t n = order.size();
    std::size_t moves = 0;
    if (inline_only || pool_ == nullptr) {
      // Blocks of 1, without the fork/join call per point.
      for (std::size_t j = 0; j < n; ++j) {
        if (j + kPrefetchAhead < n) view_.Prefetch(order[j + kPrefetchAhead]);
        Propose(order[j], scratch_[0], props_[0]);
        moves += Commit(order[j], props_[0], clock_);
      }
      return moves;
    }
    std::size_t b = 0;
    const std::function<void(std::size_t, std::size_t)> propose =
        [&](std::size_t slot, std::size_t j) {
          const std::size_t ahead = b + j + kPrefetchAhead;
          if (ahead < n) view_.Prefetch(order[ahead]);
          Propose(order[b + j], scratch_[slot], props_[j]);
        };
    for (; b < n; b += kBlock) {
      const std::size_t m = std::min(kBlock, n - b);
      const std::uint64_t start = clock_;
      ParallelForSlots(pool_, 0, m, propose);
      for (std::size_t j = 0; j < m; ++j) {
        moves += Commit(order[b + j], props_[j], start);
      }
    }
    return moves;
  }

  const DeltaIWork& work() const { return work_; }

 private:
  /// Points of a block whose decisions are computed side by side.
  static constexpr std::size_t kBlock = 256;
  /// Visits ahead that an epoch hints into the cache.
  static constexpr std::size_t kPrefetchAhead = 8;

  /// One point's decision and what it read: its cluster `from` and the
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

  /// Point i's decision against the current state. Writes only `s` and `p`.
  void Propose(std::uint32_t i, Scratch& s, Proposal& p) const {
    const std::uint32_t u = labels_[i];
    p.from = p.to = u;
    p.cached = false;
    p.cand.clear();
    if (u == kNoLabel || state_.CountOf(u) < 2) return;
    HarvestCandidates(view_.Neighbors(i), kappa_, view_.HarvestLabels(i), u,
                      s.stamp, ++s.cur_stamp, p.cand);
    if (p.cand.empty()) return;
    if (!ChangedSince(p, stayed_[i])) {
      p.cached = true;
      return;
    }
    const auto [x, xn] = view_.Point(i);
    p.to = DeltaIDecide(state_, x, xn, u, p.cand, s.gains);
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
  std::size_t Commit(std::uint32_t i, Proposal& p, std::uint64_t start) {
    if (p.from == kNoLabel) return 0;
    if (clock_ != start && ChangedSince(p, start)) {
      Propose(i, scratch_[0], p);
      ++work_.proposals_recomputed;
    } else if (p.cached) {
      ++work_.cached_stays;
    } else {
      ++work_.proposals_committed;
    }
    if (p.to == p.from) {
      stayed_[i] = clock_;
      return 0;
    }
    state_.Move(view_.Point(i).first, p.from, p.to);
    labels_[i] = p.to;
    view_.OnMove(i, p.to);
    changed_[p.from] = changed_[p.to] = ++clock_;
    stayed_[i] = 0;
    return 1;
  }

  View view_;
  const std::size_t kappa_;
  ThreadPool* const pool_;
  ClusterState& state_;
  std::vector<std::uint32_t>& labels_;
  std::uint64_t& clock_;
  std::vector<std::uint64_t>& stayed_;
  std::vector<std::uint64_t> changed_;
  std::vector<Scratch> scratch_;  // one per pool slot; slot 0 also commits
  std::vector<Proposal> props_;   // the current block's decisions
  DeltaIWork work_;
};

}  // namespace gkm

#endif  // GKM_CORE_CANDIDATE_HARVEST_H_
