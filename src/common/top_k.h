// Copyright 2026 The gkmeans Authors.
// Bounded nearest-neighbor list of brute-force search, the batched top-k
// kernel (L2SqrToTopK) and route hints. Keeps the k closest (id, distance)
// pairs seen so far, rejecting duplicates, with O(log k) insertion via a
// max-heap. KnnGraph's sorted rows follow the same offer rule.

#ifndef GKM_COMMON_TOP_K_H_
#define GKM_COMMON_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace gkm {

/// One directed KNN-graph edge: `id` is the neighbor, `dist` the squared L2
/// distance to it. Ordering is by distance, ties broken by id so sorts are
/// deterministic.
struct Neighbor {
  std::uint32_t id = 0;
  float dist = 0.0f;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.dist == b.dist;
  }
};

/// Fixed-capacity set of the `k` closest neighbors observed so far.
///
/// Insertion keeps a max-heap on distance so the current worst element is
/// inspected in O(1); a linear duplicate scan over <= k entries precedes any
/// structural change (k is ~50 here, so the scan is cheaper in practice than
/// maintaining a side hash set).
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) { GKM_CHECK(k > 0); heap_.reserve(k); }

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() == k_; }

  /// Distance of the current worst retained neighbor; +inf semantics are the
  /// caller's concern when not full().
  float WorstDist() const {
    GKM_DCHECK(!heap_.empty());
    return heap_.front().dist;
  }

  /// Attempts to add (id, dist). Returns true when the set changed.
  bool Push(std::uint32_t id, float dist) {
    if (full() && dist >= heap_.front().dist) return false;
    for (const Neighbor& nb : heap_) {
      if (nb.id == id) return false;
    }
    if (full()) {
      std::pop_heap(heap_.begin(), heap_.end(), ByDist);
      heap_.back() = Neighbor{id, dist};
    } else {
      heap_.push_back(Neighbor{id, dist});
    }
    std::push_heap(heap_.begin(), heap_.end(), ByDist);
    return true;
  }

  /// Extracts the contents sorted ascending by distance, leaving the set
  /// empty.
  std::vector<Neighbor> TakeSorted() {
    std::sort(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

  /// Read-only view of the unordered contents.
  const std::vector<Neighbor>& items() const { return heap_; }

 private:
  static bool ByDist(const Neighbor& a, const Neighbor& b) { return a < b; }

  std::size_t k_;
  std::vector<Neighbor> heap_;
};

}  // namespace gkm

#endif  // GKM_COMMON_TOP_K_H_
