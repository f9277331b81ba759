// Copyright 2026 The gkmeans Authors.
// The KNN graph container shared by the graph builders (Alg. 3, NN-Descent,
// brute force), the GK-means candidate harvesting loop and the ANN search
// layer. Each node keeps its κ best neighbors found so far as a bounded
// max-heap (TopK).

#ifndef GKM_GRAPH_KNN_GRAPH_H_
#define GKM_GRAPH_KNN_GRAPH_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/top_k.h"

namespace gkm {
namespace io {
class Reader;
}  // namespace io
class ThreadPool;

/// Approximate k-nearest-neighbor graph over `n` nodes with out-degree κ.
class KnnGraph {
 public:
  KnnGraph() = default;

  /// Creates an empty graph (no edges yet) with capacity κ per node.
  KnnGraph(std::size_t n, std::size_t k);

  std::size_t num_nodes() const { return lists_.size(); }
  std::size_t k() const { return k_; }

  /// Total number of directed edges currently stored (<= num_nodes * k).
  std::size_t NumEdges() const;

  /// Neighbor list of node `i` (unsorted; see SortedNeighbors).
  const std::vector<Neighbor>& NeighborsOf(std::size_t i) const {
    return lists_[i].items();
  }

  /// Neighbors of node `i` sorted ascending by distance (copies).
  std::vector<Neighbor> SortedNeighbors(std::size_t i) const;

  /// Allocation-free variant: fills the caller's buffer instead. For hot
  /// loops that fetch lists live from a mutating graph (streaming epochs).
  void SortedNeighborsInto(std::size_t i, std::vector<Neighbor>& out) const;

  /// Flattened, distance-sorted neighbor ids truncated to `kappa` per node:
  /// one cache-friendly row of length `kappa` per node, short lists padded
  /// with UINT32_MAX. The export GK-means iterates over and serializers
  /// walk — callers never touch the heap internals. Each node sorts into
  /// its own row, so `pool`, when given, splits the nodes over its workers;
  /// the array is the same at any pool size.
  std::vector<std::uint32_t> FlattenNeighborIds(
      std::size_t kappa, ThreadPool* pool = nullptr) const;

  /// Appends a node with an empty neighbor list; returns its id. The
  /// incremental-build entry point of the streaming subsystem.
  std::uint32_t AddNode();

  /// Attempts to insert the directed edge i -> (j, dist). Self-loops are
  /// rejected. Returns true when the list changed.
  bool Update(std::size_t i, std::uint32_t j, float dist);

  /// Attempts both directed edges between i and j. Returns the number of
  /// lists changed (0..2).
  int UpdateBoth(std::size_t i, std::size_t j, float dist);

  /// Removes the directed edge i -> j if present; returns true when it
  /// existed. The deletion path of the streaming subsystem (in-edge repair
  /// and tombstone purges).
  bool RemoveNeighbor(std::size_t i, std::uint32_t j);

  /// Empties node i's neighbor list (the node stays allocated). Used when a
  /// node is tombstoned: its slot must stop referencing live nodes.
  void ClearList(std::size_t i);

  /// Fills every list with `k` distinct random neighbors and their true
  /// distances w.r.t. `data` (the random initialization of Alg. 3 line 4):
  /// ScoreRandomCandidates(data, DrawRandomCandidates(rng)).
  void InitRandom(const Matrix& data, Rng& rng);

  /// The Rng half of InitRandom: `k+1` distinct candidates per node, one
  /// row of the returned n×(k+1) array each, drawn in node order. It reads
  /// no data, so Alg. 3 queues work that needs the Rng's next draws before
  /// the distances are computed.
  std::vector<std::uint32_t> DrawRandomCandidates(Rng& rng) const;

  /// The data half of InitRandom: pushes each node's first `k` candidates
  /// other than itself, with their distances w.r.t. `data`, in row order.
  void ScoreRandomCandidates(const Matrix& data,
                             const std::vector<std::uint32_t>& candidates);

  /// Replaces node i's list. Intended for builders that stage updates.
  void SetList(std::size_t i, const std::vector<Neighbor>& neighbors);

  /// Binary serialization (for building once and reusing across benches).
  void Save(const std::string& path) const;
  static KnnGraph Load(const std::string& path);

  /// Stream variants, for embedding a graph inside a larger file (the
  /// stream checkpoint format).
  void SaveTo(std::FILE* f) const;
  static KnnGraph LoadFrom(std::FILE* f);

  /// Non-aborting LoadFrom for untrusted input (the Try* checkpoint
  /// loaders and the fuzz harnesses): returns false on truncation or an
  /// implausible header instead of aborting, and bounds the n*k arena
  /// allocation by the bytes actually present in the stream, so a header
  /// that lies cannot request an unbounded allocation. Slightly stricter
  /// caps than LoadFrom (see the implementation); any graph this library
  /// writes loads fine.
  static bool TryLoadFrom(io::Reader& r, KnnGraph* out);

 private:
  std::size_t k_ = 0;
  std::vector<TopK> lists_;
};

}  // namespace gkm

#endif  // GKM_GRAPH_KNN_GRAPH_H_
