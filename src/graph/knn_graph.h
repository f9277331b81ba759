// Copyright 2026 The gkmeans Authors.
// The KNN graph container shared by the graph builders (Alg. 3, NN-Descent,
// brute force), the GK-means candidate harvesting loop and the ANN search
// layer. Each node keeps its κ best neighbors found so far in its row of
// one flat n×κ array, sorted by (dist, id), so readers take a row in place.

#ifndef GKM_GRAPH_KNN_GRAPH_H_
#define GKM_GRAPH_KNN_GRAPH_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/top_k.h"

namespace gkm {
namespace io {
class Reader;
}  // namespace io

/// Approximate k-nearest-neighbor graph over `n` nodes with out-degree κ.
class KnnGraph {
 public:
  KnnGraph() = default;

  /// Creates an empty graph (no edges yet) with capacity κ per node.
  KnnGraph(std::size_t n, std::size_t k);

  std::size_t num_nodes() const { return sizes_.size(); }
  std::size_t k() const { return k_; }

  /// Total number of directed edges currently stored (<= num_nodes * k).
  std::size_t NumEdges() const;

  /// Node `i`'s neighbors in place, sorted ascending by (dist, id). Valid
  /// until the graph next changes.
  std::span<const Neighbor> NeighborsOf(std::size_t i) const {
    GKM_DCHECK(i < sizes_.size());
    return {rows_.data() + i * k_, sizes_[i]};
  }

  /// Neighbors of node `i` sorted ascending by distance (copies).
  std::vector<Neighbor> SortedNeighbors(std::size_t i) const;

  /// Allocation-free variant: fills the caller's buffer instead.
  void SortedNeighborsInto(std::size_t i, std::vector<Neighbor>& out) const;

  /// Appends a node with an empty neighbor list; returns its id. The
  /// incremental-build entry point of the streaming subsystem.
  std::uint32_t AddNode();

  /// Makes room for `n` nodes, so AddNode grows no storage until then.
  /// The streaming arena calls it when its point storage grows, keeping
  /// both buffers on one growth schedule.
  void Reserve(std::size_t n);

  /// Attempts to insert the directed edge i -> (j, dist). Rejects a
  /// self-loop, an id already in the list and, on a full list, a `dist`
  /// not below the worst kept distance; a full list that accepts evicts
  /// its largest entry by (dist, id). This is TopK::Push's rule, so a list
  /// holds the set a TopK fed the same offers would. Returns true when the
  /// list changed.
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

  /// Fills every list of a graph without edges with `k` distinct random
  /// neighbors and their true distances w.r.t. `data` (the random
  /// initialization of Alg. 3 line 4):
  /// ScoreRandomCandidates(data, DrawRandomCandidates(rng)).
  void InitRandom(const Matrix& data, Rng& rng);

  /// The Rng half of InitRandom: `k+1` distinct candidates per node, one
  /// row of the returned n×(k+1) array each, drawn in node order. It reads
  /// no data, so Alg. 3 queues work that needs the Rng's next draws before
  /// the distances are computed.
  std::vector<std::uint32_t> DrawRandomCandidates(Rng& rng) const;

  /// The data half of InitRandom: each node's list becomes its first `k`
  /// candidates other than itself, with their distances w.r.t. `data`.
  /// Every list must be empty.
  void ScoreRandomCandidates(const Matrix& data,
                             const std::vector<std::uint32_t>& candidates);

  /// Replaces node i's list with TopK::Push offers of `neighbors`, made in
  /// order (a longer list keeps its k best). For builders that stage
  /// updates.
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
  /// TopK::Push's rule on row i: the offer without the self-loop check.
  bool Offer(std::size_t i, std::uint32_t j, float dist);

  Neighbor* Row(std::size_t i) {
    GKM_DCHECK(i < sizes_.size());
    return rows_.data() + i * k_;
  }

  std::size_t k_ = 0;
  // n rows of k slots each; the first sizes_[i] slots of row i hold node
  // i's list, sorted by (dist, id).
  std::vector<Neighbor> rows_;
  std::vector<std::uint32_t> sizes_;
};

}  // namespace gkm

#endif  // GKM_GRAPH_KNN_GRAPH_H_
