// Copyright 2026 The gkmeans Authors.

#include "graph/knn_graph.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/distance.h"
#include "common/macros.h"

namespace gkm {

KnnGraph::KnnGraph(std::size_t n, std::size_t k)
    : k_(k), rows_(n * k), sizes_(n, 0) {
  GKM_CHECK(k > 0);
}

std::size_t KnnGraph::NumEdges() const {
  std::size_t total = 0;
  for (const std::uint32_t size : sizes_) total += size;
  return total;
}

std::vector<Neighbor> KnnGraph::SortedNeighbors(std::size_t i) const {
  const std::span<const Neighbor> row = NeighborsOf(i);
  return {row.begin(), row.end()};
}

void KnnGraph::SortedNeighborsInto(std::size_t i,
                                   std::vector<Neighbor>& out) const {
  const std::span<const Neighbor> row = NeighborsOf(i);
  out.assign(row.begin(), row.end());
}

std::uint32_t KnnGraph::AddNode() {
  GKM_CHECK_MSG(k_ > 0, "AddNode on a default-constructed graph");
  rows_.resize(rows_.size() + k_);
  sizes_.push_back(0);
  return static_cast<std::uint32_t>(sizes_.size() - 1);
}

void KnnGraph::Reserve(std::size_t n) {
  rows_.reserve(n * k_);
  sizes_.reserve(n);
}

bool KnnGraph::Update(std::size_t i, std::uint32_t j, float dist) {
  if (static_cast<std::uint32_t>(i) == j) return false;
  return Offer(i, j, dist);
}

bool KnnGraph::Offer(std::size_t i, std::uint32_t j, float dist) {
  Neighbor* const row = Row(i);
  std::uint32_t& size = sizes_[i];
  const bool full = size == k_;
  if (full && dist >= row[size - 1].dist) return false;
  for (std::size_t s = 0; s < size; ++s) {
    if (row[s].id == j) return false;
  }
  // A full row drops its last entry, the largest by (dist, id).
  const Neighbor fresh{j, dist};
  Neighbor* const end = row + (full ? size - 1 : size);
  Neighbor* const pos = std::lower_bound(row, end, fresh);
  std::copy_backward(pos, end, end + 1);
  *pos = fresh;
  if (!full) ++size;
  return true;
}

int KnnGraph::UpdateBoth(std::size_t i, std::size_t j, float dist) {
  int changed = 0;
  changed += Update(i, static_cast<std::uint32_t>(j), dist) ? 1 : 0;
  changed += Update(j, static_cast<std::uint32_t>(i), dist) ? 1 : 0;
  return changed;
}

bool KnnGraph::RemoveNeighbor(std::size_t i, std::uint32_t j) {
  Neighbor* row = Row(i);
  std::uint32_t& size = sizes_[i];
  Neighbor* const end = row + size;
  Neighbor* const hit = std::find_if(
      row, end, [j](const Neighbor& nb) { return nb.id == j; });
  if (hit == end) return false;
  std::copy(hit + 1, end, hit);
  --size;
  return true;
}

void KnnGraph::ClearList(std::size_t i) {
  GKM_DCHECK(i < sizes_.size());
  sizes_[i] = 0;
}

void KnnGraph::InitRandom(const Matrix& data, Rng& rng) {
  ScoreRandomCandidates(data, DrawRandomCandidates(rng));
}

std::vector<std::uint32_t> KnnGraph::DrawRandomCandidates(Rng& rng) const {
  const std::size_t n = num_nodes();
  GKM_CHECK_MSG(n > k_, "need more nodes than neighbors for a random init");
  // k_+1 candidates, so that dropping a potential self-reference still
  // leaves k_ distinct neighbors.
  const std::size_t width = k_ + 1;
  std::vector<std::uint32_t> candidates(n * width);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint32_t> row = rng.SampleDistinct(n, width);
    std::copy(row.begin(), row.end(), candidates.begin() + i * width);
  }
  return candidates;
}

void KnnGraph::ScoreRandomCandidates(
    const Matrix& data, const std::vector<std::uint32_t>& candidates) {
  const std::size_t n = num_nodes();
  const std::size_t width = k_ + 1;
  GKM_CHECK(data.rows() == n);
  GKM_CHECK_MSG(candidates.size() == n * width,
                "one row of k+1 candidates per node required");
  for (std::size_t i = 0; i < n; ++i) {
    // An empty row accepts k distinct offers, none of them itself, so it
    // ends as exactly their sorted set: write them, then sort once.
    GKM_CHECK_MSG(sizes_[i] == 0, "random init of a non-empty list");
    Neighbor* const row = Row(i);
    std::size_t added = 0;
    for (std::size_t j = 0; j < width && added < k_; ++j) {
      const std::uint32_t c = candidates[i * width + j];
      if (c == i) continue;
      row[added++] = {c, L2Sqr(data.Row(i), data.Row(c), data.cols())};
    }
    std::sort(row, row + added);
    sizes_[i] = static_cast<std::uint32_t>(added);
  }
}

void KnnGraph::SetList(std::size_t i, const std::vector<Neighbor>& neighbors) {
  ClearList(i);
  for (const Neighbor& nb : neighbors) Offer(i, nb.id, nb.dist);
}

void KnnGraph::SaveTo(std::FILE* f) const {
  const std::uint64_t n = num_nodes();
  io::WriteRaw<std::uint64_t>(f, n);
  io::WriteRaw<std::uint64_t>(f, k_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const Neighbor> nbs = NeighborsOf(i);
    io::WriteRaw<std::uint32_t>(f, static_cast<std::uint32_t>(nbs.size()));
    io::WriteArray(f, nbs.data(), nbs.size());
  }
}

KnnGraph KnnGraph::LoadFrom(std::FILE* f) {
  const auto n64 = io::ReadRaw<std::uint64_t>(f);
  const auto k64 = io::ReadRaw<std::uint64_t>(f);
  // The header is untrusted file input: bound it so a corrupt file aborts
  // cleanly instead of attempting a terabyte-scale allocation.
  GKM_CHECK_MSG(n64 <= (1ull << 40) && k64 > 0 && k64 <= (1u << 24),
                "implausible graph header");
  const auto n = static_cast<std::size_t>(n64);
  const auto k = static_cast<std::size_t>(k64);
  KnnGraph g(n, k);
  std::vector<Neighbor> buf;
  for (std::size_t i = 0; i < n; ++i) {
    const auto len = io::ReadRaw<std::uint32_t>(f);
    GKM_CHECK_MSG(len <= k, "graph list longer than capacity");
    buf.resize(len);
    io::ReadArray(f, buf.data(), buf.size());
    g.SetList(i, buf);
  }
  return g;
}

bool KnnGraph::TryLoadFrom(io::Reader& r, KnnGraph* out) {
  std::uint64_t n64 = 0;
  std::uint64_t k64 = 0;
  if (!r.Read(&n64) || !r.Read(&k64)) return false;
  // Robust-loader plausibility cap: no k-NN graph has anywhere near 2^16
  // neighbors per node (the aborting LoadFrom tolerates up to 2^24).
  if (k64 == 0 || k64 > (1u << 16)) return false;
  // Every node contributes at least its u32 list length, so the node count
  // is bounded by the bytes actually present in the stream.
  if (!r.Fits<std::uint32_t>(n64)) return false;
  // The arena allocation is n*k Neighbor slots even when most lists are
  // empty (tombstoned slots serialize as a bare length). Bound it by a
  // constant plus a multiple of the remaining bytes: legitimate files —
  // even mostly-tombstoned arenas — fit comfortably, while a size-lying
  // header cannot turn a small file into a huge allocation.
  const std::uint64_t arena_cap = (1ull << 26) + 16 * r.remaining();
  if (n64 > arena_cap / k64) return false;
  const auto n = static_cast<std::size_t>(n64);
  const auto k = static_cast<std::size_t>(k64);
  KnnGraph g(n, k);
  std::vector<Neighbor> buf;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t len = 0;
    if (!r.Read(&len) || len > k) return false;
    buf.resize(len);
    if (!r.ReadArray(buf.data(), buf.size())) return false;
    g.SetList(i, buf);
  }
  *out = std::move(g);
  return true;
}

void KnnGraph::Save(const std::string& path) const {
  io::File f = io::OpenOrDie(path, "wb");
  SaveTo(f.get());
}

KnnGraph KnnGraph::Load(const std::string& path) {
  io::File f = io::OpenOrDie(path, "rb");
  return LoadFrom(f.get());
}

}  // namespace gkm
