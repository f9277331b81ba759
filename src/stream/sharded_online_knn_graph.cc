// Copyright 2026 The gkmeans Authors.

#include "stream/sharded_online_knn_graph.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "common/kernels.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm {
namespace {

constexpr std::uint32_t kNoSlot = RemovalState::kNoSlot;

// Per-shard params: identical knobs, decorrelated RNG streams. Shard 0
// keeps the caller's seed verbatim so S=1 reproduces the unsharded graph
// bit-for-bit (seeds feed splitmix64, so +s still yields independent
// streams).
OnlineGraphParams ShardParams(const OnlineGraphParams& base, std::size_t s) {
  OnlineGraphParams p = base;
  p.seed = base.seed + s;
  return p;
}

}  // namespace

std::size_t ShardedArenaBound(const std::size_t* rows_per_shard,
                              std::size_t num_shards) {
  std::size_t bound = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t rows = rows_per_shard[s];
    if (rows == 0) continue;
    bound = std::max(bound, (rows - 1) * num_shards + s + 1);
  }
  return bound;
}

ShardedOnlineKnnGraph::ShardedOnlineKnnGraph(std::size_t dim,
                                             const OnlineGraphParams& params)
    : params_(params) {
  GKM_CHECK_MSG(params.shards >= 1, "shard count must be positive");
  shards_.reserve(params.shards);
  for (std::size_t s = 0; s < params.shards; ++s) {
    shards_.emplace_back(dim, ShardParams(params, s));
  }
}

ShardedOnlineKnnGraph::ShardedOnlineKnnGraph(
    std::vector<OnlineShardParts> parts, const OnlineGraphParams& params)
    : params_(params) {
  GKM_CHECK_MSG(params.shards >= 1 && parts.size() == params.shards,
                "shard parts do not match the configured shard count");
  shards_.reserve(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    OnlineShardParts& part = parts[s];
    shards_.emplace_back(std::move(part.points), std::move(part.graph),
                         ShardParams(params, s), part.rng, part.seeds,
                         part.removal, std::move(part.sq8),
                         std::move(part.mode_seeds));
  }
}

std::uint32_t ShardedOnlineKnnGraph::ShardOf(const float* x) const {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) return 0;
  // FNV-1a over the row's bytes: content-addressed, so the partition is a
  // pure function of the point itself.
  const std::size_t len = dim() * sizeof(float);
  const auto* p = reinterpret_cast<const unsigned char*>(x);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % num_shards);
}

std::size_t ShardedOnlineKnnGraph::size() const {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) return shards_[0].size();
  std::vector<std::size_t> rows(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) rows[s] = shards_[s].size();
  return ShardedArenaBound(rows.data(), num_shards);
}

std::size_t ShardedOnlineKnnGraph::num_alive() const {
  std::size_t alive = 0;
  for (const OnlineKnnGraph& shard : shards_) alive += shard.num_alive();
  return alive;
}

bool ShardedOnlineKnnGraph::IsAlive(std::uint32_t g) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  return shards_[id.shard].IsAlive(id.slot);
}

bool ShardedOnlineKnnGraph::IsAliveUnlocked(std::uint32_t g) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  return shards_[id.shard].IsAliveUnlocked(id.slot);
}

std::size_t ShardedOnlineKnnGraph::live_num_seeds() const {
  std::size_t live = 0;
  for (const OnlineKnnGraph& shard : shards_) {
    live = std::max(live, shard.live_num_seeds());
  }
  return live;
}

const float* ShardedOnlineKnnGraph::Point(std::uint32_t g) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  return shards_[id.shard].PointPtr(id.slot);
}

void ShardedOnlineKnnGraph::RequantizeArena() {
  for (OnlineKnnGraph& shard : shards_) shard.RequantizeArena();
}

void ShardedOnlineKnnGraph::SortedNeighborsInto(
    std::uint32_t g, std::vector<Neighbor>& out) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  shards_[id.shard].graph().SortedNeighborsInto(id.slot, out);
  if (shards_.size() == 1) return;
  for (Neighbor& nb : out) nb.id = ToGlobal(id.shard, nb.id);
}

std::span<const Neighbor> ShardedOnlineKnnGraph::LocalNeighborsOf(
    std::uint32_t g) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  return shards_[id.shard].graph().NeighborsOf(id.slot);
}

void ShardedOnlineKnnGraph::AppendNeighborIds(
    std::uint32_t g, std::vector<std::uint32_t>& out) const {
  const GlobalId id = GlobalId::Split(g, shards_.size());
  for (const Neighbor& nb : shards_[id.shard].graph().NeighborsOf(id.slot)) {
    out.push_back(ToGlobal(id.shard, nb.id));
  }
}

std::uint32_t ShardedOnlineKnnGraph::InsertBatch(
    const Matrix& rows, ThreadPool* pool,
    std::vector<std::uint32_t>* touched,
    const std::vector<std::vector<std::uint32_t>>* seed_hints,
    std::vector<std::uint32_t>* assigned,
    const std::vector<std::uint32_t>* placement,
    const std::vector<std::uint32_t>* modes) {
  const std::size_t num_shards = shards_.size();
  GKM_CHECK_MSG(placement == nullptr || placement->size() == rows.rows(),
                "one placement shard per row required");
  GKM_CHECK_MSG(modes == nullptr || modes->size() == rows.rows(),
                "one mode id per row required");
  if (num_shards == 1) {
    // Single shard: global ids are slot ids — delegate with zero overhead
    // (and bit-identical behavior to the unsharded graph).
    return shards_[0].InsertBatch(rows, pool, touched, seed_hints, assigned,
                                  modes);
  }
  GKM_CHECK_MSG(rows.cols() == dim(), "batch dimension mismatch");
  GKM_CHECK_MSG(seed_hints == nullptr || seed_hints->size() == rows.rows(),
                "one seed-hint vector per row required");
  const std::size_t total = rows.rows();
  if (total == 0) return kNoSlot;
  GKM_TRACE_SPAN("stream.shard.insert_batch");

  // Deterministic partition: input row indices per shard, in row order.
  // Explicit placement (cluster-routed assignment) wins over the content
  // hash; both are pure functions of checkpointed state, never of timing.
  std::vector<std::vector<std::uint32_t>> rows_of(num_shards);
  for (std::size_t r = 0; r < total; ++r) {
    std::uint32_t s;
    if (placement != nullptr) {
      s = (*placement)[r];
      GKM_CHECK_MSG(s < num_shards, "placement shard out of range");
    } else {
      s = ShardOf(rows.Row(r));
    }
    rows_of[s].push_back(static_cast<std::uint32_t>(r));
  }
  std::vector<Matrix> shard_rows(num_shards);
  std::vector<std::vector<std::vector<std::uint32_t>>> shard_hints;
  if (seed_hints != nullptr) shard_hints.resize(num_shards);
  std::vector<std::vector<std::uint32_t>> shard_modes;
  if (modes != nullptr) shard_modes.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::vector<std::uint32_t>& mine = rows_of[s];
    if (mine.empty()) continue;
    shard_rows[s].Reset(mine.size(), rows.cols());
    if (seed_hints != nullptr) shard_hints[s].resize(mine.size());
    for (std::size_t p = 0; p < mine.size(); ++p) {
      shard_rows[s].SetRow(p, rows.Row(mine[p]));
      if (modes != nullptr) shard_modes[s].push_back((*modes)[mine[p]]);
      if (seed_hints == nullptr) continue;
      // Hints are global ids; a walk can only enter its own shard's arena,
      // so foreign-shard hints are dropped and the rest become slots.
      for (const std::uint32_t h : (*seed_hints)[mine[p]]) {
        const GlobalId hid = GlobalId::Split(h, num_shards);
        if (hid.shard == s) shard_hints[s][p].push_back(hid.slot);
      }
    }
  }

  // Multi-writer phase: one writer thread per non-empty shard (the last
  // runs on the calling thread). Each writer commits under its own shard's
  // lock only — run_shard touches nothing but its shard `s` and the
  // per-shard output slots owned by that writer, so no cross-thread state
  // needs a capability here; walk fan-out additionally shares `pool`
  // across writers, which the per-call completion latches in ThreadPool
  // make safe.
  std::vector<std::vector<std::uint32_t>> shard_touched(num_shards);
  std::vector<std::vector<std::uint32_t>> shard_assigned(num_shards);
  auto run_shard = [&](std::size_t s) {
    shards_[s].InsertBatch(shard_rows[s], pool,
                           touched != nullptr ? &shard_touched[s] : nullptr,
                           seed_hints != nullptr ? &shard_hints[s] : nullptr,
                           &shard_assigned[s],
                           modes != nullptr ? &shard_modes[s] : nullptr);
  };
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!rows_of[s].empty()) active.push_back(s);
  }
  std::vector<std::thread> writers;
  writers.reserve(active.size() > 0 ? active.size() - 1 : 0);
  for (std::size_t i = 0; i + 1 < active.size(); ++i) {
    writers.emplace_back(run_shard, active[i]);
  }
  if (!active.empty()) run_shard(active.back());
  for (std::thread& w : writers) w.join();

  // Deterministic merge: assigned ids back into input row order, touched
  // ids translated and deduplicated globally.
  std::vector<std::uint32_t> global_assigned(total, kNoSlot);
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t p = 0; p < rows_of[s].size(); ++p) {
      global_assigned[rows_of[s][p]] =
          ToGlobal(static_cast<std::uint32_t>(s), shard_assigned[s][p]);
    }
  }
  if (assigned != nullptr) {
    assigned->insert(assigned->end(), global_assigned.begin(),
                     global_assigned.end());
  }
  if (touched != nullptr) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      for (const std::uint32_t id : shard_touched[s]) {
        touched->push_back(ToGlobal(static_cast<std::uint32_t>(s), id));
      }
    }
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  return global_assigned[0];
}

void ShardedOnlineKnnGraph::Remove(std::span<const std::uint32_t> ids,
                                   std::vector<std::uint32_t>* repaired) {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) {
    shards_[0].Remove(ids, repaired);
    return;
  }
  // Checked on the global ids: a per-shard check alone would accept
  // interleavings such as {6, 1} whose slots happen to ascend per shard.
  GKM_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<std::uint32_t>()) ==
                    ids.end(),
                "Remove ids must be strictly ascending");
  std::vector<std::vector<std::uint32_t>> slots(num_shards);
  for (const std::uint32_t g : ids) {
    const GlobalId id = GlobalId::Split(g, num_shards);
    slots[id.shard].push_back(id.slot);
  }
  std::vector<std::uint32_t> local;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (slots[s].empty()) continue;
    local.clear();
    shards_[s].Remove(slots[s], repaired != nullptr ? &local : nullptr);
    for (const std::uint32_t r : local) {
      repaired->push_back(ToGlobal(static_cast<std::uint32_t>(s), r));
    }
  }
  if (repaired != nullptr) {
    std::sort(repaired->begin(), repaired->end());
    repaired->erase(std::unique(repaired->begin(), repaired->end()),
                    repaired->end());
  }
}

void ShardedOnlineKnnGraph::CompactTombstones() {
  for (OnlineKnnGraph& shard : shards_) shard.CompactTombstones();
}

std::vector<Neighbor> ShardedOnlineKnnGraph::SearchKnn(
    const float* q, std::size_t topk) const {
  thread_local SearchScratch scratch;
  return SearchKnn(q, topk, scratch);
}

std::vector<Neighbor> ShardedOnlineKnnGraph::SearchKnn(
    const float* q, std::size_t topk, SearchScratch& scratch) const {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) return shards_[0].SearchKnn(q, topk, scratch);
  GKM_TRACE_SPAN("serve.shard.search");
  // Sequential fan-out, one shard's reader lock at a time: the query never
  // holds a lock while waiting for another shard's, so a commit in shard s
  // delays it only for the moment it reads shard s. Merge by the Neighbor
  // (dist, id) ordering — deterministic for a fixed corpus.
  std::vector<Neighbor> merged;
  merged.reserve(num_shards * topk);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::vector<Neighbor> part = shards_[s].SearchKnn(q, topk, scratch);
    for (const Neighbor& nb : part) {
      merged.push_back(
          Neighbor{ToGlobal(static_cast<std::uint32_t>(s), nb.id), nb.dist});
    }
  }
  std::sort(merged.begin(), merged.end());
  if (merged.size() > topk) merged.resize(topk);
  return merged;
}

std::vector<std::vector<Neighbor>> ShardedOnlineKnnGraph::SearchKnnBatch(
    const Matrix& queries, std::size_t topk, SearchScratch& scratch) const {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) return shards_[0].SearchKnnBatch(queries, topk, scratch);
  // One reader acquisition per shard per batch; per-shard batch results are
  // element-wise identical to per-query calls, so the per-query merge below
  // equals what SearchKnn would have returned.
  std::vector<std::vector<Neighbor>> merged(queries.rows());
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::vector<std::vector<Neighbor>> part =
        shards_[s].SearchKnnBatch(queries, topk, scratch);
    for (std::size_t i = 0; i < part.size(); ++i) {
      for (const Neighbor& nb : part[i]) {
        merged[i].push_back(
            Neighbor{ToGlobal(static_cast<std::uint32_t>(s), nb.id), nb.dist});
      }
    }
  }
  for (std::vector<Neighbor>& m : merged) {
    std::sort(m.begin(), m.end());
    if (m.size() > topk) m.resize(topk);
  }
  return merged;
}

void ShardedOnlineKnnGraph::SetRouter(
    std::shared_ptr<const ShardRouter> router) {
  if (router != nullptr) {
    GKM_CHECK_MSG(router->home.size() == router->active.size() &&
                      router->centroids.rows() == router->home.size(),
                  "router table shape mismatch");
    for (const std::uint32_t s : router->home) {
      GKM_CHECK_MSG(s < shards_.size(), "router home shard out of range");
    }
  }
  WriterMutexLock guard(publish_mu_);
  router_ = std::move(router);
}

std::shared_ptr<const ShardRouter> ShardedOnlineKnnGraph::router() const {
  ReaderMutexLock guard(publish_mu_);
  return router_;
}

std::size_t ShardedOnlineKnnGraph::RouteShards(const ShardRouter& router,
                                               const float* q,
                                               std::uint32_t out[2],
                                               std::vector<float>& dist) const {
  const std::size_t k = router.centroids.rows();
  if (k == 0) return 0;
  dist.resize(k);
  L2SqrBatch(q, router.centroids.Row(0), router.centroids.stride(), k, dim(),
             dist.data());
  // Nearest active cluster (lowest id on ties): its home shard is where
  // graph locality says ~all of q's neighbors live.
  std::size_t c1 = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (router.active[c] == 0) continue;
    if (c1 == k || dist[c] < dist[c1]) c1 = c;
  }
  if (c1 == k) return 0;
  const std::uint32_t s1 = router.home[c1];
  out[0] = s1;
  // Margin-guarded spill: the best active cluster homed on a DIFFERENT
  // shard. A query near a cluster boundary scores two clusters nearly
  // equally; when those clusters live on different shards, searching only
  // one would halve recall exactly where answers straddle the cut.
  std::size_t c2 = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (router.active[c] == 0 || router.home[c] == s1) continue;
    if (c2 == k || dist[c] < dist[c2]) c2 = c;
  }
  if (c2 != k &&
      static_cast<double>(dist[c2]) <=
          (1.0 + router.spill_margin) * static_cast<double>(dist[c1])) {
    out[1] = router.home[c2];
    return 2;
  }
  return 1;
}

std::vector<Neighbor> ShardedOnlineKnnGraph::SearchRouted(
    const ShardRouter& router, const float* q, std::size_t topk,
    SearchScratch& scratch) const {
  std::uint32_t targets[2];
  const std::size_t count =
      RouteShards(router, q, targets, scratch.pending_dist);
  if (count == 0) return SearchKnn(q, topk, scratch);
  route_hits_.Add(1);
  GKM_COUNTER_ADD("serve.route.hit", 1);
  if (count == 2) {
    route_spills_.Add(1);
    GKM_COUNTER_ADD("serve.route.spill", 1);
  }
  // Global ids are distinct, so (dist, id) is a total order and the merge
  // is deterministic; a single shard's answer is already in that order.
  std::vector<Neighbor> merged =
      shards_[targets[0]].SearchKnn(q, topk, scratch);
  for (Neighbor& nb : merged) nb.id = ToGlobal(targets[0], nb.id);
  if (count == 2) {
    for (const Neighbor& nb : shards_[targets[1]].SearchKnn(q, topk, scratch)) {
      merged.push_back(Neighbor{ToGlobal(targets[1], nb.id), nb.dist});
    }
    std::sort(merged.begin(), merged.end());
  }
  if (merged.size() > topk) merged.resize(topk);
  return merged;
}

std::vector<Neighbor> ShardedOnlineKnnGraph::SearchKnnRouted(
    const float* q, std::size_t topk, SearchScratch& scratch) const {
  const std::shared_ptr<const ShardRouter> router = this->router();
  if (router == nullptr || shards_.size() == 1) {
    return SearchKnn(q, topk, scratch);
  }
  GKM_TRACE_SPAN("serve.shard.search_routed");
  return SearchRouted(*router, q, topk, scratch);
}

std::vector<std::vector<Neighbor>> ShardedOnlineKnnGraph::SearchKnnBatchRouted(
    const Matrix& queries, std::size_t topk, SearchScratch& scratch) const {
  // One router snapshot for the whole batch, then the per-query routed
  // path. Per-query shard locking (rather than one batch acquisition per
  // shard) is the point: most queries touch one shard, so the fan-out work
  // the merged batch would do simply never happens.
  const std::shared_ptr<const ShardRouter> router = this->router();
  if (router == nullptr || shards_.size() == 1) {
    return SearchKnnBatch(queries, topk, scratch);
  }
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    out[i] = SearchRouted(*router, queries.Row(i), topk, scratch);
  }
  return out;
}

}  // namespace gkm
