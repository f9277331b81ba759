// Copyright 2026 The gkmeans Authors.
// Sharded online KNN graph: S independent OnlineKnnGraph arenas, each with
// its own reader-writer lock, RNG, scratch and deletion bookkeeping.
// Incoming points are placed deterministically: with routed placement each
// point goes to its cluster's home shard (the caller's explicit
// placement), falling back to a content hash before bootstrap, for
// unlabeled points, or when routing is off. Per-shard ingest runs on
// concurrent writer threads (commits no longer serialize globally), and
// cross-shard search fans SearchKnn over the shards and merges by the
// Neighbor ordering of the top_k machinery — a query only ever waits for
// the brief commit window of the one shard it is currently reading, never
// for a commit in another shard.
//
// Why partitioning preserves quality: Debatty et al. ("Fast Online k-nn
// Graph Building") show partitioned online construction with local repair
// keeps the approximation sound, and cluster-locality ("Cluster-and-
// Conquer") keeps cross-partition edges rare — which the streaming
// clusterer's cluster-routed seed hints give each shard for free.
//
// Identity scheme ("GlobalId"): a point living in shard s at arena slot t
// is published as the global id t*S + s (shard = g % S, slot = g / S).
// Interleaving keeps global ids dense while shards stay balanced, and for
// S == 1 the global id IS the slot id — every id-indexed consumer
// (labels, TTL clocks, checkpoints) is bit-identical to the unsharded
// graph, which the golden checkpoint test pins.

#ifndef GKM_STREAM_SHARDED_ONLINE_KNN_GRAPH_H_
#define GKM_STREAM_SHARDED_ONLINE_KNN_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "stream/online_knn_graph.h"

namespace gkm {

class ThreadPool;

/// Shard-qualified point identity. Thin by design: conversions are two
/// integer ops, so global ids travel as plain u32 everywhere (labels,
/// checkpoints, touched sets) and only ingest/search translate.
struct GlobalId {
  std::uint32_t shard = 0;
  std::uint32_t slot = 0;

  static GlobalId Split(std::uint32_t global, std::size_t num_shards) {
    return GlobalId{static_cast<std::uint32_t>(global % num_shards),
                    static_cast<std::uint32_t>(global / num_shards)};
  }
  static std::uint32_t Join(std::uint32_t shard, std::uint32_t slot,
                            std::size_t num_shards) {
    return static_cast<std::uint32_t>(slot * num_shards + shard);
  }
};

/// Exclusive upper bound on the interleaved global ids of shards with
/// these arena row counts: max over shards of (rows_s - 1)*S + s + 1.
/// The single definition of the persisted-format invariant shared by
/// ShardedOnlineKnnGraph::size() and the checkpoint loader's label/birth
/// count validation.
std::size_t ShardedArenaBound(const std::size_t* rows_per_shard,
                              std::size_t num_shards);

/// Checkpointed per-shard state, consumed by the restore constructor. The
/// fields mirror OnlineKnnGraph's restore constructor arguments.
struct OnlineShardParts {
  Matrix points;
  KnnGraph graph;
  RngSnapshot rng;
  AdaptiveSeedState seeds;
  RemovalState removal;
  /// SQ8 arena payload. Default (`trained == false`) restores an
  /// fp32-resident shard; `points` must then hold the rows.
  Sq8ArenaParts sq8;
  /// Per-mode adaptive seed budgets. Empty for modeless streams (and for
  /// models loaded from GKMC files older than v6).
  std::vector<AdaptiveSeedState> mode_seeds;
};

/// Immutable routing table published by the streaming clusterer after each
/// committed window: the cluster centroids as of that commit, each
/// cluster's home shard, and which clusters are non-empty. A query routes
/// to the home shard of its nearest active cluster, spilling to the best
/// cluster on a *different* shard when the two scores are within the
/// margin — `d2 <= (1 + spill_margin) * d1` in squared-distance space —
/// so near-boundary queries still see both plausible shards.
///
/// Everything here is a pure function of checkpointed clusterer state
/// (centroids, counts, home assignment), never of load or timing, so
/// routing is arrival-order / thread-count / restart independent.
struct ShardRouter {
  Matrix centroids;                  ///< k x dim, post-commit values
  std::vector<std::uint32_t> home;   ///< cluster -> home shard, size k
  std::vector<std::uint8_t> active;  ///< 1 = non-empty cluster, size k
  double spill_margin = 0.35;        ///< runner-up tolerance (squared space)
};

/// S independent online graphs behind one global-id facade.
///
/// Concurrency model: one *logical* ingest caller (the streaming clusterer
/// or an ingest loop) calls InsertBatch/Remove/CompactTombstones; inside
/// InsertBatch, per-shard commits run on S concurrent writer threads, each
/// taking only its own shard's writer lock. Any number of serving threads
/// call SearchKnn/SearchKnnBatch concurrently with all of it. Determinism:
/// shard assignment is a pure function of the stream (each point goes to
/// its cluster's deterministic home shard under routed placement, with the
/// content hash ShardOf as the fallback before bootstrap or for unlabeled
/// points), every shard is itself deterministic, and merged results are
/// ordered by (dist, global id) — so the whole structure stays a pure
/// function of the input sequence at any writer/pool thread count, for a
/// fixed shard count.
///
/// Lock discipline: this facade owns no lock. `shards_` and `params_` are
/// written only during construction (immutable afterwards); every mutable
/// field lives inside an OnlineKnnGraph shard under that shard's annotated
/// SharedMutex, so the thread-safety analysis checks each shard
/// independently. The Unsynchronized accessors below (Point,
/// SortedNeighborsInto, LocalNeighborsOf, AppendNeighborIds,
/// IsAliveUnlocked) delegate to OnlineKnnGraph's audited AssertReaderHeld
/// claims — ingest-thread or quiescent use only, exactly as documented
/// there.
class ShardedOnlineKnnGraph {
 public:
  /// Empty structure over `dim`-dimensional points with `params.shards`
  /// shards. Shard s draws from seed `params.seed + s` (splitmix-expanded,
  /// so nearby seeds are uncorrelated streams); shard 0 therefore matches
  /// the unsharded graph exactly.
  ShardedOnlineKnnGraph(std::size_t dim, const OnlineGraphParams& params);

  /// Re-assembles from checkpointed per-shard parts (`parts.size()` must
  /// equal `params.shards`).
  ShardedOnlineKnnGraph(std::vector<OnlineShardParts> parts,
                        const OnlineGraphParams& params);

  std::size_t num_shards() const { return shards_.size(); }
  const OnlineKnnGraph& shard(std::size_t s) const { return shards_[s]; }
  const OnlineGraphParams& params() const { return params_; }
  std::size_t dim() const { return shards_[0].dim(); }

  /// Deterministic shard of a point: FNV-1a over the row's float bytes,
  /// mod S. Content-addressed, so the partition is independent of arrival
  /// order, thread count and process restarts.
  std::uint32_t ShardOf(const float* x) const;

  /// Exclusive upper bound on global ids. Interleaving leaves holes when
  /// shards are momentarily unbalanced; IsAlive is false for a hole.
  /// Monotonically non-decreasing. Safe during ingest.
  std::size_t size() const;
  /// Live points across all shards. Safe during ingest.
  std::size_t num_alive() const;
  /// Whether global id `g` names a live point. Safe during ingest.
  bool IsAlive(std::uint32_t g) const;
  /// Ingest-thread / quiescent variant (see OnlineKnnGraph::IsAliveUnlocked).
  bool IsAliveUnlocked(std::uint32_t g) const;
  /// Entry points per walk currently in force (max across shards).
  std::size_t live_num_seeds() const;

  /// Coordinates of the live point `g`. Unsynchronized: ingest thread or
  /// quiescent use only (serving threads go through SearchKnn). In SQ8 mode
  /// the pointer targets a decoded thread-local ring slot (see
  /// OnlineKnnGraph::PointPtr for the lifetime rules).
  const float* Point(std::uint32_t g) const;

  /// Re-trains every shard's SQ8 quantizer from its decoded live rows
  /// (no-op for untrained / fp32 shards). Ingest-caller only.
  void RequantizeArena();

  /// Neighbor list of `g` sorted ascending by distance, ids global
  /// (copies). Unsynchronized, like Point.
  void SortedNeighborsInto(std::uint32_t g, std::vector<Neighbor>& out) const;

  /// `g`'s neighbor row in place, sorted ascending by (dist, id), with ids
  /// local to `g`'s shard (slot j is global id GlobalId::Join(shard, j)).
  /// Unsynchronized, like Point; valid until that shard next changes.
  std::span<const Neighbor> LocalNeighborsOf(std::uint32_t g) const;

  /// Appends the global ids of `g`'s current neighbors to `out`
  /// (nearest first). Unsynchronized, like Point.
  void AppendNeighborIds(std::uint32_t g, std::vector<std::uint32_t>& out)
      const;

  /// Batch insert of every row of `rows`, partitioned to shards by
  /// `placement` when given (one target shard per row — the streaming
  /// clusterer's cluster-routed assignment), else by ShardOf. Per-shard
  /// ingest runs on one writer thread per non-empty shard (walks
  /// additionally fan out over `pool` when given), and commits of
  /// different shards proceed concurrently under their own locks.
  /// `assigned` (when non-null) receives every row's *global* id in row
  /// order; the first row's id is returned. `touched` collects global ids
  /// of pre-existing nodes whose lists changed (sorted, deduplicated).
  /// `seed_hints`, when non-null, supplies one *global-id* hint vector per
  /// row; hints living in a foreign shard are dropped (a walk cannot enter
  /// another shard's arena). `modes`, when non-null, tags each row with
  /// its cluster id for the per-mode adaptive seed budgets (forwarded to
  /// the row's shard). Deterministic at any thread count.
  std::uint32_t InsertBatch(
      const Matrix& rows, ThreadPool* pool,
      std::vector<std::uint32_t>* touched = nullptr,
      const std::vector<std::vector<std::uint32_t>>* seed_hints = nullptr,
      std::vector<std::uint32_t>* assigned = nullptr,
      const std::vector<std::uint32_t>* placement = nullptr,
      const std::vector<std::uint32_t>* modes = nullptr);

  /// Tombstones every global id of `ids` (strictly ascending, each alive)
  /// in its shard, with the per-id repair, per-id writer lock and per-id
  /// purge check of OnlineKnnGraph::Remove. The ids are split into one
  /// removal call per shard; ascending global ids give ascending slots
  /// within a shard, and shards share no state, so the result equals
  /// removing the ids one by one. `repaired` collects global ids and is
  /// sorted and deduplicated once, at the end of the call. Ingest-caller
  /// only.
  void Remove(std::span<const std::uint32_t> ids,
              std::vector<std::uint32_t>* repaired = nullptr);

  /// Purges tombstones of every shard (see CompactTombstones there).
  void CompactTombstones();

  /// Approximate top-k nearest live points across all shards, ids global,
  /// sorted ascending by (dist, id). Fans the per-shard walk over the
  /// shards sequentially, acquiring one shard's reader lock at a time —
  /// a commit in shard s delays a query only while it reads shard s.
  /// Safe from any number of threads concurrently with ingest.
  std::vector<Neighbor> SearchKnn(const float* q, std::size_t topk) const;
  std::vector<Neighbor> SearchKnn(const float* q, std::size_t topk,
                                  SearchScratch& scratch) const;

  /// Publishes a routing table (null clears routing). The ingest caller
  /// installs a fresh table after each committed window; readers snapshot
  /// it per query, so an in-flight search keeps the generation it started
  /// with. The table must have `home` entries < num_shards.
  void SetRouter(std::shared_ptr<const ShardRouter> router);
  /// Current routing table (null when routing is off / not yet published).
  std::shared_ptr<const ShardRouter> router() const;

  /// Routed single-shard query: scores `q` against the router's centroids,
  /// searches only the nearest active cluster's home shard — plus the
  /// runner-up shard when the margin guard trips — and returns global ids
  /// sorted by (dist, id). Falls back to the merged SearchKnn when no
  /// router is installed or S == 1. ~S x less walk work than the merged
  /// fan-out when the spill rate is low (the bench-gated claim).
  std::vector<Neighbor> SearchKnnRouted(const float* q, std::size_t topk,
                                        SearchScratch& scratch) const;
  /// Batched routed queries, element-wise identical to per-query
  /// SearchKnnRouted calls against the same router generation: the router
  /// is read once per batch, and each query takes only the reader locks
  /// of the one or two shards it routes to. Falls back to the merged
  /// SearchKnnBatch when no router is installed or S == 1. The serving
  /// daemon answers every flushed batch through this call.
  std::vector<std::vector<Neighbor>> SearchKnnBatchRouted(
      const Matrix& queries, std::size_t topk, SearchScratch& scratch) const;

  /// Routing telemetry: queries answered via the routed path, and routed
  /// queries that spilled to a second shard. Monotonic, relaxed.
  std::uint64_t route_hits() const { return route_hits_.Load(); }
  std::uint64_t route_spills() const { return route_spills_.Load(); }

  /// Batched merged queries: per-shard SearchKnnBatch (one reader
  /// acquisition per shard per batch), merged per query. Element-wise
  /// identical to per-query SearchKnn calls.
  std::vector<std::vector<Neighbor>> SearchKnnBatch(
      const Matrix& queries, std::size_t topk, SearchScratch& scratch) const;

 private:
  std::uint32_t ToGlobal(std::uint32_t shard, std::uint32_t slot) const {
    return GlobalId::Join(shard, slot, shards_.size());
  }

  /// Scores `q` against `router`'s centroids and fills `out` with the home
  /// shard of the nearest active cluster, plus the runner-up shard when
  /// the spill margin trips. Returns the shard count (0 = no active
  /// cluster, caller falls back to merged search). `dist` is scratch.
  std::size_t RouteShards(const ShardRouter& router, const float* q,
                          std::uint32_t out[2], std::vector<float>& dist) const;

  /// The routed body both routed entry points share: routes `q` with
  /// `router`, searches the one or two target shards and merges their
  /// answers by (dist, id), or answers with the merged SearchKnn when no
  /// cluster is active.
  std::vector<Neighbor> SearchRouted(const ShardRouter& router, const float* q,
                                     std::size_t topk,
                                     SearchScratch& scratch) const;

  // Movable monotonic counter (mirrors OnlineKnnGraph's pattern: the copy
  // hooks only ever run before concurrent use, when the owning streaming
  // model is moved into place).
  struct RelaxedCounter {
    std::atomic<std::uint64_t> v{0};
    RelaxedCounter() = default;
    RelaxedCounter(const RelaxedCounter& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(const RelaxedCounter& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    void Add(std::uint64_t inc) { v.fetch_add(inc, std::memory_order_relaxed); }
    std::uint64_t Load() const { return v.load(std::memory_order_relaxed); }
  };

  OnlineGraphParams params_;
  std::vector<OnlineKnnGraph> shards_;
  // Published routing generation: written by the ingest caller (pointer
  // swap under the writer side), snapshotted by readers under the shared
  // side. SharedMutex copy/move semantics (fresh mutex) keep the facade
  // movable like its shards.
  SharedMutex publish_mu_;
  std::shared_ptr<const ShardRouter> router_ GKM_GUARDED_BY(publish_mu_);
  mutable RelaxedCounter route_hits_;
  mutable RelaxedCounter route_spills_;
};

}  // namespace gkm

#endif  // GKM_STREAM_SHARDED_ONLINE_KNN_GRAPH_H_
