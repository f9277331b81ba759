// Copyright 2026 The gkmeans Authors.
// Incrementally-maintained approximate KNN graph for continuously-arriving
// points, after "Fast Online k-nn Graph Building" (Debatty et al.): each
// insert runs a bounded graph-walk search over the current graph to find
// the new point's kappa nearest neighbors, then offers the new point back
// to every node inspected (reverse-edge repair), so old nodes' lists keep
// improving as the stream flows. Per-insert work is O(beam * kappa)
// distance evaluations — sub-linear in the corpus — versus the O(n) of a
// brute-force insert.
//
// Ingest is batched and two-phase: a window of rows is split into
// sub-batches whose walks all run against the same read-snapshot of the
// graph (thread-parallel over a ThreadPool, each walk scored exactly
// against its sub-batch predecessors so intra-window neighborhoods are not
// lost), followed by a serial commit phase that applies AddNode/Update
// edge mutations in row order. The committed graph is a pure function of
// the insertion sequence and the RNG seed — independent of thread count —
// which checkpoint replay relies on.
//
// The structure owns both the vectors (an append-only Matrix) and the
// graph, because insertion must read existing rows to score candidates.

#ifndef GKM_STREAM_ONLINE_KNN_GRAPH_H_
#define GKM_STREAM_ONLINE_KNN_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <atomic>

#include "common/kernels.h"
#include "common/matrix.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "graph/knn_graph.h"

namespace gkm {

class ThreadPool;

/// How the arena stores row coordinates.
///  kFp32 — full-precision rows (the historical mode; byte-identical
///          behavior and checkpoints to before this enum existed).
///  kSq8  — rows are held as packed u8 codes + one fp32 norm once the
///          corpus crosses the bootstrap threshold (the quantizer trains on
///          the bootstrap window); walks and batch search score candidates
///          through the asymmetric SQ8 kernels and exact-re-rank the final
///          pool against decoded rows. ~3.5x+ smaller arena; results are
///          exact over DECODED rows, so recall carries the quantization
///          error — gated in bench/online_search.
enum class StorageMode : std::uint8_t { kFp32 = 0, kSq8 = 1 };

/// Knobs of the online builder.
struct OnlineGraphParams {
  std::size_t kappa = 20;      ///< graph out-degree (neighbors kept per node)
  std::size_t beam_width = 48; ///< insert-search candidate pool (recall knob)
  /// Initial walk entry points per insert, drawn fresh per walk from a
  /// deterministic per-row generator. On multi-modal data the graph is
  /// near-disconnected across modes, so a walk only succeeds when a seed
  /// lands in the query's mode; fresh draws make consecutive inserts fail
  /// independently instead of isolating whole stretches of a mode the way
  /// a fixed seed set would. This is only the starting value: the live
  /// count adapts to the observed walk-failure rate (see
  /// AdaptiveSeedState), so it no longer needs hand-tuning per dataset.
  std::size_t num_seeds = 64;
  std::size_t bootstrap = 128; ///< below this size, inserts are brute-force
  std::uint64_t seed = 42;     ///< RNG seed for entry-point draws
  /// Shard count consumed by ShardedOnlineKnnGraph (a single OnlineKnnGraph
  /// ignores it): S independent arenas ingested by S concurrent writers.
  /// 1 keeps the single-arena behavior bit-for-bit. Model state — changing
  /// it re-partitions the stream, so it is persisted in checkpoints.
  std::size_t shards = 1;
  /// Arena storage mode. Model state: it changes committed graph edges
  /// (SQ8 walks score decoded rows), so it is persisted in checkpoints.
  StorageMode storage = StorageMode::kFp32;
};

/// Checkpointed SQ8 arena state: packed codes (stride == dim, no padding),
/// one fp32 row constant per slot, and the trained quantizer. `trained ==
/// false` (the default) means the arena is still in its fp32 bootstrap
/// phase and `points` carries the rows as in every fp32 checkpoint.
struct Sq8ArenaParts {
  bool trained = false;
  std::size_t rows = 0;
  std::vector<std::uint8_t> codes;  ///< rows * dim, packed
  std::vector<float> norms;         ///< rows
  Sq8Quantizer quant;
};

/// Reusable visited-marker scratch for graph walks: one stamp slot per
/// node, epoch-tagged so opening a fresh walk never clears O(n) state.
/// Keep one instance per thread and pass it to SearchKnn for
/// allocation-free serving-path queries; a default-constructed instance
/// adapts to any graph size (and may be shared across graphs, since every
/// Prepare opens an epoch newer than any stamp previously written). The
/// pending_* buffers are reused by the batched candidate scoring inside
/// each walk expansion.
struct SearchScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> pending;
  std::vector<const float*> pending_rows;
  std::vector<float> pending_dist;
  // SQ8-mode buffers: gathered code rows + norms for walk expansion, the
  // per-walk prepared query, and a decode buffer for the exact re-rank.
  std::vector<const std::uint8_t*> pending_codes;
  std::vector<float> pending_norms;
  Sq8Query sq8_query;
  std::vector<float> decode_buf;

  /// Grows the stamp array to cover `n` nodes and opens a fresh epoch.
  /// The 32-bit epoch wraps after 2^32 walks; stamps are zeroed on wrap,
  /// because a wrapped epoch re-issues old values and stale entries would
  /// otherwise make `stamp[id] == epoch` spuriously true, silently
  /// dropping candidates from every later walk.
  void Prepare(std::size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
};

/// State of the adaptive entry-point policy, persisted through checkpoints
/// so a resumed stream continues with the seed count it had converged to.
/// `live_seeds == 0` means "not yet initialized" — the graph starts from
/// params.num_seeds.
///
/// Besides the global instance, the graph keeps one of these per caller
/// -supplied mode (the streaming clusterer's route-hint cluster): audit
/// verdicts of rows tagged with a mode adjust that mode's budget, so a
/// rare hard cluster can run 4x the seeds of an easy dense one instead of
/// dragging the global count up for everyone. A mode whose state is still
/// uninitialized (live_seeds == 0) inherits the global budget.
struct AdaptiveSeedState {
  std::uint64_t live_seeds = 0;  ///< entry points currently in force
  double fail_ewma = 0.125;      ///< audit-walk disagreement rate (EWMA)
  std::uint64_t audit_tick = 0;  ///< inserts observed (audit cadence cursor)
};

/// Deletion bookkeeping of the online graph, persisted through checkpoints
/// (GKMC v3) so a resumed stream reproduces slot reuse bit-exact. Slots move
/// through three states: alive -> tombstoned (`pending_dead`: walks skip
/// them, stale in-edges may still reference them) -> reclaimed
/// (`free_slots`: all in-edges purged by compaction, slot awaits reuse by a
/// later insert). Both lists are kept sorted ascending.
struct RemovalState {
  /// The "no such slot" sentinel shared by every consumer of slot ids
  /// (walk recency seed, checkpoint serialization): one definition, so
  /// the persisted value cannot drift between writer and reader.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::vector<std::uint32_t> pending_dead;  ///< tombstoned, not yet purged
  std::vector<std::uint32_t> free_slots;    ///< purged, reusable
  /// Slot id of the most recently committed insert (each walk seeds it:
  /// streams are locally correlated). kNoSlot when nothing was inserted.
  std::uint32_t last_inserted = kNoSlot;
};

/// Validates checkpointed per-arena parts against every invariant the
/// restore constructor requires: parameter sanity, points/graph shape
/// agreement, well-formed (sorted, in-range, disjoint) removal lists, and
/// the full edge audit (no out-of-range/self edges, tombstoned slots keep
/// no out-edges, reclaimed slots keep no in-edges). Returns nullptr when
/// the parts are safe to construct from, else a static description of the
/// first violation. This is the single source of truth: the restore
/// constructor aborts via this validator, and the Try* checkpoint loaders
/// call it first so a malformed file is a clean load error instead.
const char* ValidateOnlineGraphRestoreParts(const Matrix& points,
                                            const KnnGraph& graph,
                                            const OnlineGraphParams& params,
                                            const RemovalState& removal);

/// Shape-based variant for arenas whose rows are not a Matrix (the SQ8
/// code arena): identical checks with `rows`/`cols` standing in for the
/// points matrix shape. The Matrix overload delegates here.
const char* ValidateOnlineGraphRestoreParts(std::size_t rows, std::size_t cols,
                                            const KnnGraph& graph,
                                            const OnlineGraphParams& params,
                                            const RemovalState& removal);

/// Validates checkpointed SQ8 arena parts against `params` and the arena
/// shape: size agreement (codes == rows*dim, norms == rows, quantizer ==
/// dim), finite non-negative scales, and trained-implies-kSq8. nullptr
/// when safe, else a static description (same contract as above).
const char* ValidateSq8ArenaParts(const Sq8ArenaParts& sq8, std::size_t rows,
                                  std::size_t dim,
                                  const OnlineGraphParams& params);

/// Growing KNN graph + vector store. Deterministic: the graph produced is a
/// pure function of the insertion sequence and the RNG seed (thread count
/// included — parallel and serial ingest commit identical edges), which the
/// streaming replay test relies on; the RNG state round-trips through
/// checkpoints so restarts continue the same stream.
///
/// Concurrency model: one ingest thread calls Insert/InsertBatch/Remove/
/// CompactTombstones; any number of serving threads call SearchKnn
/// concurrently with it. Ingest
/// holds a reader-writer lock — shared while walks read the graph, unique
/// only for the serial commit phase — so searches interleave with the
/// expensive part of ingest and block only during edge application.
class OnlineKnnGraph {
 public:
  /// Sentinel mode id for "no mode": rows tagged with it (and rows of a
  /// modeless batch) use and adjust the global adaptive seed budget.
  static constexpr std::uint32_t kNoMode = 0xffffffffu;

  /// Empty structure over `dim`-dimensional points.
  OnlineKnnGraph(std::size_t dim, const OnlineGraphParams& params);

  /// Re-assembles a structure from checkpointed parts. `rng` must be the
  /// snapshot taken alongside the parts for insertions to continue
  /// bit-exact, `seeds` the adaptive-policy state captured with it, and
  /// `removal` the deletion bookkeeping (empty for pre-deletion
  /// checkpoints: every slot alive, last insert = highest id).
  OnlineKnnGraph(Matrix points, KnnGraph graph, const OnlineGraphParams& params,
                 const RngSnapshot& rng,
                 const AdaptiveSeedState& seeds = AdaptiveSeedState(),
                 const RemovalState& removal = RemovalState());

  /// Restore overload carrying a (possibly trained) SQ8 arena. When
  /// `sq8.trained`, `points` must be empty (the fp32 rows were dropped at
  /// training time) and the code arena supplies the row shape.
  /// `mode_seeds` restores the per-mode adaptive budgets (empty for
  /// checkpoints written before per-mode budgets, or for streams that
  /// never tagged rows with modes).
  OnlineKnnGraph(Matrix points, KnnGraph graph, const OnlineGraphParams& params,
                 const RngSnapshot& rng, const AdaptiveSeedState& seeds,
                 const RemovalState& removal, Sq8ArenaParts sq8,
                 std::vector<AdaptiveSeedState> mode_seeds = {});

  /// Number of arena slots (== the exclusive upper bound on node ids).
  /// Removal tombstones a slot without shrinking the arena, so this is
  /// monotonically non-decreasing; see num_alive() for the live count.
  /// Safe to call from serving threads while an ingest is running.
  std::size_t size() const {
    ReaderMutexLock guard(mu_);
    return ArenaRowsLocked();
  }
  /// Number of live (non-tombstoned) points. Safe during ingest.
  std::size_t num_alive() const {
    ReaderMutexLock guard(mu_);
    return ArenaRowsLocked() - pending_dead_.size() - free_slots_.size();
  }
  /// Whether slot `id` currently holds a live point. Safe during ingest.
  bool IsAlive(std::uint32_t id) const {
    ReaderMutexLock guard(mu_);
    return id < dead_.size() && dead_[id] == 0;
  }
  /// Unsynchronized variant, mirroring points()/graph(): for the ingest
  /// thread (the only writer of the flags — its own reads cannot race) or
  /// quiescent use. Avoids one lock round-trip per slot in O(n) sweeps
  /// like TTL expiry. Serving threads must use IsAlive.
  bool IsAliveUnlocked(std::uint32_t id) const {
    // Externally serialized: caller is the single ingest thread (sole
    // writer of dead_) or the structure is quiescent.
    mu_.AssertReaderHeld();
    return id < dead_.size() && dead_[id] == 0;
  }
  std::size_t dim() const { return dim_; }
  /// Direct views of the stores. Unsynchronized: for quiescent use only
  /// (no concurrent ingest) — serving threads should go through SearchKnn.
  const Matrix& points() const {
    mu_.AssertReaderHeld();  // externally serialized: quiescent use only
    return points_;
  }
  const KnnGraph& graph() const {
    mu_.AssertReaderHeld();  // externally serialized: quiescent use only
    return graph_;
  }
  /// Coordinates of slot `id`, storage-mode agnostic. fp32 mode returns the
  /// arena row pointer; a trained SQ8 arena decodes into a thread_local
  /// ring of buffers, so up to kDecodeRing pointers obtained on one thread
  /// stay simultaneously valid (callers in this repo use at most two).
  /// Unsynchronized, like points(): quiescent or ingest-thread use only.
  const float* PointPtr(std::uint32_t id) const {
    mu_.AssertReaderHeld();  // externally serialized: quiescent use only
    if (!sq8_trained_) return points_.Row(id);
    return DecodeToRing(id);
  }
  const OnlineGraphParams& params() const { return params_; }
  RngSnapshot rng_state() const { return rng_.Snapshot(); }
  /// SQ8 arena views for checkpointing. Unsynchronized (quiescent use).
  bool sq8_trained() const {
    mu_.AssertReaderHeld();
    return sq8_trained_;
  }
  const std::vector<std::uint8_t>& sq8_codes() const {
    mu_.AssertReaderHeld();
    return sq8_codes_;
  }
  const std::vector<float>& sq8_norms() const {
    mu_.AssertReaderHeld();
    return sq8_norms_;
  }
  const Sq8Quantizer& sq8_quantizer() const {
    mu_.AssertReaderHeld();
    return sq8_quant_;
  }
  /// Bytes the arena holds per slot (coordinate storage only): padded fp32
  /// stride, or d u8 codes + one fp32 norm once SQ8-trained. Safe during
  /// ingest.
  std::size_t arena_bytes_per_point() const {
    ReaderMutexLock guard(mu_);
    if (sq8_trained_) return dim_ * sizeof(std::uint8_t) + sizeof(float);
    return points_.stride() * sizeof(float);
  }
  /// Cumulative SQ8 telemetry: candidates scored through the quantized
  /// kernels, and candidates exact-re-ranked against decoded rows. Both 0
  /// in fp32 mode; their ratio is the bench's `sq8_rerank_fraction`.
  std::uint64_t sq8_scored() const { return sq8_scored_.Load(); }
  std::uint64_t sq8_reranked() const { return sq8_reranked_.Load(); }

  /// Re-trains the quantizer from the decoded live rows and re-encodes the
  /// arena in place (no-op until the SQ8 arena is trained). The streaming
  /// layer calls this on drift re-seed so codes track the moved
  /// distribution. Ingest-thread only (takes the writer lock).
  void RequantizeArena();
  /// Adaptive-policy snapshot for checkpointing. Safe during ingest.
  AdaptiveSeedState seed_state() const;
  /// Per-mode adaptive budgets for checkpointing (index == mode id; an
  /// entry with live_seeds == 0 has never adjusted and inherits the global
  /// budget). Empty when no batch ever carried modes. Safe during ingest.
  std::vector<AdaptiveSeedState> mode_seed_states() const;
  /// Deletion-bookkeeping snapshot for checkpointing. Safe during ingest.
  RemovalState removal_state() const;
  /// Entry points currently used per walk (adapts; see AdaptiveSeedState).
  /// Safe to poll from serving/monitoring threads during ingest.
  std::size_t live_num_seeds() const {
    ReaderMutexLock guard(mu_);
    return live_seeds_;
  }

  /// Inserts `x` (dim floats): finds its kappa approximate nearest
  /// neighbors, links both directions and locally joins the surrounding
  /// lists; returns the new node's id. When `touched` is non-null, ids of
  /// pre-existing nodes whose neighbor lists changed are appended to it
  /// and the whole vector is sorted and deduplicated before returning —
  /// the set the streaming clusterer re-optimizes, each id exactly once.
  /// `seed_hints` (optional) adds caller-supplied walk entry points on top
  /// of the random ones — the streaming clusterer passes representatives
  /// of the clusters nearest `x`, which routes the walk into rare modes
  /// that random entry would miss.
  std::uint32_t Insert(const float* x,
                       std::vector<std::uint32_t>* touched = nullptr,
                       const std::vector<std::uint32_t>* seed_hints = nullptr);

  /// Batch insert of every row of `rows`. Ids are assigned in row order —
  /// reclaimed slots first (lowest id first, keeping the arena dense), then
  /// fresh appends; the first row's id is returned and `assigned`, when
  /// non-null, receives every row's id in order. Candidate walks run
  /// thread-parallel on `pool` (nullptr or a single-thread pool runs them
  /// inline) against a frozen snapshot of the graph, then edges are
  /// committed serially in row order — the result is bit-identical at any
  /// thread count. `touched` behaves as in Insert (sorted, deduplicated).
  /// `seed_hints`, when non-null, supplies one hint vector per row.
  /// `modes`, when non-null, tags each row with a caller-defined mode id
  /// (the streaming clusterer's nearest cluster): the row's walk uses that
  /// mode's adaptive seed budget (global budget until the mode's own state
  /// initializes) and its audit verdict adjusts the per-mode state instead
  /// of the global one. nullptr keeps the purely global policy and is
  /// byte-identical to the behavior before modes existed.
  std::uint32_t InsertBatch(
      const Matrix& rows, ThreadPool* pool,
      std::vector<std::uint32_t>* touched = nullptr,
      const std::vector<std::vector<std::uint32_t>>* seed_hints = nullptr,
      std::vector<std::uint32_t>* assigned = nullptr,
      const std::vector<std::uint32_t>* modes = nullptr);

  /// Tombstones every point of `ids` (strictly ascending, each alive),
  /// one after another in id order. Concurrent SearchKnn and
  /// SearchKnnBatch readers skip a removed point from then on without
  /// blocking. Each removal routes the point's in-edges within its 1-hop
  /// neighborhood through a repair pass that cross-links the removed
  /// node's live neighbors with each other (the same local-join machinery
  /// the insert path uses), so the neighborhood stays connected once the
  /// node drops out; the amortized purge check runs after each id, so a
  /// purge mid-batch is seen by the later ids' repairs exactly as if they
  /// had been removed one call at a time. Stale in-edges from further
  /// away remain until that purge — walks ignore them. Ids of nodes whose
  /// lists changed are appended to `repaired` when non-null, and the whole
  /// vector is sorted and deduplicated once, at the end of the call.
  ///
  /// The writer lock is taken per id, so a concurrent reader never waits
  /// longer than one removal. Must be called from the ingest thread.
  /// Deterministic: the graph remains a pure function of the interleaved
  /// insert/remove sequence, however the removals are grouped into calls.
  void Remove(std::span<const std::uint32_t> ids,
              std::vector<std::uint32_t>* repaired = nullptr);

  /// Purges every edge pointing at a tombstoned slot (one O(n*kappa)
  /// sweep) and moves those slots to the reusable free list, so later
  /// inserts fill them instead of growing the arena. Runs automatically
  /// once tombstones reach a fixed fraction of the arena; public for
  /// callers that want the sweep at a quiet moment. Ingest-thread only.
  void CompactTombstones();

  /// Approximate top-k nearest existing points to `q` via the same bounded
  /// graph walk the insert path uses, seeded with the adaptive entry-point
  /// count. Sorted ascending by distance. Safe to call from any number of
  /// threads concurrently with each other *and* with a single ingest
  /// thread running Insert/InsertBatch. The scratch overload reuses the
  /// caller's per-thread scratch; the plain overload uses a thread_local
  /// one. Read-only: never perturbs the insert RNG stream.
  ///
  /// Liveness caveat: platform rwlocks commonly prefer readers, so many
  /// threads issuing back-to-back searches with no think time can delay
  /// ingest commits unboundedly. If ingest latency matters under a
  /// sustained query flood, pace the query loops or shard the graph.
  std::vector<Neighbor> SearchKnn(const float* q, std::size_t topk) const;
  std::vector<Neighbor> SearchKnn(const float* q, std::size_t topk,
                                  SearchScratch& scratch) const;

  /// Batched serving queries: one result vector per row of `queries`,
  /// element-wise identical to calling SearchKnn row by row, but the
  /// reader lock is acquired once for the whole batch instead of once per
  /// query — the lock-amortization path for hot query tiers (a large
  /// batch does delay ingest commits for its whole duration; size batches
  /// accordingly). The scratch overload reuses the caller's per-thread
  /// scratch; the plain overload uses a thread_local one.
  std::vector<std::vector<Neighbor>> SearchKnnBatch(const Matrix& queries,
                                                    std::size_t topk) const;
  std::vector<std::vector<Neighbor>> SearchKnnBatch(
      const Matrix& queries, std::size_t topk, SearchScratch& scratch) const;

 private:
  /// Lock-free core of SearchKnn; the caller must hold the reader lock.
  std::vector<Neighbor> SearchKnnLocked(const float* q, std::size_t topk,
                                        SearchScratch& scratch) const
      GKM_REQUIRES_SHARED(mu_);
  struct PlannedInsert;

  /// Bounded best-first walk seeded from `rng` plus optional hint entry
  /// points; returns up to beam_width exact-scored candidates sorted
  /// ascending. Falls back to scanning everything while the corpus is
  /// below the bootstrap threshold. Reads only graph/point state — callers
  /// must hold the read lock (or be the single writer).
  std::vector<Neighbor> CollectCandidates(
      const float* q, Rng& rng, const std::vector<std::uint32_t>* seed_hints,
      SearchScratch& scratch, std::size_t num_seeds) const
      GKM_REQUIRES_SHARED(mu_);

  /// Parallel phase of one row: walk + audit + intra-batch scoring + local
  /// join distance table, all against the sub-batch's graph snapshot.
  void PlanRow(const Matrix& rows, std::size_t batch_begin, std::size_t r,
               std::uint64_t row_seed, std::size_t num_seeds,
               std::uint64_t tick,
               const std::vector<std::uint32_t>* seed_hints,
               SearchScratch& scratch, PlannedInsert& plan) const
      GKM_REQUIRES_SHARED(mu_);

  /// Serial phase of one row: slot allocation (reclaimed slots first),
  /// forward/reverse edges, local join from the precomputed table,
  /// adaptive-policy bookkeeping. Candidate ids at or above `snapshot_n`
  /// are sub-batch predecessors and resolve through `batch_ids` (the ids
  /// already committed for earlier rows of the sub-batch). `mode` routes
  /// the audit verdict (kNoMode = global policy).
  std::uint32_t CommitRow(const Matrix& rows, std::size_t r,
                          std::size_t snapshot_n,
                          const std::vector<std::uint32_t>& batch_ids,
                          PlannedInsert& plan,
                          std::vector<std::uint32_t>* touched,
                          std::uint32_t mode)
      GKM_REQUIRES(mu_);

  /// One id of Remove: tombstone, ring repair (appending changed list
  /// owners to `repaired` unsorted) and the purge check.
  void RemoveOneLocked(std::uint32_t id, std::vector<std::uint32_t>* repaired)
      GKM_REQUIRES(mu_);

  /// Unlocked core of CompactTombstones; requires the writer lock.
  void PurgeTombstonesLocked() GKM_REQUIRES(mu_);

  /// Arena slot count, storage-mode agnostic (code rows once SQ8-trained).
  std::size_t ArenaRowsLocked() const GKM_REQUIRES_SHARED(mu_) {
    return sq8_trained_ ? sq8_norms_.size() : points_.rows();
  }
  /// Slots the arena holds before it must grow its storage.
  std::size_t ArenaCapacityLocked() const GKM_REQUIRES_SHARED(mu_) {
    return sq8_trained_ ? sq8_norms_.capacity() : points_.capacity();
  }

  /// Decodes slot `id` into the next buffer of a thread_local ring (see
  /// PointPtr). Requires a trained SQ8 arena.
  const float* DecodeToRing(std::uint32_t id) const GKM_REQUIRES_SHARED(mu_);

  /// Trains the quantizer on every live fp32 row, encodes the whole arena
  /// (dead slots included — deterministic, and their codes are never
  /// scored), and releases the fp32 rows. Called once, from the commit
  /// phase that grows the arena past params_.bootstrap.
  void TrainSq8Locked() GKM_REQUIRES(mu_);

  /// Appends or overwrites slot `id`'s code row from fp32 coordinates.
  void EncodeSlotLocked(std::uint32_t id, const float* x) GKM_REQUIRES(mu_);

  /// Folds one audit verdict into the failure EWMA and adjusts the live
  /// seed count when the rate crosses a policy threshold. A valid `mode`
  /// adjusts that mode's state (initialized from the global budget on its
  /// first audit); kNoMode adjusts the global policy.
  void ApplyAudit(bool failed, std::uint32_t mode) GKM_REQUIRES(mu_);

  /// Seed budget in force for a row of mode `mode` (kNoMode or an
  /// uninitialized mode falls back to the global budget).
  std::size_t EffectiveSeedsLocked(std::uint32_t mode) const
      GKM_REQUIRES_SHARED(mu_);

  void EnsureScratch(std::size_t slots);

  // Immutable after construction: readable from any thread without mu_.
  OnlineGraphParams params_;
  std::size_t dim_ = 0;
  // Guards every reader-visible piece of model state below between the
  // single ingest thread (shared for walks, unique for commits) and
  // concurrent SearchKnn readers (shared). Declared first so the analysis
  // sees the capability before its guarded fields.
  SharedMutex mu_;
  Matrix points_ GKM_GUARDED_BY(mu_);
  KnnGraph graph_ GKM_GUARDED_BY(mu_);
  // SQ8 arena (kSq8 mode only). Codes are PACKED (stride == dim_, no
  // padding) — the memory win is the point — with one fp32 row constant
  // per slot. sq8_trained_ flips true exactly once, under the writer lock,
  // when the arena crosses params_.bootstrap; points_ is released then.
  bool sq8_trained_ GKM_GUARDED_BY(mu_) = false;
  std::vector<std::uint8_t> sq8_codes_ GKM_GUARDED_BY(mu_);
  std::vector<float> sq8_norms_ GKM_GUARDED_BY(mu_);
  Sq8Quantizer sq8_quant_ GKM_GUARDED_BY(mu_);
  // Telemetry only (never read back into model state): approximate scores
  // issued / candidates exact-re-ranked. Relaxed: monotonic counters. The
  // copy/move hooks exist solely to keep OnlineKnnGraph movable (shards
  // live in a vector); they race-freely apply only before concurrent use.
  struct RelaxedCounter {
    std::atomic<std::uint64_t> v{0};
    RelaxedCounter() = default;
    RelaxedCounter(const RelaxedCounter& o)
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(const RelaxedCounter& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    void Add(std::uint64_t inc) {
      v.fetch_add(inc, std::memory_order_relaxed);
    }
    std::uint64_t Load() const { return v.load(std::memory_order_relaxed); }
  };
  mutable RelaxedCounter sq8_scored_;
  mutable RelaxedCounter sq8_reranked_;
  // Per-slot tombstone flags (1 = dead), always sized to the arena. Walks
  // and the brute-force phase skip dead slots; serving readers only ever
  // see a slot flip alive->dead under the writer lock.
  std::vector<std::uint8_t> dead_ GKM_GUARDED_BY(mu_);
  // Tombstoned slots not yet purged (stale in-edges may reference them),
  // sorted ascending, and purged slots awaiting reuse, sorted DESCENDING
  // so the lowest-slot-first reuse policy is an O(1) pop_back even after
  // a mass expiry frees a whole window. (RemovalState serializes both
  // ascending; the constructor and removal_state() convert.)
  std::vector<std::uint32_t> pending_dead_ GKM_GUARDED_BY(mu_);
  std::vector<std::uint32_t> free_slots_ GKM_GUARDED_BY(mu_);
  // Most recently committed insert (see RemovalState::last_inserted).
  std::uint32_t last_inserted_ GKM_GUARDED_BY(mu_) = RemovalState::kNoSlot;
  // Ingest-thread-owned: consumed only by Insert/InsertBatch callers (one
  // serial draw per row), never reader-visible, so not guarded by mu_.
  Rng rng_;
  // Adaptive entry-point policy (see "Adaptive seed policy" in the .cc).
  std::size_t live_seeds_ GKM_GUARDED_BY(mu_) = 0;
  double fail_ewma_ GKM_GUARDED_BY(mu_) = 0.125;
  std::uint64_t audit_tick_ GKM_GUARDED_BY(mu_) = 0;
  // Per-mode budgets, indexed by the caller's mode id; grows on demand at
  // the start of a mode-tagged batch. Entries with live_seeds == 0 are
  // uninitialized and defer to the global policy above.
  std::vector<AdaptiveSeedState> mode_seeds_ GKM_GUARDED_BY(mu_);
  // Per-slot walk scratch for the parallel ingest phase (each pool slot
  // owns one entry); serving threads bring their own SearchScratch.
  std::vector<SearchScratch> ingest_scratch_;
};

}  // namespace gkm

#endif  // GKM_STREAM_ONLINE_KNN_GRAPH_H_
