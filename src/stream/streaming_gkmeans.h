// Copyright 2026 The gkmeans Authors.
// Streaming GK-means: graph-supported clustering (Alg. 2's Delta-I move
// machinery) over a corpus that arrives in windows. Each window is (1)
// inserted into an OnlineKnnGraph, (2) assigned to clusters by the BKM
// arrival gain over its graph neighbors' clusters, and (3) re-optimized by
// a bounded number of mini-batch epochs that only visit the neighborhoods
// the window touched — per-window cost is proportional to the window, not
// the corpus. Cluster drift is detected by centroid displacement between
// windows, and clusters that end up empty are re-seeded from the worst-fit
// member of the most populous cluster.
//
// The clusterer's entire state — vectors, graph, labels, composite-vector
// statistics, stream cursor, RNG — round-trips through the checkpoint
// format (see stream/checkpoint.h), so a serving process can restart
// mid-stream without recomputation.

#ifndef GKM_STREAM_STREAMING_GKMEANS_H_
#define GKM_STREAM_STREAMING_GKMEANS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kmeans/cluster_state.h"
#include "kmeans/types.h"
#include "stream/sharded_online_knn_graph.h"

namespace gkm {

/// Knobs of the streaming clusterer.
struct StreamingGkMeansParams {
  std::size_t k = 8;                ///< number of clusters
  std::size_t kappa = 20;           ///< neighbors consulted per sample
  /// Online graph knobs (degree >= kappa). `graph.shards` > 1 shards the
  /// arena for multi-writer ingest and stall-free serving; point ids seen
  /// through labels()/RemovePoint/history are global ids (slot*S + shard).
  OnlineGraphParams graph;
  std::size_t epochs_per_window = 2;///< bounded mini-batch epochs per window
  std::size_t bootstrap_min = 256;  ///< points accumulated before clustering
  std::size_t bootstrap_epochs = 4; ///< full epochs right after bootstrap
  std::size_t bisect_epochs = 6;    ///< 2M-tree refinement at bootstrap
  /// A cluster whose centroid moves more than this fraction of the RMS
  /// point-to-centroid distance in one window counts as drifted; any drift
  /// grants up to `max_extra_epochs` additional epochs. 0 disables.
  double drift_threshold = 0.25;
  std::size_t max_extra_epochs = 1;
  /// Split/merge maintenance ops allowed per window (0 disables). Each op
  /// merges the cheapest cluster pair and splits the highest-SSE cluster —
  /// the global restructuring single-sample Delta-I moves cannot perform,
  /// without which a streamed model locks into its bootstrap partition.
  /// The loop also stops early once an op's realized SSE reduction no
  /// longer covers its merge loss. Each op costs O(k^2 d) on composite
  /// vectors plus one label scan and a local epoch over the split cluster.
  std::size_t max_splits_per_window = 4;
  /// A split/merge runs only when the merge's Delta-I loss is below this
  /// fraction of the split target's SSE (conservative estimate of the
  /// split's gain).
  double split_gain_factor = 0.35;
  /// Insert-routing: seed each point's graph walk from representatives of
  /// this many nearest clusters (0 disables). Couples the clustering back
  /// into graph construction — rare modes own a cluster (split/merge sees
  /// to that), so their representative routes the walk where random entry
  /// points rarely land.
  std::size_t route_hints = 8;
  /// Per-window time-to-live: a point ingested in window w is retired at
  /// the start of window w + ttl_windows (its graph node tombstoned, its
  /// cluster statistics decremented). 0 disables expiry. The windowed-churn
  /// setting of Debatty et al.'s online graph building: the model tracks a
  /// sliding corpus instead of an ever-growing one.
  std::size_t ttl_windows = 0;
  /// Diagnostics retained: history() keeps the stats of the most recent
  /// this-many windows (the stream is unbounded; the process must not be).
  std::size_t history_limit = 4096;
  /// Worker threads for window ingest (route-hint scoring and candidate
  /// walks); 0 means all hardware threads. Pure execution knob: the model
  /// produced is bit-identical at any value, so it is not persisted in
  /// checkpoints — a resumed process picks its own.
  std::size_t ingest_threads = 0;
  std::uint64_t seed = 42;
  /// Cluster-routed shard placement ("Cluster-and-Conquer"): every cluster
  /// gets a deterministic home shard, new points land on their nearest
  /// cluster's home shard, and routed queries search one shard instead of
  /// merging all S. Model state — it changes where every point lives — so
  /// it is persisted in checkpoints. Also enables the per-mode adaptive
  /// seed budgets (rows are tagged with their nearest cluster).
  bool routed_placement = false;
  /// Routed-query spill tolerance: also search the runner-up shard when
  /// the best foreign-shard cluster scores within (1 + spill_margin) of
  /// the best cluster, in squared-distance space. Recall-vs-work knob;
  /// persisted (v6).
  double spill_margin = 0.35;
  /// Home-shard rebalance trigger: when the most loaded shard exceeds the
  /// mean load by this fraction (skew = max/avg - 1), its smallest cluster
  /// is re-homed to the least loaded shard. 0 disables. Loads are the
  /// checkpointed cluster counts — never wall-clock measurements — so
  /// rebalancing stays a pure function of the stream. Persisted (v6).
  double rebalance_threshold = 0.0;
  /// Rows physically migrated to their home shard per window. TTL churn
  /// and re-homing strand rows on foreign shards; a budgeted sweep drains
  /// them lowest global slot first. Persisted (v6).
  std::size_t migrate_budget = 1024;
};

/// Per-window diagnostics (the streaming analogue of IterStat).
struct WindowStats {
  std::size_t window = 0;       ///< 0-based window index
  std::size_t points = 0;       ///< rows ingested this window
  std::size_t touched = 0;      ///< nodes re-optimized by the epochs
  std::size_t epochs = 0;       ///< epochs actually run (incl. drift extras)
  std::size_t moves = 0;        ///< label changes across those epochs
  std::size_t drifted = 0;      ///< clusters beyond the drift threshold
  std::size_t reseeded = 0;     ///< empty clusters re-seeded
  std::size_t split_merges = 0; ///< split/merge maintenance ops executed
  std::size_t expired = 0;      ///< points retired by TTL this window
  std::size_t migrated = 0;     ///< rows moved to their home shard
  std::size_t rehomed = 0;      ///< clusters re-homed by the rebalancer
  double max_drift = 0.0;       ///< max centroid shift / RMS radius
  double distortion = 0.0;      ///< E (Eqn. 4) over all points so far
};

/// Everything needed to reconstruct a StreamingGkMeans exactly — produced
/// by Snapshot(), consumed by FromSnapshot(), serialized by
/// stream/checkpoint.{h,cc}.
struct StreamSnapshot {
  StreamingGkMeansParams params;
  /// Per-shard graph state: points, edges, RNG, adaptive seeds and removal
  /// bookkeeping — one entry per shard (params.graph.shards of them; a
  /// single entry for the unsharded S=1 default). Slot-local ids inside;
  /// every other field below indexes by global id.
  std::vector<OnlineShardParts> shards;
  std::vector<std::uint32_t> labels;      ///< cluster per global slot
  std::uint64_t n = 0;                    ///< points admitted to the state
  std::vector<double> composites;         ///< k x dim composite vectors
  std::vector<std::uint32_t> counts;      ///< cluster sizes
  std::vector<double> composite_norms;    ///< ||D_r||^2 cache
  std::vector<double> point_norms;        ///< per-cluster sum ||x||^2
  double sum_point_norms = 0.0;
  Matrix prev_centroids;                  ///< drift baseline (may be empty)
  std::vector<std::uint32_t> cluster_reps;///< routing representative per cluster
  /// Home shard per cluster (routed placement). Empty when routing is off
  /// or the model is not yet bootstrapped; size k with entries <
  /// params.graph.shards otherwise.
  std::vector<std::uint32_t> cluster_home;
  std::uint64_t windows = 0;              ///< stream cursor: windows consumed
  bool bootstrapped = false;
  RngSnapshot rng;                        ///< clusterer RNG
  std::vector<std::uint64_t> birth_windows; ///< per-slot ingest window (TTL)
};

/// Validates `snap` against every invariant FromSnapshot requires:
/// parameter sanity, per-shard graph parts (via
/// ValidateOnlineGraphRestoreParts), label/representative/birth-window
/// consistency with the sharded arena's liveness, count/centroid shapes.
/// Returns nullptr when the snapshot is safe to restore from, else a
/// static description of the first violation. Single source of truth:
/// FromSnapshot aborts via this validator, and the Try* checkpoint
/// loaders call it first so a malformed file is a clean load error.
const char* ValidateStreamSnapshot(const StreamSnapshot& snap);

/// Online GK-means over an unbounded stream of fixed-dimension vectors.
class StreamingGkMeans {
 public:
  StreamingGkMeans(std::size_t dim, const StreamingGkMeansParams& params);

  /// Ingests one window (any number of rows, dim columns): inserts into the
  /// graph, assigns, and re-optimizes the touched neighborhoods. Before
  /// `bootstrap_min` points have accumulated the rows are only inserted;
  /// the first window that crosses the threshold triggers batch
  /// initialization of the clustering. Route-hint scoring and the graph
  /// candidate walks fan out over `ingest_threads` workers; the result is
  /// bit-identical at any thread count. Serving threads may call
  /// graph().SearchKnn concurrently with this.
  void ObserveWindow(const Matrix& window);

  /// As above, additionally reporting the global id assigned to each row
  /// (row order). Removals make ids non-contiguous — reclaimed slots are
  /// reused lowest-first — so ingest front-ends (the serving daemon's
  /// insert opcode) need the explicit mapping to answer clients.
  void ObserveWindow(const Matrix& window,
                     std::vector<std::uint32_t>* assigned);

  /// Explicitly retires point `id` (which must be alive): its graph node
  /// is tombstoned (concurrent searches skip it without blocking), its
  /// neighborhood repaired, and — when bootstrapped — its cluster's
  /// composite statistics decremented. A cluster emptied by removals is
  /// re-seeded by the next window's maintenance pass. Ingest-thread only.
  /// Deterministic: the model stays a pure function of the interleaved
  /// window/remove sequence, which delta-checkpoint replay relies on.
  void RemovePoint(std::uint32_t id);

  /// Runs `epochs` Delta-I epochs over *all* live points — the periodic
  /// consolidation a server can schedule off-peak. Cost O(n kappa d).
  void Consolidate(std::size_t epochs);

  std::size_t dim() const { return graph_.dim(); }
  /// Arena slots (== exclusive upper bound on point ids); removals do not
  /// shrink it. points_alive() is the live count.
  std::size_t points_seen() const { return graph_.size(); }
  std::size_t points_alive() const { return graph_.num_alive(); }
  std::size_t windows_seen() const { return windows_; }
  bool bootstrapped() const { return bootstrapped_; }
  const ShardedOnlineKnnGraph& graph() const { return graph_; }
  /// Per-slot labels; tombstoned slots hold UINT32_MAX ("unassigned").
  const std::vector<std::uint32_t>& labels() const { return labels_; }
  /// Home shard per cluster (routed placement); empty until bootstrap or
  /// when routing is off.
  const std::vector<std::uint32_t>& cluster_home() const {
    return cluster_home_;
  }

  /// Rebuilds and publishes the query router (post-window centroids,
  /// cluster homes, active-cluster flags) from the current checkpointed
  /// model. ObserveWindow calls this at the end of every window; ingest
  /// front-ends call it after out-of-band mutations (the serving daemon's
  /// remove opcode) and once after a checkpoint resume, so routing stays a
  /// pure function of the accepted-op sequence. No-op unless routed
  /// placement is on, S > 1 and the model has bootstrapped.
  void PublishReadState();
  /// Read-only view of the composite-vector statistics (live points only).
  const ClusterState& cluster_state() const { return state_; }
  /// Per-window diagnostics, most recent `history_limit` windows only.
  const std::deque<WindowStats>& history() const { return history_; }
  const StreamingGkMeansParams& params() const { return params_; }

  /// Average distortion E over everything ingested so far (bootstrapped
  /// streams only).
  double Distortion() const { return state_.Distortion(); }

  /// Snapshot of the clustering in the shape batch algorithms report, so
  /// streaming and batch results drop into the same benches.
  ClusteringResult Result() const;

  /// Checkpoint support.
  StreamSnapshot Snapshot() const;
  static StreamingGkMeans FromSnapshot(StreamSnapshot snap);

 private:
  explicit StreamingGkMeans(StreamSnapshot snap);

  /// Fills `hints` with the representatives of the route_hints clusters
  /// whose centroids are nearest `x` — the walk entry points for Insert.
  /// Reads only cluster state (and the per-window route quantizer), so rows
  /// of a window run it concurrently. In SQ8 mode centroids are scored
  /// through the quantized asymmetric kernel — hints are routing aids, not
  /// invariants, so the cheaper approximate ranking is sound.
  /// When `nearest_active` is non-null it additionally receives the id of
  /// the nearest non-empty cluster (tie → lowest id; UINT32_MAX when every
  /// cluster is empty) — the row's routing mode for placement and the
  /// per-mode seed budgets.
  void ComputeRouteHints(const float* x, const Matrix& centroids,
                         std::vector<std::uint32_t>& hints,
                         std::uint32_t* nearest_active = nullptr) const;

  /// Rebuilds the per-window SQ8 centroid table ComputeRouteHints scores
  /// against (kSq8 mode only; clears it otherwise). Called once per window
  /// before the parallel hint pass, on the window-start centroid snapshot.
  void PrepareRouteQuantizer(const Matrix& centroids);

  /// Assigns a freshly inserted node by the best arrival gain among its
  /// graph neighbors' clusters (nearest centroid when none are labeled
  /// yet, e.g. the first rows of a window).
  void AssignNew(std::uint32_t id, const Matrix& centroids);

  /// Batch initialization once bootstrap_min points have accumulated.
  void Bootstrap();

  /// `epochs` shuffled Delta-I passes over `ids`; returns moves made.
  std::size_t RunEpochs(const std::vector<std::uint32_t>& ids,
                        std::size_t epochs, std::size_t* epochs_run);

  /// Drift bookkeeping + empty-cluster re-seeding after a window's epochs.
  void DriftAndReseed(const std::vector<std::uint32_t>& touched,
                      WindowStats& ws);

  /// Cluster-state half of a removal, shared by RemovePoint and TTL
  /// expiry: cluster statistics, label and representative invalidation.
  /// The caller tombstones the graph node afterwards (removal never
  /// rewrites a row, so retiring first reads the same coordinates).
  void RetirePoint(std::uint32_t id);

  /// Retires every point whose TTL elapsed as of the current window cursor,
  /// in ascending id order (deterministic), then tombstones them all with
  /// one graph removal call; returns how many, appending repair-touched
  /// node ids to `repaired`.
  std::size_t ExpireTtl(std::vector<std::uint32_t>* repaired);

  /// Ids of all live points, ascending — the scope of full epochs.
  std::vector<std::uint32_t> AliveIds() const;

  /// Bounded ISODATA-style restructuring: merge the cheapest cluster pair,
  /// split the highest-SSE cluster in two. Runs at most
  /// max_splits_per_window times per call.
  void SplitMergeMaintain(WindowStats& ws);

  /// Greedy deterministic home assignment at bootstrap: clusters ordered
  /// by (count desc, id asc), each to the least-loaded shard so far (tie →
  /// lowest shard index). Sizes cluster_home_ to k.
  void AssignClusterHomes();

  /// Re-homes clusters when checkpointed shard loads skew beyond
  /// rebalance_threshold: repeatedly moves the most loaded shard's
  /// smallest non-empty cluster to the least loaded shard while that
  /// strictly reduces the spread (at most k moves). Updates cluster_home_
  /// only; MigrateMisplaced performs the physical row moves.
  std::size_t RebalanceHomes();

  /// Budgeted migration sweep: scans global slots ascending and moves up
  /// to `budget` live rows whose shard differs from their cluster's home —
  /// graph node re-inserted on the home shard, label/birth-window/
  /// representative bookkeeping carried over, cluster statistics untouched
  /// (the point never leaves its cluster). Stateless by design (no resume
  /// cursor): a checkpoint taken mid-migration captures everything the
  /// next sweep needs in cluster_home_ + labels_. Returns rows moved.
  std::size_t MigrateMisplaced(std::size_t budget);

  // Lock discipline: the clusterer owns no lock, and every field below is
  // ingest-thread-owned — written only inside ObserveWindow/RemovePoint/
  // Snapshot callers, which the API contract serializes on one logical
  // ingest thread. Concurrent serving threads touch only graph_, whose
  // OnlineKnnGraph shards carry the annotated SharedMutex capabilities;
  // the thread-safety analysis therefore checks the serving boundary
  // inside the graph, and nothing here needs GKM_GUARDED_BY.
  StreamingGkMeansParams params_;
  // Ingest worker pool (behind unique_ptr so the clusterer stays movable);
  // idle outside ObserveWindow.
  std::unique_ptr<ThreadPool> pool_;
  ShardedOnlineKnnGraph graph_;
  std::vector<std::uint32_t> labels_;
  ClusterState state_;
  Matrix prev_centroids_;
  /// One member node id per cluster (the most recently assigned), used as
  /// a walk entry point when inserting nearby new points. Staleness after
  /// relabeling is harmless — a hint is a routing aid, not an invariant.
  std::vector<std::uint32_t> cluster_reps_;
  /// Home shard per cluster (routed placement; empty until bootstrap or
  /// when routing is off). Checkpointed — placement must survive restarts
  /// bit-for-bit.
  std::vector<std::uint32_t> cluster_home_;
  /// Window index each slot's point was ingested in (TTL bookkeeping;
  /// resized with the arena, stale for reclaimed slots until reuse).
  std::vector<std::uint64_t> birth_window_;
  Rng rng_;
  std::uint64_t windows_ = 0;
  bool bootstrapped_ = false;
  std::deque<WindowStats> history_;  // bounded ring: O(1) trim per window
  // Epoch-stamped scratch for candidate harvesting.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t cur_stamp_ = 0;
  std::vector<std::uint32_t> cand_;
  std::vector<double> gain_scratch_;  // batched GainArrive results
  // Per-window SQ8 route-hint table (kSq8 mode, rebuilt each window from
  // the centroid snapshot): quantizer + packed centroid codes/norms.
  // Ephemeral routing state — never checkpointed.
  bool route_sq8_ = false;
  Sq8Quantizer route_qz_;
  std::vector<std::uint8_t> route_codes_;
  std::vector<float> route_norms_;
};

}  // namespace gkm

#endif  // GKM_STREAM_STREAMING_GKMEANS_H_
