// Copyright 2026 The gkmeans Authors.

#include "stream/streaming_gkmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/distance.h"
#include "common/kernels.h"
#include "common/macros.h"
#include "core/candidate_harvest.h"
#include "kmeans/two_means_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm {
namespace {

constexpr std::uint32_t kUnassigned = kNoLabel;

/// The labels of one shard's slots, indexed by slot: slot j of shard s is
/// global id j·S + s (GlobalId::Join), so a shard-local graph row is
/// harvested without translating its ids.
struct ShardLabels {
  const std::uint32_t* base;  // the label of global id `shard`
  std::size_t stride;         // the shard count S
  std::uint32_t operator[](std::uint32_t slot) const {
    return base[slot * stride];
  }
};

/// The labels of the slots of global id `g`'s shard.
ShardLabels ShardLabelsOf(const std::vector<std::uint32_t>& labels,
                          std::uint32_t g, std::size_t num_shards) {
  return {labels.data() + GlobalId::Split(g, num_shards).shard, num_shards};
}

// Both constructors funnel through this: params restored from a checkpoint
// are as untrusted as caller-supplied ones.
void ValidateParams(const StreamingGkMeansParams& params) {
  GKM_CHECK(params.k >= 2);
  GKM_CHECK(params.kappa > 0);
  GKM_CHECK_MSG(params.bootstrap_min > 2 * params.k,
                "bootstrap window too small for k clusters");
}

}  // namespace

const char* ValidateStreamSnapshot(const StreamSnapshot& snap) {
  const StreamingGkMeansParams& p = snap.params;
  if (p.k < 2) return "snapshot k out of range";
  if (p.kappa == 0) return "snapshot kappa out of range";
  if (p.bootstrap_min <= 2 * p.k) {
    return "snapshot bootstrap window too small for k clusters";
  }
  if (!(std::isfinite(p.spill_margin) && p.spill_margin >= 0.0)) {
    return "snapshot spill margin out of range";
  }
  if (!(std::isfinite(p.rebalance_threshold) && p.rebalance_threshold >= 0.0)) {
    return "snapshot rebalance threshold out of range";
  }
  const std::size_t num_shards = snap.shards.size();
  if (num_shards == 0 || num_shards != p.graph.shards) {
    return "snapshot shard count does not match params";
  }
  // Shard arena shape is storage-dependent: an SQ8-trained shard carries
  // codes + quantizer (and an empty fp32 matrix), an fp32 shard carries the
  // matrix. Validate against whichever representation is present.
  const auto shard_rows = [](const OnlineShardParts& shard) {
    return shard.sq8.trained ? shard.sq8.norms.size() : shard.points.rows();
  };
  const auto shard_cols = [](const OnlineShardParts& shard) {
    return shard.sq8.trained ? shard.sq8.quant.scale.size()
                             : shard.points.cols();
  };
  const std::size_t dim = shard_cols(snap.shards[0]);
  std::vector<std::size_t> rows(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const OnlineShardParts& shard = snap.shards[s];
    if (shard.sq8.trained && shard.points.rows() != 0) {
      return "snapshot SQ8 shard also carries fp32 rows";
    }
    if (shard_cols(shard) != dim) return "snapshot shard dimension mismatch";
    rows[s] = shard_rows(shard);
    if (const char* msg = ValidateOnlineGraphRestoreParts(
            rows[s], dim, shard.graph, p.graph, shard.removal)) {
      return msg;
    }
    if (const char* msg =
            ValidateSq8ArenaParts(shard.sq8, rows[s], dim, p.graph)) {
      return msg;
    }
    // Per-mode seed budgets (v6): modes are cluster ids, so the table can
    // never be wider than k. live_seeds == 0 marks an uninitialized mode.
    if (shard.mode_seeds.size() > p.k) {
      return "snapshot per-mode seed table wider than k";
    }
    for (const AdaptiveSeedState& ms : shard.mode_seeds) {
      if (!(std::isfinite(ms.fail_ewma) && ms.fail_ewma >= 0.0 &&
            ms.fail_ewma <= 1.0)) {
        return "snapshot per-mode seed EWMA out of range";
      }
      if (ms.live_seeds > (1u << 24)) {
        return "snapshot per-mode seed count implausible";
      }
    }
  }
  const std::size_t bound = ShardedArenaBound(rows.data(), num_shards);
  if (snap.labels.size() != bound) {
    return "labels/points size mismatch in snapshot";
  }
  // Liveness per global id, computed from the raw parts (the graphs are
  // not constructed yet): the slot must exist in its shard — interleaving
  // leaves holes when shards are unbalanced — and be neither tombstoned
  // nor reclaimed.
  std::vector<std::uint8_t> alive(bound, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const OnlineShardParts& shard = snap.shards[s];
    std::vector<std::uint8_t> dead(rows[s], 0);
    for (const std::uint32_t id : shard.removal.pending_dead) dead[id] = 1;
    for (const std::uint32_t id : shard.removal.free_slots) dead[id] = 1;
    for (std::size_t t = 0; t < rows[s]; ++t) {
      if (dead[t] == 0) alive[t * num_shards + s] = 1;
    }
  }
  for (std::size_t i = 0; i < snap.labels.size(); ++i) {
    const std::uint32_t l = snap.labels[i];
    if (l >= p.k && l != kUnassigned) return "snapshot label out of range";
    if (l == kUnassigned && snap.bootstrapped && alive[i] != 0) {
      return "live point unlabeled in bootstrapped snapshot";
    }
    if (l != kUnassigned && alive[i] == 0) {
      return "tombstoned slot still labeled in snapshot";
    }
  }
  if (!snap.cluster_reps.empty() && snap.cluster_reps.size() != p.k) {
    return "snapshot cluster-representative count mismatch";
  }
  for (const std::uint32_t rep : snap.cluster_reps) {
    if (rep == kUnassigned) continue;
    if (rep >= bound || alive[rep] == 0) {
      return "snapshot cluster representative out of range";
    }
  }
  if (!snap.cluster_home.empty() && snap.cluster_home.size() != p.k) {
    return "snapshot cluster-home count mismatch";
  }
  for (const std::uint32_t h : snap.cluster_home) {
    if (h >= num_shards) return "snapshot cluster home out of range";
  }
  if (p.routed_placement && snap.bootstrapped &&
      snap.cluster_home.size() != p.k) {
    return "routed snapshot missing cluster homes";
  }
  if (!p.routed_placement && !snap.cluster_home.empty()) {
    return "snapshot cluster homes present without routed placement";
  }
  if (!snap.birth_windows.empty() &&
      snap.birth_windows.size() != snap.labels.size()) {
    return "snapshot birth-window count mismatch";
  }
  for (const std::uint64_t b : snap.birth_windows) {
    if (b > snap.windows) return "snapshot birth window in the future";
  }
  if (snap.counts.size() != p.k) return "snapshot counts have wrong size";
  std::uint64_t total = 0;
  for (const std::uint32_t c : snap.counts) total += c;
  if (total != snap.n) return "snapshot counts do not sum to n";
  if (snap.n > snap.labels.size()) return "snapshot n exceeds point count";
  if (snap.prev_centroids.rows() != 0 &&
      (snap.prev_centroids.rows() != p.k ||
       snap.prev_centroids.cols() != dim)) {
    return "snapshot drift baseline has wrong shape";
  }
  // The raw state blocks are handed to ClusterState::RestoreRaw unchecked.
  if (snap.composites.size() != p.k * dim) {
    return "snapshot composite block has wrong size";
  }
  if (snap.composite_norms.size() != p.k || snap.point_norms.size() != p.k) {
    return "snapshot norm caches have wrong size";
  }
  return nullptr;
}

StreamingGkMeans::StreamingGkMeans(std::size_t dim,
                                   const StreamingGkMeansParams& params)
    : params_(params),
      pool_(std::make_unique<ThreadPool>(params.ingest_threads)),
      graph_(dim, params.graph),
      state_(dim, params.k),
      cluster_reps_(params.k, kUnassigned),
      rng_(params.seed),
      stamp_(params.k, 0) {
  ValidateParams(params);
  cand_.reserve(params.kappa + 1);
}

StreamingGkMeans::StreamingGkMeans(StreamSnapshot snap)
    : params_(snap.params),
      pool_(std::make_unique<ThreadPool>(snap.params.ingest_threads)),
      graph_(std::move(snap.shards), snap.params.graph),
      labels_(std::move(snap.labels)),
      state_(graph_.dim(), snap.params.k),
      prev_centroids_(std::move(snap.prev_centroids)),
      cluster_reps_(std::move(snap.cluster_reps)),
      cluster_home_(std::move(snap.cluster_home)),
      birth_window_(std::move(snap.birth_windows)),
      rng_(snap.params.seed),
      windows_(snap.windows),
      bootstrapped_(snap.bootstrapped),
      stamp_(snap.params.k, 0) {
  // Every snapshot invariant was checked by ValidateStreamSnapshot in
  // FromSnapshot — the only route here — before this body runs (the
  // per-shard graph parts additionally re-validate inside the graph
  // restore constructors above, in the init list).
  if (cluster_reps_.empty()) cluster_reps_.assign(params_.k, kUnassigned);
  // Pre-deletion (v2) snapshots carry no birth windows: every slot counts
  // as born at restore time, which a ttl_windows=0 model never reads.
  if (birth_window_.empty()) birth_window_.assign(graph_.size(), windows_);
  state_.RestoreRaw(static_cast<std::size_t>(snap.n),
                    std::move(snap.composites), std::move(snap.counts),
                    std::move(snap.composite_norms),
                    std::move(snap.point_norms), snap.sum_point_norms);
  rng_.Restore(snap.rng);
  cand_.reserve(params_.kappa + 1);
}

void StreamingGkMeans::ObserveWindow(const Matrix& window) {
  ObserveWindow(window, nullptr);
}

void StreamingGkMeans::ObserveWindow(const Matrix& window,
                                     std::vector<std::uint32_t>* assigned) {
  GKM_CHECK_MSG(window.cols() == dim(), "window dimension mismatch");
  GKM_TRACE_SPAN("stream.window");
  WindowStats ws;
  ws.window = static_cast<std::size_t>(windows_);
  ws.points = window.rows();

  // TTL expiry runs before ingest, against the window cursor the points
  // were aged by — so a checkpoint cut between windows resumes with the
  // exact same expiry schedule. Nodes whose lists the removal repair
  // touched join the window's re-optimization scope below.
  std::vector<std::uint32_t> touched;
  ws.expired = ExpireTtl(&touched);

  // Centroids snapshotted at window start: they steer both insert routing
  // and the nearest-centroid assignment fallback.
  const bool was_bootstrapped = bootstrapped_;
  Matrix centroids;
  if (was_bootstrapped) centroids = state_.Centroids();

  // Route hints per row, computed in parallel against the window-start
  // centroid snapshot (cluster state is read-only here). Routed placement
  // additionally tags every row with its nearest cluster (its "mode"): the
  // tag picks the row's home shard below and selects its per-mode adaptive
  // seed budget inside the graph.
  const std::size_t rows = window.rows();
  std::vector<std::vector<std::uint32_t>> hints;
  std::vector<std::uint32_t> modes;
  const bool use_hints = was_bootstrapped && params_.route_hints > 0;
  const bool mode_tagged = was_bootstrapped && params_.routed_placement;
  if (use_hints || mode_tagged) {
    GKM_TRACE_SPAN("stream.route_hints");
    PrepareRouteQuantizer(centroids);
    if (use_hints) hints.resize(rows);
    if (mode_tagged) modes.resize(rows);
    pool_->ParallelFor(0, rows, [&](std::size_t r) {
      thread_local std::vector<std::uint32_t> hint_scratch;
      std::vector<std::uint32_t>& h = use_hints ? hints[r] : hint_scratch;
      ComputeRouteHints(window.Row(r), centroids, h,
                        mode_tagged ? &modes[r] : nullptr);
    });
  }
  // Cluster-routed shard assignment: each row lands on its mode's home
  // shard — a pure function of the checkpointed centroid state, so the
  // partition stays arrival-order/thread/restart independent. Rows with no
  // live cluster (every cluster drained) fall back to the content hash.
  std::vector<std::uint32_t> placement;
  const bool routed_place =
      mode_tagged && graph_.num_shards() > 1 && !cluster_home_.empty();
  if (routed_place) {
    placement.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      placement[r] = modes[r] != kUnassigned ? cluster_home_[modes[r]]
                                             : graph_.ShardOf(window.Row(r));
    }
  }

  // Batched graph ingest: walks fan out over the pool against a frozen
  // snapshot, edges commit serially — bit-identical at any thread count.
  // Removals make assigned ids non-contiguous (reclaimed slots come
  // first), so the graph reports them explicitly.
  std::vector<std::uint32_t> fresh;
  graph_.InsertBatch(window, pool_.get(), &touched,
                     use_hints ? &hints : nullptr, &fresh,
                     routed_place ? &placement : nullptr,
                     mode_tagged ? &modes : nullptr);
  labels_.resize(graph_.size(), kUnassigned);
  birth_window_.resize(graph_.size(), windows_);
  for (const std::uint32_t id : fresh) {
    labels_[id] = kUnassigned;  // reclaimed slots carry no stale label
    birth_window_[id] = windows_;
  }

  if (!bootstrapped_) {
    if (graph_.num_alive() >= params_.bootstrap_min) Bootstrap();
  } else {
    for (const std::uint32_t id : fresh) AssignNew(id, centroids);

    // The re-optimization scope: the new points, every node whose neighbor
    // list adopted one of them, and the immediate graph neighborhood of
    // the new points — everything whose local density the window changed.
    for (const std::uint32_t id : fresh) {
      touched.push_back(id);
      graph_.AppendNeighborIds(id, touched);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    ws.touched = touched.size();

    // One span per phase per window (never per id): together with the
    // ingest spans they account for the whole window.
    {
      GKM_TRACE_SPAN("stream.epochs");
      ws.moves = RunEpochs(touched, params_.epochs_per_window, &ws.epochs);
    }
    {
      GKM_TRACE_SPAN("stream.drift");
      DriftAndReseed(touched, ws);
    }
    {
      GKM_TRACE_SPAN("stream.split_merge");
      SplitMergeMaintain(ws);
    }

    // Routed-placement maintenance: re-home clusters when TTL churn skewed
    // the shard loads, then drain a budgeted slice of the rows the window
    // (or a re-home) left on foreign shards. Both read only checkpointed
    // state, so placement stays a pure function of the stream.
    if (params_.routed_placement && !cluster_home_.empty()) {
      ws.rehomed = RebalanceHomes();
      ws.migrated = MigrateMisplaced(params_.migrate_budget);
    }
  }

  if (bootstrapped_ && state_.n() > 0) ws.distortion = state_.Distortion();
  GKM_COUNTER_ADD("stream.window.count", 1);
  GKM_COUNTER_ADD("stream.window.points", static_cast<std::int64_t>(ws.points));
  GKM_COUNTER_ADD("stream.window.expired",
                  static_cast<std::int64_t>(ws.expired));
  GKM_COUNTER_ADD("stream.window.touched",
                  static_cast<std::int64_t>(ws.touched));
  GKM_COUNTER_ADD("stream.window.split_merges",
                  static_cast<std::int64_t>(ws.split_merges));
  GKM_GAUGE_SET("stream.points_alive",
                static_cast<std::int64_t>(graph_.num_alive()));
  ++windows_;
  // Publish the query router built on the post-window centroids; it serves
  // routed reads until the next commit.
  PublishReadState();
  if (params_.history_limit > 0 && history_.size() >= params_.history_limit) {
    history_.pop_front();
  }
  history_.push_back(ws);
  if (assigned != nullptr) *assigned = std::move(fresh);
}

void StreamingGkMeans::Bootstrap() {
  TwoMeansParams tp;
  tp.k = params_.k;
  tp.bisect_epochs = params_.bisect_epochs;
  // Cluster a compacted copy of the live rows (ascending global id — for a
  // dense single-shard arena that is exactly the arena order, so the copy
  // changes no value the clustering sees), then scatter the labels back to
  // their global slots. One path covers dense, tombstoned and sharded
  // arenas alike.
  const std::vector<std::uint32_t> alive = AliveIds();
  Matrix live(alive.size(), dim());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    live.SetRow(i, graph_.Point(alive[i]));
  }
  const std::vector<std::uint32_t> live_labels = TwoMeansTree(live, tp, rng_);
  state_.Rebuild(live, live_labels);
  labels_.assign(graph_.size(), kUnassigned);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    labels_[alive[i]] = live_labels[i];
  }
  for (const std::uint32_t i : alive) {
    cluster_reps_[labels_[i]] = i;
  }
  bootstrapped_ = true;

  RunEpochs(alive, params_.bootstrap_epochs, nullptr);
  prev_centroids_ = state_.Centroids();

  // Routed placement starts here: every cluster gets its home shard, and
  // the pre-bootstrap rows — content-hashed across shards until now — take
  // a one-time unbudgeted migration to their homes. Later windows insert
  // directly onto the home shard, so only churn strands rows after this.
  if (params_.routed_placement) {
    AssignClusterHomes();
    MigrateMisplaced(std::numeric_limits<std::size_t>::max());
  }
}

void StreamingGkMeans::PrepareRouteQuantizer(const Matrix& centroids) {
  route_sq8_ = params_.graph.storage == StorageMode::kSq8;
  if (!route_sq8_) {
    route_codes_.clear();
    route_norms_.clear();
    return;
  }
  // k is small, so re-training per window is cheap and the table always
  // matches the snapshot the window's hints are defined against. Train +
  // encode are deterministic, so hints — and through them the graph — stay
  // a pure function of the input stream.
  const std::size_t d = dim();
  route_qz_ = Sq8Train(centroids.Row(0), centroids.stride(), params_.k, d);
  route_codes_.assign(params_.k * d, 0);
  route_norms_.assign(params_.k, 0.0f);
  for (std::size_t c = 0; c < params_.k; ++c) {
    Sq8Encode(route_qz_, centroids.Row(c), d, route_codes_.data() + c * d,
              &route_norms_[c]);
  }
}

void StreamingGkMeans::ComputeRouteHints(const float* x,
                                         const Matrix& centroids,
                                         std::vector<std::uint32_t>& hints,
                                         std::uint32_t* nearest_active)
    const {
  // One strided batch over the centroid table (runs per inserted point, so
  // this is an ingest hot path); pushes visit clusters in the same order
  // as the scalar loop did.
  hints.clear();
  thread_local std::vector<float> dist;
  dist.resize(params_.k);
  if (route_sq8_) {
    // Quantized routing: rank centroids with the asymmetric SQ8 kernel
    // over the per-window encoded table. Approximate distances are fine
    // here — a mis-ranked hint costs one extra walk hop, never correctness
    // — and the integer path keeps the ranking bit-identical across tiers.
    thread_local Sq8Query sq;
    Sq8PrepareQuery(route_qz_, x, dim(), sq);
    L2SqrBatchSq8(sq, route_codes_.data(), dim(), params_.k, dim(),
                  route_norms_.data(), dist.data());
  } else {
    L2SqrBatch(x, centroids.Row(0), centroids.stride(), params_.k, dim(),
               dist.data());
  }
  // The routing mode: nearest non-empty cluster (tie → lowest id; strict <
  // over an ascending scan gives exactly that). Unlike a hint, a mode does
  // not need a live representative — it names a cluster, not a node.
  if (nearest_active != nullptr) {
    std::uint32_t best = kUnassigned;
    float best_dist = std::numeric_limits<float>::max();
    for (std::size_t c = 0; c < params_.k; ++c) {
      if (state_.CountOf(c) == 0) continue;
      if (dist[c] < best_dist) {
        best_dist = dist[c];
        best = static_cast<std::uint32_t>(c);
      }
    }
    *nearest_active = best;
  }
  if (params_.route_hints == 0) return;  // mode-only call (hints disabled)
  TopK nearest(params_.route_hints);
  for (std::size_t c = 0; c < params_.k; ++c) {
    if (state_.CountOf(c) == 0 || cluster_reps_[c] == kUnassigned) continue;
    nearest.Push(static_cast<std::uint32_t>(c), dist[c]);
  }
  for (const Neighbor& nb : nearest.items()) {
    hints.push_back(cluster_reps_[nb.id]);
  }
}

void StreamingGkMeans::AssignNew(std::uint32_t id, const Matrix& centroids) {
  const float* x = graph_.Point(id);
  const float xn = NormSqr(x, dim());
  const std::size_t kappa = std::min(params_.kappa, params_.graph.kappa);

  // The κ nearest neighbors, labeled or not: same-window not-yet-assigned
  // ones are among them but contribute no candidate.
  const std::span<const Neighbor> row = graph_.LocalNeighborsOf(id);
  ++cur_stamp_;
  HarvestCandidates(row.first(std::min(kappa, row.size())), kappa,
                    ShardLabelsOf(labels_, id, graph_.num_shards()),
                    kUnassigned, stamp_, cur_stamp_, cand_);
  std::uint32_t best =
      BestArrival(state_, x, xn, cand_, kUnassigned, gain_scratch_).cluster;
  if (best == kUnassigned) {
    best = static_cast<std::uint32_t>(NearestRow(centroids, x));
  }
  state_.AddPoint(x, best);
  labels_[id] = best;
  cluster_reps_[best] = id;
}

std::size_t StreamingGkMeans::RunEpochs(const std::vector<std::uint32_t>& ids,
                                        std::size_t epochs,
                                        std::size_t* epochs_run) {
  const std::size_t d = dim();
  const std::size_t kappa = std::min(params_.kappa, params_.graph.kappa);
  std::vector<std::uint32_t> order(ids);

  std::size_t total_moves = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    rng_.Shuffle(order);
    std::size_t moves = 0;
    for (const std::uint32_t i : order) {
      const std::uint32_t u = labels_[i];
      // Tombstoned slots (and same-window unassigned ids a caller might
      // pass) own no composite statistics — skip before indexing by label.
      if (u == kUnassigned) continue;
      if (state_.CountOf(u) < 2) continue;
      // The first κ labeled neighbors, read from the sorted graph row in
      // place: unlabeled ones (stale edges to tombstones awaiting the purge
      // sweep, or same-window inserts) are passed over uncounted.
      ++cur_stamp_;
      HarvestCandidates(graph_.LocalNeighborsOf(i), kappa,
                        ShardLabelsOf(labels_, i, graph_.num_shards()), u,
                        stamp_, cur_stamp_, cand_);
      if (cand_.empty()) continue;
      const float* x = graph_.Point(i);
      const float xn = NormSqr(x, d);
      // One batched mixed-precision dot over the candidate composites
      // (bit-identical to per-candidate GainArrive — checkpoint replay
      // and the golden test depend on that).
      const std::uint32_t v = DeltaIStep(state_, x, xn, u, cand_, gain_scratch_);
      if (v != u) {
        labels_[i] = v;
        cluster_reps_[v] = i;
        ++moves;
      }
    }
    total_moves += moves;
    if (epochs_run != nullptr) ++*epochs_run;
    if (moves == 0) break;
  }
  return total_moves;
}

void StreamingGkMeans::DriftAndReseed(
    const std::vector<std::uint32_t>& touched, WindowStats& ws) {
  const std::size_t k = params_.k;
  const std::size_t d = dim();
  Matrix cur = state_.Centroids();

  if (params_.drift_threshold > 0.0 && prev_centroids_.rows() == k) {
    const double rms = std::sqrt(std::max(state_.Distortion(), 1e-30));
    std::size_t drifted = 0;
    double max_rel = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      if (state_.CountOf(r) == 0) continue;
      const double rel =
          std::sqrt(L2Sqr(cur.Row(r), prev_centroids_.Row(r), d)) / rms;
      max_rel = std::max(max_rel, rel);
      if (rel > params_.drift_threshold) ++drifted;
    }
    ws.drifted = drifted;
    ws.max_drift = max_rel;
    if (drifted > 0 && params_.max_extra_epochs > 0) {
      // Drift means the window genuinely moved the model: grant the
      // touched neighborhoods extra settling epochs before the next window
      // lands on a stale partition.
      ws.moves += RunEpochs(touched, params_.max_extra_epochs, &ws.epochs);
      cur = state_.Centroids();
    }
  }

  // Re-seed empty clusters (possible when the bootstrap partition starved
  // one, or after Restore of a degenerate state): move the worst-fit
  // member of the most populous cluster in as the new seed.
  for (std::size_t r = 0; r < k; ++r) {
    if (state_.CountOf(r) != 0) continue;
    std::size_t donor = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (state_.CountOf(c) > state_.CountOf(donor)) donor = c;
    }
    if (state_.CountOf(donor) < 2) break;
    std::uint32_t seed_id = kUnassigned;
    float worst = -1.0f;
    for (const std::uint32_t i : touched) {
      if (labels_[i] != donor) continue;
      const float dist = L2Sqr(graph_.Point(i), cur.Row(donor), d);
      if (dist > worst) {
        worst = dist;
        seed_id = i;
      }
    }
    if (seed_id == kUnassigned) {
      // Rare fallback: no touched member of the donor — full scan.
      for (std::size_t i = 0; i < labels_.size(); ++i) {
        if (labels_[i] != donor) continue;
        const float dist = L2Sqr(graph_.Point(i), cur.Row(donor), d);
        if (dist > worst) {
          worst = dist;
          seed_id = static_cast<std::uint32_t>(i);
        }
      }
    }
    if (seed_id == kUnassigned) break;
    state_.Move(graph_.Point(seed_id), donor, r);
    labels_[seed_id] = r;
    cluster_reps_[r] = seed_id;
    ++ws.reseeded;
    cur = state_.Centroids();
  }

  // Quantizer refresh on drift / re-seed: the per-dimension grid was
  // trained on the bootstrap distribution, and a window that moved
  // centroids (or re-seeded a cluster) is evidence the point distribution
  // moved with them — re-train the arena quantizer on the decoded live
  // rows so code resolution tracks the data. No-op in fp32 mode.
  if (ws.drifted > 0 || ws.reseeded > 0) graph_.RequantizeArena();

  prev_centroids_ = std::move(cur);
}

void StreamingGkMeans::SplitMergeMaintain(WindowStats& ws) {
  const std::size_t k = params_.k;
  if (k < 3 || params_.max_splits_per_window == 0) return;
  const std::size_t d = dim();

  for (std::size_t op = 0; op < params_.max_splits_per_window; ++op) {
    // Cheapest merge: the pair whose union loses the least Delta-I,
    //   loss(a,b) = ||Da||^2/na + ||Db||^2/nb - ||Da+Db||^2/(na+nb).
    // O(k^2 d) on the composite vectors — no point data touched.
    double best_loss = std::numeric_limits<double>::max();
    std::size_t ma = k, mb = k;
    for (std::size_t a = 0; a < k; ++a) {
      if (state_.CountOf(a) == 0) continue;
      const double* da = state_.Composite(a);
      for (std::size_t b = a + 1; b < k; ++b) {
        if (state_.CountOf(b) == 0) continue;
        const double* db = state_.Composite(b);
        double dot = 0.0;
        for (std::size_t j = 0; j < d; ++j) dot += da[j] * db[j];
        const double na = state_.CountOf(a);
        const double nb = state_.CountOf(b);
        const double merged = state_.CompositeNormSqr(a) + 2.0 * dot +
                              state_.CompositeNormSqr(b);
        const double loss = state_.CompositeNormSqr(a) / na +
                            state_.CompositeNormSqr(b) / nb -
                            merged / (na + nb);
        if (loss < best_loss) {
          best_loss = loss;
          ma = a;
          mb = b;
        }
      }
    }
    if (ma == k) break;

    // Split target: the highest-SSE cluster with enough members to carve.
    double best_sse = 0.0;
    std::size_t sc = k;
    for (std::size_t c = 0; c < k; ++c) {
      if (c == ma || c == mb || state_.CountOf(c) < 8) continue;
      const double sse = state_.ClusterSse(c);
      if (sse > best_sse) {
        best_sse = sse;
        sc = c;
      }
    }
    // Restructure only when the split's (conservatively estimated) gain
    // clearly buys back the merge's loss. `break`, not return: earlier ops
    // this window may have moved centroids, and the final baseline refresh
    // below must still run.
    if (sc == k || best_loss >= params_.split_gain_factor * best_sse) break;

    // Execute. One label scan: fold mb's members into ma, gather sc's.
    std::vector<std::uint32_t> members;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i] == mb) {
        labels_[i] = ma;
        cluster_reps_[ma] = static_cast<std::uint32_t>(i);
      } else if (labels_[i] == sc) {
        members.push_back(static_cast<std::uint32_t>(i));
      }
    }
    state_.MergeClusters(ma, mb);

    // Split sc in two with a short 2-means over its members: seeds are the
    // member farthest from the centroid and the member farthest from that
    // seed (a cheap stand-in for the principal axis extremes).
    std::vector<float> c1(d), c2(d);
    {
      const double* ds = state_.Composite(sc);
      const double inv = 1.0 / state_.CountOf(sc);
      for (std::size_t j = 0; j < d; ++j) {
        c1[j] = static_cast<float>(ds[j] * inv);
      }
    }
    std::uint32_t m1 = members[0];
    float worst = -1.0f;
    for (const std::uint32_t i : members) {
      const float dist = L2Sqr(graph_.Point(i), c1.data(), d);
      if (dist > worst) {
        worst = dist;
        m1 = i;
      }
    }
    std::uint32_t m2 = members[0];
    worst = -1.0f;
    for (const std::uint32_t i : members) {
      const float dist = L2Sqr(graph_.Point(i), graph_.Point(m1), d);
      if (dist > worst) {
        worst = dist;
        m2 = i;
      }
    }
    std::vector<char> side(members.size(), 0);
    std::memcpy(c1.data(), graph_.Point(m1), d * sizeof(float));
    std::memcpy(c2.data(), graph_.Point(m2), d * sizeof(float));
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<double> s1(d, 0.0), s2(d, 0.0);
      std::size_t n1 = 0, n2 = 0;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const float* x = graph_.Point(members[m]);
        side[m] = L2Sqr(x, c2.data(), d) < L2Sqr(x, c1.data(), d) ? 1 : 0;
        double* s = side[m] ? s2.data() : s1.data();
        for (std::size_t j = 0; j < d; ++j) s[j] += x[j];
        (side[m] ? n2 : n1) += 1;
      }
      if (n1 == 0 || n2 == 0) break;
      for (std::size_t j = 0; j < d; ++j) {
        c1[j] = static_cast<float>(s1[j] / static_cast<double>(n1));
        c2[j] = static_cast<float>(s2[j] / static_cast<double>(n2));
      }
    }
    // Side 2 becomes the freed cluster id; keep at least one point on each
    // side (degenerate splits just leave mb empty for the re-seeder).
    const double sse_before = state_.ClusterSse(sc);
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (side[m] == 0) continue;
      if (state_.CountOf(sc) < 2) break;
      state_.Move(graph_.Point(members[m]), sc, mb);
      labels_[members[m]] = mb;
      cluster_reps_[mb] = members[m];
    }
    ++ws.split_merges;
    // One settling epoch over the restructured region refines the new
    // boundary against neighboring clusters.
    RunEpochs(members, 1, nullptr);
    // Stop when restructuring stops paying: the split's realized SSE
    // reduction no longer covers the merge's loss.
    const double realized =
        sse_before - state_.ClusterSse(sc) - state_.ClusterSse(mb);
    if (realized <= best_loss) break;
  }
  prev_centroids_ = state_.Centroids();
}

void StreamingGkMeans::AssignClusterHomes() {
  const std::size_t S = graph_.num_shards();
  const std::size_t k = params_.k;
  cluster_home_.assign(k, 0);
  if (S < 2) return;
  // Deterministic LPT greedy over the checkpointed counts: largest
  // clusters first, each onto the least-loaded shard so far (ties break to
  // the lowest cluster id / shard index).
  std::vector<std::uint32_t> order(k);
  for (std::size_t c = 0; c < k; ++c) order[c] = static_cast<std::uint32_t>(c);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ca = state_.CountOf(a);
    const std::uint64_t cb = state_.CountOf(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  std::vector<std::uint64_t> load(S, 0);
  for (const std::uint32_t c : order) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < S; ++s) {
      if (load[s] < load[best]) best = s;
    }
    cluster_home_[c] = static_cast<std::uint32_t>(best);
    load[best] += state_.CountOf(c);
  }
}

std::size_t StreamingGkMeans::RebalanceHomes() {
  const std::size_t S = graph_.num_shards();
  const std::size_t k = params_.k;
  if (params_.rebalance_threshold <= 0.0 || S < 2) return 0;
  std::size_t moves = 0;
  for (std::size_t iter = 0; iter < k; ++iter) {
    std::vector<std::uint64_t> load(S, 0);
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const std::uint64_t n = state_.CountOf(c);
      load[cluster_home_[c]] += n;
      total += n;
    }
    if (total == 0) break;
    std::size_t hi = 0, lo = 0;
    for (std::size_t s = 1; s < S; ++s) {
      if (load[s] > load[hi]) hi = s;
      if (load[s] < load[lo]) lo = s;
    }
    const double avg = static_cast<double>(total) / static_cast<double>(S);
    if (static_cast<double>(load[hi]) / avg - 1.0 <=
        params_.rebalance_threshold) {
      break;
    }
    // Victim: the hot shard's smallest non-empty cluster (tie → lowest
    // id) — the cheapest physical move that can help.
    std::uint32_t victim = kUnassigned;
    std::uint64_t victim_count = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (cluster_home_[c] != hi) continue;
      const std::uint64_t n = state_.CountOf(c);
      if (n == 0) continue;
      if (victim == kUnassigned || n < victim_count) {
        victim = static_cast<std::uint32_t>(c);
        victim_count = n;
      }
    }
    if (victim == kUnassigned) break;
    // Move only while it strictly shrinks the spread, else the loop would
    // bounce one cluster between two shards forever.
    if (std::max(load[hi] - victim_count, load[lo] + victim_count) >=
        load[hi]) {
      break;
    }
    cluster_home_[victim] = static_cast<std::uint32_t>(lo);
    ++moves;
  }
  if (moves > 0) {
    GKM_COUNTER_ADD("stream.rebalance.rehomed",
                    static_cast<std::int64_t>(moves));
  }
  return moves;
}

std::size_t StreamingGkMeans::MigrateMisplaced(std::size_t budget) {
  const std::size_t S = graph_.num_shards();
  if (S < 2 || cluster_home_.empty() || budget == 0) return 0;
  GKM_TRACE_SPAN("stream.migrate");
  Matrix one(1, dim());
  std::vector<std::uint32_t> place1(1), mode1(1), fresh1;
  std::size_t moved = 0;
  // The scan bound is frozen: a re-inserted row that lands past it is
  // already home, and a slot reclaimed behind the cursor waits for the
  // next window's sweep. No resume cursor on purpose — a checkpoint cut
  // mid-sweep captures everything the next sweep needs in cluster_home_
  // and labels_.
  const std::size_t limit = labels_.size();
  for (std::size_t i = 0; i < limit && moved < budget; ++i) {
    const std::uint32_t l = labels_[i];
    if (l == kUnassigned) continue;
    const std::uint32_t home = cluster_home_[l];
    const auto id = static_cast<std::uint32_t>(i);
    if (GlobalId::Split(id, S).shard == home) continue;
    // Copy the row out before the tombstone: in SQ8 mode Point() decodes
    // into a transient ring slot the repair walk may recycle.
    one.SetRow(0, graph_.Point(id));
    const std::uint64_t birth = birth_window_[i];
    // Graph-only move — Remove, then re-insert on the home shard. The
    // cluster statistics never see the hop (the point does not change
    // cluster), so composites stay bit-identical across any migration
    // schedule.
    labels_[i] = kUnassigned;
    graph_.Remove({&id, 1});
    place1[0] = home;
    mode1[0] = l;
    fresh1.clear();
    graph_.InsertBatch(one, pool_.get(), nullptr, nullptr, &fresh1, &place1,
                       &mode1);
    const std::uint32_t ng = fresh1[0];
    labels_.resize(graph_.size(), kUnassigned);
    birth_window_.resize(graph_.size(), windows_);
    labels_[ng] = l;
    birth_window_[ng] = birth;  // TTL clock survives the move
    for (std::uint32_t& rep : cluster_reps_) {
      if (rep == id) rep = ng;
    }
    ++moved;
  }
  if (moved > 0) {
    GKM_COUNTER_ADD("stream.migrate.rows", static_cast<std::int64_t>(moved));
  }
  return moved;
}

void StreamingGkMeans::PublishReadState() {
  if (!params_.routed_placement || graph_.num_shards() == 1 || !bootstrapped_ ||
      cluster_home_.empty()) {
    return;
  }
  auto router = std::make_shared<ShardRouter>();
  router->centroids = state_.Centroids();
  router->home = cluster_home_;
  router->active.assign(params_.k, 0);
  for (std::size_t c = 0; c < params_.k; ++c) {
    router->active[c] = state_.CountOf(c) > 0 ? 1 : 0;
  }
  router->spill_margin = params_.spill_margin;
  graph_.SetRouter(std::move(router));
}

void StreamingGkMeans::Consolidate(std::size_t epochs) {
  GKM_CHECK_MSG(bootstrapped_, "Consolidate before bootstrap");
  const std::vector<std::uint32_t> all = AliveIds();
  WindowStats scratch;
  for (std::size_t e = 0; e < epochs; ++e) {
    RunEpochs(all, 1, nullptr);
    SplitMergeMaintain(scratch);
  }
  prev_centroids_ = state_.Centroids();
}

std::vector<std::uint32_t> StreamingGkMeans::AliveIds() const {
  // Ingest-thread context: unlocked flag reads, not one lock round-trip
  // per slot (labels_ is sized to the arena, so no size() lock either).
  std::vector<std::uint32_t> ids;
  ids.reserve(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if (graph_.IsAliveUnlocked(id)) ids.push_back(id);
  }
  return ids;
}

void StreamingGkMeans::RetirePoint(std::uint32_t id) {
  if (labels_[id] != kUnassigned) {
    state_.RemovePoint(graph_.Point(id), labels_[id]);
    labels_[id] = kUnassigned;
  }
  // A representative must stay a live routable node; the cluster regains
  // one on its next assignment or move.
  for (std::uint32_t& rep : cluster_reps_) {
    if (rep == id) rep = kUnassigned;
  }
}

void StreamingGkMeans::RemovePoint(std::uint32_t id) {
  GKM_CHECK_MSG(id < labels_.size() && graph_.IsAliveUnlocked(id),
                "RemovePoint of a dead or out-of-range id");
  RetirePoint(id);
  graph_.Remove({&id, 1});
}

std::size_t StreamingGkMeans::ExpireTtl(
    std::vector<std::uint32_t>* repaired) {
  if (params_.ttl_windows == 0 || windows_ < params_.ttl_windows) return 0;
  // Inside the early return: the span counts expiring windows only, so its
  // mean is the cost of one window's expiry.
  GKM_TRACE_SPAN("stream.expire");
  const std::uint64_t cutoff = windows_ - params_.ttl_windows;
  std::vector<std::uint32_t> expired;
  // Unlocked liveness reads: this O(arena) sweep runs on the ingest thread
  // before every window, and per-slot lock round-trips would contend with
  // concurrent searches for no benefit (only this thread flips the flags).
  for (std::size_t i = 0; i < birth_window_.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if (!graph_.IsAliveUnlocked(id) || birth_window_[i] > cutoff) continue;
    RetirePoint(id);
    expired.push_back(id);
  }
  // One removal call for the window: the graph repairs id by id in this
  // same ascending order and sorts `repaired` once, at the end.
  graph_.Remove(expired, repaired);
  return expired.size();
}

ClusteringResult StreamingGkMeans::Result() const {
  ClusteringResult res;
  res.method = "streaming-gk-means";
  res.assignments = labels_;
  res.centroids = state_.Centroids();
  if (state_.n() > 0) res.distortion = state_.Distortion();
  res.iterations = static_cast<std::size_t>(windows_);
  return res;
}

StreamSnapshot StreamingGkMeans::Snapshot() const {
  StreamSnapshot s;
  s.params = params_;
  s.shards.resize(graph_.num_shards());
  for (std::size_t i = 0; i < graph_.num_shards(); ++i) {
    const OnlineKnnGraph& shard = graph_.shard(i);
    s.shards[i].points = shard.points();
    s.shards[i].graph = shard.graph();
    s.shards[i].rng = shard.rng_state();
    s.shards[i].seeds = shard.seed_state();
    s.shards[i].removal = shard.removal_state();
    s.shards[i].mode_seeds = shard.mode_seed_states();
    if (shard.sq8_trained()) {
      Sq8ArenaParts& sq8 = s.shards[i].sq8;
      sq8.trained = true;
      sq8.rows = shard.sq8_norms().size();
      sq8.codes = shard.sq8_codes();
      sq8.norms = shard.sq8_norms();
      sq8.quant = shard.sq8_quantizer();
    }
  }
  s.labels = labels_;
  s.n = state_.n();
  s.composites = state_.composites();
  s.counts = state_.counts();
  s.composite_norms = state_.composite_norms();
  s.point_norms = state_.point_norms();
  s.sum_point_norms = state_.SumPointNormSqr();
  s.prev_centroids = prev_centroids_;
  s.cluster_reps = cluster_reps_;
  s.cluster_home = cluster_home_;
  s.windows = windows_;
  s.bootstrapped = bootstrapped_;
  s.rng = rng_.Snapshot();
  s.birth_windows = birth_window_;
  return s;
}

StreamingGkMeans StreamingGkMeans::FromSnapshot(StreamSnapshot snap) {
  // Snapshots come from untrusted files: validate every index the model
  // later uses unchecked, so a bit-flipped checkpoint aborts cleanly here
  // instead of corrupting the heap in an epoch loop. (The Try* loaders run
  // the same validator first and turn violations into load errors.)
  const char* bad = ValidateStreamSnapshot(snap);
  GKM_CHECK_MSG(bad == nullptr, bad);
  return StreamingGkMeans(std::move(snap));
}

}  // namespace gkm
