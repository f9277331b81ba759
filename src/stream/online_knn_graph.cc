// Copyright 2026 The gkmeans Authors.

#include "stream/online_knn_graph.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/distance.h"
#include "common/kernels.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm {
namespace {

// Pool entry ordered by distance; `expanded` marks walked candidates.
struct PoolEntry {
  std::uint32_t id;
  float dist;
  bool expanded;
};

// Shared by both constructors: restored params are as untrusted as fresh
// ones, and the walk assumes every one of these.
void ValidateParams(const OnlineGraphParams& params) {
  GKM_CHECK(params.kappa > 0);
  GKM_CHECK(params.beam_width >= params.kappa);
  GKM_CHECK(params.num_seeds > 0);
}

// --- Adaptive seed policy ---------------------------------------------------
// Every kAuditPeriod-th insert runs a second, independently seeded walk and
// compares best candidate distances. Two successful walks converge on the
// same nearest candidate (identical distance), so disagreement means at
// least one walk missed the query's region — the directly observable
// symptom of too few entry points. The disagreement rate is tracked as an
// EWMA: sustained failure doubles the live seed count, sustained agreement
// halves it, within bounds derived from params.num_seeds. After each
// adjustment the EWMA resets to a neutral midpoint so the policy re-measures
// at the new count instead of oscillating on stale evidence.
constexpr std::uint64_t kAuditPeriod = 16;  // every 16th insert: ~6% extra walks
constexpr double kEwmaAlpha = 1.0 / 16.0;
constexpr double kRaiseThreshold = 0.25;
constexpr double kLowerThreshold = 0.05;
constexpr double kNeutralEwma = 0.125;

std::size_t MinSeeds(const OnlineGraphParams& p) {
  return std::max<std::size_t>(8, p.num_seeds / 4);
}

std::size_t MaxSeeds(const OnlineGraphParams& p) {
  return std::max<std::size_t>(p.num_seeds * 4, 256);
}

// Sub-batch granularity of InsertBatch: rows of a sub-batch walk one graph
// snapshot in parallel and are scored exactly against their sub-batch
// predecessors; commits land between sub-batches, so later sub-batches see
// earlier rows as ordinary graph nodes.
constexpr std::size_t kSubBatch = 256;

constexpr std::uint32_t kNoSlot = RemovalState::kNoSlot;

// Tombstone compaction triggers once pending tombstones reach this fraction
// of the arena (and at least this many, so tiny graphs don't sweep per
// removal). The sweep is O(n*kappa), so amortized against >= n/4 removals
// it adds O(kappa) per removal.
constexpr std::size_t kPurgeDenominator = 4;
constexpr std::size_t kPurgeMinPending = 64;

// Inserts `id` into the ascending-sorted `v` (absent by precondition).
void InsertSorted(std::vector<std::uint32_t>& v, std::uint32_t id) {
  v.insert(std::lower_bound(v.begin(), v.end(), id), id);
}

}  // namespace

// One row's planned insert: produced against the sub-batch snapshot by the
// parallel phase, consumed by the serial commit. Candidate ids at or above
// the snapshot size denote sub-batch predecessors — because commits run in
// row order, such an id is exactly the node id the predecessor receives.
struct OnlineKnnGraph::PlannedInsert {
  std::vector<Neighbor> cand;  // walk + intra-batch candidates, ascending
  std::vector<float> join;     // cand.size() x take local-join distance table
  std::size_t take = 0;        // forward-edge count = min(kappa, cand.size())
  bool audited = false;
  bool audit_failed = false;
};

OnlineKnnGraph::OnlineKnnGraph(std::size_t dim,
                               const OnlineGraphParams& params)
    : params_(params), dim_(dim), points_(0, dim), graph_(0, params.kappa),
      rng_(params.seed), live_seeds_(params.num_seeds) {
  GKM_CHECK(dim > 0);
  ValidateParams(params);
}

const char* ValidateOnlineGraphRestoreParts(const Matrix& points,
                                            const KnnGraph& graph,
                                            const OnlineGraphParams& params,
                                            const RemovalState& removal) {
  return ValidateOnlineGraphRestoreParts(points.rows(), points.cols(), graph,
                                         params, removal);
}

const char* ValidateSq8ArenaParts(const Sq8ArenaParts& sq8, std::size_t rows,
                                  std::size_t dim,
                                  const OnlineGraphParams& params) {
  if (!sq8.trained) {
    if (!sq8.codes.empty() || !sq8.norms.empty()) {
      return "untrained SQ8 arena carries codes";
    }
    return nullptr;
  }
  if (params.storage != StorageMode::kSq8) {
    return "trained SQ8 arena under fp32 storage mode";
  }
  if (sq8.rows != rows) return "SQ8 arena row count mismatch";
  if (sq8.quant.scale.size() != dim || sq8.quant.offset.size() != dim) {
    return "SQ8 quantizer dimension mismatch";
  }
  if (sq8.norms.size() != rows) return "SQ8 norm count mismatch";
  if (sq8.codes.size() != rows * dim) return "SQ8 code arena size mismatch";
  for (std::size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(sq8.quant.offset[j]) ||
        !std::isfinite(sq8.quant.scale[j]) || sq8.quant.scale[j] < 0.0f) {
      return "corrupt SQ8 quantizer";
    }
  }
  for (const float n : sq8.norms) {
    if (!std::isfinite(n) || n < 0.0f) return "corrupt SQ8 row norm";
  }
  return nullptr;
}

const char* ValidateOnlineGraphRestoreParts(std::size_t rows, std::size_t cols,
                                            const KnnGraph& graph,
                                            const OnlineGraphParams& params,
                                            const RemovalState& removal) {
  if (params.kappa == 0) return "graph kappa must be positive";
  if (params.beam_width < params.kappa) return "beam width below graph kappa";
  if (params.num_seeds == 0) return "graph num_seeds must be positive";
  if (cols == 0) return "restored points have zero dimension";
  if (rows != graph.num_nodes()) return "points/graph size mismatch";
  if (graph.k() != params.kappa) return "graph capacity does not match kappa";
  const std::size_t n = rows;
  // Deletion bookkeeping precedes edge validation: which edges are legal
  // depends on which slots are tombstoned vs reclaimed.
  std::vector<std::uint8_t> tomb(n, 0);
  std::vector<std::uint8_t> freed(n, 0);
  auto mark = [n](const std::vector<std::uint32_t>& ids,
                  std::vector<std::uint8_t>& flags,
                  const std::vector<std::uint8_t>& other) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint32_t id = ids[i];
      if (id >= n) return false;
      if (i > 0 && id <= ids[i - 1]) return false;  // sorted, duplicate-free
      if (flags[id] != 0 || other[id] != 0) return false;  // disjoint
      flags[id] = 1;
    }
    return true;
  };
  if (!mark(removal.pending_dead, tomb, freed)) {
    return "corrupt tombstone list";
  }
  if (!mark(removal.free_slots, freed, tomb)) {
    return "corrupt free-slot list";
  }
  if (removal.last_inserted != RemovalState::kNoSlot &&
      removal.last_inserted >= n) {
    return "corrupt last-inserted slot";
  }
  // Edge ids come from an untrusted checkpoint and are dereferenced
  // unchecked by every later walk: reject out-of-range and self edges, and
  // enforce the deletion invariants — tombstoned slots keep no out-edges,
  // reclaimed slots keep no in-edges (a stale edge into a reused slot
  // would silently score the wrong vector).
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const Neighbor> nbs = graph.NeighborsOf(i);
    if ((tomb[i] != 0 || freed[i] != 0) && !nbs.empty()) {
      return "tombstoned slot still has out-edges";
    }
    for (const Neighbor& nb : nbs) {
      if (nb.id >= n || nb.id == i) return "corrupt graph edge";
      if (freed[nb.id] != 0) return "edge into a reclaimed slot";
    }
  }
  return nullptr;
}

OnlineKnnGraph::OnlineKnnGraph(Matrix points, KnnGraph graph,
                               const OnlineGraphParams& params,
                               const RngSnapshot& rng,
                               const AdaptiveSeedState& seeds,
                               const RemovalState& removal)
    : OnlineKnnGraph(std::move(points), std::move(graph), params, rng, seeds,
                     removal, Sq8ArenaParts()) {}

OnlineKnnGraph::OnlineKnnGraph(Matrix points, KnnGraph graph,
                               const OnlineGraphParams& params,
                               const RngSnapshot& rng,
                               const AdaptiveSeedState& seeds,
                               const RemovalState& removal, Sq8ArenaParts sq8,
                               std::vector<AdaptiveSeedState> mode_seeds)
    : params_(params), points_(std::move(points)), graph_(std::move(graph)) {
  // A trained SQ8 arena supplies the row shape; the fp32 matrix must have
  // been released at training time, so a trained restore carries none.
  GKM_CHECK_MSG(!sq8.trained || points_.rows() == 0,
                "trained SQ8 restore must not carry fp32 rows");
  dim_ = sq8.trained ? sq8.quant.scale.size() : points_.cols();
  const std::size_t n = sq8.trained ? sq8.norms.size() : points_.rows();
  // Restore invariants live in ValidateOnlineGraphRestoreParts, shared
  // with the Try* checkpoint loaders (which reject a malformed file cleanly
  // before getting here); a caller that bypassed them still aborts.
  const char* bad =
      ValidateOnlineGraphRestoreParts(n, dim_, graph_, params, removal);
  GKM_CHECK_MSG(bad == nullptr, bad);
  bad = ValidateSq8ArenaParts(sq8, n, dim_, params);
  GKM_CHECK_MSG(bad == nullptr, bad);
  sq8_trained_ = sq8.trained;
  sq8_codes_ = std::move(sq8.codes);
  sq8_norms_ = std::move(sq8.norms);
  sq8_quant_ = std::move(sq8.quant);
  // Normalize the released staging matrix to the shape training leaves
  // behind, so restored and uninterrupted instances compare equal.
  if (sq8_trained_) points_ = Matrix(0, dim_);
  dead_.assign(n, 0);
  pending_dead_ = removal.pending_dead;
  free_slots_ = removal.free_slots;
  for (const std::uint32_t id : pending_dead_) dead_[id] = 1;
  for (const std::uint32_t id : free_slots_) dead_[id] = 1;
  last_inserted_ = removal.last_inserted;
  if (last_inserted_ == kNoSlot && n > 0 && pending_dead_.empty() &&
      free_slots_.empty()) {
    // Pre-deletion checkpoint: ids were contiguous, the newest is n-1.
    last_inserted_ = static_cast<std::uint32_t>(n - 1);
  }
  // Internal free-list order is descending (O(1) lowest-first pops); the
  // serialized form just validated is ascending.
  std::reverse(free_slots_.begin(), free_slots_.end());
  rng_.Restore(rng);
  live_seeds_ = seeds.live_seeds == 0
                    ? params.num_seeds
                    : static_cast<std::size_t>(seeds.live_seeds);
  live_seeds_ = std::min(live_seeds_, MaxSeeds(params));
  fail_ewma_ = seeds.fail_ewma;
  audit_tick_ = seeds.audit_tick;
  // Per-mode budgets restore verbatim (0 = uninitialized, defers to the
  // global budget), clamped to the same policy bounds as the global count.
  mode_seeds_ = std::move(mode_seeds);
  for (AdaptiveSeedState& s : mode_seeds_) {
    GKM_CHECK_MSG(std::isfinite(s.fail_ewma) && s.fail_ewma >= 0.0 &&
                      s.fail_ewma <= 1.0,
                  "corrupt per-mode seed state");
    if (s.live_seeds != 0) {
      s.live_seeds = std::min<std::uint64_t>(s.live_seeds, MaxSeeds(params));
    }
  }
}

AdaptiveSeedState OnlineKnnGraph::seed_state() const {
  ReaderMutexLock guard(mu_);
  AdaptiveSeedState s;
  s.live_seeds = live_seeds_;
  s.fail_ewma = fail_ewma_;
  s.audit_tick = audit_tick_;
  return s;
}

std::vector<AdaptiveSeedState> OnlineKnnGraph::mode_seed_states() const {
  ReaderMutexLock guard(mu_);
  return mode_seeds_;
}

RemovalState OnlineKnnGraph::removal_state() const {
  ReaderMutexLock guard(mu_);
  RemovalState s;
  s.pending_dead = pending_dead_;
  s.free_slots = free_slots_;
  std::reverse(s.free_slots.begin(), s.free_slots.end());  // ascending on disk
  s.last_inserted = last_inserted_;
  return s;
}

std::vector<Neighbor> OnlineKnnGraph::CollectCandidates(
    const float* q, Rng& rng, const std::vector<std::uint32_t>* seed_hints,
    SearchScratch& scratch, std::size_t num_seeds) const {
  const std::size_t n = ArenaRowsLocked();
  const std::size_t d = dim_;
  if (n == 0) return {};

  if (n <= params_.bootstrap) {
    // Small corpus: exact scan, every live point is a candidate — one
    // strided batch over the whole store, tombstones dropped afterwards
    // (the batch is cheaper than a gather over the survivors).
    std::vector<Neighbor> all;
    all.reserve(n);
    std::vector<float>& dist = scratch.pending_dist;
    dist.resize(n);
    L2SqrBatch(q, points_.Row(0), points_.stride(), n, d, dist.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (dead_[i]) continue;
      all.push_back(Neighbor{static_cast<std::uint32_t>(i), dist[i]});
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  const std::size_t beam = params_.beam_width;
  scratch.Prepare(n);
  std::vector<std::uint32_t>& stamp = scratch.stamp;
  const std::uint32_t epoch = scratch.epoch;
  std::vector<PoolEntry> pool;
  pool.reserve(beam + 1);

  // SQ8 mode: the walk scores candidates through the quantized asymmetric
  // kernel (u8 codes stay hot, no decode on the expansion path); the final
  // pool — the top-(beam) = top-k·α set — is exact-re-ranked against
  // decoded rows below, so the returned candidate order and distances
  // match a full-precision walk over the decoded arena wherever the
  // quantization margin holds. Approximate scores are bit-identical across
  // SIMD tiers (integer accumulation), keeping walks deterministic.
  const bool sq8 = sq8_trained_;
  if (sq8) Sq8PrepareQuery(sq8_quant_, q, d, scratch.sq8_query);
  std::uint64_t scored = 0;

  // Strict total order on (dist, id): the pool's content and order are a
  // pure function of the offered SET, never of arrival order. Quantized
  // scores are coarse integers scaled to floats, so ties are common in SQ8
  // mode — and arrival order depends on adjacency-list order, which a
  // checkpoint round-trip canonicalizes. Without the id tie-break a
  // restored model's walks could diverge from the uninterrupted one's.
  auto pool_less = [](const PoolEntry& a, const PoolEntry& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  };
  auto offer = [&](std::uint32_t id, float dist) {
    const PoolEntry fresh{id, dist, false};
    if (pool.size() == beam && !pool_less(fresh, pool.back())) return;
    auto pos = std::lower_bound(pool.begin(), pool.end(), fresh, pool_less);
    pool.insert(pos, fresh);
    if (pool.size() > beam) pool.pop_back();
  };
  auto try_add = [&](std::uint32_t id) {
    if (stamp[id] == epoch) return;
    stamp[id] = epoch;
    // Tombstoned slots are stamped (never re-inspected) but not offered:
    // the pool only ever holds live nodes, so walks neither return nor
    // route through removed points. Connectivity across a removal is the
    // repair join's job, not the walk's.
    if (dead_[id]) return;
    if (sq8) {
      const std::uint8_t* code =
          sq8_codes_.data() + static_cast<std::size_t>(id) * d;
      float dist = 0.0f;
      L2SqrBatchSq8Gather(scratch.sq8_query, &code, &sq8_norms_[id], 1, d,
                          &dist);
      ++scored;
      offer(id, dist);
    } else {
      offer(id, L2Sqr(q, points_.Row(id), d));
    }
  };

  // Hint entry points first: callers with structural knowledge (the
  // streaming clusterer's per-cluster representatives) route the walk
  // straight into the query's region.
  if (seed_hints != nullptr) {
    for (const std::uint32_t h : *seed_hints) {
      if (h < n) try_add(h);
    }
  }
  // Fresh random entry points every walk, so failures to land in the
  // query's mode are independent across inserts. The most recent node is
  // always seeded too — streams are often locally correlated and the
  // newest region is exactly where lists are thinnest.
  for (std::size_t s = 0; s < num_seeds; ++s) {
    try_add(static_cast<std::uint32_t>(rng.Index(n)));
  }
  if (last_inserted_ != kNoSlot) try_add(last_inserted_);

  // Best-first expansion. Each expanded node's unstamped neighbors are
  // scored with one gathered batch and offered in adjacency order, which
  // evolves the pool exactly as per-neighbor try_add did.
  std::vector<std::uint32_t>& pending = scratch.pending;
  std::vector<const float*>& pending_rows = scratch.pending_rows;
  std::vector<float>& pending_dist = scratch.pending_dist;
  std::vector<const std::uint8_t*>& pending_codes = scratch.pending_codes;
  std::vector<float>& pending_norms = scratch.pending_norms;
  for (;;) {
    std::size_t next = pool.size();
    for (std::size_t p = 0; p < pool.size(); ++p) {
      if (!pool[p].expanded) {
        next = p;
        break;
      }
    }
    if (next == pool.size()) break;
    pool[next].expanded = true;
    pending.clear();
    pending_rows.clear();
    pending_codes.clear();
    pending_norms.clear();
    for (const Neighbor& nb : graph_.NeighborsOf(pool[next].id)) {
      if (stamp[nb.id] == epoch) continue;
      stamp[nb.id] = epoch;
      // Stale edges may still reference tombstones until the next purge
      // sweep — skip them without scoring.
      if (dead_[nb.id]) continue;
      pending.push_back(nb.id);
      if (sq8) {
        pending_codes.push_back(sq8_codes_.data() +
                                static_cast<std::size_t>(nb.id) * d);
        pending_norms.push_back(sq8_norms_[nb.id]);
      } else {
        pending_rows.push_back(points_.Row(nb.id));
      }
    }
    pending_dist.resize(pending.size());
    if (sq8) {
      L2SqrBatchSq8Gather(scratch.sq8_query, pending_codes.data(),
                          pending_norms.data(), pending.size(), d,
                          pending_dist.data());
      scored += pending.size();
    } else {
      L2SqrBatchGather(q, pending_rows.data(), pending.size(), d,
                       pending_dist.data());
    }
    for (std::size_t p = 0; p < pending.size(); ++p) {
      offer(pending[p], pending_dist[p]);
    }
  }

  if (sq8 && !pool.empty()) {
    // Compact exact re-rank: decode the final top-k·α pool (α =
    // beam/topk) and rescore it with the bit-exact fp32 kernel, then
    // re-sort. Candidate distances committed to edges or returned from
    // SearchKnn are therefore always exact over decoded rows; only the
    // pool MEMBERSHIP carries quantization error. stable_sort keeps ties
    // in approximate-score order, which is itself deterministic.
    std::vector<float>& dec = scratch.decode_buf;
    dec.resize(pool.size() * d);
    pending_rows.clear();
    for (std::size_t p = 0; p < pool.size(); ++p) {
      float* row = dec.data() + p * d;
      Sq8Decode(sq8_quant_,
                sq8_codes_.data() + static_cast<std::size_t>(pool[p].id) * d,
                d, row);
      pending_rows.push_back(row);
    }
    pending_dist.resize(pool.size());
    L2SqrBatchGather(q, pending_rows.data(), pool.size(), d,
                     pending_dist.data());
    for (std::size_t p = 0; p < pool.size(); ++p) {
      pool[p].dist = pending_dist[p];
    }
    std::stable_sort(pool.begin(), pool.end(),
                     [](const PoolEntry& a, const PoolEntry& b) {
                       return a.dist < b.dist;
                     });
    sq8_reranked_.Add(pool.size());
  }
  if (sq8) sq8_scored_.Add(scored);

  std::vector<Neighbor> out;
  out.reserve(pool.size());
  for (const PoolEntry& e : pool) out.push_back(Neighbor{e.id, e.dist});
  return out;
}

void OnlineKnnGraph::PlanRow(const Matrix& rows, std::size_t batch_begin,
                             std::size_t r, std::uint64_t row_seed,
                             std::size_t num_seeds, std::uint64_t tick,
                             const std::vector<std::uint32_t>* seed_hints,
                             SearchScratch& scratch,
                             PlannedInsert& plan) const {
  const float* x = rows.Row(r);
  const std::size_t n = ArenaRowsLocked();  // snapshot size, frozen this phase
  const std::size_t d = dim_;
  const bool exact = n <= params_.bootstrap;

  // Walks consume a private generator derived from one serial rng_ draw,
  // so the plan is a pure function of (row, snapshot, seed) regardless of
  // which thread runs it.
  Rng walk_rng(row_seed);
  plan.cand = CollectCandidates(x, walk_rng, seed_hints, scratch, num_seeds);
  plan.join.clear();
  plan.audited = false;
  plan.audit_failed = false;

  // Audit walk (adaptive seed policy): a second independent walk over the
  // same snapshot. Disagreement on the best distance means at least one
  // walk missed the query's region. Exact-phase scans cannot fail, so no
  // audits there.
  if (!exact && !plan.cand.empty() && (tick + 1) % kAuditPeriod == 0) {
    plan.audited = true;
    Rng audit_rng(row_seed ^ 0x5851f42d4c957f2dULL);
    const std::vector<Neighbor> check =
        CollectCandidates(x, audit_rng, seed_hints, scratch, num_seeds);
    const float a = plan.cand.front().dist;
    const float b = check.empty() ? -1.0f : check.front().dist;
    const float lo = std::min(a, b);
    plan.audit_failed = std::fabs(a - b) > 1e-6f * (1.0f + lo);
  }

  // Intra-batch candidates: exact distances to the sub-batch predecessors,
  // which the snapshot walk cannot see. Their ids (>= n) resolve to real
  // node ids once the in-order commit assigns them. One strided batch over
  // the window rows, merged in row order as before.
  const std::size_t beam = params_.beam_width;
  if (r > batch_begin) {
    std::vector<float>& dist_buf = scratch.pending_dist;
    dist_buf.resize(r - batch_begin);
    L2SqrBatch(x, rows.Row(batch_begin), rows.stride(), r - batch_begin, d,
               dist_buf.data());
    for (std::size_t j = batch_begin; j < r; ++j) {
      const float dist = dist_buf[j - batch_begin];
      if (plan.cand.size() >= beam && dist >= plan.cand.back().dist) continue;
      const Neighbor fresh{static_cast<std::uint32_t>(n + (j - batch_begin)),
                           dist};
      auto pos = std::lower_bound(plan.cand.begin(), plan.cand.end(), fresh,
                                  [](const Neighbor& a, const Neighbor& b) {
                                    return a.dist < b.dist;
                                  });
      plan.cand.insert(pos, fresh);
      if (plan.cand.size() > beam) plan.cand.pop_back();
    }
  }

  plan.take = std::min(params_.kappa, plan.cand.size());

  // Local-join distance table, precomputed here so the serial commit phase
  // is pure heap updates: all candidate coordinates are readable during
  // the parallel phase (snapshot rows or window rows).
  const std::size_t n_before = n + (r - batch_begin);
  if (n_before > params_.bootstrap && plan.take > 0) {
    // SQ8 mode: arena candidates are decoded into scratch (slot l of
    // decode_buf for take target l, slot plan.take for the per-t row) so
    // the join table holds the same exact-over-decoded distances the walk
    // re-rank produced. Window rows are still fp32.
    const bool sq8 = sq8_trained_;
    std::vector<float>& dec = scratch.decode_buf;
    if (sq8) dec.resize((plan.take + 1) * d);
    auto resolve = [&](std::uint32_t id, std::size_t slot) -> const float* {
      if (id >= n) return rows.Row(batch_begin + (id - n));
      if (!sq8) return points_.Row(id);
      float* buf = dec.data() + slot * d;
      Sq8Decode(sq8_quant_,
                sq8_codes_.data() + static_cast<std::size_t>(id) * d, d, buf);
      return buf;
    };
    // Each table row is one gathered one-to-many batch: candidate t
    // against the plan.take forward-edge targets.
    std::vector<const float*>& take_rows = scratch.pending_rows;
    take_rows.clear();
    for (std::size_t l = 0; l < plan.take; ++l) {
      take_rows.push_back(resolve(plan.cand[l].id, l));
    }
    std::vector<float>& dist_buf = scratch.pending_dist;
    dist_buf.resize(plan.take);
    plan.join.assign(plan.cand.size() * plan.take, 0.0f);
    for (std::size_t t = 0; t < plan.cand.size(); ++t) {
      const float* pt = resolve(plan.cand[t].id, plan.take);
      L2SqrBatchGather(pt, take_rows.data(), plan.take, d, dist_buf.data());
      for (std::size_t l = 0; l < plan.take; ++l) {
        if (l == t) continue;
        plan.join[t * plan.take + l] = dist_buf[l];
      }
    }
  }
}

std::uint32_t OnlineKnnGraph::CommitRow(const Matrix& rows, std::size_t r,
                                        std::size_t snapshot_n,
                                        const std::vector<std::uint32_t>& batch_ids,
                                        PlannedInsert& plan,
                                        std::vector<std::uint32_t>* touched,
                                        std::uint32_t mode) {
  const float* x = rows.Row(r);
  // Slot allocation: reclaim the lowest free slot (keeps the arena dense)
  // before growing. A reclaimed slot has an empty neighbor list and no
  // in-edges (the purge sweep guarantees both), so overwriting its vector
  // makes it an ordinary fresh node.
  std::uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();  // descending order: back is the lowest slot
    free_slots_.pop_back();
    dead_[id] = 0;
    if (sq8_trained_) {
      EncodeSlotLocked(id, x);
    } else {
      points_.SetRow(id, x);
    }
  } else {
    id = static_cast<std::uint32_t>(ArenaRowsLocked());
    if (sq8_trained_) {
      EncodeSlotLocked(id, x);
    } else {
      points_.AppendRow(x);
    }
    // The graph's rows grow when the arena's storage does, to the same
    // capacity, so AddNode never reallocates on a schedule of its own.
    graph_.Reserve(ArenaCapacityLocked());
    GKM_CHECK(graph_.AddNode() == id);
    dead_.push_back(0);
  }
  last_inserted_ = id;

  // SQ8 training trigger: the first commit that grows the arena past the
  // bootstrap threshold trains the quantizer on the bootstrap window and
  // converts the arena. Exact-phase sub-batches are single-row, so this
  // fires between rows and the next sub-batch's walks already run
  // quantized. Rows never shrink, so it fires exactly once.
  if (params_.storage == StorageMode::kSq8 && !sq8_trained_ &&
      points_.rows() > params_.bootstrap) {
    TrainSq8Locked();
  }

  // Plans encode sub-batch predecessors as virtual ids >= the snapshot
  // arena size (walk candidates are always below it); resolve them to the
  // ids those rows actually received — slot reuse makes them non-contiguous.
  for (Neighbor& nb : plan.cand) {
    if (nb.id >= snapshot_n) nb.id = batch_ids[nb.id - snapshot_n];
  }

  // Forward edges: the kappa closest candidates become the new node's list.
  const std::size_t take = plan.take;
  for (std::size_t j = 0; j < take; ++j) {
    graph_.Update(id, plan.cand[j].id, plan.cand[j].dist);
  }
  // Reverse-edge repair: offer the new point to every node the walk
  // scored. Each Push is O(log kappa) against an already-known distance,
  // and it is what keeps early nodes' lists converging toward the true
  // neighborhood as the corpus fills in around them.
  std::vector<std::uint32_t> adopters;  // candidate indices, ascending dist
  for (std::size_t t = 0; t < plan.cand.size(); ++t) {
    const Neighbor& nb = plan.cand[t];
    if (graph_.Update(nb.id, id, nb.dist)) {
      adopters.push_back(static_cast<std::uint32_t>(t));
      if (touched != nullptr) touched->push_back(nb.id);
    }
  }

  // Local join (NN-Descent's join step, applied once around each insert):
  // a node whose own insertion walk failed — likely in a rare mode no
  // entry point hit — has a list full of far points; reverse pushes alone
  // only hand it this one new id. Cross-linking each adopter with the new
  // node's accepted neighbor list reconnects such nodes to their real
  // neighborhood through the new point. Bounded to the kappa closest
  // adopters; distances come from the plan's precomputed table.
  if (!plan.join.empty()) {
    const std::size_t join = std::min(params_.kappa, adopters.size());
    for (std::size_t a = 0; a < join; ++a) {
      const std::size_t t = adopters[a];
      const std::uint32_t t_id = plan.cand[t].id;
      for (std::size_t l = 0; l < take; ++l) {
        const std::uint32_t l_id = plan.cand[l].id;
        if (l_id == t_id) continue;
        const float dist = plan.join[t * take + l];
        const bool t_changed = graph_.Update(t_id, l_id, dist);
        const bool l_changed = graph_.Update(l_id, t_id, dist);
        if (touched != nullptr) {
          if (t_changed) touched->push_back(t_id);
          if (l_changed) touched->push_back(l_id);
        }
      }
    }
  }

  ++audit_tick_;
  if (plan.audited) ApplyAudit(plan.audit_failed, mode);
  return id;
}

std::size_t OnlineKnnGraph::EffectiveSeedsLocked(std::uint32_t mode) const {
  if (mode != kNoMode && mode < mode_seeds_.size() &&
      mode_seeds_[mode].live_seeds != 0) {
    return static_cast<std::size_t>(mode_seeds_[mode].live_seeds);
  }
  return live_seeds_;
}

void OnlineKnnGraph::ApplyAudit(bool failed, std::uint32_t mode) {
  // Per-mode route: the first audit of a mode forks its budget off the
  // current global count, after which the mode converges independently.
  // The EWMA/threshold machinery is identical to the global policy's.
  if (mode != kNoMode && mode < mode_seeds_.size()) {
    AdaptiveSeedState& s = mode_seeds_[mode];
    if (s.live_seeds == 0) s.live_seeds = live_seeds_;
    ++s.audit_tick;
    s.fail_ewma = s.fail_ewma * (1.0 - kEwmaAlpha) + (failed ? kEwmaAlpha : 0.0);
    if (s.fail_ewma > kRaiseThreshold && s.live_seeds < MaxSeeds(params_)) {
      s.live_seeds = std::min<std::uint64_t>(s.live_seeds * 2, MaxSeeds(params_));
      s.fail_ewma = kNeutralEwma;
    } else if (s.fail_ewma < kLowerThreshold &&
               s.live_seeds > MinSeeds(params_)) {
      s.live_seeds = std::max<std::uint64_t>(s.live_seeds / 2, MinSeeds(params_));
      s.fail_ewma = kNeutralEwma;
    }
    return;
  }
  fail_ewma_ = fail_ewma_ * (1.0 - kEwmaAlpha) + (failed ? kEwmaAlpha : 0.0);
  if (fail_ewma_ > kRaiseThreshold && live_seeds_ < MaxSeeds(params_)) {
    live_seeds_ = std::min(live_seeds_ * 2, MaxSeeds(params_));
    fail_ewma_ = kNeutralEwma;
  } else if (fail_ewma_ < kLowerThreshold && live_seeds_ > MinSeeds(params_)) {
    live_seeds_ = std::max(live_seeds_ / 2, MinSeeds(params_));
    fail_ewma_ = kNeutralEwma;
  }
}

void OnlineKnnGraph::EnsureScratch(std::size_t slots) {
  if (ingest_scratch_.size() < std::max<std::size_t>(slots, 1)) {
    ingest_scratch_.resize(std::max<std::size_t>(slots, 1));
  }
}

std::uint32_t OnlineKnnGraph::Insert(
    const float* x, std::vector<std::uint32_t>* touched,
    const std::vector<std::uint32_t>* seed_hints) {
  Matrix one(1, dim_);
  one.SetRow(0, x);
  if (seed_hints == nullptr) return InsertBatch(one, nullptr, touched);
  const std::vector<std::vector<std::uint32_t>> hints(1, *seed_hints);
  return InsertBatch(one, nullptr, touched, &hints);
}

std::uint32_t OnlineKnnGraph::InsertBatch(
    const Matrix& rows, ThreadPool* pool,
    std::vector<std::uint32_t>* touched,
    const std::vector<std::vector<std::uint32_t>>* seed_hints,
    std::vector<std::uint32_t>* assigned,
    const std::vector<std::uint32_t>* modes) {
  GKM_CHECK_MSG(rows.cols() == dim_, "batch dimension mismatch");
  GKM_CHECK_MSG(seed_hints == nullptr || seed_hints->size() == rows.rows(),
                "one seed-hint vector per row required");
  GKM_CHECK_MSG(modes == nullptr || modes->size() == rows.rows(),
                "one mode id per row required");
  const std::size_t total = rows.rows();
  if (total == 0) return kNoSlot;
  const std::size_t slots =
      pool != nullptr ? std::max<std::size_t>(pool->num_threads(), 1) : 1;
  EnsureScratch(slots);

  // Grow the per-mode table up front so the commit phase never reallocates
  // it mid-batch. kNoMode entries keep the global policy.
  if (modes != nullptr) {
    std::uint32_t max_mode = 0;
    bool any = false;
    for (const std::uint32_t m : *modes) {
      if (m == kNoMode) continue;
      max_mode = std::max(max_mode, m);
      any = true;
    }
    if (any) {
      WriterMutexLock guard(mu_);
      if (mode_seeds_.size() <= max_mode) mode_seeds_.resize(max_mode + 1);
    }
  }

  std::uint32_t first_id = kNoSlot;
  std::vector<PlannedInsert> plans;
  std::vector<std::uint64_t> row_seeds;
  std::vector<std::size_t> row_live;
  std::vector<std::uint32_t> batch_ids;
  std::size_t begin = 0;
  while (begin < total) {
    std::size_t width, snapshot_n;
    std::uint64_t base_tick;
    {
      // Sub-batch setup reads reader-visible state (arena size, adaptive
      // policy counters) — one brief shared acquisition per sub-batch. No
      // writer can intervene (this thread is the only one), so the values
      // match what the unlocked reads saw before annotation.
      ReaderMutexLock guard(mu_);
      // Exact phase: single-row sub-batches, so every brute-force scan sees
      // all predecessors — identical to sequential insertion.
      // snapshot_n is the arena size the sub-batch's plans are made
      // against: predecessor rows are encoded as virtual ids at or above
      // it (see CommitRow).
      snapshot_n = ArenaRowsLocked();
      width = snapshot_n <= params_.bootstrap ? 1
                                              : std::min(kSubBatch, total - begin);
      // Per-row seed budgets, snapshotted like the old global `live` so
      // mid-batch audits (which run in the commit phase) cannot perturb
      // the walks already planned against this snapshot.
      base_tick = audit_tick_;
      row_live.resize(width);
      for (std::size_t i = 0; i < width; ++i) {
        row_live[i] = EffectiveSeedsLocked(
            modes != nullptr ? (*modes)[begin + i] : kNoMode);
      }
    }
    // One serial rng_ draw per row, in row order: the only RNG consumption
    // of the batch, so thread count cannot perturb the stream.
    row_seeds.resize(width);
    for (auto& s : row_seeds) s = rng_.Next();
    plans.resize(width);

    auto plan_one = [&](std::size_t slot, std::size_t i) {
      // Borrowed shared capability: the submitting thread below holds the
      // reader lock across the entire ParallelForSlots fan-out (workers
      // finish before the guard releases), so every invocation — inline or
      // on a pool worker — runs with mu_ held shared.
      mu_.AssertReaderHeld();
      const std::size_t r = begin + i;
      const std::vector<std::uint32_t>* hints =
          seed_hints != nullptr ? &(*seed_hints)[r] : nullptr;
      PlanRow(rows, begin, r, row_seeds[i], row_live[i], base_tick + i, hints,
              ingest_scratch_[slot], plans[i]);
    };
    {
      // Walks read a frozen graph: the ingest thread holds the shared side
      // for the whole phase, which also lets concurrent SearchKnn readers
      // proceed while excluding the commit phase below.
      GKM_TRACE_SPAN("stream.ingest.walk");
      ReaderMutexLock read_guard(mu_);
      if (pool != nullptr && width > 1) {
        pool->ParallelForSlots(0, width, plan_one);
      } else {
        for (std::size_t i = 0; i < width; ++i) plan_one(0, i);
      }
    }
    {
      GKM_TRACE_SPAN("stream.ingest.commit");
      WriterMutexLock write_guard(mu_);
      batch_ids.clear();
      for (std::size_t i = 0; i < width; ++i) {
        const std::uint32_t id = CommitRow(
            rows, begin + i, snapshot_n, batch_ids, plans[i], touched,
            modes != nullptr ? (*modes)[begin + i] : kNoMode);
        batch_ids.push_back(id);
        if (first_id == kNoSlot) first_id = id;
        if (assigned != nullptr) assigned->push_back(id);
      }
    }
    begin += width;
  }
  GKM_COUNTER_ADD("stream.ingest.rows", static_cast<std::int64_t>(total));

  if (touched != nullptr) {
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
  }
  return first_id;
}

void OnlineKnnGraph::Remove(std::span<const std::uint32_t> ids,
                            std::vector<std::uint32_t>* repaired) {
  GKM_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<std::uint32_t>()) ==
                    ids.end(),
                "Remove ids must be strictly ascending");
  GKM_COUNTER_ADD("stream.remove.calls", static_cast<std::int64_t>(ids.size()));
  for (const std::uint32_t id : ids) {
    // Per-id writer lock: a concurrent reader waits for one removal at
    // most, never for a whole expiry batch.
    WriterMutexLock guard(mu_);
    RemoveOneLocked(id, repaired);
  }
  if (repaired != nullptr) {
    std::sort(repaired->begin(), repaired->end());
    repaired->erase(std::unique(repaired->begin(), repaired->end()),
                    repaired->end());
  }
}

void OnlineKnnGraph::RemoveOneLocked(std::uint32_t id,
                                     std::vector<std::uint32_t>* repaired) {
  GKM_CHECK_MSG(id < ArenaRowsLocked(), "Remove of an out-of-range id");
  GKM_CHECK_MSG(dead_[id] == 0, "Remove of an already-removed id");

  // Snapshot the live out-neighborhood before tombstoning: these nodes are
  // both the likely in-edge owners (reverse repair made most edges mutual)
  // and the replacement candidates for each other. Ascending id order keeps
  // the repair deterministic regardless of heap layout.
  std::vector<std::uint32_t> ring;
  for (const Neighbor& nb : graph_.NeighborsOf(id)) {
    if (dead_[nb.id] == 0) ring.push_back(nb.id);
  }
  std::sort(ring.begin(), ring.end());

  dead_[id] = 1;
  InsertSorted(pending_dead_, id);
  graph_.ClearList(id);
  if (last_inserted_ == id) {
    // The walk's recency seed must stay live; fall back to "none" (random
    // seeds still cover the corpus) until the next insert re-establishes it.
    last_inserted_ = kNoSlot;
  }

  // In-edge repair, reusing the local-join machinery of the insert path:
  // drop the ring's edges to the dead node and cross-link the ring with
  // exact distances, so a node that loses its bridge through `id` is
  // re-attached to the rest of the neighborhood directly. In-edges from
  // outside the ring stay as stale tombstone references — walks skip them
  // and the amortized purge below erases them in bulk.
  const std::size_t d = dim_;
  // SQ8 mode has no fp32 originals: repair distances are exact over the
  // decoded rows — the same value space every committed edge already lives
  // in, so repaired edges rank consistently against walk-committed ones.
  const bool sq8 = sq8_trained_;
  std::vector<float> dec_r(sq8 ? d : 0), dec_s(sq8 ? d : 0);
  for (const std::uint32_t r : ring) {
    bool changed = graph_.RemoveNeighbor(r, id);
    const float* pr;
    if (sq8) {
      Sq8Decode(sq8_quant_,
                sq8_codes_.data() + static_cast<std::size_t>(r) * d, d,
                dec_r.data());
      pr = dec_r.data();
    } else {
      pr = points_.Row(r);
    }
    for (const std::uint32_t s : ring) {
      if (s == r) continue;
      const float* ps;
      if (sq8) {
        Sq8Decode(sq8_quant_,
                  sq8_codes_.data() + static_cast<std::size_t>(s) * d, d,
                  dec_s.data());
        ps = dec_s.data();
      } else {
        ps = points_.Row(s);
      }
      const float dist = L2Sqr(pr, ps, d);
      changed = graph_.Update(r, s, dist) || changed;
    }
    if (changed && repaired != nullptr) repaired->push_back(r);
  }
  // Checked after each id, not once per batch: a purge changes the lists
  // that later ids' repairs update, so it must fire at the same point of
  // the removal sequence however the ids are grouped into calls.
  if (pending_dead_.size() >= kPurgeMinPending &&
      pending_dead_.size() * kPurgeDenominator >= ArenaRowsLocked()) {
    PurgeTombstonesLocked();
  }
}

void OnlineKnnGraph::CompactTombstones() {
  WriterMutexLock guard(mu_);
  PurgeTombstonesLocked();
}

void OnlineKnnGraph::PurgeTombstonesLocked() {
  if (pending_dead_.empty()) return;
  GKM_TRACE_SPAN("stream.purge");
  GKM_COUNTER_ADD("stream.purge.tombstones",
                  static_cast<std::int64_t>(pending_dead_.size()));
  // One sweep over every live list: drop edges whose target is tombstoned.
  // Degree lost here is not refilled — the Remove-time join already
  // repaired the neighborhood, and subsequent inserts' reverse-edge repair
  // keeps lists converging — so the sweep stays pure deletion, O(n*kappa).
  const std::size_t n = ArenaRowsLocked();
  std::vector<Neighbor> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead_[i]) continue;
    const std::span<const Neighbor> items = graph_.NeighborsOf(i);
    bool stale = false;
    for (const Neighbor& nb : items) stale = stale || dead_[nb.id] != 0;
    if (!stale) continue;
    kept.clear();
    for (const Neighbor& nb : items) {
      if (dead_[nb.id] == 0) kept.push_back(nb);
    }
    graph_.SetList(i, kept);
  }
  // Every tombstone is now unreferenced: hand the slots to the allocator
  // (both inputs merged descending, matching the free list's order).
  std::vector<std::uint32_t> merged;
  merged.reserve(free_slots_.size() + pending_dead_.size());
  std::merge(free_slots_.begin(), free_slots_.end(), pending_dead_.rbegin(),
             pending_dead_.rend(), std::back_inserter(merged),
             std::greater<std::uint32_t>());
  free_slots_ = std::move(merged);
  pending_dead_.clear();
}

std::vector<Neighbor> OnlineKnnGraph::SearchKnn(const float* q,
                                                std::size_t topk) const {
  thread_local SearchScratch scratch;
  return SearchKnn(q, topk, scratch);
}

std::vector<Neighbor> OnlineKnnGraph::SearchKnnLocked(
    const float* q, std::size_t topk, SearchScratch& scratch) const {
  const std::size_t n = ArenaRowsLocked();
  if (n == 0) return {};
  // Local generator: read-only queries never perturb the insert stream
  // (replay determinism), and a fixed corpus size gives a fixed answer.
  Rng rng(params_.seed ^ (n * 0x9e3779b97f4a7c15ULL));
  std::vector<Neighbor> cand =
      CollectCandidates(q, rng, nullptr, scratch, live_seeds_);
  if (cand.size() > topk) cand.resize(topk);
  return cand;
}

std::vector<Neighbor> OnlineKnnGraph::SearchKnn(const float* q,
                                                std::size_t topk,
                                                SearchScratch& scratch) const {
  GKM_TRACE_SPAN("serve.search");
  ReaderMutexLock guard(mu_);
  return SearchKnnLocked(q, topk, scratch);
}

std::vector<std::vector<Neighbor>> OnlineKnnGraph::SearchKnnBatch(
    const Matrix& queries, std::size_t topk) const {
  thread_local SearchScratch scratch;
  return SearchKnnBatch(queries, topk, scratch);
}

std::vector<std::vector<Neighbor>> OnlineKnnGraph::SearchKnnBatch(
    const Matrix& queries, std::size_t topk, SearchScratch& scratch) const {
  GKM_CHECK_MSG(queries.cols() == dim_, "query dimension mismatch");
  std::vector<std::vector<Neighbor>> out(queries.rows());
  GKM_TRACE_SPAN("serve.search_batch");
  GKM_COUNTER_ADD("serve.search_batch.queries",
                  static_cast<std::int64_t>(queries.rows()));
  // One reader acquisition for the whole batch. The corpus size is frozen
  // under the lock, so every per-query RNG below matches what a per-query
  // SearchKnn call would have drawn — results are element-wise identical.
  ReaderMutexLock guard(mu_);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    out[i] = SearchKnnLocked(queries.Row(i), topk, scratch);
  }
  return out;
}

const float* OnlineKnnGraph::DecodeToRing(std::uint32_t id) const {
  // Small thread-local ring of decoded rows: successive PointPtr calls
  // rotate through kDecodeRing buffers, so a caller may hold up to
  // kDecodeRing pointers simultaneously (the repo's hottest pattern is two:
  // L2Sqr(Point(a), Point(b))). Pointers are invalidated by the
  // (kDecodeRing+1)-th call on the same thread, like any other scratch.
  constexpr std::size_t kDecodeRing = 8;
  const std::size_t d = dim_;
  thread_local std::vector<float> ring;
  thread_local std::size_t next = 0;
  if (ring.size() != kDecodeRing * d) {
    ring.assign(kDecodeRing * d, 0.0f);
    next = 0;
  }
  float* buf = ring.data() + next * d;
  next = (next + 1) % kDecodeRing;
  Sq8Decode(sq8_quant_, sq8_codes_.data() + static_cast<std::size_t>(id) * d,
            d, buf);
  return buf;
}

void OnlineKnnGraph::EncodeSlotLocked(std::uint32_t id, const float* x) {
  const std::size_t d = dim_;
  if (static_cast<std::size_t>(id) == sq8_norms_.size()) {
    sq8_codes_.resize(sq8_codes_.size() + d);
    float norm = 0.0f;
    Sq8Encode(sq8_quant_, x, d,
              sq8_codes_.data() + static_cast<std::size_t>(id) * d, &norm);
    sq8_norms_.push_back(norm);
  } else {
    GKM_CHECK_MSG(static_cast<std::size_t>(id) < sq8_norms_.size(),
                  "SQ8 encode into a slot past the arena end");
    Sq8Encode(sq8_quant_, x, d,
              sq8_codes_.data() + static_cast<std::size_t>(id) * d,
              &sq8_norms_[id]);
  }
}

void OnlineKnnGraph::TrainSq8Locked() {
  GKM_TRACE_SPAN("stream.sq8.train");
  const std::size_t n = points_.rows();
  const std::size_t d = dim_;
  // Train on the live bootstrap rows only — dead slots would widen the
  // per-dimension range for no benefit. The min/max sweep is
  // order-independent, so the quantizer is deterministic for a given live
  // set regardless of thread count or insertion interleaving.
  std::vector<const float*> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead_[i]) live.push_back(points_.Row(i));
  }
  sq8_quant_ = Sq8TrainGather(live.data(), live.size(), d);
  // Encode every slot (dead ones included, keeping slot indexing dense);
  // then drop the fp32 arena — from here on codes are the only storage.
  sq8_codes_.assign(n * d, 0);
  sq8_norms_.assign(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    Sq8Encode(sq8_quant_, points_.Row(i), d, sq8_codes_.data() + i * d,
              &sq8_norms_[i]);
  }
  sq8_trained_ = true;
  points_ = Matrix(0, dim_);
  GKM_COUNTER_ADD("stream.sq8.train.rows", static_cast<std::int64_t>(n));
}

void OnlineKnnGraph::RequantizeArena() {
  WriterMutexLock guard(mu_);
  if (!sq8_trained_) return;
  GKM_TRACE_SPAN("stream.sq8.requantize");
  const std::size_t n = sq8_norms_.size();
  const std::size_t d = dim_;
  // Decode the whole arena through the OLD quantizer, retrain on the live
  // decoded rows, re-encode everything. One generation of quantization
  // error is baked into the decoded values (codes are not refined against
  // originals, which no longer exist); the payoff is a grid that tracks
  // the drifted distribution, which is what recall depends on.
  std::vector<float> old(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    Sq8Decode(sq8_quant_, sq8_codes_.data() + i * d, d, old.data() + i * d);
  }
  std::vector<const float*> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead_[i]) live.push_back(old.data() + i * d);
  }
  sq8_quant_ = Sq8TrainGather(live.data(), live.size(), d);
  for (std::size_t i = 0; i < n; ++i) {
    Sq8Encode(sq8_quant_, old.data() + i * d, d, sq8_codes_.data() + i * d,
              &sq8_norms_[i]);
  }
  GKM_COUNTER_ADD("stream.sq8.requantize.rows", static_cast<std::int64_t>(n));
}

}  // namespace gkm
