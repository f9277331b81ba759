// Copyright 2026 The gkmeans Authors.

#include "stream/checkpoint.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm {
namespace {

constexpr char kMagic[4] = {'G', 'K', 'M', 'C'};
constexpr char kTrailer[4] = {'C', 'K', 'P', 'T'};
constexpr char kDeltaMagic[4] = {'G', 'K', 'M', 'D'};
// Writers emit kVersion only; older versions are read-only (see
// TryLoadStreamCheckpoint, the one place that knows their defaults).
// v2: adds the adaptive-seed state to the cursor block.
// v3: adds ttl_windows to the params block and the removal block (graph
//     tombstones, free slots, last-inserted slot, per-slot birth windows)
//     before the trailer.
// v4: adds graph.shards to the params block and, between the removal block
//     and the trailer, a shard section table (u64 shard count + one u64
//     byte size per extra shard) followed by one section per shard beyond
//     shard 0 (whose state occupies the v3-position sections). v2/v3 files
//     load as S=1.
// v5: adds graph.storage to the params block and replaces every per-shard
//     points matrix with an arena block (u8 trained flag; a bare matrix
//     when 0, packed SQ8 codes + row norms + quantizer when 1). v2-v4 files
//     load with storage = kFp32.
// v6: appends the routing params tail (routed_placement, spill_margin,
//     rebalance_threshold, migrate_budget, a reserved u64) to the params
//     block, shard 0's per-mode seed table to the cursor block, a
//     cluster-home block after the representatives, and a per-mode seed
//     table to every extra shard section. v2-v5 files load with routing
//     off. See docs/checkpoint-format.md.
constexpr std::uint32_t kVersion = 6;
constexpr std::uint32_t kOldestReadable = 2;
constexpr std::uint32_t kDeltaVersion = 1;

constexpr std::uint32_t kNoSlot = RemovalState::kNoSlot;

// FNV-1a 64-bit, incremental: binds a delta journal to its base snapshot
// and digests cluster state for the 'C' verification record.
constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;

std::uint64_t FnvMix(std::uint64_t h, const void* bytes, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void WriteParams(std::FILE* f, const StreamingGkMeansParams& p) {
  io::WriteRaw<std::uint64_t>(f, p.k);
  io::WriteRaw<std::uint64_t>(f, p.kappa);
  io::WriteRaw<std::uint64_t>(f, p.graph.kappa);
  io::WriteRaw<std::uint64_t>(f, p.graph.beam_width);
  io::WriteRaw<std::uint64_t>(f, p.graph.num_seeds);
  io::WriteRaw<std::uint64_t>(f, p.graph.bootstrap);
  io::WriteRaw<std::uint64_t>(f, p.graph.seed);
  io::WriteRaw<std::uint64_t>(f, p.epochs_per_window);
  io::WriteRaw<std::uint64_t>(f, p.bootstrap_min);
  io::WriteRaw<std::uint64_t>(f, p.bootstrap_epochs);
  io::WriteRaw<std::uint64_t>(f, p.bisect_epochs);
  io::WriteRaw<double>(f, p.drift_threshold);
  io::WriteRaw<std::uint64_t>(f, p.max_extra_epochs);
  io::WriteRaw<std::uint64_t>(f, p.max_splits_per_window);
  io::WriteRaw<double>(f, p.split_gain_factor);
  io::WriteRaw<std::uint64_t>(f, p.route_hints);
  io::WriteRaw<std::uint64_t>(f, p.history_limit);
  io::WriteRaw<std::uint64_t>(f, p.seed);
  io::WriteRaw<std::uint64_t>(f, p.ttl_windows);
  io::WriteRaw<std::uint64_t>(f, p.graph.shards);
  io::WriteRaw<std::uint64_t>(f, static_cast<std::uint64_t>(p.graph.storage));
  io::WriteRaw<std::uint8_t>(f, p.routed_placement ? 1 : 0);
  io::WriteRaw<double>(f, p.spill_margin);
  io::WriteRaw<double>(f, p.rebalance_threshold);
  io::WriteRaw<std::uint64_t>(f, p.migrate_budget);
  io::WriteRaw<std::uint64_t>(f, 0);  // reserved field 26 (see ReadParams)
  // ingest_threads is deliberately not persisted: it is an execution knob
  // with no effect on results, and a resumed process sizes its own pool.
  // graph.shards IS persisted: the shard count partitions the id space and
  // the stream, so it is model state like any other.
}

// Non-aborting size_t field read (the format stores every count as u64).
bool ReadSize(io::Reader& r, std::size_t* out) {
  std::uint64_t v = 0;
  if (!r.Read(&v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool ReadParams(io::Reader& r, std::uint32_t version,
                StreamingGkMeansParams* p) {
  bool ok = ReadSize(r, &p->k) && ReadSize(r, &p->kappa) &&
            ReadSize(r, &p->graph.kappa) &&
            ReadSize(r, &p->graph.beam_width) &&
            ReadSize(r, &p->graph.num_seeds) &&
            ReadSize(r, &p->graph.bootstrap) && r.Read(&p->graph.seed) &&
            ReadSize(r, &p->epochs_per_window) &&
            ReadSize(r, &p->bootstrap_min) &&
            ReadSize(r, &p->bootstrap_epochs) &&
            ReadSize(r, &p->bisect_epochs) && r.Read(&p->drift_threshold) &&
            ReadSize(r, &p->max_extra_epochs) &&
            ReadSize(r, &p->max_splits_per_window) &&
            r.Read(&p->split_gain_factor) && ReadSize(r, &p->route_hints) &&
            ReadSize(r, &p->history_limit) && r.Read(&p->seed);
  // v2 predates deletion: the field defaults to "TTL disabled".
  p->ttl_windows = 0;
  if (ok && version >= 3) ok = ReadSize(r, &p->ttl_windows);
  // v2/v3 predate sharding: a single arena, i.e. S=1.
  p->graph.shards = 1;
  if (ok && version >= 4) ok = ReadSize(r, &p->graph.shards);
  // v2-v4 predate quantized storage: the arena is fp32-resident.
  p->graph.storage = StorageMode::kFp32;
  if (ok && version >= 5) {
    std::uint64_t storage = 0;
    ok = r.Read(&storage) && storage <= 1;
    if (ok) {
      p->graph.storage =
          storage == 1 ? StorageMode::kSq8 : StorageMode::kFp32;
    }
  }
  // v2-v5 predate routed placement: routing off, defaults for the knobs.
  p->routed_placement = false;
  p->spill_margin = 0.35;
  p->rebalance_threshold = 0.0;
  p->migrate_budget = 1024;
  if (ok && version >= 6) {
    std::uint8_t routed = 0;
    // Reserved slot (formerly read_replicas): read and discarded, so v6
    // files written with any value still load.
    std::uint64_t reserved = 0;
    ok = r.Read(&routed) && routed <= 1 && r.Read(&p->spill_margin) &&
         r.Read(&p->rebalance_threshold) && ReadSize(r, &p->migrate_budget) &&
         r.Read(&reserved);
    if (ok) p->routed_placement = routed != 0;
  }
  return ok;
}

void WriteRng(std::FILE* f, const RngSnapshot& r) {
  io::WriteArray(f, r.s, 4);
  io::WriteRaw<std::uint8_t>(f, r.have_spare ? 1 : 0);
  io::WriteRaw<double>(f, r.spare);
}

bool ReadRng(io::Reader& r, RngSnapshot* out) {
  std::uint8_t have = 0;
  if (!r.ReadArray(out->s, 4) || !r.Read(&have) || !r.Read(&out->spare)) {
    return false;
  }
  out->have_spare = have != 0;
  return true;
}

void WriteIdList(std::FILE* f, const std::vector<std::uint32_t>& ids) {
  io::WriteRaw<std::uint64_t>(f, ids.size());
  io::WriteArray(f, ids.data(), ids.size());
}

// Per-mode adaptive seed table (v6): u64 count, then one (live_seeds u64,
// fail_ewma double, audit_tick u64) triple per mode. live_seeds == 0 marks
// an uninitialized mode that defers to the shard's global budget.
void WriteModeSeeds(std::FILE* f, const std::vector<AdaptiveSeedState>& ms) {
  io::WriteRaw<std::uint64_t>(f, ms.size());
  for (const AdaptiveSeedState& s : ms) {
    io::WriteRaw<std::uint64_t>(f, s.live_seeds);
    io::WriteRaw<double>(f, s.fail_ewma);
    io::WriteRaw<std::uint64_t>(f, s.audit_tick);
  }
}

// Counterpart of WriteModeSeeds. Modes are cluster ids, so the table can
// never be wider than k; the entry values are validated in depth by
// ValidateStreamSnapshot afterwards.
bool ReadModeSeeds(io::Reader& r, std::size_t k,
                   std::vector<AdaptiveSeedState>* out) {
  std::uint64_t count = 0;
  if (!r.Read(&count) || count > k) return false;
  out->resize(static_cast<std::size_t>(count));
  for (AdaptiveSeedState& s : *out) {
    if (!r.Read(&s.live_seeds) || !r.Read(&s.fail_ewma) ||
        !r.Read(&s.audit_tick)) {
      return false;
    }
  }
  return true;
}

// Arena shape, independent of storage: an SQ8-trained shard's rows live in
// its code arena (its points matrix is empty), an fp32 shard's in the
// matrix. Every shape check in the loader goes through these.
std::size_t ShardRows(const OnlineShardParts& shard) {
  return shard.sq8.trained ? shard.sq8.norms.size() : shard.points.rows();
}

std::size_t ShardCols(const OnlineShardParts& shard) {
  return shard.sq8.trained ? shard.sq8.quant.scale.size()
                           : shard.points.cols();
}

// Arena block: the storage-dependent point payload of one shard. A u8
// trained flag, then a bare matrix when it is clear, or packed SQ8 codes +
// row norms + per-dimension quantizer when it is set (v2-v4 files carry
// the bare matrix without the flag).
void WriteArena(std::FILE* f, const OnlineShardParts& shard) {
  io::WriteRaw<std::uint8_t>(f, shard.sq8.trained ? 1 : 0);
  if (!shard.sq8.trained) {
    io::WriteMatrix(f, shard.points);
    return;
  }
  const Sq8ArenaParts& sq8 = shard.sq8;
  const std::uint64_t rows = sq8.norms.size();
  const std::uint64_t cols = sq8.quant.scale.size();
  io::WriteRaw<std::uint64_t>(f, rows);
  io::WriteRaw<std::uint64_t>(f, cols);
  io::WriteArray(f, sq8.codes.data(), sq8.codes.size());
  io::WriteArray(f, sq8.norms.data(), sq8.norms.size());
  io::WriteArray(f, sq8.quant.scale.data(), sq8.quant.scale.size());
  io::WriteArray(f, sq8.quant.offset.data(), sq8.quant.offset.size());
}

// Counterpart of WriteArena; false on truncation or implausible shape
// (same caps as matrix reads: the quantizer payload is validated in depth
// by ValidateStreamSnapshot afterwards).
bool ReadArena(io::Reader& r, std::uint32_t version, OnlineShardParts* shard) {
  if (version < 5) return r.ReadMatrix(&shard->points);
  std::uint8_t trained = 0;
  if (!r.Read(&trained) || trained > 1) return false;
  if (trained == 0) return r.ReadMatrix(&shard->points);
  std::uint64_t rows = 0, cols = 0;
  if (!r.Read(&rows) || !r.Read(&cols)) return false;
  if (cols == 0 || cols > (1u << 24)) return false;
  if (rows > (1ull << 40) / cols) return false;  // bounds rows*cols too
  Sq8ArenaParts& sq8 = shard->sq8;
  sq8.trained = true;
  sq8.rows = static_cast<std::size_t>(rows);
  return r.ReadVector(sq8.codes, rows * cols) &&
         r.ReadVector(sq8.norms, rows) &&
         r.ReadVector(sq8.quant.scale, cols) &&
         r.ReadVector(sq8.quant.offset, cols);
}

// Exclusive upper bound on global ids encoded by the shard parts (via the
// shared ShardedArenaBound invariant): the size the global-indexed blocks
// (labels, birth windows) must match.
std::size_t GlobalArenaBound(const std::vector<OnlineShardParts>& shards) {
  std::vector<std::size_t> rows(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    rows[s] = ShardRows(shards[s]);
  }
  return ShardedArenaBound(rows.data(), rows.size());
}

// One extra-shard section (shards 1..S-1; shard 0 lives in the v3-position
// sections): cursor-style RNG + adaptive seeds, then stores and removal
// lists. Counterpart of ReadShardSection.
void WriteShardSection(std::FILE* f, const OnlineShardParts& shard) {
  WriteRng(f, shard.rng);
  io::WriteRaw<std::uint64_t>(f, shard.seeds.live_seeds);
  io::WriteRaw<double>(f, shard.seeds.fail_ewma);
  io::WriteRaw<std::uint64_t>(f, shard.seeds.audit_tick);
  WriteArena(f, shard);
  shard.graph.SaveTo(f);
  WriteIdList(f, shard.removal.pending_dead);
  WriteIdList(f, shard.removal.free_slots);
  io::WriteRaw<std::uint32_t>(f, shard.removal.last_inserted);
  WriteModeSeeds(f, shard.mode_seeds);
}

// Per-shard adaptive-seed sanity, applied to shard 0's cursor-block state
// and to every extra shard section.
const char* ValidateSeedState(const AdaptiveSeedState& seeds) {
  if (seeds.live_seeds == 0 || seeds.live_seeds > (1u << 24)) {
    return "checkpoint adaptive seed state out of range";
  }
  if (!(seeds.fail_ewma >= 0.0 && seeds.fail_ewma <= 1.0)) {
    return "checkpoint adaptive failure rate out of range";
  }
  return nullptr;
}

// Mirrors the invariants the StreamingGkMeans/OnlineKnnGraph constructors
// enforce with GKM_CHECK, so a malformed checkpoint surfaces as a load
// error at the file boundary instead of an abort deep inside construction.
// Returns nullptr when everything is sane. (The shard count is validated
// at its read site in TryLoadStreamCheckpoint — it gates a resize that
// happens before params validation can run.)
const char* ValidateLoadedParams(const StreamingGkMeansParams& p,
                                 const AdaptiveSeedState& seeds) {
  if (p.k < 2 || p.k > (1u << 24)) return "implausible checkpoint k";
  if (p.kappa == 0 || p.kappa > (1u << 24)) {
    return "implausible checkpoint kappa";
  }
  if (p.graph.kappa == 0 || p.graph.kappa > (1u << 24)) {
    return "implausible checkpoint graph kappa";
  }
  if (p.graph.beam_width < p.graph.kappa ||
      p.graph.beam_width > (1u << 24)) {
    return "checkpoint beam_width below graph kappa or implausible";
  }
  if (p.graph.num_seeds == 0 || p.graph.num_seeds > (1u << 24)) {
    return "checkpoint num_seeds out of range";
  }
  if (p.graph.bootstrap > (1ull << 40)) {
    return "implausible checkpoint bootstrap threshold";
  }
  if (p.bootstrap_min <= 2 * p.k) {
    return "checkpoint bootstrap window too small for k";
  }
  return ValidateSeedState(seeds);
}

// The removal block's lists index the arena unchecked later (tombstone
// flags, slot reuse): enforce sortedness, range and disjointness here so a
// corrupt v3 file is a load error, not memory corruption.
const char* ValidateRemovalState(const RemovalState& r, std::size_t n) {
  auto sorted_in_range = [n](const std::vector<std::uint32_t>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] >= n) return false;
      if (i > 0 && v[i] <= v[i - 1]) return false;
    }
    return true;
  };
  if (!sorted_in_range(r.pending_dead)) {
    return "checkpoint tombstone list corrupt";
  }
  if (!sorted_in_range(r.free_slots)) {
    return "checkpoint free-slot list corrupt";
  }
  std::size_t i = 0, j = 0;
  while (i < r.pending_dead.size() && j < r.free_slots.size()) {
    if (r.pending_dead[i] == r.free_slots[j]) {
      return "checkpoint slot both tombstoned and free";
    }
    if (r.pending_dead[i] < r.free_slots[j]) ++i; else ++j;
  }
  if (r.last_inserted != kNoSlot && r.last_inserted >= n) {
    return "checkpoint last-inserted slot out of range";
  }
  return nullptr;
}

// Digest of the replay-visible cluster state (record 'C'): composite
// vectors, counts and labels. Everything else that matters (graph edges,
// RNG) feeds into these within a window, so divergence shows up here.
std::uint64_t StateDigest(const StreamingGkMeans& model) {
  const ClusterState& state = model.cluster_state();
  std::uint64_t h = kFnvSeed;
  h = FnvMix(h, state.composites().data(),
             state.composites().size() * sizeof(double));
  h = FnvMix(h, state.counts().data(),
             state.counts().size() * sizeof(std::uint32_t));
  h = FnvMix(h, model.labels().data(),
             model.labels().size() * sizeof(std::uint32_t));
  return h;
}

// Hash of a whole file's bytes; false when unreadable. `size_out` (when
// non-null) receives the byte count — the auto-compaction policy's base
// size comes along for free with the journal-binding hash.
bool HashFileBytes(const std::string& path, std::uint64_t* out,
                   std::size_t* size_out = nullptr) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) return false;
  io::File f(raw);
  std::uint64_t h = kFnvSeed;
  std::size_t total = 0;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    h = FnvMix(h, buf, got);
    total += got;
  }
  *out = h;
  if (size_out != nullptr) *size_out = total;
  return true;
}

}  // namespace

void SaveStreamCheckpoint(const std::string& path,
                          const StreamingGkMeans& model) {
  // Telemetry here observes the save; it never feeds the written bytes
  // (the checkpoint stays byte-identical with stats compiled out).
  GKM_TRACE_SPAN("ckpt.save");
  const StreamSnapshot snap = model.Snapshot();
  const OnlineShardParts& shard0 = snap.shards[0];
  io::File f = io::OpenOrDie(path, "wb");

  io::WriteArray(f.get(), kMagic, 4);
  io::WriteRaw<std::uint32_t>(f.get(), kVersion);
  WriteParams(f.get(), snap.params);

  // Cursor block. The graph RNG/adaptive-seed fields at the v3 positions
  // belong to shard 0 — for S=1 that IS the whole graph.
  io::WriteRaw<std::uint64_t>(f.get(), snap.windows);
  io::WriteRaw<std::uint8_t>(f.get(), snap.bootstrapped ? 1 : 0);
  WriteRng(f.get(), snap.rng);
  WriteRng(f.get(), shard0.rng);
  io::WriteRaw<std::uint64_t>(f.get(), shard0.seeds.live_seeds);
  io::WriteRaw<double>(f.get(), shard0.seeds.fail_ewma);
  io::WriteRaw<std::uint64_t>(f.get(), shard0.seeds.audit_tick);
  WriteModeSeeds(f.get(), shard0.mode_seeds);

  WriteArena(f.get(), shard0);
  shard0.graph.SaveTo(f.get());
  io::WriteRaw<std::uint64_t>(f.get(), snap.labels.size());
  io::WriteArray(f.get(), snap.labels.data(), snap.labels.size());
  io::WriteArray(f.get(), snap.cluster_reps.data(), snap.cluster_reps.size());
  // Cluster-home block: empty before bootstrap and for non-routed models,
  // k entries otherwise.
  io::WriteRaw<std::uint64_t>(f.get(), snap.cluster_home.size());
  io::WriteArray(f.get(), snap.cluster_home.data(), snap.cluster_home.size());

  io::WriteRaw<std::uint64_t>(f.get(), snap.n);
  io::WriteArray(f.get(), snap.counts.data(), snap.counts.size());
  io::WriteArray(f.get(), snap.composites.data(), snap.composites.size());
  io::WriteArray(f.get(), snap.composite_norms.data(),
                 snap.composite_norms.size());
  io::WriteArray(f.get(), snap.point_norms.data(), snap.point_norms.size());
  io::WriteRaw<double>(f.get(), snap.sum_point_norms);

  io::WriteMatrix(f.get(), snap.prev_centroids);

  // Removal block: shard 0's deletion bookkeeping (slot-local ids)
  // plus the global TTL birth windows.
  WriteIdList(f.get(), shard0.removal.pending_dead);
  WriteIdList(f.get(), shard0.removal.free_slots);
  io::WriteRaw<std::uint32_t>(f.get(), shard0.removal.last_inserted);
  io::WriteRaw<std::uint64_t>(f.get(), snap.birth_windows.size());
  io::WriteArray(f.get(), snap.birth_windows.data(),
                 snap.birth_windows.size());

  // Shard section table: shard count, one byte-size entry per extra
  // shard (so readers and tools can skip sections), then the sections.
  // Sizes are back-patched after the sections are written; the content is
  // deterministic, so the patched bytes are too.
  const std::size_t num_shards = snap.shards.size();
  io::WriteRaw<std::uint64_t>(f.get(), num_shards);
  const long table_pos = std::ftell(f.get());
  GKM_CHECK(table_pos >= 0);
  for (std::size_t s = 1; s < num_shards; ++s) {
    io::WriteRaw<std::uint64_t>(f.get(), 0);  // placeholder
  }
  std::vector<std::uint64_t> section_bytes;
  section_bytes.reserve(num_shards > 0 ? num_shards - 1 : 0);
  for (std::size_t s = 1; s < num_shards; ++s) {
    const long begin = std::ftell(f.get());
    WriteShardSection(f.get(), snap.shards[s]);
    const long end = std::ftell(f.get());
    GKM_CHECK(begin >= 0 && end >= begin);
    section_bytes.push_back(static_cast<std::uint64_t>(end - begin));
  }
  if (!section_bytes.empty()) {
    GKM_CHECK(std::fseek(f.get(), table_pos, SEEK_SET) == 0);
    io::WriteArray(f.get(), section_bytes.data(), section_bytes.size());
    GKM_CHECK(std::fseek(f.get(), 0, SEEK_END) == 0);
  }

  io::WriteArray(f.get(), kTrailer, 4);
  const long total_bytes = std::ftell(f.get());
  if (total_bytes > 0) {
    GKM_COUNTER_ADD("ckpt.save.bytes", static_cast<std::int64_t>(total_bytes));
  }
}

std::optional<StreamingGkMeans> TryLoadStreamCheckpoint(std::FILE* file,
                                                        std::string* error) {
  GKM_TRACE_SPAN("ckpt.load");
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::optional<StreamingGkMeans>();
  };
  constexpr const char* kTruncated = "truncated or unreadable checkpoint";
  io::Reader r(file);

  char magic[4];
  if (!r.ReadArray(magic, 4)) return fail(kTruncated);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return fail("not a GKMC checkpoint file");
  }
  std::uint32_t version = 0;
  if (!r.Read(&version)) return fail(kTruncated);
  if (version < kOldestReadable || version > kVersion) {
    return fail("unsupported checkpoint version");
  }

  StreamSnapshot snap;
  if (!ReadParams(r, version, &snap.params)) return fail(kTruncated);
  const std::size_t num_shards = snap.params.graph.shards;
  if (num_shards == 0 || num_shards > (1u << 16)) {
    return fail("checkpoint shard count out of range");
  }
  snap.shards.resize(num_shards);
  OnlineShardParts& shard0 = snap.shards[0];
  std::uint8_t bootstrapped = 0;
  if (!r.Read(&snap.windows) || !r.Read(&bootstrapped) ||
      !ReadRng(r, &snap.rng) || !ReadRng(r, &shard0.rng) ||
      !r.Read(&shard0.seeds.live_seeds) || !r.Read(&shard0.seeds.fail_ewma) ||
      !r.Read(&shard0.seeds.audit_tick)) {
    return fail(kTruncated);
  }
  snap.bootstrapped = bootstrapped != 0;
  if (const char* msg = ValidateLoadedParams(snap.params, shard0.seeds)) {
    return fail(msg);
  }
  if (version >= 6 &&
      !ReadModeSeeds(r, snap.params.k, &shard0.mode_seeds)) {
    return fail("implausible checkpoint per-mode seed table");
  }

  if (!ReadArena(r, version, &shard0)) {
    return fail("truncated or implausible checkpoint points");
  }
  if (!KnnGraph::TryLoadFrom(r, &shard0.graph)) {
    return fail("truncated or implausible checkpoint graph");
  }
  // Labels (and birth windows below) index the GLOBAL arena. With a single
  // shard that equals shard 0's rows and is checked here; with more shards
  // the bound depends on sections not read yet, so the exact check is
  // deferred until after the shard table (ReadVector still bounds the
  // resize by the bytes actually present).
  std::uint64_t n_labels64 = 0;
  if (!r.Read(&n_labels64)) return fail(kTruncated);
  if (num_shards == 1 && n_labels64 != ShardRows(shard0)) {
    return fail("checkpoint label count does not match point count");
  }
  if (!r.ReadVector(snap.labels, n_labels64)) {
    return fail("implausible checkpoint label count");
  }
  const std::size_t n_labels = snap.labels.size();
  const std::size_t k = snap.params.k;
  if (!r.ReadVector(snap.cluster_reps, k)) return fail(kTruncated);
  if (version >= 6) {
    std::uint64_t homes = 0;
    if (!r.Read(&homes)) return fail(kTruncated);
    if (homes != 0 && homes != k) {
      return fail("checkpoint cluster-home count mismatch");
    }
    if (!r.ReadVector(snap.cluster_home, homes)) return fail(kTruncated);
  }

  // k and cols are individually capped (ValidateLoadedParams, ReadMatrix),
  // so the product cannot wrap; ReadVector then bounds each block by the
  // remaining bytes before any allocation.
  if (k * ShardCols(shard0) > (1ull << 40)) {
    return fail("implausible checkpoint state size");
  }
  if (!r.Read(&snap.n) || !r.ReadVector(snap.counts, k) ||
      !r.ReadVector(snap.composites,
                    static_cast<std::uint64_t>(k) * ShardCols(shard0)) ||
      !r.ReadVector(snap.composite_norms, k) ||
      !r.ReadVector(snap.point_norms, k) || !r.Read(&snap.sum_point_norms)) {
    return fail(kTruncated);
  }

  if (!r.ReadMatrix(&snap.prev_centroids)) {
    return fail("truncated or implausible checkpoint drift baseline");
  }

  if (version >= 3) {
    auto read_ids = [&r](std::vector<std::uint32_t>& out, std::size_t bound) {
      std::uint64_t count = 0;
      if (!r.Read(&count) || count > bound) return false;
      return r.ReadVector(out, count);
    };
    if (!read_ids(shard0.removal.pending_dead, ShardRows(shard0)) ||
        !read_ids(shard0.removal.free_slots, ShardRows(shard0))) {
      return fail("implausible checkpoint removal-list size");
    }
    if (!r.Read(&shard0.removal.last_inserted)) return fail(kTruncated);
    if (const char* msg =
            ValidateRemovalState(shard0.removal, ShardRows(shard0))) {
      return fail(msg);
    }
    std::uint64_t births = 0;
    if (!r.Read(&births)) return fail(kTruncated);
    if (births != n_labels) {
      return fail("checkpoint birth-window count does not match labels");
    }
    if (!r.ReadVector(snap.birth_windows, births)) return fail(kTruncated);

    // Shard section table (v4): one section per shard beyond shard 0.
    if (version >= 4) {
      std::uint64_t table_shards = 0;
      if (!r.Read(&table_shards)) return fail(kTruncated);
      if (table_shards != num_shards) {
        return fail("checkpoint shard table disagrees with params");
      }
      std::vector<std::uint64_t> section_bytes;
      if (!r.ReadVector(section_bytes,
                        static_cast<std::uint64_t>(num_shards) - 1)) {
        return fail(kTruncated);
      }
      for (std::size_t s = 1; s < num_shards; ++s) {
        OnlineShardParts& shard = snap.shards[s];
        const std::uint64_t begin_remaining = r.remaining();
        if (!ReadRng(r, &shard.rng) || !r.Read(&shard.seeds.live_seeds) ||
            !r.Read(&shard.seeds.fail_ewma) ||
            !r.Read(&shard.seeds.audit_tick)) {
          return fail(kTruncated);
        }
        if (const char* msg = ValidateSeedState(shard.seeds)) {
          return fail(msg);
        }
        if (!ReadArena(r, version, &shard)) {
          return fail("truncated or implausible checkpoint points");
        }
        if (ShardCols(shard) != ShardCols(shard0)) {
          return fail("checkpoint shard dimension mismatch");
        }
        if (!KnnGraph::TryLoadFrom(r, &shard.graph)) {
          return fail("truncated or implausible checkpoint graph");
        }
        if (!read_ids(shard.removal.pending_dead, ShardRows(shard)) ||
            !read_ids(shard.removal.free_slots, ShardRows(shard))) {
          return fail("implausible checkpoint removal-list size");
        }
        if (!r.Read(&shard.removal.last_inserted)) return fail(kTruncated);
        if (const char* msg =
                ValidateRemovalState(shard.removal, ShardRows(shard))) {
          return fail(msg);
        }
        if (version >= 6 && !ReadModeSeeds(r, k, &shard.mode_seeds)) {
          return fail("implausible checkpoint per-mode seed table");
        }
        if (begin_remaining - r.remaining() != section_bytes[s - 1]) {
          return fail("checkpoint shard section size mismatch");
        }
      }
    }
    // Deferred global-arena check (see the labels read above).
    if (n_labels != GlobalArenaBound(snap.shards)) {
      return fail("checkpoint label count does not match the sharded arena");
    }
  }
  // v2: removal state stays default-empty and birth windows are filled in
  // by the model constructor ("born at restore").

  char trailer[4];
  if (!r.ReadArray(trailer, 4)) return fail(kTruncated);
  if (std::memcmp(trailer, kTrailer, 4) != 0) {
    return fail("corrupt checkpoint: missing trailer");
  }

  // The file-shaped checks above are necessarily piecemeal; this is the
  // authoritative gate — the same validator FromSnapshot aborts through,
  // run here first so deep payload corruption (bad edges, label/liveness
  // violations) is a clean load error.
  if (const char* msg = ValidateStreamSnapshot(snap)) return fail(msg);
  return StreamingGkMeans::FromSnapshot(std::move(snap));
}

std::optional<StreamingGkMeans> TryLoadStreamCheckpoint(
    const std::string& path, std::string* error) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) {
    if (error != nullptr) *error = "cannot open checkpoint: " + path;
    return std::nullopt;
  }
  io::File f(raw);
  return TryLoadStreamCheckpoint(f.get(), error);
}

StreamingGkMeans LoadStreamCheckpoint(const std::string& path) {
  std::string error;
  std::optional<StreamingGkMeans> model =
      TryLoadStreamCheckpoint(path, &error);
  GKM_CHECK_MSG(model.has_value(), error.c_str());
  return std::move(*model);
}

// --- Delta checkpointing ----------------------------------------------------

StreamDeltaLog::StreamDeltaLog(std::string base_path, std::string delta_path,
                               const StreamingGkMeans& model)
    : base_path_(std::move(base_path)), delta_path_(std::move(delta_path)) {
  SaveStreamCheckpoint(base_path_, model);
  StartJournal(model);
}

void StreamDeltaLog::StartJournal(const StreamingGkMeans& model) {
  std::uint64_t base_hash = 0;
  GKM_CHECK_MSG(HashFileBytes(base_path_, &base_hash, &base_bytes_),
                "cannot re-read base snapshot for journal header");
  f_ = io::OpenOrDie(delta_path_, "wb");
  io::WriteArray(f_.get(), kDeltaMagic, 4);
  io::WriteRaw<std::uint32_t>(f_.get(), kDeltaVersion);
  io::WriteRaw<std::uint64_t>(f_.get(), base_hash);
  io::WriteRaw<std::uint64_t>(f_.get(), model.windows_seen());
  std::fflush(f_.get());
  journal_bytes_ = 4 + 4 + 8 + 8;
  replay_windows_ = 0;
}

void StreamDeltaLog::AppendWindow(const Matrix& window) {
  GKM_TRACE_SPAN("ckpt.delta.append_window");
  io::WriteRaw<std::uint8_t>(f_.get(), 'W');
  io::WriteMatrix(f_.get(), window);
  std::fflush(f_.get());
  journal_bytes_ += 1 + 16 + window.rows() * window.cols() * sizeof(float);
  ++replay_windows_;
  GKM_GAUGE_SET("ckpt.delta.journal_bytes",
                static_cast<std::int64_t>(journal_bytes_));
}

void StreamDeltaLog::AppendRemoval(std::uint32_t id) {
  io::WriteRaw<std::uint8_t>(f_.get(), 'R');
  io::WriteRaw<std::uint32_t>(f_.get(), id);
  std::fflush(f_.get());
  journal_bytes_ += 1 + 4;
}

void StreamDeltaLog::AppendStateCheck(const StreamingGkMeans& model) {
  io::WriteRaw<std::uint8_t>(f_.get(), 'C');
  io::WriteRaw<std::uint64_t>(f_.get(), StateDigest(model));
  std::fflush(f_.get());
  journal_bytes_ += 1 + 8;
}

bool StreamDeltaLog::MaybeCompact(const StreamingGkMeans& model) {
  const bool over_size =
      policy_.max_journal_fraction > 0.0 &&
      static_cast<double>(journal_bytes_) >
          policy_.max_journal_fraction * static_cast<double>(base_bytes_);
  const bool over_replay = policy_.max_replay_windows > 0 &&
                           replay_windows_ > policy_.max_replay_windows;
  if (!over_size && !over_replay) return false;
  Compact(model);
  return true;
}

void StreamDeltaLog::Compact(const StreamingGkMeans& model) {
  GKM_TRACE_SPAN("ckpt.delta.compact");
  f_.reset();  // close before rewriting under the journal's feet
  // Crash safety, in two pieces. (1) The base is never truncated in
  // place: the new snapshot lands in a side file and renames over the
  // original, so a crash mid-write leaves the old base + old journal
  // fully resumable. (2) A crash between the rename and the journal
  // rewrite leaves the new base beside the stale journal — resume detects
  // that shape (base cursor ahead of the journal anchor) and treats the
  // base as authoritative, since it already contains the journal's inputs.
  const std::string tmp = base_path_ + ".compact.tmp";
  SaveStreamCheckpoint(tmp, model);
  GKM_CHECK_MSG(std::rename(tmp.c_str(), base_path_.c_str()) == 0,
                "cannot rename compacted base snapshot into place");
  StartJournal(model);
}

std::optional<StreamingGkMeans> TryResumeStreamCheckpoint(
    const std::string& base_path, std::FILE* journal, std::string* error) {
  GKM_TRACE_SPAN("ckpt.delta.replay");
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::optional<StreamingGkMeans>();
  };
  constexpr const char* kTruncated = "truncated or unreadable delta journal";

  std::optional<StreamingGkMeans> model =
      TryLoadStreamCheckpoint(base_path, error);
  if (!model.has_value()) return std::nullopt;

  io::Reader r(journal);
  char magic[4];
  if (!r.ReadArray(magic, 4) || std::memcmp(magic, kDeltaMagic, 4) != 0) {
    return fail("not a GKMD delta journal");
  }
  std::uint32_t journal_version = 0;
  if (!r.Read(&journal_version)) return fail(kTruncated);
  if (journal_version != kDeltaVersion) {
    return fail("unsupported delta journal version");
  }
  std::uint64_t base_hash = 0;
  if (!HashFileBytes(base_path, &base_hash)) {
    return fail("cannot re-read base snapshot: " + base_path);
  }
  std::uint64_t journal_hash = 0;
  std::uint64_t journal_windows = 0;
  if (!r.Read(&journal_hash) || !r.Read(&journal_windows)) {
    return fail(kTruncated);
  }
  if (journal_hash != base_hash) {
    // One mismatch shape is legitimate: Compact renames the new base into
    // place before it rewrites the journal, so a crash in between leaves a
    // completed newer base beside a stale journal whose inputs the base
    // already contains. The base's window cursor being strictly ahead of
    // the journal's anchor identifies it; the base alone is the state.
    if (model->windows_seen() > journal_windows) return model;
    return fail("delta journal does not match this base snapshot");
  }
  if (journal_windows != model->windows_seen()) {
    return fail("delta journal window cursor does not match base");
  }

  // Replay. Each record goes through the same public API the original
  // process used, so the deterministic-model contract makes the result
  // bit-identical to the state that produced the journal. A journal cut
  // mid-record is a clean error (the process may have crashed mid-append;
  // the caller decides whether to fall back to the base alone).
  while (r.remaining() > 0) {
    std::uint8_t tag = 0;
    if (!r.Read(&tag)) return fail(kTruncated);
    switch (tag) {
      case 'W': {
        Matrix window;
        if (!r.ReadMatrix(&window)) {
          return fail("truncated or implausible delta window");
        }
        if (window.cols() != model->dim()) {
          return fail("delta window dimension does not match model");
        }
        model->ObserveWindow(window);
        break;
      }
      case 'R': {
        std::uint32_t id = 0;
        if (!r.Read(&id)) return fail(kTruncated);
        if (id >= model->points_seen() || !model->graph().IsAlive(id)) {
          return fail("delta removal of a dead or out-of-range id");
        }
        model->RemovePoint(id);
        break;
      }
      case 'C': {
        std::uint64_t want = 0;
        if (!r.Read(&want)) return fail(kTruncated);
        if (StateDigest(*model) != want) {
          return fail("delta state digest mismatch: journal and base "
                      "disagree with the replayed model");
        }
        break;
      }
      default:
        return fail("unknown delta journal record tag");
    }
  }
  return model;
}

std::optional<StreamingGkMeans> TryResumeStreamCheckpoint(
    const std::string& base_path, const std::string& delta_path,
    std::string* error) {
  errno = 0;
  std::FILE* raw = std::fopen(delta_path.c_str(), "rb");
  if (raw == nullptr) {
    // Only a genuinely absent journal means "the base is the state". Any
    // other open failure (permissions, fd exhaustion, I/O error) would
    // silently drop journaled-and-flushed inputs if treated the same.
    if (errno == ENOENT) return TryLoadStreamCheckpoint(base_path, error);
    if (error != nullptr) *error = "cannot open delta journal: " + delta_path;
    return std::nullopt;
  }
  io::File f(raw);
  return TryResumeStreamCheckpoint(base_path, f.get(), error);
}

StreamingGkMeans ResumeStreamCheckpoint(const std::string& base_path,
                                        const std::string& delta_path) {
  std::string error;
  std::optional<StreamingGkMeans> model =
      TryResumeStreamCheckpoint(base_path, delta_path, &error);
  GKM_CHECK_MSG(model.has_value(), error.c_str());
  return std::move(*model);
}

}  // namespace gkm
