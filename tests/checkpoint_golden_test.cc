// Copyright 2026 The gkmeans Authors.
// Pins the exact bytes of a streaming checkpoint produced by a fixed,
// deterministic pipeline. The oldest golden below was captured from the
// scalar-only distance code that predates the batched kernel layer
// (src/common/kernels.*), so this test is the contract that the kernel
// refactor — at every SIMD dispatch tier, and in particular under
// GKM_FORCE_SCALAR=1 — leaves every number on the streaming path
// bit-identical: vectors, graph edges, labels, composite statistics, RNG
// state. Any change to summation order, candidate scoring or walk policy
// shows up here as a hash mismatch.
//
// Every model writes GKMC v6. Each pin has a v6 hash, and each pin first
// captured in an older layout keeps its old hash as the target of a
// projection (checkpoint_projection.h): the v6 bytes, with what v6
// appended deleted, must still hit it bit for bit.
//
// Run with GKM_PRINT_GOLDEN=1 to print the hash of the current build
// (used to re-capture the golden after an *intentional* semantic change).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checkpoint_projection.h"
#include "dataset/synthetic.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"
#include "gtest/gtest.h"

namespace gkm {
namespace {

// FNV-1a 64-bit over the checkpoint bytes: collision-proof enough to stand
// in for a byte-by-byte golden file without checking a binary into the repo.
std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The deterministic pipeline whose checkpoint bytes are pinned: a GMM
// stream pushed through bootstrap, drift handling, split/merge and the
// adaptive seed policy (n is large enough to leave the brute-force
// bootstrap regime, so real graph walks are exercised).
std::string BuildGoldenCheckpoint() {
  SyntheticSpec spec;
  spec.n = 900;
  spec.dim = 16;
  spec.modes = 9;
  spec.seed = 123;
  const SyntheticData data = MakeGaussianMixture(spec);

  StreamingGkMeansParams p;
  p.k = 9;
  p.kappa = 8;
  p.graph.kappa = 8;
  p.graph.beam_width = 24;
  p.graph.num_seeds = 16;
  p.graph.bootstrap = 128;
  p.graph.seed = 77;
  p.bootstrap_min = 256;
  p.ingest_threads = 1;
  p.seed = 31;

  StreamingGkMeans model(spec.dim, p);
  const std::size_t window = 150;
  for (std::size_t b = 0; b < spec.n; b += window) {
    model.ObserveWindow(SliceRows(data.vectors, b, std::min(b + window, spec.n)));
  }

  const std::string path =
      std::string(::testing::TempDir()) + "/gkm_golden_ckpt.bin";
  SaveStreamCheckpoint(path, model);
  return ReadFileBytes(path);
}

// GKMD twin of the checkpoint pin: the same pipeline cut mid-stream, the
// remainder journaled window by window plus one explicit removal and a
// closing state-check digest. Journal bytes bind to the base snapshot by
// hash and carry no clocks, counters or any other telemetry-adjacent
// value, so they pin exactly like the base does — and the pin holds
// bit-for-bit in instrumented and GKM_NO_STATS builds alike.
// `base_bytes` (when non-null) receives the base snapshot the journal
// header binds to.
std::string BuildGoldenJournal(std::string* base_bytes = nullptr) {
  SyntheticSpec spec;
  spec.n = 900;
  spec.dim = 16;
  spec.modes = 9;
  spec.seed = 123;
  const SyntheticData data = MakeGaussianMixture(spec);

  StreamingGkMeansParams p;
  p.k = 9;
  p.kappa = 8;
  p.graph.kappa = 8;
  p.graph.beam_width = 24;
  p.graph.num_seeds = 16;
  p.graph.bootstrap = 128;
  p.graph.seed = 77;
  p.bootstrap_min = 256;
  p.ingest_threads = 1;
  p.seed = 31;

  StreamingGkMeans model(spec.dim, p);
  const std::size_t window = 150;
  for (std::size_t b = 0; b < 600; b += window) {
    model.ObserveWindow(SliceRows(data.vectors, b, b + window));
  }

  const std::string base =
      std::string(::testing::TempDir()) + "/gkm_golden_delta_base.bin";
  const std::string delta =
      std::string(::testing::TempDir()) + "/gkm_golden_delta.gkmd";
  StreamDeltaLog log(base, delta, model);
  for (std::size_t b = 600; b < 900; b += window) {
    const Matrix w = SliceRows(data.vectors, b, b + window);
    log.AppendWindow(w);
    model.ObserveWindow(w);
  }
  log.AppendRemoval(3);
  model.RemovePoint(3);
  log.AppendStateCheck(model);
  if (base_bytes != nullptr) *base_bytes = ReadFileBytes(base);
  return ReadFileBytes(delta);
}

// TTL-expiry twins of the checkpoint pin: a sliding corpus whose every
// window from the third on retires the oldest window's points through
// ExpireTtl, long enough that the 1/4-arena tombstone purge fires in the
// middle of an expiry batch. Two arena shapes: one fp32 shard, and four
// SQ8 shards (per-shard purge thresholds, global-id repair translation).
// `purged` reports whether any shard ever moved tombstones to its free
// list and a later insert reused the slot, so the pin provably covers a
// mid-expiry purge (ttl_windows=2 at 300 rows a window: the purge fires
// halfway through each expiry batch).
std::string BuildGoldenTtlCheckpoint(std::size_t shards, StorageMode storage,
                                     bool* purged) {
  SyntheticSpec spec;
  spec.n = 3000;
  spec.dim = 16;
  spec.modes = 9;
  spec.seed = 321;
  const SyntheticData data = MakeGaussianMixture(spec);

  StreamingGkMeansParams p;
  p.k = 9;
  p.kappa = 8;
  p.graph.kappa = 8;
  p.graph.beam_width = 24;
  p.graph.num_seeds = 16;
  p.graph.bootstrap = 128;
  p.graph.seed = 77;
  p.graph.shards = shards;
  p.graph.storage = storage;
  p.bootstrap_min = 256;
  p.ttl_windows = 2;
  p.ingest_threads = 1;
  p.seed = 31;

  StreamingGkMeans model(spec.dim, p);
  const std::size_t window = 300;
  for (std::size_t b = 0; b < spec.n; b += window) {
    model.ObserveWindow(SliceRows(data.vectors, b, b + window));
  }
  // Only purged slots are ever reused, so arenas that hold fewer rows than
  // the stream delivered prove a purge ran.
  std::size_t arena_rows = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    arena_rows += model.graph().shard(s).size();
  }
  *purged = arena_rows < spec.n;

  const std::string path = std::string(::testing::TempDir()) +
                           "/gkm_golden_ttl_s" + std::to_string(shards) +
                           ".bin";
  SaveStreamCheckpoint(path, model);
  return ReadFileBytes(path);
}

// Routed (GKMC v6) twins of the checkpoint and journal pins: four fp32
// shards under routed placement, a rebalance threshold low enough that
// clusters get re-homed, a migrate budget small enough that their rows
// move over several windows, and explicit removals after every
// post-bootstrap window. `RoutedActivity` proves the pin covers each of
// those paths.
struct RoutedActivity {
  std::size_t rehomed = 0;
  std::size_t migrated = 0;
  std::size_t removed = 0;
};

SyntheticData GoldenRoutedData() {
  SyntheticSpec spec;
  spec.n = 1800;
  spec.dim = 16;
  spec.modes = 9;
  spec.seed = 456;
  return MakeGaussianMixture(spec);
}

StreamingGkMeansParams GoldenRoutedParams() {
  StreamingGkMeansParams p;
  p.k = 9;
  p.kappa = 8;
  p.graph.kappa = 8;
  p.graph.beam_width = 24;
  p.graph.num_seeds = 16;
  p.graph.bootstrap = 128;
  p.graph.seed = 77;
  p.graph.shards = 4;
  p.bootstrap_min = 256;
  p.ingest_threads = 1;
  p.seed = 31;
  p.routed_placement = true;
  p.rebalance_threshold = 0.05;
  p.migrate_budget = 16;
  return p;
}

// Feeds rows [begin, end) of `data` in 150-row windows. After each window
// of a bootstrapped model, every 97th global id from a per-window offset
// that is still alive is removed. With `log`, every op is journaled before
// it is applied.
void FeedRoutedGolden(StreamingGkMeans& model, const Matrix& data,
                      std::size_t begin, std::size_t end, StreamDeltaLog* log,
                      RoutedActivity* seen) {
  const std::size_t window = 150;
  for (std::size_t b = begin; b < end; b += window) {
    const Matrix w = SliceRows(data, b, b + window);
    if (log != nullptr) log->AppendWindow(w);
    model.ObserveWindow(w);
    seen->rehomed += model.history().back().rehomed;
    seen->migrated += model.history().back().migrated;
    if (!model.bootstrapped()) continue;
    for (std::size_t id = b / window; id < model.points_seen(); id += 97) {
      const auto g = static_cast<std::uint32_t>(id);
      if (!model.graph().IsAlive(g)) continue;
      if (log != nullptr) log->AppendRemoval(g);
      model.RemovePoint(g);
      ++seen->removed;
    }
  }
}

std::string BuildGoldenRoutedCheckpoint(RoutedActivity* seen) {
  const SyntheticData data = GoldenRoutedData();
  StreamingGkMeans model(data.vectors.cols(), GoldenRoutedParams());
  FeedRoutedGolden(model, data.vectors, 0, data.vectors.rows(), nullptr, seen);
  const std::string path =
      std::string(::testing::TempDir()) + "/gkm_golden_routed.bin";
  SaveStreamCheckpoint(path, model);
  return ReadFileBytes(path);
}

// The same routed stream cut after 900 rows; the rest, with its removals,
// is journaled and closed by a state-check digest.
std::string BuildGoldenRoutedJournal(RoutedActivity* seen) {
  const SyntheticData data = GoldenRoutedData();
  StreamingGkMeans model(data.vectors.cols(), GoldenRoutedParams());
  FeedRoutedGolden(model, data.vectors, 0, 900, nullptr, seen);
  const std::string base =
      std::string(::testing::TempDir()) + "/gkm_golden_routed_base.bin";
  const std::string delta =
      std::string(::testing::TempDir()) + "/gkm_golden_routed.gkmd";
  StreamDeltaLog log(base, delta, model);
  FeedRoutedGolden(model, data.vectors, 900, data.vectors.rows(), &log, seen);
  log.AppendStateCheck(model);
  return ReadFileBytes(delta);
}

// The v6 pin: the v4 golden below plus the 58 bytes v6 appends to an S=1
// fp32 file (the storage field, the 33-byte routing tail, an empty
// mode-seed count, the arena's trained flag and an empty cluster-home
// count).
constexpr std::uint64_t kGoldenHashV6 = 0x506a4ebaaae0056aULL;
constexpr std::size_t kGoldenSizeV6 = 131997;

// Captured from the GKMC v4 layout (sharded-graph PR; S=1 here). Both
// halves of the pin matter: the size catches layout drift, the hash
// catches numeric drift.
constexpr std::uint64_t kGoldenHash = 0x40122b34c6f22701ULL;
constexpr std::size_t kGoldenSize = 131939;

// The v3 golden, captured from the deletion/TTL + delta checkpoints PR.
// v4 appended fields, it did not change a single number the v3 format
// carried — so an S=1 sharded pipeline is provably zero-drift against the
// single-arena implementation it replaced.
constexpr std::uint64_t kGoldenHashV3 = 0xb56ab723d22ad176ULL;
constexpr std::size_t kGoldenSizeV3 = 131923;

// The original golden, captured from the pre-kernel-layer scalar
// implementation against the v2 layout.
constexpr std::uint64_t kGoldenHashV2 = 0x8a78c3a019750edaULL;
constexpr std::size_t kGoldenSizeV2 = 124687;

TEST(CheckpointGolden, StreamingPipelineBytesAreBitStable) {
  const std::string bytes = BuildGoldenCheckpoint();
  const std::uint64_t hash = Fnv1a64(bytes);
  if (std::getenv("GKM_PRINT_GOLDEN") != nullptr) {
    std::printf("golden hash = 0x%016llxULL size = %zu\n",
                static_cast<unsigned long long>(hash), bytes.size());
    return;
  }
  EXPECT_EQ(bytes[4], 6) << "every model writes GKMC v6";
  EXPECT_EQ(bytes.size(), kGoldenSizeV6);
  EXPECT_EQ(hash, kGoldenHashV6);
}

TEST(CheckpointGolden, V4ProjectionStillMatchesShardingGolden) {
  const std::string projected =
      projection::ProjectV6ToV4(BuildGoldenCheckpoint());
  EXPECT_EQ(projected.size(), kGoldenSize);
  EXPECT_EQ(Fnv1a64(projected), kGoldenHash);
}

TEST(CheckpointGolden, V3ProjectionStillMatchesPreShardingGolden) {
  const std::string projected = projection::ProjectV4ToV3(
      projection::ProjectV6ToV4(BuildGoldenCheckpoint()));
  EXPECT_EQ(projected.size(), kGoldenSizeV3);
  EXPECT_EQ(Fnv1a64(projected), kGoldenHashV3);
}

TEST(CheckpointGolden, V2ProjectionStillMatchesPreKernelGolden) {
  const std::string projected = projection::ProjectV3ToV2(
      projection::ProjectV4ToV3(
          projection::ProjectV6ToV4(BuildGoldenCheckpoint())),
      900);
  EXPECT_EQ(projected.size(), kGoldenSizeV2);
  EXPECT_EQ(Fnv1a64(projected), kGoldenHashV2);
}

// A second, independent determinism property: two identical runs in one
// process produce identical bytes (guards against hidden global state in
// whatever distance path is dispatched).
TEST(CheckpointGolden, RepeatRunsAreByteIdentical) {
  EXPECT_EQ(BuildGoldenCheckpoint(), BuildGoldenCheckpoint());
}

// GKMD journal pins. A clock or counter value leaking into a journal
// record — the exact failure mode the telemetry determinism contract
// forbids — lands here as a hash mismatch, in instrumented and
// GKM_NO_STATS builds alike. The records are the same in both pins; only
// the header's base hash differs, since it binds the journal to the base
// file's bytes. The old pin was captured (v1 journal layout, telemetry
// PR) over a v4 base, so it is reached by re-binding the header to the
// v4 projection of today's v6 base.
constexpr std::uint64_t kGoldenJournalHashV6 = 0x7e0219717af015bfULL;
constexpr std::uint64_t kGoldenJournalHash = 0x270aedbdbbdeeb77ULL;
constexpr std::size_t kGoldenJournalSize = 19272;

TEST(CheckpointGolden, DeltaJournalBytesAreBitStable) {
  const std::string bytes = BuildGoldenJournal();
  const std::uint64_t hash = Fnv1a64(bytes);
  if (std::getenv("GKM_PRINT_GOLDEN") != nullptr) {
    std::printf("journal hash = 0x%016llxULL size = %zu\n",
                static_cast<unsigned long long>(hash), bytes.size());
    return;
  }
  EXPECT_EQ(bytes.size(), kGoldenJournalSize);
  EXPECT_EQ(hash, kGoldenJournalHashV6);
}

TEST(CheckpointGolden, DeltaJournalOverV4ProjectedBaseMatchesGolden) {
  std::string base;
  std::string journal = BuildGoldenJournal(&base);
  // Header: magic(4) version(4) base_hash(8) base_windows(8).
  ASSERT_GT(journal.size(), 24u);
  const std::uint64_t v4_base = Fnv1a64(projection::ProjectV6ToV4(base));
  std::memcpy(&journal[8], &v4_base, sizeof(v4_base));
  EXPECT_EQ(journal.size(), kGoldenJournalSize);
  EXPECT_EQ(Fnv1a64(journal), kGoldenJournalHash);
}

// TTL pins in v6, and the pins captured in the model's old layout (v4 for
// one fp32 shard, v5 for four SQ8 shards) from the per-id expiry path (one
// graph removal call per expiring point). Batching the expiry must not
// move a byte, and v6 must only have appended fields.
constexpr std::uint64_t kGoldenTtlHashS1V6 = 0x52257a672d70b6a4ULL;
constexpr std::size_t kGoldenTtlSizeS1V6 = 87101;
constexpr std::uint64_t kGoldenTtlHashS4Sq8V6 = 0xbc3157584b875bc6ULL;
constexpr std::size_t kGoldenTtlSizeS4Sq8V6 = 71787;
constexpr std::uint64_t kGoldenTtlHashS1 = 0xbfef9e480e4cb8b9ULL;
constexpr std::size_t kGoldenTtlSizeS1 = 87043;
constexpr std::uint64_t kGoldenTtlHashS4Sq8 = 0xafdf7122a525dbacULL;
constexpr std::size_t kGoldenTtlSizeS4Sq8 = 71714;

// Pins the v6 bytes of the TTL pipeline, and the hash of their projection
// onto the layout the old pin was captured in.
void ExpectTtlPin(std::size_t shards, StorageMode storage,
                  std::uint64_t want_hash, std::size_t want_size,
                  std::string (*project)(const std::string&),
                  std::uint64_t want_old_hash, std::size_t want_old_size) {
  bool purged = false;
  const std::string bytes = BuildGoldenTtlCheckpoint(shards, storage, &purged);
  const std::uint64_t hash = Fnv1a64(bytes);
  if (std::getenv("GKM_PRINT_GOLDEN") != nullptr) {
    std::printf("ttl S=%zu hash = 0x%016llxULL size = %zu purged = %d\n",
                shards, static_cast<unsigned long long>(hash), bytes.size(),
                purged ? 1 : 0);
    return;
  }
  EXPECT_TRUE(purged) << "the TTL pin must cover a tombstone purge";
  EXPECT_EQ(bytes.size(), want_size);
  EXPECT_EQ(hash, want_hash);
  const std::string projected = project(bytes);
  EXPECT_EQ(projected.size(), want_old_size);
  EXPECT_EQ(Fnv1a64(projected), want_old_hash);
}

TEST(CheckpointGolden, TtlExpiryBytesAreBitStableSingleShardFp32) {
  ExpectTtlPin(1, StorageMode::kFp32, kGoldenTtlHashS1V6, kGoldenTtlSizeS1V6,
               projection::ProjectV6ToV4, kGoldenTtlHashS1, kGoldenTtlSizeS1);
}

TEST(CheckpointGolden, TtlExpiryBytesAreBitStableFourShardsSq8) {
  ExpectTtlPin(4, StorageMode::kSq8, kGoldenTtlHashS4Sq8V6,
               kGoldenTtlSizeS4Sq8V6, projection::ProjectV6ToV5,
               kGoldenTtlHashS4Sq8, kGoldenTtlSizeS4Sq8);
}

// Routed pins, captured while the serving layer still carried read
// replicas (GKMC v6 params field 26 then held the replica count, 0 for
// these models). Deleting that layer must not move a byte.
constexpr std::uint64_t kGoldenRoutedHash = 0xe6bc4464e6542ee6ULL;
constexpr std::size_t kGoldenRoutedSize = 279847;
constexpr std::uint64_t kGoldenRoutedJournalHash = 0xcc82faf7e54a9f9dULL;
constexpr std::size_t kGoldenRoutedJournalSize = 58180;

void ExpectRoutedActivity(const RoutedActivity& seen) {
  EXPECT_GT(seen.rehomed, 0u) << "the routed pin must cover a rebalance";
  EXPECT_GT(seen.migrated, 0u) << "the routed pin must cover a migration";
  EXPECT_GT(seen.removed, 0u) << "the routed pin must cover removals";
}

TEST(CheckpointGolden, RoutedFourShardBytesAreBitStable) {
  RoutedActivity seen;
  const std::string bytes = BuildGoldenRoutedCheckpoint(&seen);
  const std::uint64_t hash = Fnv1a64(bytes);
  if (std::getenv("GKM_PRINT_GOLDEN") != nullptr) {
    std::printf("routed hash = 0x%016llxULL size = %zu rehomed = %zu "
                "migrated = %zu removed = %zu\n",
                static_cast<unsigned long long>(hash), bytes.size(),
                seen.rehomed, seen.migrated, seen.removed);
    return;
  }
  ExpectRoutedActivity(seen);
  EXPECT_EQ(bytes[4], 6) << "routed models write GKMC v6";
  EXPECT_EQ(bytes.size(), kGoldenRoutedSize);
  EXPECT_EQ(hash, kGoldenRoutedHash);
}

TEST(CheckpointGolden, RoutedDeltaJournalBytesAreBitStable) {
  RoutedActivity seen;
  const std::string bytes = BuildGoldenRoutedJournal(&seen);
  const std::uint64_t hash = Fnv1a64(bytes);
  if (std::getenv("GKM_PRINT_GOLDEN") != nullptr) {
    std::printf("routed journal hash = 0x%016llxULL size = %zu rehomed = %zu "
                "migrated = %zu removed = %zu\n",
                static_cast<unsigned long long>(hash), bytes.size(),
                seen.rehomed, seen.migrated, seen.removed);
    return;
  }
  ExpectRoutedActivity(seen);
  EXPECT_EQ(bytes.size(), kGoldenRoutedJournalSize);
  EXPECT_EQ(hash, kGoldenRoutedJournalHash);
}

}  // namespace
}  // namespace gkm
