// Copyright 2026 The gkmeans Authors.
// Tests for the stream checkpoint: save -> load round-trip equality of the
// entire model state, bit-exact continuation after restore, pre-bootstrap
// checkpoints, and corruption rejection.

#include "stream/checkpoint.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_projection.h"
#include "dataset/synthetic.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {
namespace {

constexpr std::size_t kDim = 10;

SyntheticData StreamData(std::size_t n, std::uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 10;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

StreamingGkMeansParams SmallParams() {
  // Deliberately non-default values throughout: a params field the
  // checkpoint forgets to persist breaks the continuation tests below.
  StreamingGkMeansParams p;
  p.k = 8;
  p.kappa = 8;
  p.graph.kappa = 8;
  p.graph.beam_width = 24;
  p.graph.num_seeds = 24;
  p.graph.seed = 77;
  p.bootstrap_min = 300;
  p.route_hints = 5;
  p.split_gain_factor = 0.4;
  p.seed = 9;
  return p;
}

void Feed(StreamingGkMeans& model, const Matrix& data, std::size_t window) {
  for (std::size_t begin = 0; begin < data.rows(); begin += window) {
    const std::size_t end = std::min(begin + window, data.rows());
    model.ObserveWindow(SliceRows(data, begin, end));
  }
}

void ExpectIdenticalState(const StreamingGkMeans& a,
                          const StreamingGkMeans& b) {
  EXPECT_EQ(a.points_seen(), b.points_seen());
  EXPECT_EQ(a.windows_seen(), b.windows_seen());
  EXPECT_EQ(a.bootstrapped(), b.bootstrapped());
  EXPECT_EQ(a.labels(), b.labels());
  ASSERT_EQ(a.graph().num_shards(), b.graph().num_shards());
  for (std::size_t s = 0; s < a.graph().num_shards(); ++s) {
    const OnlineKnnGraph& sa = a.graph().shard(s);
    const OnlineKnnGraph& sb = b.graph().shard(s);
    EXPECT_TRUE(sa.points() == sb.points());
    ASSERT_EQ(sa.graph().num_nodes(), sb.graph().num_nodes());
    for (std::size_t i = 0; i < sa.graph().num_nodes(); ++i) {
      EXPECT_EQ(sa.graph().SortedNeighbors(i), sb.graph().SortedNeighbors(i));
    }
  }
  if (a.bootstrapped()) {
    EXPECT_DOUBLE_EQ(a.Distortion(), b.Distortion());
    EXPECT_TRUE(a.Result().centroids == b.Result().centroids);
  }
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CheckpointTest, SaveLoadRoundTripRestoresIdenticalState) {
  const SyntheticData data = StreamData(1000);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());

  const std::string path = TempPath("stream.ckpt");
  SaveStreamCheckpoint(path, model);
  StreamingGkMeans back = LoadStreamCheckpoint(path);
  ExpectIdenticalState(model, back);
  // Every params field survives (all are non-default in SmallParams).
  EXPECT_EQ(back.params().route_hints, model.params().route_hints);
  EXPECT_EQ(back.params().seed, model.params().seed);
  EXPECT_EQ(back.params().split_gain_factor,
            model.params().split_gain_factor);
  EXPECT_EQ(back.graph().params().seed, model.graph().params().seed);
  EXPECT_EQ(back.graph().params().num_seeds,
            model.graph().params().num_seeds);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoredModelContinuesBitExact) {
  const SyntheticData data = StreamData(1600);
  const Matrix head = SliceRows(data.vectors, 0, 800);
  const Matrix tail = SliceRows(data.vectors, 800, 1600);

  StreamingGkMeans uninterrupted(kDim, SmallParams());
  Feed(uninterrupted, head, 200);

  const std::string path = TempPath("stream_continue.ckpt");
  SaveStreamCheckpoint(path, uninterrupted);
  StreamingGkMeans resumed = LoadStreamCheckpoint(path);
  std::remove(path.c_str());

  // Stream the tail into both; a restart must be invisible.
  Feed(uninterrupted, tail, 200);
  Feed(resumed, tail, 200);
  ExpectIdenticalState(uninterrupted, resumed);
}

TEST(CheckpointTest, PreBootstrapCheckpointRoundTrips) {
  const SyntheticData data = StreamData(150);
  StreamingGkMeans model(kDim, SmallParams());
  model.ObserveWindow(data.vectors);
  ASSERT_FALSE(model.bootstrapped());

  const std::string path = TempPath("stream_young.ckpt");
  SaveStreamCheckpoint(path, model);
  StreamingGkMeans back = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  ExpectIdenticalState(model, back);

  // Both cross the bootstrap threshold identically afterwards.
  const SyntheticData more = StreamData(400, 77);
  model.ObserveWindow(more.vectors);
  back.ObserveWindow(more.vectors);
  EXPECT_TRUE(model.bootstrapped());
  ExpectIdenticalState(model, back);
}

TEST(CheckpointTest, RemovalStateRoundTripsAndContinuesBitExact) {
  // Churn the stream (tombstones, repair, slot reuse), checkpoint, and
  // require the resumed model to finish an identical churned tail —
  // deletion state is model state, not an approximation.
  const SyntheticData data = StreamData(1600);
  StreamingGkMeans uninterrupted(kDim, SmallParams());
  auto churn = [](StreamingGkMeans& model, const Matrix& rows) {
    for (std::size_t b = 0; b < rows.rows(); b += 200) {
      model.ObserveWindow(SliceRows(rows, b, std::min(b + 200, rows.rows())));
      for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
        if (id % 5 == 2 && model.graph().IsAlive(id)) model.RemovePoint(id);
      }
    }
  };
  churn(uninterrupted, SliceRows(data.vectors, 0, 800));
  ASSERT_LT(uninterrupted.points_alive(), uninterrupted.points_seen());

  const std::string path = TempPath("removal.ckpt");
  SaveStreamCheckpoint(path, uninterrupted);
  StreamingGkMeans resumed = LoadStreamCheckpoint(path);
  std::remove(path.c_str());

  const RemovalState a = uninterrupted.graph().shard(0).removal_state();
  const RemovalState b = resumed.graph().shard(0).removal_state();
  EXPECT_EQ(a.pending_dead, b.pending_dead);
  EXPECT_EQ(a.free_slots, b.free_slots);
  EXPECT_EQ(a.last_inserted, b.last_inserted);

  churn(uninterrupted, SliceRows(data.vectors, 800, 1600));
  churn(resumed, SliceRows(data.vectors, 800, 1600));
  ExpectIdenticalState(uninterrupted, resumed);
}

TEST(CheckpointTest, TtlExpiryContinuesAcrossResume) {
  // A point's TTL clock is its birth window, which must survive the
  // checkpoint: the resumed model has to expire exactly the same points in
  // exactly the same windows as the uninterrupted one.
  const SyntheticData data = StreamData(2000);
  StreamingGkMeansParams p = SmallParams();
  p.ttl_windows = 4;
  StreamingGkMeans uninterrupted(kDim, p);
  Feed(uninterrupted, SliceRows(data.vectors, 0, 1200), 200);
  // TTL is live by now: the sliding corpus is smaller than the stream.
  ASSERT_LT(uninterrupted.points_alive(), 1200u);

  const std::string path = TempPath("ttl.ckpt");
  SaveStreamCheckpoint(path, uninterrupted);
  StreamingGkMeans resumed = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(resumed.points_alive(), uninterrupted.points_alive());

  Feed(uninterrupted, SliceRows(data.vectors, 1200, 2000), 200);
  Feed(resumed, SliceRows(data.vectors, 1200, 2000), 200);
  ExpectIdenticalState(uninterrupted, resumed);
  EXPECT_EQ(uninterrupted.points_alive(), resumed.points_alive());
  EXPECT_EQ(uninterrupted.history().back().expired,
            resumed.history().back().expired);
}

TEST(CheckpointTest, DeltaChainResumeMatchesFullSnapshotByteForByte) {
  // The incremental-checkpoint contract: base + journal replay must land on
  // the *identical* model a full snapshot would store — proven by comparing
  // the full checkpoints of both, byte for byte.
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p = SmallParams();
  p.ttl_windows = 5;  // internal TTL removals need no journal records
  StreamingGkMeans model(kDim, p);
  Feed(model, SliceRows(data.vectors, 0, 800), 200);

  const std::string base = TempPath("delta_base.ckpt");
  const std::string delta = TempPath("delta_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  for (std::size_t b = 800; b < 1600; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    // Journal an explicit removal alongside the windows.
    for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
      if (id % 11 == 3 && model.graph().IsAlive(id)) {
        log.AppendRemoval(id);
        model.RemovePoint(id);
        break;
      }
    }
    log.AppendStateCheck(model);
  }

  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  const std::string full_a = TempPath("delta_full_a.ckpt");
  const std::string full_b = TempPath("delta_full_b.ckpt");
  SaveStreamCheckpoint(full_a, model);
  SaveStreamCheckpoint(full_b, resumed);
  EXPECT_EQ(ReadFileBytes(full_a), ReadFileBytes(full_b));

  // Compact folds the journal into a fresh base: resuming the compacted
  // pair reproduces the same model with nothing left to replay.
  log.Compact(model);
  StreamingGkMeans compacted = ResumeStreamCheckpoint(base, delta);
  SaveStreamCheckpoint(full_a, compacted);
  EXPECT_EQ(ReadFileBytes(full_a), ReadFileBytes(full_b));

  for (const std::string& f : {base, delta, full_a, full_b}) {
    std::remove(f.c_str());
  }
}

TEST(CheckpointTest, DeltaResumeWithoutJournalLoadsBase) {
  const SyntheticData data = StreamData(600);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 200);
  const std::string base = TempPath("lone_base.ckpt");
  SaveStreamCheckpoint(base, model);
  StreamingGkMeans resumed =
      ResumeStreamCheckpoint(base, TempPath("no_such.gkmd"));
  ExpectIdenticalState(model, resumed);
  std::remove(base.c_str());
}

TEST(CheckpointTest, DeltaResumeRejectsMismatchedBase) {
  // Replaying a journal onto the wrong base would silently corrupt the
  // model; the header's base hash must catch it at load time. (The one
  // tolerated mismatch — a base strictly AHEAD of the journal's anchor,
  // the interrupted-Compact shape — is covered separately below; a
  // same-cursor foreign base must still be an error.)
  const SyntheticData data = StreamData(1000);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 600), 200);

  const std::string base = TempPath("mismatch_base.ckpt");
  const std::string delta = TempPath("mismatch_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  const Matrix window = SliceRows(data.vectors, 600, 800);
  log.AppendWindow(window);
  model.ObserveWindow(window);

  // A foreign model with the same window cursor as the journal's anchor:
  // the hash mismatch cannot be explained by an interrupted Compact.
  const SyntheticData other = StreamData(600, 4242);
  StreamingGkMeans foreign(kDim, SmallParams());
  Feed(foreign, other.vectors, 200);
  ASSERT_EQ(foreign.windows_seen(), 3u);  // == journal anchor
  SaveStreamCheckpoint(base, foreign);
  std::string error;
  EXPECT_FALSE(TryResumeStreamCheckpoint(base, delta, &error).has_value());
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, InterruptedCompactResumesFromTheNewBase) {
  // Compact renames the new base into place before rewriting the journal.
  // Simulate a crash in that window — new base on disk, stale journal
  // still present — and require resume to recognize the shape and treat
  // the base as authoritative rather than failing on the hash mismatch.
  const SyntheticData data = StreamData(1200);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 600), 200);

  const std::string base = TempPath("compact_base.ckpt");
  const std::string delta = TempPath("compact_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  const Matrix window = SliceRows(data.vectors, 600, 800);
  log.AppendWindow(window);
  model.ObserveWindow(window);
  const std::string stale_journal = ReadFileBytes(delta);

  log.Compact(model);
  // Put the pre-compact journal back: exactly the crash-window state.
  std::FILE* f = std::fopen(delta.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(stale_journal.data(), 1, stale_journal.size(), f),
            stale_journal.size());
  std::fclose(f);

  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  ExpectIdenticalState(model, resumed);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, DeltaResumeRejectsUnknownRecordTag) {
  const SyntheticData data = StreamData(600);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 200);
  const std::string base = TempPath("tag_base.ckpt");
  const std::string delta = TempPath("tag_journal.gkmd");
  { StreamDeltaLog log(base, delta, model); }
  std::FILE* f = std::fopen(delta.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc('X', f);
  std::fclose(f);
  std::string error;
  EXPECT_FALSE(TryResumeStreamCheckpoint(base, delta, &error).has_value());
  EXPECT_NE(error.find("unknown delta journal record"), std::string::npos)
      << error;
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, ShardedModelRoundTripsAndContinuesBitExact) {
  // v4's reason to exist: a multi-shard model (per-shard section table in
  // the file) must restore every shard's arena/RNG/removal state and then
  // continue a churned stream exactly as the uninterrupted model does.
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p = SmallParams();
  p.graph.shards = 4;
  p.ttl_windows = 6;
  StreamingGkMeans uninterrupted(kDim, p);
  auto churn = [](StreamingGkMeans& model, const Matrix& rows) {
    for (std::size_t b = 0; b < rows.rows(); b += 200) {
      model.ObserveWindow(SliceRows(rows, b, std::min(b + 200, rows.rows())));
      for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
        if (id % 7 == 2 && model.graph().IsAlive(id)) model.RemovePoint(id);
      }
    }
  };
  churn(uninterrupted, SliceRows(data.vectors, 0, 800));
  ASSERT_TRUE(uninterrupted.bootstrapped());

  const std::string path = TempPath("sharded.ckpt");
  SaveStreamCheckpoint(path, uninterrupted);
  StreamingGkMeans resumed = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_EQ(resumed.graph().num_shards(), 4u);
  ExpectIdenticalState(uninterrupted, resumed);

  churn(uninterrupted, SliceRows(data.vectors, 800, 1600));
  churn(resumed, SliceRows(data.vectors, 800, 1600));
  ExpectIdenticalState(uninterrupted, resumed);
}

TEST(CheckpointTest, ShardedDeltaChainResumesByteIdentical) {
  // Delta journals record inputs, which are shard-agnostic (the partition
  // is a deterministic content hash replayed by ObserveWindow): the
  // base+journal chain must land on the byte-identical model at S=4 too.
  const SyntheticData data = StreamData(1200);
  StreamingGkMeansParams p = SmallParams();
  p.graph.shards = 4;
  StreamingGkMeans model(kDim, p);
  Feed(model, SliceRows(data.vectors, 0, 600), 200);

  const std::string base = TempPath("shard_delta_base.ckpt");
  const std::string delta = TempPath("shard_delta_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  for (std::size_t b = 600; b < 1200; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    log.AppendStateCheck(model);
  }
  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  const std::string full_a = TempPath("shard_full_a.ckpt");
  const std::string full_b = TempPath("shard_full_b.ckpt");
  SaveStreamCheckpoint(full_a, model);
  SaveStreamCheckpoint(full_b, resumed);
  EXPECT_EQ(ReadFileBytes(full_a), ReadFileBytes(full_b));
  for (const std::string& f : {base, delta, full_a, full_b}) {
    std::remove(f.c_str());
  }
}

TEST(CheckpointTest, V3FileLoadsAsSingleShardAndContinues) {
  // Back-compat: a v3 file (no shards param, no section table) must load
  // as S=1 and continue identically. The v3 projection of the v6 file
  // (checkpoint_projection.h) reconstructs the bytes a v3 writer would
  // have produced for this model.
  const SyntheticData data = StreamData(1000);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 600), 200);

  const std::string v6_path = TempPath("compat_v6.ckpt");
  SaveStreamCheckpoint(v6_path, model);
  const std::string v3 = projection::ProjectV4ToV3(
      projection::ProjectV6ToV4(ReadFileBytes(v6_path)));
  std::remove(v6_path.c_str());
  ASSERT_EQ(FileVersion(v3), 3u);

  const std::string v3_path = TempPath("compat_v3.ckpt");
  std::FILE* f = std::fopen(v3_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(v3.data(), 1, v3.size(), f), v3.size());
  std::fclose(f);

  StreamingGkMeans back = LoadStreamCheckpoint(v3_path);
  std::remove(v3_path.c_str());
  EXPECT_EQ(back.graph().num_shards(), 1u);
  ExpectIdenticalState(model, back);
  Feed(model, SliceRows(data.vectors, 600, 1000), 200);
  Feed(back, SliceRows(data.vectors, 600, 1000), 200);
  ExpectIdenticalState(model, back);
}

// ---------------------------------------------------------------------------
// SQ8 storage mode: the arena block's trained branch.

StreamingGkMeansParams Sq8Params() {
  StreamingGkMeansParams p = SmallParams();
  p.graph.storage = StorageMode::kSq8;
  return p;
}

void ExpectIdenticalSq8Arena(const StreamingGkMeans& a,
                             const StreamingGkMeans& b) {
  ASSERT_EQ(a.graph().num_shards(), b.graph().num_shards());
  for (std::size_t s = 0; s < a.graph().num_shards(); ++s) {
    const OnlineKnnGraph& sa = a.graph().shard(s);
    const OnlineKnnGraph& sb = b.graph().shard(s);
    ASSERT_EQ(sa.sq8_trained(), sb.sq8_trained()) << "shard " << s;
    EXPECT_EQ(sa.sq8_codes(), sb.sq8_codes()) << "shard " << s;
    EXPECT_EQ(sa.sq8_norms(), sb.sq8_norms()) << "shard " << s;
    EXPECT_EQ(sa.sq8_quantizer().scale, sb.sq8_quantizer().scale);
    EXPECT_EQ(sa.sq8_quantizer().offset, sb.sq8_quantizer().offset);
  }
}

TEST(CheckpointTest, Sq8ModelRoundTrips) {
  const SyntheticData data = StreamData(1000);
  StreamingGkMeans model(kDim, Sq8Params());
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());
  ASSERT_TRUE(model.graph().shard(0).sq8_trained());

  const std::string path = TempPath("sq8.ckpt");
  SaveStreamCheckpoint(path, model);

  StreamingGkMeans back = LoadStreamCheckpoint(path);
  ExpectIdenticalState(model, back);
  ExpectIdenticalSq8Arena(model, back);
  EXPECT_EQ(back.params().graph.storage, StorageMode::kSq8);

  // Re-saving the restored model reproduces the file byte for byte.
  const std::string again = TempPath("sq8_again.ckpt");
  SaveStreamCheckpoint(again, back);
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(again));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(CheckpointTest, EveryModelWritesVersion6) {
  // One writer format: storage, bootstrap state and routing change which
  // blocks hold data, never the version word.
  const SyntheticData data = StreamData(600);
  StreamingGkMeansParams routed = SmallParams();
  routed.graph.shards = 2;
  routed.routed_placement = true;
  const struct {
    const char* name;
    StreamingGkMeansParams params;
    std::size_t rows;
  } cases[] = {{"fp32", SmallParams(), 600},
               {"sq8", Sq8Params(), 600},
               {"pre-bootstrap", SmallParams(), 100},
               {"routed", routed, 600}};
  for (const auto& c : cases) {
    StreamingGkMeans model(kDim, c.params);
    Feed(model, SliceRows(data.vectors, 0, c.rows), 200);
    ASSERT_EQ(model.bootstrapped(), c.rows > c.params.bootstrap_min) << c.name;
    const std::string path = TempPath("version6.ckpt");
    SaveStreamCheckpoint(path, model);
    EXPECT_EQ(FileVersion(ReadFileBytes(path)), 6u) << c.name;
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, Sq8PreTrainingCheckpointRoundTripsAndTrainsIdentically) {
  // An SQ8 model checkpointed while the arena is still in its fp32
  // bootstrap phase stores an untrained arena; both sides must cross the
  // training trigger identically after resume.
  const SyntheticData data = StreamData(100);
  StreamingGkMeans model(kDim, Sq8Params());
  model.ObserveWindow(data.vectors);
  ASSERT_FALSE(model.graph().shard(0).sq8_trained());

  const std::string path = TempPath("sq8_young.ckpt");
  SaveStreamCheckpoint(path, model);
  StreamingGkMeans back = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  ExpectIdenticalState(model, back);

  const SyntheticData more = StreamData(600, 77);
  Feed(model, more.vectors, 200);
  Feed(back, more.vectors, 200);
  ASSERT_TRUE(model.graph().shard(0).sq8_trained());
  ExpectIdenticalState(model, back);
  ExpectIdenticalSq8Arena(model, back);
}

TEST(CheckpointTest, Sq8ChurnResumeContinuesBitExact) {
  // SQ8 churn-resume: tombstones, slot reuse, and in-place re-encodes all
  // live in the code arena now; a checkpoint mid-churn must restore it
  // exactly and the resumed model must finish an identical churned tail.
  const SyntheticData data = StreamData(1600);
  StreamingGkMeans uninterrupted(kDim, Sq8Params());
  auto churn = [](StreamingGkMeans& model, const Matrix& rows) {
    for (std::size_t b = 0; b < rows.rows(); b += 200) {
      model.ObserveWindow(SliceRows(rows, b, std::min(b + 200, rows.rows())));
      for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
        if (id % 5 == 2 && model.graph().IsAlive(id)) model.RemovePoint(id);
      }
    }
  };
  churn(uninterrupted, SliceRows(data.vectors, 0, 800));
  ASSERT_TRUE(uninterrupted.graph().shard(0).sq8_trained());
  ASSERT_LT(uninterrupted.points_alive(), uninterrupted.points_seen());

  const std::string path = TempPath("sq8_churn.ckpt");
  SaveStreamCheckpoint(path, uninterrupted);
  StreamingGkMeans resumed = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  ExpectIdenticalState(uninterrupted, resumed);
  ExpectIdenticalSq8Arena(uninterrupted, resumed);
  {
    const RemovalState a = uninterrupted.graph().shard(0).removal_state();
    const RemovalState b = resumed.graph().shard(0).removal_state();
    EXPECT_EQ(a.pending_dead, b.pending_dead);
    EXPECT_EQ(a.free_slots, b.free_slots);
    EXPECT_EQ(a.last_inserted, b.last_inserted);
  }

  churn(uninterrupted, SliceRows(data.vectors, 800, 1600));
  churn(resumed, SliceRows(data.vectors, 800, 1600));
  ExpectIdenticalState(uninterrupted, resumed);
  ExpectIdenticalSq8Arena(uninterrupted, resumed);
}

TEST(CheckpointTest, Sq8DeltaChainResumeMatchesFullSnapshotByteForByte) {
  // The incremental path is storage-mode agnostic: base + journal replay in
  // SQ8 mode lands on the byte-identical snapshot a full save produces.
  const SyntheticData data = StreamData(1600);
  StreamingGkMeans model(kDim, Sq8Params());
  Feed(model, SliceRows(data.vectors, 0, 800), 200);
  ASSERT_TRUE(model.graph().shard(0).sq8_trained());

  const std::string base = TempPath("sq8_delta_base.ckpt");
  const std::string delta = TempPath("sq8_delta_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  for (std::size_t b = 800; b < 1600; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
      if (id % 11 == 3 && model.graph().IsAlive(id)) {
        log.AppendRemoval(id);
        model.RemovePoint(id);
        break;
      }
    }
    log.AppendStateCheck(model);
  }

  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  const std::string full_a = TempPath("sq8_delta_full_a.ckpt");
  const std::string full_b = TempPath("sq8_delta_full_b.ckpt");
  SaveStreamCheckpoint(full_a, model);
  SaveStreamCheckpoint(full_b, resumed);
  EXPECT_EQ(ReadFileBytes(full_a), ReadFileBytes(full_b));
  for (const std::string& f : {base, delta, full_a, full_b}) {
    std::remove(f.c_str());
  }
}

TEST(CheckpointTest, AutoCompactionDisabledByDefault) {
  const SyntheticData data = StreamData(800);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 400), 200);
  const std::string base = TempPath("auto_off_base.ckpt");
  const std::string delta = TempPath("auto_off_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  for (std::size_t b = 400; b < 800; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    EXPECT_FALSE(log.MaybeCompact(model));  // no policy installed
  }
  EXPECT_EQ(log.replay_windows(), 2u);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, AutoCompactionTriggersOnJournalFraction) {
  const SyntheticData data = StreamData(1200);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 400), 200);
  const std::string base = TempPath("auto_size_base.ckpt");
  const std::string delta = TempPath("auto_size_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  // Each 200x10f window journals ~8KB against a base of tens of KB, so a
  // 5% ceiling trips within the first window or two.
  DeltaCompactionPolicy policy;
  policy.max_journal_fraction = 0.05;
  log.SetAutoCompaction(policy);

  bool compacted = false;
  for (std::size_t b = 400; b < 1200 && !compacted; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    const bool over =
        static_cast<double>(log.journal_bytes()) >
        0.05 * static_cast<double>(log.base_bytes());
    compacted = log.MaybeCompact(model);
    EXPECT_EQ(compacted, over);  // fires exactly at the threshold
  }
  ASSERT_TRUE(compacted);
  // Compaction folded the journal: fresh header only, zero replay debt,
  // and the (base, journal) pair resumes to the exact current model.
  EXPECT_EQ(log.replay_windows(), 0u);
  EXPECT_LT(log.journal_bytes(), 64u);
  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  ExpectIdenticalState(model, resumed);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, AutoCompactionTriggersOnReplayBudget) {
  const SyntheticData data = StreamData(1600);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 400), 200);
  const std::string base = TempPath("auto_replay_base.ckpt");
  const std::string delta = TempPath("auto_replay_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  DeltaCompactionPolicy policy;
  policy.max_replay_windows = 3;
  log.SetAutoCompaction(policy);

  std::size_t compactions = 0;
  for (std::size_t b = 400; b < 1600; b += 200) {
    const Matrix window = SliceRows(data.vectors, b, b + 200);
    log.AppendWindow(window);
    model.ObserveWindow(window);
    const bool expect_fire = log.replay_windows() > 3;
    EXPECT_EQ(log.MaybeCompact(model), expect_fire);
    if (expect_fire) ++compactions;
  }
  // 6 windows against a budget of 3: exactly one fold (at window 4), and
  // the remaining 2 windows sit in the fresh journal.
  EXPECT_EQ(compactions, 1u);
  EXPECT_EQ(log.replay_windows(), 2u);
  StreamingGkMeans resumed = ResumeStreamCheckpoint(base, delta);
  ExpectIdenticalState(model, resumed);
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST(CheckpointTest, JournalByteAccountingMatchesTheFile) {
  const SyntheticData data = StreamData(800);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, SliceRows(data.vectors, 0, 400), 200);
  const std::string base = TempPath("acct_base.ckpt");
  const std::string delta = TempPath("acct_journal.gkmd");
  StreamDeltaLog log(base, delta, model);
  const Matrix window = SliceRows(data.vectors, 400, 600);
  log.AppendWindow(window);
  model.ObserveWindow(window);
  log.AppendRemoval(0);
  model.RemovePoint(0);
  log.AppendStateCheck(model);
  EXPECT_EQ(log.journal_bytes(), ReadFileBytes(delta).size());
  EXPECT_EQ(log.base_bytes(), ReadFileBytes(base).size());
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

// Overwrites 8 bytes at `offset` with `value` — for corrupting a specific
// u64 field of the params block in place.
void PatchU64(const std::string& path, long offset, std::uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

// Params-block layout: magic(4) version(4), then u64 fields in WriteParams
// order — k@8, kappa@16, graph.kappa@24, graph.beam_width@32,
// graph.num_seeds@40.
constexpr long kKappaOffset = 16;
constexpr long kBeamWidthOffset = 32;
constexpr long kNumSeedsOffset = 40;

TEST(CheckpointTest, TryLoadReportsInvalidParamsInsteadOfAborting) {
  const SyntheticData data = StreamData(600);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 200);
  const std::string path = TempPath("bad_params.ckpt");

  SaveStreamCheckpoint(path, model);
  PatchU64(path, kNumSeedsOffset, 0);  // num_seeds = 0: walk would divide by it
  std::string error;
  EXPECT_FALSE(TryLoadStreamCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("num_seeds"), std::string::npos) << error;

  SaveStreamCheckpoint(path, model);
  // Absurd kappa: must be a load error, not a std::bad_alloc in the
  // constructor's scratch reservation.
  PatchU64(path, kKappaOffset, 1ull << 60);
  EXPECT_FALSE(TryLoadStreamCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("kappa"), std::string::npos) << error;

  SaveStreamCheckpoint(path, model);
  PatchU64(path, kBeamWidthOffset, 1);  // beam_width < graph kappa
  EXPECT_FALSE(TryLoadStreamCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("beam_width"), std::string::npos) << error;

  // The aborting wrapper reports the same diagnostic instead of tripping a
  // constructor GKM_CHECK. StreamingGkMeans owns a thread pool, so the
  // death test must re-exec rather than fork the threaded process.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(LoadStreamCheckpoint(path), "beam_width");
  std::remove(path.c_str());
}

TEST(CheckpointTest, TryLoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(
      TryLoadStreamCheckpoint(TempPath("no_such.ckpt"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointTest, TryLoadReportsWrongMagicAndVersion) {
  const std::string path = TempPath("bad_magic.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("XXXXjunk data beyond the bad magic", f);
  std::fclose(f);
  std::string error;
  EXPECT_FALSE(TryLoadStreamCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("not a GKMC"), std::string::npos) << error;

  const SyntheticData data = StreamData(600);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 200);
  SaveStreamCheckpoint(path, model);
  // Version field sits right after the 4-byte magic.
  f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  const std::uint32_t bogus = 99;
  ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
  std::fclose(f);
  EXPECT_FALSE(TryLoadStreamCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsNonCheckpointFile) {
  const std::string path = TempPath("not_a_checkpoint.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a GKMC file", f);
  std::fclose(f);
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(LoadStreamCheckpoint(path), "not a GKMC checkpoint");
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsTruncatedFile) {
  const SyntheticData data = StreamData(500);
  StreamingGkMeans model(kDim, SmallParams());
  Feed(model, data.vectors, 250);
  const std::string path = TempPath("stream_trunc.ckpt");
  SaveStreamCheckpoint(path, model);

  // Truncate the tail off.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 64);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  // The model above spawned pool threads: re-exec instead of forking.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(LoadStreamCheckpoint(path), "truncated|trailer");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic fuzz-regression sweeps: every strict prefix and every
// single-byte corruption of a real checkpoint/journal must come back as a
// clean Try* error or a (possibly different) loaded model — never an
// abort, crash, or unbounded allocation. This is the compiler-agnostic
// floor under the libFuzzer harnesses in fuzz/ (which explore far deeper
// but need Clang); a crash either suite finds gets pinned here.

StreamingGkMeansParams TinyParams() {
  StreamingGkMeansParams p;
  p.k = 3;
  p.kappa = 4;
  p.graph.kappa = 4;
  p.graph.beam_width = 12;
  p.graph.num_seeds = 8;
  p.graph.bootstrap = 16;
  p.graph.seed = 11;
  p.bootstrap_min = 32;
  p.bootstrap_epochs = 2;
  p.bisect_epochs = 2;
  p.route_hints = 2;
  p.seed = 5;
  return p;
}

constexpr std::size_t kTinyDim = 6;

Matrix TinyData(std::size_t n, std::uint64_t seed = 13) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kTinyDim;
  spec.modes = 3;
  spec.seed = seed;
  return MakeGaussianMixture(spec).vectors;
}

// Bootstrapped tiny model with tombstones — small enough that the O(file
// bytes) sweeps below stay cheap.
StreamingGkMeans TinyModel() {
  StreamingGkMeans model(kTinyDim, TinyParams());
  Feed(model, TinyData(64), 16);
  model.RemovePoint(3);
  model.RemovePoint(10);
  return model;
}

std::vector<std::uint8_t> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  return bytes;
}

std::optional<StreamingGkMeans> TryLoadBytes(const std::uint8_t* data,
                                             std::size_t size,
                                             std::string* error) {
  std::FILE* f = fmemopen(const_cast<std::uint8_t*>(data), size, "rb");
  EXPECT_NE(f, nullptr);
  auto model = TryLoadStreamCheckpoint(f, error);
  std::fclose(f);
  return model;
}

std::optional<StreamingGkMeans> TryResumeBytes(const std::string& base_path,
                                               const std::uint8_t* data,
                                               std::size_t size,
                                               std::string* error) {
  std::FILE* f = fmemopen(const_cast<std::uint8_t*>(data), size, "rb");
  EXPECT_NE(f, nullptr);
  auto model = TryResumeStreamCheckpoint(base_path, f, error);
  std::fclose(f);
  return model;
}

TEST(CheckpointFuzzRegression, TruncationSweepFailsCleanly) {
  const std::string path = TempPath("fuzz_trunc_sweep.gkmc");
  SaveStreamCheckpoint(path, TinyModel());
  const std::vector<std::uint8_t> bytes = ReadAllBytes(path);
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 100u);

  // No strict prefix can be a valid checkpoint (the trailer is the last
  // thing parsed), so every one must come back as an error.
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    std::string error;
    auto model = TryLoadBytes(bytes.data(), len, &error);
    ASSERT_FALSE(model.has_value()) << "prefix of " << len << " bytes";
    ASSERT_FALSE(error.empty()) << "prefix of " << len << " bytes";
  }
  std::string error;
  EXPECT_TRUE(TryLoadBytes(bytes.data(), bytes.size(), &error).has_value())
      << error;
}

TEST(CheckpointFuzzRegression, ByteFlipSweepNeverAborts) {
  const std::string path = TempPath("fuzz_flip_sweep.gkmc");
  SaveStreamCheckpoint(path, TinyModel());
  std::vector<std::uint8_t> bytes = ReadAllBytes(path);
  std::remove(path.c_str());

  // A flipped float payload can still load (it is just a different model);
  // everything else must be a clean diagnostic. Either way: no abort.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] ^= 0xff;
    std::string error;
    auto model = TryLoadBytes(bytes.data(), bytes.size(), &error);
    if (!model.has_value()) {
      ASSERT_FALSE(error.empty()) << "flip at byte " << pos;
    }
    bytes[pos] ^= 0xff;  // restore
  }
}

TEST(CheckpointFuzzRegression, JournalSweepsNeverAbort) {
  const std::string base = TempPath("fuzz_sweep_base.gkmc");
  const std::string delta = TempPath("fuzz_sweep_delta.gkmd");
  StreamingGkMeans model = TinyModel();
  StreamDeltaLog log(base, delta, model);
  const Matrix extra = TinyData(32, 99);
  const Matrix w1 = SliceRows(extra, 0, 16);
  const Matrix w2 = SliceRows(extra, 16, 32);
  log.AppendWindow(w1);
  model.ObserveWindow(w1);
  log.AppendStateCheck(model);
  log.AppendRemoval(5);
  model.RemovePoint(5);
  log.AppendWindow(w2);
  model.ObserveWindow(w2);
  log.AppendStateCheck(model);
  std::vector<std::uint8_t> bytes = ReadAllBytes(delta);
  std::remove(delta.c_str());
  ASSERT_GT(bytes.size(), 24u);

  // Truncations: a cut at a record boundary is a legitimately shorter
  // journal and may resume; a mid-record cut must be a clean error.
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    std::string error;
    auto resumed = TryResumeBytes(base, bytes.data(), len, &error);
    if (!resumed.has_value()) {
      ASSERT_FALSE(error.empty()) << "journal prefix of " << len << " bytes";
    }
  }

  // Single-byte corruptions anywhere in the journal.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] ^= 0xff;
    std::string error;
    auto resumed = TryResumeBytes(base, bytes.data(), bytes.size(), &error);
    if (!resumed.has_value()) {
      ASSERT_FALSE(error.empty()) << "flip at journal byte " << pos;
    }
    bytes[pos] ^= 0xff;
  }
  std::remove(base.c_str());
}

}  // namespace
}  // namespace gkm
