// Copyright 2026 The gkmeans Authors.
// Tests for cluster-routed shard placement: home-shard invariants after
// ingest/churn/migration, routed-vs-merged search quality, checkpoint
// byte-identity across thread counts and across a save/resume that lands
// mid-migration, and the GKMC v6 round trip (including its reserved
// params slot).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_projection.h"
#include "dataset/synthetic.h"
#include "stream/checkpoint.h"
#include "stream/sharded_online_knn_graph.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {
namespace {

constexpr std::size_t kDim = 12;
constexpr std::uint32_t kUnassigned = 0xffffffffu;

SyntheticData StreamData(std::size_t n, std::uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 15;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

StreamingGkMeansParams RoutedParams() {
  StreamingGkMeansParams p;
  p.k = 12;
  p.kappa = 10;
  p.graph.kappa = 10;
  p.graph.beam_width = 32;
  p.graph.num_seeds = 24;
  p.graph.seed = 77;
  p.graph.shards = 4;
  p.bootstrap_min = 400;
  p.seed = 9;
  p.routed_placement = true;
  return p;
}

void Feed(StreamingGkMeans& model, const Matrix& data, std::size_t window) {
  for (std::size_t begin = 0; begin < data.rows(); begin += window) {
    const std::size_t end = std::min(begin + window, data.rows());
    model.ObserveWindow(SliceRows(data, begin, end));
  }
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(StreamRoutingTest, RoutedPlacementKeepsPointsOnHomeShards) {
  StreamingGkMeans model(kDim, RoutedParams());
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());
  ASSERT_EQ(model.cluster_home().size(), model.params().k);
  for (std::uint32_t home : model.cluster_home()) {
    EXPECT_LT(home, model.graph().num_shards());
  }

  // Every labeled live point sits on its cluster's home shard (global ids
  // interleave as slot * S + shard, so shard == id % S). The per-window
  // migration sweep has an unbounded-enough budget here to finish.
  const auto expect_placed = [&] {
    const std::size_t S = model.graph().num_shards();
    for (std::uint32_t g = 0; g < model.labels().size(); ++g) {
      const std::uint32_t label = model.labels()[g];
      if (label == kUnassigned) continue;
      EXPECT_EQ(g % S, model.cluster_home()[label]) << "id " << g;
    }
  };
  expect_placed();

  // Churn: remove a third, stream fresh data (TTL-free removal path plus
  // rebalancer + migration), and the invariant must hold again.
  for (std::uint32_t g = 0; g < model.labels().size(); g += 3) {
    if (model.labels()[g] != kUnassigned) model.RemovePoint(g);
  }
  const SyntheticData more = StreamData(600, 31);
  Feed(model, more.vectors, 200);
  expect_placed();
}

TEST(StreamRoutingTest, RoutedSearchKeepsMergedQuality) {
  StreamingGkMeans model(kDim, RoutedParams());
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());
  ASSERT_NE(model.graph().router(), nullptr);

  const SyntheticData queries = StreamData(50, 99);
  SearchScratch scratch;
  // The batched routed call answers element-wise like per-query calls.
  const std::vector<std::vector<Neighbor>> batch =
      model.graph().SearchKnnBatchRouted(queries.vectors, 10, scratch);
  ASSERT_EQ(batch.size(), queries.vectors.rows());
  std::size_t hits = 0, want = 0;
  for (std::size_t q = 0; q < queries.vectors.rows(); ++q) {
    const float* x = queries.vectors.Row(q);
    const std::vector<Neighbor> merged = model.graph().SearchKnn(x, 10, scratch);
    const std::vector<Neighbor> routed =
        model.graph().SearchKnnRouted(x, 10, scratch);
    EXPECT_EQ(routed, batch[q]) << "query " << q;
    ASSERT_FALSE(routed.empty());
    for (std::size_t i = 1; i < routed.size(); ++i) {
      EXPECT_LE(routed[i - 1].dist, routed[i].dist);
    }
    want += merged.size();
    for (const Neighbor& m : merged) {
      for (const Neighbor& r : routed) {
        if (r.id == m.id) {
          ++hits;
          break;
        }
      }
    }
  }
  // The single-shard fast path may legitimately miss cross-cluster
  // neighbors the merged fan-out sees; the margin-guarded spill keeps the
  // overlap high.
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(want), 0.8);
  EXPECT_GT(model.graph().route_hits(), 0u);
  EXPECT_GT(model.graph().route_spills(), 0u);
}

TEST(StreamRoutingTest, RoutedCheckpointBytesIdenticalAcrossThreadCounts) {
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p1 = RoutedParams();
  p1.ingest_threads = 1;
  StreamingGkMeansParams p4 = RoutedParams();
  p4.ingest_threads = 4;

  StreamingGkMeans a(kDim, p1);
  StreamingGkMeans b(kDim, p4);
  Feed(a, data.vectors, 200);
  Feed(b, data.vectors, 200);
  ASSERT_TRUE(a.bootstrapped());

  const std::string pa = TempPath("routed_t1.ckpt");
  const std::string pb = TempPath("routed_t4.ckpt");
  SaveStreamCheckpoint(pa, a);
  SaveStreamCheckpoint(pb, b);
  const std::string bytes_a = ReadFileBytes(pa);
  EXPECT_EQ(FileVersion(bytes_a), 6u);
  // ingest_threads is a pure execution knob (and deliberately not
  // persisted); placement, rebalancing and migration are functions of
  // checkpointed state only, so the files agree byte for byte.
  EXPECT_EQ(bytes_a, ReadFileBytes(pb));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(StreamRoutingTest, RoutedCheckpointBytesIdenticalAcrossMidMigrationResume) {
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p = RoutedParams();
  // A tiny per-window budget leaves migrations outstanding at almost any
  // cut point, so the resume below lands mid-migration by construction.
  p.migrate_budget = 2;

  StreamingGkMeans uninterrupted(kDim, p);
  Feed(uninterrupted, data.vectors, 200);

  StreamingGkMeans first_half(kDim, p);
  Feed(first_half, SliceRows(data.vectors, 0, 800), 200);
  const std::string mid = TempPath("routed_mid.ckpt");
  SaveStreamCheckpoint(mid, first_half);
  StreamingGkMeans resumed = LoadStreamCheckpoint(mid);
  Feed(resumed, SliceRows(data.vectors, 800, 1600), 200);

  const std::string pa = TempPath("routed_full.ckpt");
  const std::string pb = TempPath("routed_resumed.ckpt");
  SaveStreamCheckpoint(pa, uninterrupted);
  SaveStreamCheckpoint(pb, resumed);
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb));
  std::remove(mid.c_str());
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(StreamRoutingTest, V6RoundTripRestoresRoutingState) {
  StreamingGkMeansParams p = RoutedParams();
  p.spill_margin = 0.5;
  p.rebalance_threshold = 0.25;
  p.migrate_budget = 512;
  StreamingGkMeans model(kDim, p);
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());

  const std::string path = TempPath("routed_v6.ckpt");
  SaveStreamCheckpoint(path, model);
  const std::string original = ReadFileBytes(path);
  EXPECT_EQ(FileVersion(original), 6u);

  // Params field 26 is reserved: it held the read-replica count in files
  // written before the replica layer was removed. It sits after the 8-byte
  // header, 21 eight-byte fields, the u8 routed flag and three more
  // eight-byte fields. A file carrying 2 there must still load.
  constexpr std::size_t kReservedOffset = 8 + 21 * 8 + 1 + 3 * 8;
  std::uint64_t slot = 0;
  std::memcpy(&slot, original.data() + kReservedOffset, sizeof(slot));
  ASSERT_EQ(slot, 0u);
  std::string legacy = original;
  slot = 2;
  std::memcpy(legacy.data() + kReservedOffset, &slot, sizeof(slot));
  const std::string legacy_path = TempPath("routed_v6_legacy.ckpt");
  std::FILE* f = std::fopen(legacy_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(legacy.data(), 1, legacy.size(), f), legacy.size());
  std::fclose(f);

  StreamingGkMeans back = LoadStreamCheckpoint(legacy_path);
  EXPECT_TRUE(back.params().routed_placement);
  EXPECT_EQ(back.params().spill_margin, 0.5);
  EXPECT_EQ(back.params().rebalance_threshold, 0.25);
  EXPECT_EQ(back.params().migrate_budget, 512u);
  EXPECT_EQ(back.cluster_home(), model.cluster_home());
  EXPECT_EQ(back.labels(), model.labels());

  // Per-mode adaptive seed budgets survive per shard.
  for (std::size_t s = 0; s < model.graph().num_shards(); ++s) {
    const std::vector<AdaptiveSeedState> want =
        model.graph().shard(s).mode_seed_states();
    const std::vector<AdaptiveSeedState> got =
        back.graph().shard(s).mode_seed_states();
    ASSERT_EQ(want.size(), got.size()) << "shard " << s;
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(want[m].live_seeds, got[m].live_seeds);
      EXPECT_EQ(want[m].fail_ewma, got[m].fail_ewma);
      EXPECT_EQ(want[m].audit_tick, got[m].audit_tick);
    }
  }

  // Re-saving the restored model reproduces the original file byte for
  // byte, with 0 back in the reserved slot.
  const std::string again = TempPath("routed_v6_again.ckpt");
  SaveStreamCheckpoint(again, back);
  EXPECT_EQ(ReadFileBytes(again), original);
  std::remove(path.c_str());
  std::remove(legacy_path.c_str());
  std::remove(again.c_str());
}

}  // namespace
}  // namespace gkm
