// Copyright 2026 The gkmeans Authors.
// Tests for the sharded online graph: global-id arithmetic, deterministic
// content-hash partitioning, S=1 delegation equivalence, multi-writer
// determinism across pool thread counts, cross-shard search merging, and
// removal/compaction through the global-id facade (a batch removal call
// equals one-element calls, byte for byte).

#include "stream/sharded_online_knn_graph.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "graph/brute_force.h"

namespace gkm {
namespace {

constexpr std::size_t kDim = 12;

SyntheticData Data(std::size_t n, std::uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 8;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

OnlineGraphParams SmallParams(std::size_t shards) {
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 24;
  p.num_seeds = 16;
  p.bootstrap = 64;
  p.seed = 11;
  p.shards = shards;
  return p;
}

void Ingest(ShardedOnlineKnnGraph& graph, const Matrix& rows,
            ThreadPool* pool, std::size_t window = 200) {
  for (std::size_t b = 0; b < rows.rows(); b += window) {
    graph.InsertBatch(SliceRows(rows, b, std::min(b + window, rows.rows())),
                      pool);
  }
}

TEST(ShardedOnlineKnnGraphTest, GlobalIdRoundTrips) {
  for (const std::size_t shards : {1u, 2u, 5u}) {
    for (const std::uint32_t g : {0u, 1u, 7u, 12345u}) {
      const GlobalId id = GlobalId::Split(g, shards);
      EXPECT_LT(id.shard, shards);
      EXPECT_EQ(GlobalId::Join(id.shard, id.slot, shards), g);
    }
  }
}

TEST(ShardedOnlineKnnGraphTest, ShardAssignmentIsDeterministicContentHash) {
  const SyntheticData data = Data(600);
  ShardedOnlineKnnGraph a(kDim, SmallParams(4));
  ShardedOnlineKnnGraph b(kDim, SmallParams(4));
  std::set<std::uint32_t> seen;
  for (std::size_t r = 0; r < data.vectors.rows(); ++r) {
    const std::uint32_t s = a.ShardOf(data.vectors.Row(r));
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, b.ShardOf(data.vectors.Row(r)));  // instance-independent
    seen.insert(s);
  }
  // A content hash over hundreds of rows must touch every shard.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardedOnlineKnnGraphTest, SingleShardMatchesUnshardedGraph) {
  // S=1 is a pure delegation: every edge and every search result must be
  // identical to a raw OnlineKnnGraph fed the same stream.
  const SyntheticData data = Data(500);
  OnlineKnnGraph raw(kDim, SmallParams(1));
  ShardedOnlineKnnGraph sharded(kDim, SmallParams(1));
  for (std::size_t b = 0; b < 500; b += 100) {
    raw.InsertBatch(SliceRows(data.vectors, b, b + 100), nullptr);
  }
  Ingest(sharded, data.vectors, nullptr, 100);

  ASSERT_EQ(sharded.size(), raw.size());
  EXPECT_EQ(sharded.num_alive(), raw.num_alive());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(sharded.shard(0).graph().SortedNeighbors(i),
              raw.graph().SortedNeighbors(i));
  }
  SearchScratch scratch;
  const SyntheticData queries = Data(16, 99);
  for (std::size_t q = 0; q < 16; ++q) {
    EXPECT_EQ(sharded.SearchKnn(queries.vectors.Row(q), 10, scratch),
              raw.SearchKnn(queries.vectors.Row(q), 10, scratch));
  }
}

TEST(ShardedOnlineKnnGraphTest, InsertBatchAssignsConsistentGlobalIds) {
  const SyntheticData data = Data(400);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(3));
  std::vector<std::uint32_t> assigned;
  graph.InsertBatch(data.vectors, nullptr, nullptr, nullptr, &assigned);

  ASSERT_EQ(assigned.size(), 400u);
  std::set<std::uint32_t> unique(assigned.begin(), assigned.end());
  EXPECT_EQ(unique.size(), assigned.size());
  for (std::size_t r = 0; r < assigned.size(); ++r) {
    const std::uint32_t g = assigned[r];
    // The id's shard component matches the content hash, and the stored
    // vector is the row that was inserted.
    EXPECT_EQ(g % 3, graph.ShardOf(data.vectors.Row(r)));
    EXPECT_TRUE(graph.IsAlive(g));
    const float* stored = graph.Point(g);
    for (std::size_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(stored[j], data.vectors.Row(r)[j]);
    }
  }
  EXPECT_EQ(graph.num_alive(), 400u);
  EXPECT_GE(graph.size(), 400u);
}

TEST(ShardedOnlineKnnGraphTest, MultiWriterIngestIsThreadCountInvariant) {
  // The determinism contract at S=4: pool size (and the concurrent shard
  // writers) must not change a single committed edge.
  const SyntheticData data = Data(1200);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ShardedOnlineKnnGraph serial(kDim, SmallParams(4));
  ShardedOnlineKnnGraph parallel(kDim, SmallParams(4));
  Ingest(serial, data.vectors, &pool1);
  Ingest(parallel, data.vectors, &pool4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < 4; ++s) {
    const OnlineKnnGraph& a = serial.shard(s);
    const OnlineKnnGraph& b = parallel.shard(s);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.points() == b.points());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.graph().SortedNeighbors(i), b.graph().SortedNeighbors(i));
    }
  }
}

TEST(ShardedOnlineKnnGraphTest, CrossShardSearchMergesExactlyBelowBootstrap) {
  // While every shard is below its brute-force bootstrap threshold the
  // per-shard searches are exact scans, so the merged cross-shard result
  // must equal global brute force — the merge itself is provably lossless.
  const SyntheticData data = Data(150);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(3));
  std::vector<std::uint32_t> assigned;
  graph.InsertBatch(data.vectors, nullptr, nullptr, nullptr, &assigned);

  const SyntheticData queries = Data(20, 31);
  const std::vector<std::vector<Neighbor>> truth =
      BruteForceSearch(data.vectors, queries.vectors, 10);
  SearchScratch scratch;
  for (std::size_t q = 0; q < 20; ++q) {
    const std::vector<Neighbor> got =
        graph.SearchKnn(queries.vectors.Row(q), 10, scratch);
    ASSERT_EQ(got.size(), truth[q].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Brute-force ids are input-row ids; map through the assignment.
      EXPECT_EQ(got[i].id, assigned[truth[q][i].id]);
      EXPECT_EQ(got[i].dist, truth[q][i].dist);
    }
  }
}

TEST(ShardedOnlineKnnGraphTest, BatchSearchMatchesPerQuerySearch) {
  const SyntheticData data = Data(900);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(4));
  Ingest(graph, data.vectors, nullptr);
  const SyntheticData queries = Data(32, 77);
  SearchScratch scratch;
  const auto batched = graph.SearchKnnBatch(queries.vectors, 10, scratch);
  ASSERT_EQ(batched.size(), 32u);
  for (std::size_t q = 0; q < 32; ++q) {
    EXPECT_EQ(batched[q], graph.SearchKnn(queries.vectors.Row(q), 10, scratch));
  }
}

TEST(ShardedOnlineKnnGraphTest, RemovalAndSlotReuseWorkThroughGlobalIds) {
  const SyntheticData data = Data(800);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(4));
  Ingest(graph, data.vectors, nullptr);
  const std::size_t arena_before = graph.size();

  // Remove ~30% of live points by global id, in one call.
  std::vector<std::uint32_t> removed;
  for (std::uint32_t g = 0; g < graph.size(); ++g) {
    if (g % 10 < 3 && graph.IsAlive(g)) removed.push_back(g);
  }
  graph.Remove(removed);
  EXPECT_EQ(graph.num_alive(), 800 - removed.size());
  for (const std::uint32_t g : removed) EXPECT_FALSE(graph.IsAlive(g));

  // Tombstoned points must drop out of search results immediately.
  SearchScratch scratch;
  const SyntheticData queries = Data(16, 3);
  for (std::size_t q = 0; q < 16; ++q) {
    for (const Neighbor& nb :
         graph.SearchKnn(queries.vectors.Row(q), 10, scratch)) {
      EXPECT_TRUE(graph.IsAlive(nb.id));
    }
  }

  // Purge + backfill: freed slots are reused shard-locally. The backfill
  // hashes to shards independently of where the removals landed, so the
  // global bound may grow by the (small) cross-shard imbalance — but far
  // less than the no-reuse growth of removed.size() slots.
  graph.CompactTombstones();
  const SyntheticData refill = Data(removed.size(), 1234);
  Ingest(graph, refill.vectors, nullptr);
  EXPECT_EQ(graph.num_alive(), 800u);
  EXPECT_LT(graph.size(), arena_before + removed.size() / 2);
}

TEST(ShardedOnlineKnnGraphTest, TouchedAndRepairedIdsAreGlobalSortedUnique) {
  const SyntheticData data = Data(600);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(3));
  Ingest(graph, SliceRows(data.vectors, 0, 500), nullptr);

  std::vector<std::uint32_t> touched;
  graph.InsertBatch(SliceRows(data.vectors, 500, 600), nullptr, &touched);
  EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()),
            touched.end());
  for (const std::uint32_t g : touched) EXPECT_LT(g, graph.size());

  std::vector<std::uint32_t> doomed;
  for (std::uint32_t g = 0; g < 40; ++g) {
    if (graph.IsAlive(g)) doomed.push_back(g);
  }
  std::vector<std::uint32_t> repaired;
  graph.Remove(doomed, &repaired);
  EXPECT_FALSE(repaired.empty());
  EXPECT_TRUE(std::is_sorted(repaired.begin(), repaired.end()));
  EXPECT_EQ(std::adjacent_find(repaired.begin(), repaired.end()),
            repaired.end());
  for (const std::uint32_t g : repaired) EXPECT_LT(g, graph.size());
}

// Every shard's adjacency (KnnGraph::SaveTo bytes) and removal
// bookkeeping, concatenated: the state a removal sequence can change.
std::string RemovalStateBytes(const ShardedOnlineKnnGraph& graph) {
  std::string out;
  for (std::size_t s = 0; s < graph.num_shards(); ++s) {
    std::FILE* f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    graph.shard(s).graph().SaveTo(f);
    std::rewind(f);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
    std::fclose(f);
    const RemovalState rs = graph.shard(s).removal_state();
    for (const auto* ids : {&rs.pending_dead, &rs.free_slots}) {
      out.append(reinterpret_cast<const char*>(ids->data()),
                 ids->size() * sizeof(std::uint32_t));
      out.push_back('|');
    }
    out.append(reinterpret_cast<const char*>(&rs.last_inserted),
               sizeof(rs.last_inserted));
  }
  return out;
}

// One batch Remove call and one-element calls over the same ids leave every
// shard byte-identical and report the same repaired set. The second round
// is long enough that each shard's 1/4-arena purge fires partway through
// the batch, so a purge that ran once per call instead of once per id
// would show up here.
TEST(ShardedOnlineKnnGraphTest, BatchRemovalMatchesOneElementCalls) {
  const SyntheticData data = Data(900);
  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    ShardedOnlineKnnGraph batch(kDim, SmallParams(shards));
    ShardedOnlineKnnGraph single(kDim, SmallParams(shards));
    Ingest(batch, data.vectors, nullptr);
    Ingest(single, data.vectors, nullptr);
    // Compared with ==, not EXPECT_EQ: a mismatch would print the bytes.
    ASSERT_TRUE(RemovalStateBytes(batch) == RemovalStateBytes(single));

    for (const std::uint32_t stride : {17u, 2u}) {
      std::vector<std::uint32_t> ids;
      for (std::uint32_t g = 0; g < batch.size(); g += stride) {
        if (batch.IsAlive(g)) ids.push_back(g);
      }
      std::vector<std::uint32_t> batch_repaired;
      batch.Remove(ids, &batch_repaired);
      std::vector<std::uint32_t> single_repaired;
      for (const std::uint32_t g : ids) {
        std::vector<std::uint32_t> one;
        single.Remove({&g, 1}, &one);
        single_repaired.insert(single_repaired.end(), one.begin(), one.end());
      }
      std::sort(single_repaired.begin(), single_repaired.end());
      single_repaired.erase(
          std::unique(single_repaired.begin(), single_repaired.end()),
          single_repaired.end());
      EXPECT_FALSE(batch_repaired.empty());
      EXPECT_EQ(batch_repaired, single_repaired);
      EXPECT_TRUE(RemovalStateBytes(batch) == RemovalStateBytes(single))
          << "stride " << stride;
    }
    // Mid-batch purge: slots were freed, and tombstones removed after the
    // purge are still pending.
    for (std::size_t s = 0; s < shards; ++s) {
      const RemovalState rs = batch.shard(s).removal_state();
      EXPECT_FALSE(rs.free_slots.empty()) << "shard " << s;
      EXPECT_FALSE(rs.pending_dead.empty()) << "shard " << s;
    }
  }
}

TEST(ShardedOnlineKnnGraphDeathTest, RemoveRejectsUnsortedOrRepeatedIds) {
  const SyntheticData data = Data(200);
  for (const std::size_t shards : {1u, 3u}) {
    ShardedOnlineKnnGraph graph(kDim, SmallParams(shards));
    Ingest(graph, data.vectors, nullptr);
    const std::vector<std::uint32_t> repeated = {5, 5};
    EXPECT_DEATH(graph.Remove(repeated), "strictly ascending");
    // At S=3 the slots ascend within each shard (6 is shard 0 slot 2, 1 is
    // shard 1 slot 0), but the global order is wrong.
    const std::vector<std::uint32_t> descending = {6, 1};
    EXPECT_DEATH(graph.Remove(descending), "strictly ascending");
  }
}

TEST(ShardedOnlineKnnGraphTest, ForeignShardSeedHintsAreDroppedSafely) {
  // Hints are global ids; rows only accept hints living in their own
  // shard. Passing every inserted id as a hint for every row must neither
  // crash nor perturb determinism.
  const SyntheticData data = Data(400);
  ShardedOnlineKnnGraph plain(kDim, SmallParams(2));
  ShardedOnlineKnnGraph hinted(kDim, SmallParams(2));
  std::vector<std::uint32_t> assigned;
  plain.InsertBatch(SliceRows(data.vectors, 0, 300), nullptr, nullptr,
                    nullptr, &assigned);
  hinted.InsertBatch(SliceRows(data.vectors, 0, 300), nullptr);

  const Matrix tail = SliceRows(data.vectors, 300, 400);
  const std::vector<std::vector<std::uint32_t>> hints(
      tail.rows(), std::vector<std::uint32_t>(assigned.begin(),
                                              assigned.begin() + 8));
  hinted.InsertBatch(tail, nullptr, nullptr, &hints);
  EXPECT_EQ(hinted.num_alive(), 400u);
}

}  // namespace
}  // namespace gkm
