// Copyright 2026 The gkmeans Authors.
// Tests for the incremental KNN graph: recall of online inserts against the
// exact graph, deterministic construction, bootstrap/brute-force phase, and
// search behavior.

#include "stream/online_knn_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"

namespace gkm {
namespace {

SyntheticData StreamData(std::size_t n, std::uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = 16;
  spec.modes = 20;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

OnlineKnnGraph InsertAll(const Matrix& data, const OnlineGraphParams& p) {
  OnlineKnnGraph g(data.cols(), p);
  for (std::size_t i = 0; i < data.rows(); ++i) g.Insert(data.Row(i));
  return g;
}

TEST(OnlineKnnGraphTest, SizeAndDimTrackInserts) {
  const SyntheticData data = StreamData(50);
  OnlineGraphParams p;
  p.kappa = 5;
  p.beam_width = 16;
  OnlineKnnGraph g(16, p);
  EXPECT_EQ(g.size(), 0u);
  std::uint32_t id0 = g.Insert(data.vectors.Row(0));
  std::uint32_t id1 = g.Insert(data.vectors.Row(1));
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.dim(), 16u);
  EXPECT_EQ(g.points().rows(), 2u);
  EXPECT_EQ(g.graph().num_nodes(), 2u);
}

TEST(OnlineKnnGraphTest, BruteForcePhaseIsExact) {
  // While the corpus is below the bootstrap threshold every insert scans
  // everything, so the graph must equal the exact KNN graph.
  const SyntheticData data = StreamData(100);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 16;
  p.bootstrap = 200;  // never leaves the exact phase
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  const KnnGraph truth = BruteForceGraph(data.vectors, 8);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(g.graph().SortedNeighbors(i), truth.SortedNeighbors(i))
        << "node " << i;
  }
}

TEST(OnlineKnnGraphTest, OnlineInsertRecallAtLeast08On2kPoints) {
  const SyntheticData data = StreamData(2000);
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 48;
  p.num_seeds = 64;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  const KnnGraph truth = BruteForceGraph(data.vectors, 10);
  const double recall = GraphRecallAtK(g.graph(), truth, 10);
  EXPECT_GE(recall, 0.8) << "online graph recall@10 too low";
  EXPECT_GE(GraphRecallAt1(g.graph(), truth), 0.8);
  // Online insertion fills every list to capacity on a corpus this dense.
  EXPECT_EQ(g.graph().NumEdges(), 2000u * 10u);
}

TEST(OnlineKnnGraphTest, DeterministicForAFixedInsertionSequence) {
  const SyntheticData data = StreamData(600);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  const OnlineKnnGraph a = InsertAll(data.vectors, p);
  const OnlineKnnGraph b = InsertAll(data.vectors, p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.graph().SortedNeighbors(i), b.graph().SortedNeighbors(i));
  }
}

TEST(OnlineKnnGraphTest, TouchedReportsRepairedNodes) {
  const SyntheticData data = StreamData(300);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  OnlineKnnGraph g(16, p);
  for (std::size_t i = 0; i + 1 < data.vectors.rows(); ++i) {
    g.Insert(data.vectors.Row(i));
  }
  std::vector<std::uint32_t> touched;
  const std::uint32_t id = g.Insert(data.vectors.Row(data.vectors.rows() - 1),
                                    &touched);
  EXPECT_FALSE(touched.empty());
  // Touched ids are pre-existing nodes, and the nodes that adopted the new
  // point are all among them.
  for (const std::uint32_t t : touched) ASSERT_LT(t, id);
  for (std::size_t i = 0; i < id; ++i) {
    bool has_edge = false;
    for (const Neighbor& nb : g.graph().NeighborsOf(i)) {
      has_edge = has_edge || nb.id == id;
    }
    if (!has_edge) continue;
    const bool reported =
        std::find(touched.begin(), touched.end(), i) != touched.end();
    EXPECT_TRUE(reported) << "node " << i << " adopted the point unreported";
  }
}

TEST(OnlineKnnGraphTest, SearchKnnFindsTrueNearestOnExactPhase) {
  const SyntheticData data = StreamData(120);
  OnlineGraphParams p;
  p.kappa = 5;
  p.beam_width = 16;
  p.bootstrap = 200;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  // Query with a stored point: the point itself must come back first at
  // distance zero.
  const auto got = g.SearchKnn(data.vectors.Row(7), 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 7u);
  EXPECT_FLOAT_EQ(got[0].dist, 0.0f);
}

TEST(OnlineKnnGraphTest, RestoreFromPartsMatchesOriginal) {
  const SyntheticData data = StreamData(400);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  OnlineKnnGraph back(g.points(), g.graph(), p, g.rng_state(),
                      g.seed_state());
  ASSERT_EQ(back.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.graph().SortedNeighbors(i), g.graph().SortedNeighbors(i));
  }
  // Continued insertion behaves identically on both instances.
  const SyntheticData more = StreamData(50, 99);
  OnlineKnnGraph g2 = g;
  for (std::size_t i = 0; i < more.vectors.rows(); ++i) {
    g2.Insert(more.vectors.Row(i));
    back.Insert(more.vectors.Row(i));
  }
  for (std::size_t i = 0; i < g2.size(); ++i) {
    EXPECT_EQ(back.graph().SortedNeighbors(i), g2.graph().SortedNeighbors(i));
  }
}

TEST(OnlineKnnGraphTest, TouchedIsSortedAndDeduplicated) {
  // Every Update used to push its endpoint, so a node adopted during both
  // reverse repair and the local join appeared twice. The contract is now
  // sorted-unique output.
  const SyntheticData data = StreamData(500);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  OnlineKnnGraph g(16, p);
  for (std::size_t i = 0; i + 1 < data.vectors.rows(); ++i) {
    g.Insert(data.vectors.Row(i));
  }
  std::vector<std::uint32_t> touched;
  g.Insert(data.vectors.Row(data.vectors.rows() - 1), &touched);
  ASSERT_FALSE(touched.empty());
  EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
  EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()),
            touched.end());
}

TEST(OnlineKnnGraphTest, SearchScratchEpochWrapDoesNotDropCandidates) {
  // Regression: a wrapped u32 epoch re-issues old stamp values, so stale
  // entries would read as already-visited and the walk would silently
  // discard candidates. Prepare must zero the stamps on wrap.
  const SyntheticData data = StreamData(600);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);

  SearchScratch poisoned;
  poisoned.epoch = std::numeric_limits<std::uint32_t>::max();
  // Stale stamps that collide with the post-wrap epoch value (1) on every
  // node — without the wrap reset, the whole corpus looks visited.
  poisoned.stamp.assign(g.size(), 1u);
  const auto got = g.SearchKnn(data.vectors.Row(3), 5, poisoned);
  SearchScratch fresh;
  const auto want = g.SearchKnn(data.vectors.Row(3), 5, fresh);
  EXPECT_EQ(got, want);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_FLOAT_EQ(got[0].dist, 0.0f);
}

TEST(OnlineKnnGraphTest, SearchKnnScratchOverloadMatchesPlain) {
  const SyntheticData data = StreamData(800);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 32;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  SearchScratch scratch;
  for (std::size_t q = 0; q < 20; ++q) {
    EXPECT_EQ(g.SearchKnn(data.vectors.Row(q), 10, scratch),
              g.SearchKnn(data.vectors.Row(q), 10));
  }
}

TEST(OnlineKnnGraphTest, SearchKnnBatchMatchesPerQueryCalls) {
  const SyntheticData data = StreamData(900);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 32;
  const std::size_t nq = 50;
  const Matrix base = SliceRows(data.vectors, 0, data.vectors.rows() - nq);
  const Matrix queries =
      SliceRows(data.vectors, data.vectors.rows() - nq, data.vectors.rows());
  const OnlineKnnGraph g = InsertAll(base, p);

  SearchScratch scratch;
  const std::vector<std::vector<Neighbor>> batch =
      g.SearchKnnBatch(queries, 10, scratch);
  ASSERT_EQ(batch.size(), nq);
  for (std::size_t q = 0; q < nq; ++q) {
    EXPECT_EQ(batch[q], g.SearchKnn(queries.Row(q), 10)) << q;
  }
  // Plain overload (thread_local scratch) agrees too.
  EXPECT_EQ(g.SearchKnnBatch(queries, 10), batch);
}

TEST(OnlineKnnGraphTest, SearchKnnBatchEmptyAndBootstrapPhases) {
  OnlineGraphParams p;
  p.kappa = 4;
  p.beam_width = 8;
  p.bootstrap = 64;
  OnlineKnnGraph g(16, p);
  const SyntheticData data = StreamData(40);
  // Empty graph: every per-query result is empty.
  const auto empty = g.SearchKnnBatch(data.vectors, 5);
  ASSERT_EQ(empty.size(), data.vectors.rows());
  for (const auto& r : empty) EXPECT_TRUE(r.empty());
  // Bootstrap (brute-force) phase: batch equals per-query.
  for (std::size_t i = 0; i < 30; ++i) g.Insert(data.vectors.Row(i));
  const auto batch = g.SearchKnnBatch(data.vectors, 5);
  for (std::size_t q = 0; q < data.vectors.rows(); ++q) {
    EXPECT_EQ(batch[q], g.SearchKnn(data.vectors.Row(q), 5)) << q;
  }
}

TEST(OnlineKnnGraphTest, InsertBatchParallelMatchesSerialBitForBit) {
  // The batch ingest contract: the committed graph, RNG stream and
  // adaptive state are pure functions of the insertion sequence — thread
  // count must not perturb anything.
  const SyntheticData data = StreamData(1500);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 32;
  ThreadPool pool(4);

  OnlineKnnGraph serial(16, p);
  OnlineKnnGraph parallel(16, p);
  std::vector<std::uint32_t> touched_serial, touched_parallel;
  const std::size_t window = 500;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    const Matrix slice =
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows()));
    touched_serial.clear();
    touched_parallel.clear();
    serial.InsertBatch(slice, nullptr, &touched_serial);
    parallel.InsertBatch(slice, &pool, &touched_parallel);
    EXPECT_EQ(touched_serial, touched_parallel);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.graph().SortedNeighbors(i),
              parallel.graph().SortedNeighbors(i))
        << "node " << i;
  }
  const RngSnapshot rs = serial.rng_state();
  const RngSnapshot rp = parallel.rng_state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rs.s[i], rp.s[i]);
  EXPECT_EQ(serial.seed_state().live_seeds, parallel.seed_state().live_seeds);
  EXPECT_EQ(serial.seed_state().audit_tick, parallel.seed_state().audit_tick);
  EXPECT_DOUBLE_EQ(serial.seed_state().fail_ewma,
                   parallel.seed_state().fail_ewma);
}

TEST(OnlineKnnGraphTest, InsertBatchExactPhaseMatchesSequentialInserts) {
  // Below the bootstrap threshold the batch path degenerates to one-row
  // sub-batches, so it must equal per-point insertion exactly.
  const SyntheticData data = StreamData(100);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 16;
  p.bootstrap = 200;
  OnlineKnnGraph batched(16, p);
  ThreadPool pool(4);
  batched.InsertBatch(data.vectors, &pool);
  const OnlineKnnGraph sequential = InsertAll(data.vectors, p);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched.graph().SortedNeighbors(i),
              sequential.graph().SortedNeighbors(i));
  }
}

TEST(OnlineKnnGraphTest, BatchIngestKeepsRecallAtLeast08) {
  // Quality gate for the snapshot-walk + intra-batch path: windows of 500
  // over a multi-modal corpus must still produce a high-recall graph.
  const SyntheticData data = StreamData(2000);
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 48;
  p.num_seeds = 64;
  ThreadPool pool(4);
  OnlineKnnGraph g(16, p);
  const std::size_t window = 500;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    g.InsertBatch(
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows())),
        &pool);
  }
  const KnnGraph truth = BruteForceGraph(data.vectors, 10);
  EXPECT_GE(GraphRecallAtK(g.graph(), truth, 10), 0.8);
}

TEST(OnlineKnnGraphTest, RemoveTombstonesNodeAndSearchSkipsIt) {
  const SyntheticData data = StreamData(800);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 32;
  OnlineKnnGraph g = InsertAll(data.vectors, p);
  ASSERT_EQ(g.num_alive(), 800u);

  // Remove every 5th point; searches must never return a removed id.
  std::vector<bool> removed(800, false);
  for (std::uint32_t id = 0; id < 800; id += 5) {
    g.Remove({&id, 1});
    removed[id] = true;
  }
  EXPECT_EQ(g.size(), 800u);  // arena does not shrink
  EXPECT_EQ(g.num_alive(), 800u - 160u);
  EXPECT_FALSE(g.IsAlive(0));
  EXPECT_TRUE(g.IsAlive(1));
  SearchScratch scratch;
  for (std::size_t q = 0; q < 800; q += 7) {
    const auto got = g.SearchKnn(data.vectors.Row(q), 10, scratch);
    ASSERT_FALSE(got.empty());
    for (const Neighbor& nb : got) {
      EXPECT_FALSE(removed[nb.id]) << "search returned removed id " << nb.id;
    }
  }
}

TEST(OnlineKnnGraphTest, RemoveReportsRepairedNeighborhood) {
  const SyntheticData data = StreamData(600);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  OnlineKnnGraph g = InsertAll(data.vectors, p);
  // One batch call over ids whose lists do not name each other, so no
  // earlier repair edits a later id's list: each id's repair ring is its
  // list as it stands before the call.
  const std::vector<std::uint32_t> dead = {123, 321, 456};
  std::vector<std::vector<std::uint32_t>> rings;
  for (const std::uint32_t x : dead) {
    std::vector<std::uint32_t> ring;
    for (const Neighbor& nb : g.graph().NeighborsOf(x)) {
      ASSERT_EQ(std::count(dead.begin(), dead.end(), nb.id), 0);
      ring.push_back(nb.id);
    }
    rings.push_back(ring);
  }
  std::vector<std::uint32_t> repaired;
  g.Remove(dead, &repaired);
  // The dead nodes' former neighbors were cross-linked (sorted unique
  // over the whole batch).
  EXPECT_FALSE(repaired.empty());
  EXPECT_TRUE(std::is_sorted(repaired.begin(), repaired.end()));
  EXPECT_EQ(std::adjacent_find(repaired.begin(), repaired.end()),
            repaired.end());
  for (const std::uint32_t r : repaired) {
    EXPECT_TRUE(g.IsAlive(r));
    bool in_ring = false;
    for (const auto& ring : rings) {
      in_ring = in_ring || std::count(ring.begin(), ring.end(), r) > 0;
    }
    EXPECT_TRUE(in_ring) << r << " was repaired outside every ring";
  }
  // Repair removed each ring's edges to its dead node outright.
  for (std::size_t i = 0; i < dead.size(); ++i) {
    for (const std::uint32_t r : rings[i]) {
      for (const Neighbor& nb : g.graph().NeighborsOf(r)) {
        EXPECT_NE(nb.id, dead[i]);
      }
    }
  }
}

TEST(OnlineKnnGraphTest, CompactionReclaimsSlotsAndKeepsArenaDense) {
  const SyntheticData data = StreamData(400);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  OnlineKnnGraph g = InsertAll(data.vectors, p);

  // Enough removals to cross the automatic purge threshold (>= 64 pending
  // and >= 1/4 of the arena).
  for (std::uint32_t id = 0; id < 300; id += 2) g.Remove({&id, 1});
  RemovalState rs = g.removal_state();
  EXPECT_FALSE(rs.free_slots.empty()) << "purge should have triggered";
  // After an explicit compaction every tombstone is reclaimed and no live
  // list references a dead slot.
  g.CompactTombstones();
  rs = g.removal_state();
  EXPECT_TRUE(rs.pending_dead.empty());
  EXPECT_EQ(rs.free_slots.size(), 150u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (!g.IsAlive(static_cast<std::uint32_t>(i))) {
      EXPECT_TRUE(g.graph().NeighborsOf(i).empty());
      continue;
    }
    for (const Neighbor& nb : g.graph().NeighborsOf(i)) {
      EXPECT_TRUE(g.IsAlive(nb.id));
    }
  }

  // Re-inserts reuse the freed slots lowest-first: the arena stays dense.
  const SyntheticData more = StreamData(150, 77);
  std::vector<std::uint32_t> assigned;
  g.InsertBatch(more.vectors, nullptr, nullptr, nullptr, &assigned);
  EXPECT_EQ(g.size(), 400u);
  EXPECT_EQ(g.num_alive(), 400u);
  ASSERT_EQ(assigned.size(), 150u);
  EXPECT_EQ(assigned.front(), 0u);  // lowest free slot first
  EXPECT_TRUE(g.IsAlive(assigned.front()));
}

TEST(OnlineKnnGraphTest, ChurnIsDeterministicAcrossThreadCounts) {
  // The determinism contract extended to deletion: an identical interleaved
  // insert/remove sequence commits an identical graph and removal state
  // whether walks run serial or on a pool.
  const SyntheticData data = StreamData(1200);
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 32;
  ThreadPool pool(4);
  OnlineKnnGraph serial(16, p);
  OnlineKnnGraph parallel(16, p);

  const std::size_t window = 300;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    const Matrix slice =
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows()));
    serial.InsertBatch(slice, nullptr);
    parallel.InsertBatch(slice, &pool);
    // Remove a deterministic third of the window just ingested.
    for (std::uint32_t id = 0; id < serial.size(); ++id) {
      if (id % 9 == 3 && serial.IsAlive(id)) {
        serial.Remove({&id, 1});
        parallel.Remove({&id, 1});
      }
    }
  }
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.num_alive(), parallel.num_alive());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.graph().SortedNeighbors(i),
              parallel.graph().SortedNeighbors(i))
        << "node " << i;
  }
  const RemovalState rs = serial.removal_state();
  const RemovalState rp = parallel.removal_state();
  EXPECT_EQ(rs.pending_dead, rp.pending_dead);
  EXPECT_EQ(rs.free_slots, rp.free_slots);
  EXPECT_EQ(rs.last_inserted, rp.last_inserted);
}

TEST(OnlineKnnGraphTest, RestoreFromPartsWithRemovalStateContinuesExact) {
  const SyntheticData data = StreamData(500);
  OnlineGraphParams p;
  p.kappa = 6;
  p.beam_width = 24;
  OnlineKnnGraph g = InsertAll(data.vectors, p);
  for (std::uint32_t id = 0; id < 200; id += 3) g.Remove({&id, 1});

  OnlineKnnGraph back(g.points(), g.graph(), p, g.rng_state(), g.seed_state(),
                      g.removal_state());
  ASSERT_EQ(back.size(), g.size());
  EXPECT_EQ(back.num_alive(), g.num_alive());

  // Continued churn behaves identically on both instances.
  const SyntheticData more = StreamData(120, 99);
  for (std::size_t i = 0; i < more.vectors.rows(); ++i) {
    g.Insert(more.vectors.Row(i));
    back.Insert(more.vectors.Row(i));
    if (i % 4 == 0) {
      const std::uint32_t victim = static_cast<std::uint32_t>(i) * 2 + 1;
      if (g.IsAlive(victim)) {
        g.Remove({&victim, 1});
        back.Remove({&victim, 1});
      }
    }
  }
  ASSERT_EQ(back.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.graph().SortedNeighbors(i), g.graph().SortedNeighbors(i));
  }
  const RemovalState ra = g.removal_state();
  const RemovalState rb = back.removal_state();
  EXPECT_EQ(ra.pending_dead, rb.pending_dead);
  EXPECT_EQ(ra.free_slots, rb.free_slots);
  EXPECT_EQ(ra.last_inserted, rb.last_inserted);
}

TEST(OnlineKnnGraphTest, ChurnKeepsServingRecall) {
  // Remove 30% of a multi-modal corpus, backfill with fresh points, and
  // require the serving path to keep recall@10 >= 0.8 against brute force
  // over the survivors — the repair join plus reverse-edge refill must
  // hold the graph together through churn.
  const SyntheticData data = StreamData(2000);
  const SyntheticData queries = StreamData(100, 321);
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 48;
  p.num_seeds = 64;
  ThreadPool pool(4);
  OnlineKnnGraph g(16, p);
  const std::size_t window = 500;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    g.InsertBatch(
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows())),
        &pool);
  }
  for (std::uint32_t id = 0; id < 2000; ++id) {
    if (id % 10 < 3) g.Remove({&id, 1});
  }
  const SyntheticData refill = StreamData(600, 654);
  g.InsertBatch(refill.vectors, &pool);
  EXPECT_EQ(g.num_alive(), 2000u);

  // Brute-force truth over the live points, mapped back to graph ids.
  std::vector<std::uint32_t> alive_ids;
  Matrix alive(0, 16);
  for (std::uint32_t id = 0; id < g.size(); ++id) {
    if (!g.IsAlive(id)) continue;
    alive_ids.push_back(id);
    alive.AppendRow(g.points().Row(id));
  }
  const auto truth = BruteForceSearch(alive, queries.vectors, 10);
  std::size_t hit = 0, want = 0;
  SearchScratch scratch;
  for (std::size_t q = 0; q < queries.vectors.rows(); ++q) {
    const auto got = g.SearchKnn(queries.vectors.Row(q), 10, scratch);
    want += truth[q].size();
    for (const Neighbor& t : truth[q]) {
      for (const Neighbor& r : got) {
        if (r.id == alive_ids[t.id]) {
          ++hit;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(hit) / static_cast<double>(want);
  EXPECT_GE(recall, 0.8) << "post-churn serving recall too low";
}

TEST(OnlineKnnGraphTest, AdaptiveSeedsStayWithinPolicyBounds) {
  const SyntheticData data = StreamData(2000);
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 48;
  p.num_seeds = 64;
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  const AdaptiveSeedState s = g.seed_state();
  EXPECT_GE(s.live_seeds, 8u);          // policy floor
  EXPECT_LE(s.live_seeds, 64u * 4u);    // policy ceiling
  EXPECT_EQ(s.audit_tick, 2000u);       // one tick per insert
  EXPECT_GE(s.fail_ewma, 0.0);
  EXPECT_LE(s.fail_ewma, 1.0);
  EXPECT_EQ(g.live_num_seeds(), s.live_seeds);
}

// ---------------------------------------------------------------------------
// SQ8 arena storage mode.

OnlineGraphParams Sq8Params() {
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 48;
  p.num_seeds = 64;
  p.storage = StorageMode::kSq8;
  return p;
}

TEST(OnlineKnnGraphTest, Sq8ArenaTrainsAtBootstrapAndDropsFp32Rows) {
  const SyntheticData data = StreamData(400);
  OnlineGraphParams p = Sq8Params();
  p.bootstrap = 128;
  OnlineKnnGraph g(16, p);
  for (std::size_t i = 0; i <= 128; ++i) g.Insert(data.vectors.Row(i));
  // Training triggers on the first commit that grows past the bootstrap
  // window; from then on the fp32 staging rows are gone.
  ASSERT_TRUE(g.sq8_trained());
  EXPECT_EQ(g.points().rows(), 0u);
  EXPECT_EQ(g.sq8_codes().size(), 129u * 16u);
  EXPECT_EQ(g.sq8_norms().size(), 129u);
  EXPECT_EQ(g.arena_bytes_per_point(), 16u + sizeof(float));
  for (std::size_t i = 129; i < data.vectors.rows(); ++i) {
    g.Insert(data.vectors.Row(i));
  }
  EXPECT_EQ(g.sq8_norms().size(), 400u);

  // PointPtr serves dequantized coordinates within half a quantization step
  // for rows inside the training window (later rows may clamp to the
  // trained range, so their error is unbounded by the step size).
  const Sq8Quantizer& qz = g.sq8_quantizer();
  for (std::uint32_t id = 0; id < 129; id += 13) {
    const float* dec = g.PointPtr(id);
    const float* orig = data.vectors.Row(id);
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_LE(std::abs(dec[j] - orig[j]), 0.5f * qz.scale[j] + 1e-5f)
          << "slot " << id << " dim " << j;
    }
  }
}

TEST(OnlineKnnGraphTest, Sq8RecallAtLeast08On2kPoints) {
  const SyntheticData data = StreamData(2000);
  OnlineGraphParams p = Sq8Params();
  p.beam_width = 64;  // quantized pool membership needs a wider beam for 0.8
  const OnlineKnnGraph g = InsertAll(data.vectors, p);
  ASSERT_TRUE(g.sq8_trained());
  const KnnGraph truth = BruteForceGraph(data.vectors, 10);
  EXPECT_GE(GraphRecallAtK(g.graph(), truth, 10), 0.8)
      << "SQ8 graph recall@10 too low";
  // The quantized walk feeds an exact re-rank of every pooled candidate, so
  // both counters must be live and the re-rank can't exceed the scored set.
  EXPECT_GT(g.sq8_scored(), 0u);
  EXPECT_GT(g.sq8_reranked(), 0u);
  EXPECT_LE(g.sq8_reranked(), g.sq8_scored());
}

TEST(OnlineKnnGraphTest, Sq8ChurnIsDeterministicAcrossThreadCounts) {
  // The bit-exact determinism contract holds in SQ8 mode too: the integer
  // kernels are tier-identical and the re-rank is ordered, so serial and
  // pooled ingest commit identical codes, norms, and edges.
  const SyntheticData data = StreamData(1200);
  const OnlineGraphParams p = Sq8Params();
  ThreadPool pool(4);
  OnlineKnnGraph serial(16, p);
  OnlineKnnGraph parallel(16, p);
  const std::size_t window = 300;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    const Matrix slice =
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows()));
    serial.InsertBatch(slice, nullptr);
    parallel.InsertBatch(slice, &pool);
    for (std::uint32_t id = 0; id < serial.size(); ++id) {
      if (id % 9 == 3 && serial.IsAlive(id)) {
        serial.Remove({&id, 1});
        parallel.Remove({&id, 1});
      }
    }
  }
  ASSERT_TRUE(serial.sq8_trained());
  ASSERT_TRUE(parallel.sq8_trained());
  EXPECT_EQ(serial.sq8_codes(), parallel.sq8_codes());
  EXPECT_EQ(serial.sq8_norms(), parallel.sq8_norms());
  EXPECT_EQ(serial.sq8_quantizer().scale, parallel.sq8_quantizer().scale);
  EXPECT_EQ(serial.sq8_quantizer().offset, parallel.sq8_quantizer().offset);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.graph().SortedNeighbors(i),
              parallel.graph().SortedNeighbors(i))
        << "node " << i;
  }
}

TEST(OnlineKnnGraphTest, Sq8ChurnKeepsServingRecallAndSkipsRemoved) {
  const SyntheticData data = StreamData(2000);
  const SyntheticData queries = StreamData(100, 321);
  ThreadPool pool(4);
  // Bench-gate settings (kappa 16, beam 64): quantized walks need the wider
  // degree and beam to hold 0.8 through a 30% churn cycle.
  OnlineGraphParams p = Sq8Params();
  p.kappa = 16;
  p.beam_width = 64;
  OnlineKnnGraph g(16, p);
  const std::size_t window = 500;
  for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
    g.InsertBatch(
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows())),
        &pool);
  }
  for (std::uint32_t id = 0; id < 2000; ++id) {
    if (id % 10 < 3) g.Remove({&id, 1});
  }
  const SyntheticData refill = StreamData(600, 654);
  g.InsertBatch(refill.vectors, &pool);
  EXPECT_EQ(g.num_alive(), 2000u);
  ASSERT_TRUE(g.sq8_trained());

  // Truth over the surviving (dequantized) arena: the SQ8 contract is
  // exactness against what the arena stores, not the discarded fp32 rows.
  std::vector<std::uint32_t> alive_ids;
  Matrix alive(0, 16);
  for (std::uint32_t id = 0; id < g.size(); ++id) {
    if (!g.IsAlive(id)) continue;
    alive_ids.push_back(id);
    alive.AppendRow(g.PointPtr(id));
  }
  const auto truth = BruteForceSearch(alive, queries.vectors, 10);
  std::size_t hit = 0, want = 0;
  SearchScratch scratch;
  for (std::size_t q = 0; q < queries.vectors.rows(); ++q) {
    const auto got = g.SearchKnn(queries.vectors.Row(q), 10, scratch);
    for (const Neighbor& nb : got) {
      // Removed slots may have been reused by the refill; the invariant is
      // that only live slots are served.
      EXPECT_TRUE(g.IsAlive(nb.id)) << "search returned dead id " << nb.id;
    }
    want += truth[q].size();
    for (const Neighbor& t : truth[q]) {
      for (const Neighbor& r : got) {
        if (r.id == alive_ids[t.id]) {
          ++hit;
          break;
        }
      }
    }
  }
  const double recall = static_cast<double>(hit) / static_cast<double>(want);
  EXPECT_GE(recall, 0.8) << "SQ8 post-churn serving recall too low";
}

TEST(OnlineKnnGraphTest, Sq8CompactionAndReinsertKeepArenaDense) {
  const SyntheticData data = StreamData(400);
  OnlineKnnGraph g = InsertAll(data.vectors, Sq8Params());
  ASSERT_TRUE(g.sq8_trained());
  for (std::uint32_t id = 0; id < 300; id += 2) g.Remove({&id, 1});
  g.CompactTombstones();
  const SyntheticData more = StreamData(150, 77);
  std::vector<std::uint32_t> assigned;
  g.InsertBatch(more.vectors, nullptr, nullptr, nullptr, &assigned);
  EXPECT_EQ(g.size(), 400u);
  EXPECT_EQ(g.num_alive(), 400u);
  EXPECT_EQ(g.sq8_norms().size(), 400u);
  EXPECT_EQ(g.sq8_codes().size(), 400u * 16u);
  ASSERT_EQ(assigned.size(), 150u);
  EXPECT_EQ(assigned.front(), 0u);  // freed slots re-encoded in place
}

TEST(OnlineKnnGraphTest, Sq8RequantizeArenaIsDeterministicAndBounded) {
  const SyntheticData data = StreamData(600);
  OnlineKnnGraph a = InsertAll(data.vectors, Sq8Params());
  OnlineKnnGraph b = InsertAll(data.vectors, Sq8Params());
  ASSERT_TRUE(a.sq8_trained());

  // Capture pre-requantize decodes; one requantize generation may bake in
  // at most one extra half-step of error per pass.
  Matrix before(0, 16);
  for (std::uint32_t id = 0; id < a.size(); ++id) before.AppendRow(a.PointPtr(id));
  a.RequantizeArena();
  b.RequantizeArena();
  EXPECT_EQ(a.sq8_codes(), b.sq8_codes());
  EXPECT_EQ(a.sq8_norms(), b.sq8_norms());
  const Sq8Quantizer& qz = a.sq8_quantizer();
  for (std::uint32_t id = 0; id < a.size(); ++id) {
    const float* dec = a.PointPtr(id);
    for (std::size_t j = 0; j < 16; ++j) {
      EXPECT_LE(std::abs(dec[j] - before.Row(id)[j]), qz.scale[j] + 1e-5f);
    }
  }
}

TEST(OnlineKnnGraphTest, Sq8RestoreFromPartsContinuesBitExact) {
  const SyntheticData data = StreamData(500);
  const OnlineGraphParams p = Sq8Params();
  OnlineKnnGraph g = InsertAll(data.vectors, p);
  for (std::uint32_t id = 0; id < 200; id += 3) g.Remove({&id, 1});
  ASSERT_TRUE(g.sq8_trained());

  Sq8ArenaParts parts;
  parts.trained = true;
  parts.rows = g.sq8_norms().size();
  parts.codes = g.sq8_codes();
  parts.norms = g.sq8_norms();
  parts.quant = g.sq8_quantizer();
  OnlineKnnGraph back(Matrix(0, 16), g.graph(), p, g.rng_state(),
                      g.seed_state(), g.removal_state(), std::move(parts));
  ASSERT_TRUE(back.sq8_trained());
  ASSERT_EQ(back.size(), g.size());

  const SyntheticData more = StreamData(120, 99);
  for (std::size_t i = 0; i < more.vectors.rows(); ++i) {
    g.Insert(more.vectors.Row(i));
    back.Insert(more.vectors.Row(i));
    if (i % 4 == 0) {
      const std::uint32_t victim = static_cast<std::uint32_t>(i) * 2 + 1;
      if (g.IsAlive(victim)) {
        g.Remove({&victim, 1});
        back.Remove({&victim, 1});
      }
    }
  }
  EXPECT_EQ(back.sq8_codes(), g.sq8_codes());
  EXPECT_EQ(back.sq8_norms(), g.sq8_norms());
  ASSERT_EQ(back.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.graph().SortedNeighbors(i), g.graph().SortedNeighbors(i));
  }
}

TEST(OnlineKnnGraphTest, Sq8PointPtrRingKeepsRecentDecodesValid) {
  // PointPtr hands out slots from a per-thread ring of 8 decode buffers, so
  // up to 8 concurrent pointers from one thread stay valid.
  const SyntheticData data = StreamData(300);
  OnlineKnnGraph g = InsertAll(data.vectors, Sq8Params());
  ASSERT_TRUE(g.sq8_trained());
  const float* ptrs[8];
  for (std::uint32_t i = 0; i < 8; ++i) ptrs[i] = g.PointPtr(i);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Sq8Quantizer& qz = g.sq8_quantizer();
    for (std::size_t j = 0; j < 16; ++j) {
      const float dec =
          qz.offset[j] + qz.scale[j] * static_cast<float>(
                             g.sq8_codes()[i * 16 + j]);
      EXPECT_EQ(ptrs[i][j], dec) << "ring slot " << i << " dim " << j;
    }
  }
}

}  // namespace
}  // namespace gkm
