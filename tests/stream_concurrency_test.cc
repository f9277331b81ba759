// Copyright 2026 The gkmeans Authors.
// Concurrency tests for the streaming subsystem: parallel window ingest
// must produce checkpoints byte-identical to serial ingest, and the
// SearchKnn serving path must stay correct while an ingest thread mutates
// the graph. The CI ThreadSanitizer job runs this file to race-check the
// reader-writer locking.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {
namespace {

constexpr std::size_t kDim = 12;

SyntheticData StreamData(std::size_t n, std::uint64_t seed = 31) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 15;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

StreamingGkMeansParams SmallParams(std::size_t ingest_threads,
                                   std::size_t shards = 1) {
  StreamingGkMeansParams p;
  p.k = 12;
  p.kappa = 10;
  p.graph.kappa = 10;
  p.graph.beam_width = 32;
  p.graph.shards = shards;
  p.bootstrap_min = 400;
  p.ingest_threads = ingest_threads;
  return p;
}

void Feed(StreamingGkMeans& model, const Matrix& data, std::size_t window) {
  for (std::size_t begin = 0; begin < data.rows(); begin += window) {
    const std::size_t end = std::min(begin + window, data.rows());
    model.ObserveWindow(SliceRows(data, begin, end));
  }
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

TEST(StreamConcurrencyTest, ParallelIngestCheckpointsIdenticalToSerial) {
  // The determinism contract of the whole subsystem: thread count is an
  // execution knob, so the persisted model state — every byte of it —
  // must not depend on it.
  const SyntheticData data = StreamData(2500);
  StreamingGkMeans serial(kDim, SmallParams(1));
  StreamingGkMeans parallel(kDim, SmallParams(4));
  Feed(serial, data.vectors, 250);
  Feed(parallel, data.vectors, 250);

  EXPECT_EQ(serial.labels(), parallel.labels());
  EXPECT_DOUBLE_EQ(serial.Distortion(), parallel.Distortion());

  const std::string serial_path = ::testing::TempDir() + "/serial.ckpt";
  const std::string parallel_path = ::testing::TempDir() + "/parallel.ckpt";
  SaveStreamCheckpoint(serial_path, serial);
  SaveStreamCheckpoint(parallel_path, parallel);
  EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(StreamConcurrencyTest, SearchKnnStaysCorrectDuringIngest) {
  // Serving path under fire: several query threads hammer SearchKnn with
  // their own scratch while the main thread streams windows in. Results
  // must always be well-formed (sorted, in-bounds, self-consistent) and
  // the run must be race-free (checked by the TSan CI job).
  const SyntheticData data = StreamData(3000);
  const SyntheticData queries = StreamData(64, 77);
  StreamingGkMeans model(kDim, SmallParams(2));
  // Pre-fill past the graph's brute-force bootstrap so searches walk.
  model.ObserveWindow(SliceRows(data.vectors, 0, 500));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<bool> ok{true};
  // One thread uses the per-query API, the other the batched API (one
  // reader acquisition per small batch) — both lock paths race against
  // the same ingest.
  std::atomic<int> thread_no{0};
  auto serve = [&]() {
    const bool use_batch = thread_no.fetch_add(1) % 2 == 1;
    SearchScratch scratch;
    Matrix one(1, kDim);  // reused so allocation doesn't throttle the race
    std::size_t q = 0;
    std::vector<Neighbor> got;
    while (!stop.load(std::memory_order_relaxed)) {
      const float* query = queries.vectors.Row(q % queries.vectors.rows());
      if (use_batch) {
        one.SetRow(0, query);
        auto batch = model.graph().SearchKnnBatch(one, 10, scratch);
        got = std::move(batch[0]);
      } else {
        got = model.graph().SearchKnn(query, 10, scratch);
      }
      // The graph only grows, so ids are bounded by the size observed
      // *after* the search returned.
      const std::size_t bound = model.graph().size();
      bool good = !got.empty() && got.size() <= 10;
      for (std::size_t i = 0; i < got.size(); ++i) {
        good = good && got[i].id < bound && got[i].dist >= 0.0f;
        if (i > 0) good = good && got[i - 1].dist <= got[i].dist;
      }
      if (!good) ok.store(false);
      searches.fetch_add(1);
      ++q;
      // Pace the query loop: pthread's shared_mutex prefers readers, so
      // back-to-back searches from several threads on few cores would
      // starve the ingest commits this test races against.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) servers.emplace_back(serve);
  Feed(model, SliceRows(data.vectors, 500, data.vectors.rows()), 250);
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(ok.load());
  EXPECT_GT(searches.load(), 0u);
  EXPECT_EQ(model.points_seen(), 3000u);
}

TEST(StreamConcurrencyTest, RemovalsDuringConcurrentSearchesStayWellFormed) {
  // Deletion under fire: serving threads hammer SearchKnn while the ingest
  // thread interleaves window ingest with point removals (tombstoning,
  // neighborhood repair, and eventually a purge sweep all happen under the
  // writer lock this test races against; the TSan CI job checks it).
  const SyntheticData data = StreamData(2400);
  const SyntheticData queries = StreamData(64, 77);
  StreamingGkMeans model(kDim, SmallParams(2));
  model.ObserveWindow(SliceRows(data.vectors, 0, 600));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<bool> ok{true};
  auto serve = [&]() {
    SearchScratch scratch;
    std::size_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const float* query = queries.vectors.Row(q % queries.vectors.rows());
      const auto got = model.graph().SearchKnn(query, 10, scratch);
      const std::size_t bound = model.graph().size();
      // Results must stay well-formed mid-churn. (A returned id may be
      // tombstoned immediately after the search returns, so liveness of
      // the ids cannot be asserted here — only shape and bounds.)
      bool good = got.size() <= 10;
      for (std::size_t i = 0; i < got.size(); ++i) {
        good = good && got[i].id < bound && got[i].dist >= 0.0f;
        if (i > 0) good = good && got[i - 1].dist <= got[i].dist;
      }
      if (!good) ok.store(false);
      searches.fetch_add(1);
      ++q;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) servers.emplace_back(serve);
  const std::size_t window = 300;
  for (std::size_t b = 600; b < data.vectors.rows(); b += window) {
    model.ObserveWindow(
        SliceRows(data.vectors, b, std::min(b + window, data.vectors.rows())));
    // Retire a deterministic slice of the corpus between windows — enough
    // churn to cross the purge threshold while searches are in flight.
    for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
      if (id % 7 == 2 && model.graph().IsAlive(id)) model.RemovePoint(id);
    }
  }
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(ok.load());
  EXPECT_GT(searches.load(), 0u);
  EXPECT_LT(model.points_alive(), model.points_seen());
}

TEST(StreamConcurrencyTest, ChurnedStreamCheckpointsIdenticalAcrossThreads) {
  // Deletion extends the determinism contract: an identical interleaved
  // window/remove sequence must serialize byte-identically at any ingest
  // thread count — slot reuse, tombstone purges and all.
  const SyntheticData data = StreamData(2000);
  StreamingGkMeans serial(kDim, SmallParams(1));
  StreamingGkMeans parallel(kDim, SmallParams(4));
  auto churn = [&](StreamingGkMeans& model) {
    const std::size_t window = 250;
    for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
      model.ObserveWindow(SliceRows(data.vectors, b,
                                    std::min(b + window, data.vectors.rows())));
      for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
        if (id % 6 == 1 && model.graph().IsAlive(id)) model.RemovePoint(id);
      }
    }
  };
  churn(serial);
  churn(parallel);

  EXPECT_EQ(serial.labels(), parallel.labels());
  const std::string serial_path = ::testing::TempDir() + "/churn_serial.ckpt";
  const std::string parallel_path =
      ::testing::TempDir() + "/churn_parallel.ckpt";
  SaveStreamCheckpoint(serial_path, serial);
  SaveStreamCheckpoint(parallel_path, parallel);
  EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(StreamConcurrencyTest, Sq8CheckpointsIdenticalAcrossThreadCounts) {
  // The determinism contract extended to the quantized arena: codes, norms
  // and quantizer state are model state, so an identical churned stream
  // must serialize to byte-identical files at any ingest thread count.
  // Covers the one-time train trigger and in-place re-encodes under the
  // writer lock (TSan checks the race-freedom half of the claim).
  const SyntheticData data = StreamData(2000);
  StreamingGkMeansParams sp = SmallParams(1);
  StreamingGkMeansParams pp = SmallParams(4);
  sp.graph.storage = StorageMode::kSq8;
  pp.graph.storage = StorageMode::kSq8;
  StreamingGkMeans serial(kDim, sp);
  StreamingGkMeans parallel(kDim, pp);
  auto churn = [&](StreamingGkMeans& model) {
    const std::size_t window = 250;
    for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
      model.ObserveWindow(SliceRows(data.vectors, b,
                                    std::min(b + window, data.vectors.rows())));
      for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
        if (id % 6 == 1 && model.graph().IsAlive(id)) model.RemovePoint(id);
      }
    }
  };
  churn(serial);
  churn(parallel);

  EXPECT_TRUE(serial.graph().shard(0).sq8_trained());
  EXPECT_EQ(serial.labels(), parallel.labels());
  const std::string serial_path = ::testing::TempDir() + "/sq8_serial.ckpt";
  const std::string parallel_path =
      ::testing::TempDir() + "/sq8_parallel.ckpt";
  SaveStreamCheckpoint(serial_path, serial);
  SaveStreamCheckpoint(parallel_path, parallel);
  EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(StreamConcurrencyTest, Sq8SearchesStayWellFormedDuringIngest) {
  // Serving under fire in SQ8 mode: query threads walk the quantized arena
  // (integer kernels + exact re-rank) while the ingest thread trains the
  // quantizer mid-run, appends codes, and tombstones slots. Results must
  // stay well-formed throughout and the run race-free (TSan CI job).
  const SyntheticData data = StreamData(3000);
  const SyntheticData queries = StreamData(64, 77);
  StreamingGkMeansParams p = SmallParams(2);
  p.graph.storage = StorageMode::kSq8;
  StreamingGkMeans model(kDim, p);
  // Below the graph bootstrap: the SQ8 train trigger fires during the race.
  model.ObserveWindow(SliceRows(data.vectors, 0, 100));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<bool> ok{true};
  auto serve = [&]() {
    SearchScratch scratch;
    std::size_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const float* query = queries.vectors.Row(q % queries.vectors.rows());
      const auto got = model.graph().SearchKnn(query, 10, scratch);
      const std::size_t bound = model.graph().size();
      bool good = !got.empty() && got.size() <= 10;
      for (std::size_t i = 0; i < got.size(); ++i) {
        good = good && got[i].id < bound && got[i].dist >= 0.0f;
        if (i > 0) good = good && got[i - 1].dist <= got[i].dist;
      }
      if (!good) ok.store(false);
      searches.fetch_add(1);
      ++q;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) servers.emplace_back(serve);
  const std::size_t window = 250;
  for (std::size_t b = 100; b < data.vectors.rows(); b += window) {
    model.ObserveWindow(SliceRows(data.vectors, b,
                                  std::min(b + window, data.vectors.rows())));
    for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
      if (id % 11 == 5 && model.graph().IsAlive(id)) model.RemovePoint(id);
    }
  }
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(ok.load());
  EXPECT_GT(searches.load(), 0u);
  EXPECT_TRUE(model.graph().shard(0).sq8_trained());
}

TEST(StreamConcurrencyTest, AdaptiveSeedStateSurvivesCheckpointResume) {
  const SyntheticData data = StreamData(2000);
  StreamingGkMeans model(kDim, SmallParams(2));
  Feed(model, data.vectors, 250);

  const std::string path = ::testing::TempDir() + "/adaptive.ckpt";
  SaveStreamCheckpoint(path, model);
  StreamingGkMeans back = LoadStreamCheckpoint(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.graph().shard(0).seed_state().live_seeds,
            model.graph().shard(0).seed_state().live_seeds);
  EXPECT_EQ(back.graph().shard(0).seed_state().audit_tick,
            model.graph().shard(0).seed_state().audit_tick);
  EXPECT_DOUBLE_EQ(back.graph().shard(0).seed_state().fail_ewma,
                   model.graph().shard(0).seed_state().fail_ewma);
}

TEST(StreamConcurrencyTest, ShardedCheckpointsIdenticalAcrossThreadCounts) {
  // The determinism contract extended to sharding: for a FIXED shard
  // count, ingest thread count (which at S>1 also means the number of
  // concurrent shard writers) must not change a single persisted byte —
  // churn included. Checked at S=1 and S=4.
  const SyntheticData data = StreamData(2000);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    StreamingGkMeans serial(kDim, SmallParams(1, shards));
    StreamingGkMeans parallel(kDim, SmallParams(4, shards));
    auto churn = [&](StreamingGkMeans& model) {
      const std::size_t window = 250;
      for (std::size_t b = 0; b < data.vectors.rows(); b += window) {
        model.ObserveWindow(SliceRows(
            data.vectors, b, std::min(b + window, data.vectors.rows())));
        for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
          if (id % 6 == 1 && model.graph().IsAlive(id)) model.RemovePoint(id);
        }
      }
    };
    churn(serial);
    churn(parallel);

    EXPECT_EQ(serial.labels(), parallel.labels()) << "shards=" << shards;
    const std::string serial_path =
        ::testing::TempDir() + "/shard_serial.ckpt";
    const std::string parallel_path =
        ::testing::TempDir() + "/shard_parallel.ckpt";
    SaveStreamCheckpoint(serial_path, serial);
    SaveStreamCheckpoint(parallel_path, parallel);
    EXPECT_EQ(ReadFileBytes(serial_path), ReadFileBytes(parallel_path))
        << "shards=" << shards;
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
  }
}

TEST(StreamConcurrencyTest, ShardSearchIsNotBlockedByForeignShardCommits) {
  // The stall-independence property sharding buys: a query against shard 0
  // takes only shard 0's reader lock, so a writer hammering shard 1 with
  // ingest commits (writer-locked) and removals cannot delay it. Shard 0
  // receives no writes during the race, so every search must complete
  // against a quiescent arena while shard 1 churns — and the run must be
  // race-free (TSan CI job).
  const SyntheticData data = StreamData(4000);
  OnlineGraphParams p;
  p.kappa = 10;
  p.beam_width = 32;
  p.num_seeds = 16;
  p.bootstrap = 64;
  p.shards = 2;
  ShardedOnlineKnnGraph graph(kDim, p);

  // Split the corpus by the graph's own deterministic shard assignment.
  Matrix shard0_rows(0, kDim);
  Matrix shard1_rows(0, kDim);
  for (std::size_t r = 0; r < data.vectors.rows(); ++r) {
    const float* row = data.vectors.Row(r);
    (graph.ShardOf(row) == 0 ? shard0_rows : shard1_rows).AppendRow(row);
  }
  ASSERT_GT(shard0_rows.rows(), 500u);
  ASSERT_GT(shard1_rows.rows(), 500u);
  // Pre-fill shard 0 (the searched shard) past its bootstrap threshold.
  graph.InsertBatch(SliceRows(shard0_rows, 0, shard0_rows.rows()), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<bool> ok{true};
  const SyntheticData queries = StreamData(64, 77);
  const std::size_t shard0_size = shard0_rows.rows();
  auto serve = [&]() {
    SearchScratch scratch;
    std::size_t q = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<Neighbor> got = graph.shard(0).SearchKnn(
          queries.vectors.Row(q % queries.vectors.rows()), 10, scratch);
      bool good = !got.empty() && got.size() <= 10;
      for (std::size_t i = 0; good && i < got.size(); ++i) {
        good = good && got[i].id < shard0_size;  // shard 0's local slots
        if (i > 0) good = good && got[i - 1].dist <= got[i].dist;
      }
      if (!good) ok.store(false);
      searches.fetch_add(1);
      ++q;
    }
  };
  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) servers.emplace_back(serve);

  // Churn shard 1 hard: windowed ingest plus interleaved removals, all
  // under shard 1's writer lock.
  const std::size_t window = 200;
  for (std::size_t b = 0; b < shard1_rows.rows(); b += window) {
    graph.InsertBatch(
        SliceRows(shard1_rows, b, std::min(b + window, shard1_rows.rows())),
        nullptr);
    for (std::uint32_t g = 1; g < graph.size(); g += 2) {  // shard-1 ids odd
      if (g % 14 == 1 && graph.IsAlive(g)) graph.Remove({&g, 1});
    }
  }
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(ok.load());
  // Shard-0 searches ran completely unimpeded; even a handful of windows'
  // worth of wall time fits thousands of them.
  EXPECT_GT(searches.load(), 100u);
}

TEST(StreamConcurrencyTest, MultiWriterIngestRacesMergedSearchesCleanly) {
  // S=4 streaming model under fire: four concurrent shard writers inside
  // ObserveWindow while serving threads run merged cross-shard searches
  // through both the per-query and the batched API. Results must stay
  // well-formed; TSan checks the locking.
  const SyntheticData data = StreamData(3000);
  const SyntheticData queries = StreamData(64, 77);
  StreamingGkMeans model(kDim, SmallParams(4, 4));
  model.ObserveWindow(SliceRows(data.vectors, 0, 600));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches{0};
  std::atomic<bool> ok{true};
  std::atomic<int> thread_no{0};
  auto serve = [&]() {
    const bool use_batch = thread_no.fetch_add(1) % 2 == 1;
    SearchScratch scratch;
    Matrix one(1, kDim);
    std::size_t q = 0;
    std::vector<Neighbor> got;
    while (!stop.load(std::memory_order_relaxed)) {
      const float* query = queries.vectors.Row(q % queries.vectors.rows());
      if (use_batch) {
        one.SetRow(0, query);
        auto batch = model.graph().SearchKnnBatch(one, 10, scratch);
        got = std::move(batch[0]);
      } else {
        got = model.graph().SearchKnn(query, 10, scratch);
      }
      const std::size_t bound = model.graph().size();
      bool good = got.size() <= 10;
      for (std::size_t i = 0; i < got.size(); ++i) {
        good = good && got[i].id < bound && got[i].dist >= 0.0f;
        if (i > 0) good = good && got[i - 1].dist <= got[i].dist;
      }
      if (!good) ok.store(false);
      searches.fetch_add(1);
      ++q;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) servers.emplace_back(serve);
  Feed(model, SliceRows(data.vectors, 600, data.vectors.rows()), 300);
  stop.store(true);
  for (auto& t : servers) t.join();

  EXPECT_TRUE(ok.load());
  EXPECT_GT(searches.load(), 0u);
  EXPECT_EQ(model.graph().num_alive(), 3000u);
}

}  // namespace
}  // namespace gkm
