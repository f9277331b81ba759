// Copyright 2026 The gkmeans Authors.
// Contract tests of the serving queues (serve/batch_queue.h), driven
// synchronously — no sockets, no server:
//
//  * Exactness: a coalesced flush over a REAL sharded graph returns,
//    per query, exactly what a standalone SearchKnn returns — including
//    when jobs with different top-k are grouped (max-topk search +
//    per-job truncation, the k-prefix property).
//  * Policy: flushing is work-conserving — a lone query flushes as soon
//    as a worker wakes to it, and batches form only from jobs queued
//    while the worker was busy, split at max_batch rows. No test sleeps
//    or asserts a deadline; a hang fails through the ctest timeout.
//  * Back-pressure: admission beyond capacity returns kOverloaded
//    immediately (never blocks); accepted work always completes.
//  * Lifecycle: Stop() refuses new work, drains accepted jobs, then
//    FlushOnce reports done.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "dataset/synthetic.h"
#include "gtest/gtest.h"
#include "serve/batch_queue.h"
#include "stream/sharded_online_knn_graph.h"

namespace gkm::serve {
namespace {

constexpr std::size_t kDim = 16;

Matrix MakeData(std::size_t n, std::uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 6;
  spec.seed = seed;
  return MakeGaussianMixture(spec).vectors;
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

/// A SearchFn that records its calls and fabricates `topk` neighbors per
/// query: ids counting up from the call ordinal, dists from the rank.
struct FakeSearch {
  std::vector<std::pair<std::size_t, std::uint32_t>> calls;  // (rows, topk)

  SearchBatcher::SearchFn Fn() {
    return [this](const Matrix& queries, std::uint32_t topk) {
      calls.emplace_back(queries.rows(), topk);
      std::vector<std::vector<Neighbor>> out(queries.rows());
      for (std::size_t q = 0; q < out.size(); ++q) {
        out[q].resize(topk);
        for (std::uint32_t i = 0; i < topk; ++i) {
          out[q][i] = Neighbor{static_cast<std::uint32_t>(100 * q + i),
                               static_cast<float>(i)};
        }
      }
      return out;
    };
  }
};

SearchJob OneRowJob(const float* row, std::uint32_t topk,
                    std::vector<std::vector<Neighbor>>* sink) {
  SearchJob job;
  job.queries.Reset(1, kDim);
  job.queries.SetRow(0, row);
  job.topk = topk;
  job.done = [sink](std::vector<std::vector<Neighbor>> r) {
    sink->push_back(std::move(r[0]));
    // one list per row
  };
  return job;
}

TEST(SearchBatcher, CoalescedEqualsPerQueryOnRealGraph) {
  const Matrix data = MakeData(900);
  ShardedOnlineKnnGraph graph(kDim, SmallParams(2));
  ThreadPool pool(2);
  for (std::size_t b = 0; b < data.rows(); b += 150) {
    graph.InsertBatch(SliceRows(data, b, std::min(b + 150, data.rows())),
                      &pool);
  }

  BatchPolicy policy;
  policy.max_batch = 8;  // 24 pending rows => 3 full flushes
  SearchBatcher batcher(policy, [&graph](const Matrix& q, std::uint32_t k) {
    thread_local SearchScratch scratch;
    return graph.SearchKnnBatch(q, k, scratch);
  });

  // 20 single-row jobs with topk cycling through {3, 7, 10} plus one
  // 4-row batch job — 24 rows total, coalesced into few flushes.
  const Matrix queries = MakeData(24, /*seed=*/99);
  const std::uint32_t topks[3] = {3, 7, 10};
  std::vector<std::vector<Neighbor>> got(24);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    SearchJob job;
    job.queries.Reset(1, kDim);
    job.queries.SetRow(0, queries.Row(i));
    job.topk = topks[i % 3];
    job.done = [&got, &completed, i](std::vector<std::vector<Neighbor>> r) {
      got[i] = std::move(r[0]);
      ++completed;
    };
    ASSERT_EQ(batcher.TrySubmit(std::move(job)), Admission::kAccepted);
  }
  SearchJob multi;
  multi.queries = SliceRows(queries, 20, 24);
  multi.topk = 5;
  multi.done = [&got, &completed](std::vector<std::vector<Neighbor>> r) {
    for (std::size_t r_i = 0; r_i < r.size(); ++r_i) {
      got[20 + r_i] = std::move(r[r_i]);
      ++completed;
    }
  };
  ASSERT_EQ(batcher.TrySubmit(std::move(multi)), Admission::kAccepted);

  while (completed < 24) {
    ASSERT_TRUE(batcher.FlushOnce());
  }

  for (std::size_t i = 0; i < 24; ++i) {
    const std::uint32_t topk = i < 20 ? topks[i % 3] : 5;
    const std::vector<Neighbor> direct = graph.SearchKnn(queries.Row(i), topk);
    ASSERT_EQ(got[i].size(), direct.size()) << "query " << i;
    for (std::size_t j = 0; j < direct.size(); ++j) {
      EXPECT_EQ(got[i][j], direct[j]) << "query " << i << " rank " << j;
    }
  }
}

TEST(SearchBatcher, FullBatchFlushesAsOneCall) {
  FakeSearch fake;
  BatchPolicy policy;
  policy.max_batch = 4;
  SearchBatcher batcher(policy, fake.Fn());

  Matrix q = MakeData(4);
  std::vector<std::vector<Neighbor>> sink;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(batcher.TrySubmit(OneRowJob(q.Row(i), 2, &sink)),
              Admission::kAccepted);
  }
  ASSERT_TRUE(batcher.FlushOnce());
  ASSERT_EQ(fake.calls.size(), 1u);  // one coalesced call...
  EXPECT_EQ(fake.calls[0].first, 4u);
  EXPECT_EQ(sink.size(), 4u);  // ...completing every job
  EXPECT_EQ(batcher.pending_rows(), 0u);
}

TEST(SearchBatcher, LoneQueryFlushesWithoutWaiting) {
  FakeSearch fake;
  BatchPolicy policy;
  policy.max_batch = 64;  // never reached: the lone row must not wait for it
  SearchBatcher batcher(policy, fake.Fn());

  // The consumer blocks in FlushOnce on an empty queue; the submit wakes
  // it and the single row flushes at once. Were the flush to wait for a
  // fuller batch, this would hang until the ctest timeout.
  Matrix q = MakeData(1);
  std::vector<std::vector<Neighbor>> sink;
  bool flushed = false;
  std::thread consumer([&batcher, &flushed] { flushed = batcher.FlushOnce(); });
  ASSERT_EQ(batcher.TrySubmit(OneRowJob(q.Row(0), 3, &sink)),
            Admission::kAccepted);
  consumer.join();
  EXPECT_TRUE(flushed);
  ASSERT_EQ(fake.calls.size(), 1u);
  EXPECT_EQ(fake.calls[0].first, 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0].size(), 3u);
  EXPECT_EQ(batcher.pending_rows(), 0u);
}

/// Drives one batcher through a worker that is busy while five single-row
/// jobs queue: the first call's SearchFn blocks on a latch until all five
/// are admitted. Returns the row count of every SearchFn call after the
/// first, which is exactly how the queued jobs were batched.
std::vector<std::size_t> RowsQueuedWhileBusy(std::size_t max_batch) {
  BatchPolicy policy;
  policy.max_batch = max_batch;
  Mutex mu;
  CondVar cv;
  bool first_entered = false;  // guarded by mu
  bool released = false;       // guarded by mu
  std::vector<std::size_t> calls;  // touched only by the consumer thread
  SearchBatcher batcher(policy, [&](const Matrix& queries,
                                    std::uint32_t topk) {
    if (calls.empty()) {
      MutexLock lock(mu);
      first_entered = true;
      cv.NotifyAll();
      cv.Wait(mu, [&released]() { return released; });
    }
    calls.push_back(queries.rows());
    return std::vector<std::vector<Neighbor>>(
        queries.rows(), std::vector<Neighbor>(topk));
  });

  Matrix q = MakeData(6);
  std::vector<std::vector<Neighbor>> sink;
  std::thread consumer([&batcher] {
    while (batcher.FlushOnce()) {
    }
  });
  EXPECT_EQ(batcher.TrySubmit(OneRowJob(q.Row(0), 2, &sink)),
            Admission::kAccepted);
  {
    // Wait until the worker is inside the first search, so the next five
    // jobs can only queue behind it.
    MutexLock lock(mu);
    cv.Wait(mu, [&first_entered]() { return first_entered; });
  }
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(batcher.TrySubmit(OneRowJob(q.Row(i), 2, &sink)),
              Admission::kAccepted);
  }
  EXPECT_EQ(batcher.pending_rows(), 5u);
  {
    MutexLock lock(mu);
    released = true;
  }
  cv.NotifyAll();
  batcher.Stop();  // accepted jobs still drain; then the loop exits
  consumer.join();
  EXPECT_EQ(sink.size(), 6u);
  if (calls.empty()) return {};
  EXPECT_EQ(calls.front(), 1u);
  return {calls.begin() + 1, calls.end()};
}

TEST(SearchBatcher, BatchFormsWhileWorkerBusy) {
  // Everything that queued behind the busy worker flushes as one call...
  EXPECT_EQ(RowsQueuedWhileBusy(/*max_batch=*/64),
            (std::vector<std::size_t>{5}));
  // ...split at max_batch rows.
  EXPECT_EQ(RowsQueuedWhileBusy(/*max_batch=*/3),
            (std::vector<std::size_t>{3, 2}));
}

TEST(SearchBatcher, OverloadedReturnsImmediatelyNeverBlocks) {
  FakeSearch fake;
  BatchPolicy policy;
  policy.max_batch = 64;
  policy.max_pending = 4;
  SearchBatcher batcher(policy, fake.Fn());

  Matrix q = MakeData(6);
  std::vector<std::vector<Neighbor>> sink;
  // Two 2-row jobs fill the admission cap exactly.
  for (std::size_t i = 0; i < 2; ++i) {
    SearchJob job;
    job.queries = SliceRows(q, 2 * i, 2 * i + 2);
    job.topk = 2;
    job.done = [&sink](std::vector<std::vector<Neighbor>> r) {
      for (auto& list : r) sink.push_back(std::move(list));
    };
    ASSERT_EQ(batcher.TrySubmit(std::move(job)), Admission::kAccepted);
  }
  EXPECT_EQ(batcher.pending_rows(), 4u);
  // The fifth row is refused — TrySubmit returns (it cannot block: this
  // thread is also the only flusher, so blocking would deadlock the test).
  SearchJob refused = OneRowJob(q.Row(4), 2, &sink);
  EXPECT_EQ(batcher.TrySubmit(std::move(refused)), Admission::kOverloaded);
  EXPECT_EQ(batcher.pending_rows(), 4u);

  // Accepted work still completes, and capacity frees up afterwards.
  ASSERT_TRUE(batcher.FlushOnce());
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(batcher.TrySubmit(OneRowJob(q.Row(5), 2, &sink)),
            Admission::kAccepted);
}

TEST(SearchBatcher, StopDrainsAcceptedJobsThenReportsDone) {
  FakeSearch fake;
  BatchPolicy policy;
  policy.max_batch = 64;
  SearchBatcher batcher(policy, fake.Fn());

  Matrix q = MakeData(2);
  std::vector<std::vector<Neighbor>> sink;
  ASSERT_EQ(batcher.TrySubmit(OneRowJob(q.Row(0), 2, &sink)),
            Admission::kAccepted);
  ASSERT_EQ(batcher.TrySubmit(OneRowJob(q.Row(1), 2, &sink)),
            Admission::kAccepted);
  batcher.Stop();
  EXPECT_EQ(batcher.TrySubmit(OneRowJob(q.Row(0), 2, &sink)),
            Admission::kStopped);
  // Accepted jobs drain, then done.
  EXPECT_TRUE(batcher.FlushOnce());
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_FALSE(batcher.FlushOnce());
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, FifoAndBackPressure) {
  BoundedQueue<int> queue(3);
  EXPECT_EQ(queue.TryPush(1), Admission::kAccepted);
  EXPECT_EQ(queue.TryPush(2), Admission::kAccepted);
  EXPECT_EQ(queue.TryPush(3), Admission::kAccepted);
  EXPECT_EQ(queue.TryPush(4), Admission::kOverloaded);
  EXPECT_EQ(queue.size(), 3u);
  int v = 0;
  EXPECT_TRUE(queue.PopBlocking(&v));
  EXPECT_EQ(v, 1);
  EXPECT_EQ(queue.TryPush(4), Admission::kAccepted);
  EXPECT_TRUE(queue.PopBlocking(&v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueue, StopDrainsThenSignalsDone) {
  BoundedQueue<int> queue(8);
  ASSERT_EQ(queue.TryPush(10), Admission::kAccepted);
  ASSERT_EQ(queue.TryPush(11), Admission::kAccepted);
  queue.Stop();
  EXPECT_EQ(queue.TryPush(12), Admission::kStopped);
  int v = 0;
  EXPECT_TRUE(queue.PopBlocking(&v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(queue.PopBlocking(&v));
  EXPECT_EQ(v, 11);
  EXPECT_FALSE(queue.PopBlocking(&v));  // drained: accepted != dropped
}

TEST(BoundedQueue, ConcurrentProducersSingleConsumer) {
  BoundedQueue<int> queue(256);
  std::vector<int> received;
  std::thread consumer([&queue, &received] {
    int v = 0;
    while (queue.PopBlocking(&v)) received.push_back(v);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(queue.TryPush(p * 1000 + i), Admission::kAccepted);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Stop();
  consumer.join();
  ASSERT_EQ(received.size(), 100u);
  // Every producer's items arrive in that producer's order (FIFO per
  // producer), and nothing is lost or duplicated.
  std::vector<int> per_producer_next = {0, 0};
  std::vector<int> sorted = received;
  for (const int v : received) {
    const int p = v / 1000;
    EXPECT_EQ(v % 1000, per_producer_next[p]);
    ++per_producer_next[p];
  }
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sorted[i], i);
    EXPECT_EQ(sorted[50 + i], 1000 + i);
  }
}

}  // namespace
}  // namespace gkm::serve
