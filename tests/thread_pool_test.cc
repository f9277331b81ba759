// Copyright 2026 The gkmeans Authors.
// Tests for the evaluation thread pool.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace gkm {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(),
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForOffsetRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(20);
  pool.ParallelFor(7, 13, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 7 && i < 13) ? 1 : 0) << i;
  }
}

TEST(ThreadPoolTest, SingleThreadFallbackWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.ParallelFor(0, 10, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));  // single worker: no data race
  });
  EXPECT_EQ(order.size(), 10u);
}

TEST(ThreadPoolTest, ParallelForSlotsCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelForSlots(0, hits.size(), [&hits](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSlotsSlotIndicesStayInBounds) {
  ThreadPool pool(3);
  std::vector<std::atomic<std::size_t>> slot_of(200);
  pool.ParallelForSlots(0, slot_of.size(),
                        [&slot_of](std::size_t slot, std::size_t i) {
                          slot_of[i].store(slot);
                        });
  for (const auto& s : slot_of) EXPECT_LT(s.load(), pool.num_threads());
}

TEST(ThreadPoolTest, ParallelForSlotsNeverRunsASlotConcurrently) {
  // Per-slot unsynchronized counters: the contract is that at most one
  // task owns a slot at a time, so plain increments must not be lost (and
  // the TSan CI job would flag a race if two tasks shared a slot).
  ThreadPool pool(4);
  std::vector<std::size_t> per_slot(pool.num_threads(), 0);
  const std::size_t n = 1000;
  pool.ParallelForSlots(0, n, [&per_slot](std::size_t slot, std::size_t) {
    ++per_slot[slot];
  });
  std::size_t sum = 0;
  for (const std::size_t c : per_slot) sum += c;
  EXPECT_EQ(sum, n);
}

TEST(ThreadPoolTest, ParallelForSlotsSlowIndexDelaysOnlyItsOwnSlot) {
  // Index 0 holds its slot until every other index has run. With indices
  // pulled off a shared counter the other slot takes them all; with one
  // fixed chunk per slot, index 0's chunk-mates would wait behind it.
  ThreadPool pool(2);
  const std::size_t n = 100;
  std::atomic<std::size_t> done{0};
  bool others_ran = false;
  pool.ParallelForSlots(0, n, [&](std::size_t, std::size_t i) {
    if (i != 0) {
      done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load() < n - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_ran = done.load() == n - 1;
  });
  EXPECT_TRUE(others_ran);
}

TEST(ThreadPoolTest, ParallelForSlotsInlineFallbackUsesSlotZero) {
  ThreadPool pool(1);
  std::vector<std::size_t> slots;
  pool.ParallelForSlots(0, 6, [&slots](std::size_t slot, std::size_t) {
    slots.push_back(slot);  // single worker: no data race
  });
  ASSERT_EQ(slots.size(), 6u);
  for (const std::size_t s : slots) EXPECT_EQ(s, 0u);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.ParallelFor(0, 100, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

}  // namespace
}  // namespace gkm
