// Copyright 2026 The gkmeans Authors.
// Minimal fixed-size thread pool with blocking ParallelFor variants. Used
// for embarrassingly-parallel evaluation work (brute-force ground truth,
// recall estimation), for the streaming subsystem's window ingest, whose
// parallel phase is a pure fan-out over read-only state, and by the batch
// pipeline: one pool builds Alg. 3's 2M trees ahead of their rounds, and a
// second runs each round's per-cluster joins, whose tasks write disjoint
// lists. The final Alg. 2 clustering computes each block's Δ-I decisions
// on the tree pool's workers and commits them in order on the calling
// thread (core/gk_means.h); Alg. 3's one-epoch rounds stay on the calling
// thread, in round order (core/graph_builder.h).
//
// ParallelFor/ParallelForSlots track completion with a per-call latch, so
// any number of threads may fan out on one pool concurrently without
// observing each other's completion — the sharded online graph runs one
// per-shard ingest driver per writer thread over a single shared pool.
// The submitting threads must not themselves be pool workers (a worker
// blocking in a nested ParallelFor could deadlock the pool). The raw
// Submit/Wait pair still assumes a single submitting thread: Wait returns
// when *all* in-flight tasks finish, whoever submitted them.

#ifndef GKM_COMMON_THREAD_POOL_H_
#define GKM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gkm {

/// Fixed pool of worker threads executing queued std::function tasks.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs `fn(i)` for i in [begin, end), splitting the range into contiguous
  /// chunks across the pool, and blocks until done. Falls back to inline
  /// execution for trivially small ranges. Safe to call from several
  /// (non-worker) threads concurrently on one pool.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);

  /// Like ParallelFor, but `fn(slot, i)` also receives a slot index in
  /// [0, num_threads()): one task per slot pulls indices off a shared
  /// atomic counter, so no two indices with the same slot ever run
  /// concurrently and callers can keep per-slot scratch (visited stamps,
  /// buffers) without any further synchronization. Which slot runs which
  /// index, and in what order, is not fixed: `fn` must give the same
  /// result whatever slot runs it. Uneven indices balance across slots,
  /// since a slot finishing early takes the next index. The inline
  /// fallback for small ranges or single-threaded pools uses slot 0.
  /// Concurrent submitters each get the full slot range; per-slot state
  /// must therefore be per-submitter too (as with the per-shard ingest
  /// scratch in the sharded online graph).
  void ParallelForSlots(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  // Guards the queue and its bookkeeping between submitters and workers.
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ GKM_GUARDED_BY(mu_);
  CondVar task_cv_;  // signaled on enqueue and shutdown
  CondVar done_cv_;  // signaled when in_flight_ drains to zero
  std::size_t in_flight_ GKM_GUARDED_BY(mu_) = 0;
  bool stop_ GKM_GUARDED_BY(mu_) = false;
};

/// pool->ParallelForSlots(begin, end, fn), or fn(0, i) for every i in
/// order on the calling thread when `pool` is null.
void ParallelForSlots(ThreadPool* pool, std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>& fn);

/// The slots ParallelForSlots(pool, ...) hands out: one when `pool` is null.
inline std::size_t NumSlots(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads();
}

}  // namespace gkm

#endif  // GKM_COMMON_THREAD_POOL_H_
