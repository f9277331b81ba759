// Copyright 2026 The gkmeans Authors.

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/macros.h"

namespace gkm {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    GKM_CHECK_MSG(!stop_, "Submit after destruction began");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  done_cv_.Wait(mu_, [this]() GKM_REQUIRES(mu_) { return in_flight_ == 0; });
}

namespace {

// Per-call completion latch: each ParallelFor* invocation counts down its
// own tasks, so concurrent submitters on one pool never observe each
// other's completion (the global in_flight_ counter behind Wait() cannot
// distinguish owners).
struct CallLatch {
  Mutex mu;
  CondVar cv;
  std::size_t remaining GKM_GUARDED_BY(mu);

  explicit CallLatch(std::size_t n) : remaining(n) {}

  void CountDown() {
    MutexLock lock(mu);
    if (--remaining == 0) cv.NotifyAll();
  }
  void Await() {
    MutexLock lock(mu);
    cv.Wait(mu, [this]() GKM_REQUIRES(mu) { return remaining == 0; });
  }
};

}  // namespace

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t threads = num_threads();
  if (n < 2 || threads < 2) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, threads * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t live = (n + chunk - 1) / chunk;  // chunks actually issued
  CallLatch latch(live);
  for (std::size_t c = 0; c < live; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    Submit([&fn, &latch, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      latch.CountDown();
    });
  }
  latch.Await();
}

void ThreadPool::ParallelForSlots(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t threads = num_threads();
  if (n < 2 || threads < 2) {
    for (std::size_t i = begin; i < end; ++i) fn(0, i);
    return;
  }
  // One task per slot, each pulling indices off a shared counter until the
  // range runs out: slot s is owned by exactly one task, so per-slot caller
  // state needs no locking, and a slow index delays only its own task.
  const std::size_t slots = std::min(n, threads);
  std::atomic<std::size_t> next{begin};
  CallLatch latch(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    Submit([&fn, &latch, &next, s, end] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < end; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(s, i);
      }
      latch.CountDown();
    });
  }
  latch.Await();
}

void ParallelForSlots(
    ThreadPool* pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelForSlots(begin, end, fn);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) fn(0, i);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      task_cv_.Wait(
          mu_, [this]() GKM_REQUIRES(mu_) { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.NotifyAll();
    }
  }
}

}  // namespace gkm
