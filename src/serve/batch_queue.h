// Copyright 2026 The gkmeans Authors.
// The serving daemon's admission-controlled queues, built as pure
// in-process components (no sockets): a generic bounded MPSC queue for
// ingest ops and a work-conserving micro-batching search queue that
// coalesces the queries queued while every search worker was busy into
// one SearchKnnBatch-shaped call of at most max-batch rows.
//
// Back-pressure contract (docs/serving.md): admission is non-blocking.
// When a queue is at capacity, TrySubmit/TryPush return a refusal the
// caller turns into an explicit OVERLOADED response — requests are never
// silently dropped and producers are never blocked by a slow consumer.
//
// Determinism: the batcher only *groups* queries — each flush runs the
// underlying search once at the max top-k of the group and truncates per
// query, which is exact because a k-prefix of a k'-neighbor list (k<=k')
// equals the k-neighbor list (the search's candidate pool is
// topk-independent; see docs/serving.md#batching). Queries never mutate
// model state, so batching composition cannot perturb checkpoints.

#ifndef GKM_SERVE_BATCH_QUEUE_H_
#define GKM_SERVE_BATCH_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/mutex.h"
#include "common/top_k.h"

namespace gkm::serve {

/// Admission verdicts shared by both queues.
enum class Admission {
  kAccepted,   ///< queued; the consumer will complete it
  kOverloaded, ///< at capacity — answer OVERLOADED, retry later
  kStopped,    ///< shutting down — answer SHUTTING_DOWN
};

/// Bounded multi-producer single-consumer FIFO. Producers never block:
/// TryPush refuses beyond `capacity`. The consumer blocks in PopBlocking
/// until an item or stop arrives; after Stop() the queue drains —
/// already-accepted items are still handed out, so an accepted op is
/// never silently dropped.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  Admission TryPush(T item) {
    {
      MutexLock lock(mu_);
      if (stopped_) return Admission::kStopped;
      if (items_.size() >= capacity_) return Admission::kOverloaded;
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return Admission::kAccepted;
  }

  /// Blocks until an item is available (true) or the queue is stopped AND
  /// empty (false). Items accepted before Stop() keep coming out.
  bool PopBlocking(T* out) {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [this]() GKM_REQUIRES(mu_) {
      return stopped_ || !items_.empty();
    });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  void Stop() {
    {
      MutexLock lock(mu_);
      stopped_ = true;
    }
    cv_.NotifyAll();
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GKM_GUARDED_BY(mu_);
  bool stopped_ GKM_GUARDED_BY(mu_) = false;
};

/// Coalescing policy. Flushing is work-conserving: a worker that finds
/// queued jobs flushes them at once — there is no coalescing delay — so
/// batches form only from queries that arrived while every worker was
/// busy. They stay small when idle and grow toward `max_batch` under load.
struct BatchPolicy {
  std::size_t max_batch = 64;     ///< query rows per coalesced search
  std::size_t max_pending = 4096; ///< admission cap on queued rows
};

/// One pending search: `queries` rows at `topk`, completed exactly once
/// via `done` (from the flushing thread) with one Neighbor list per row.
struct SearchJob {
  Matrix queries;
  std::uint32_t topk = 0;
  std::function<void(std::vector<std::vector<Neighbor>>)> done;
};

/// Micro-batching search queue. Producers TrySubmit jobs; consumers loop
/// FlushOnce, which blocks until work arrives, coalesces whole jobs into a
/// single Matrix, runs `fn` ONCE at the group's max top-k, and completes
/// each job with its truncated slice. Multiple consumers may loop
/// FlushOnce concurrently (the server's `search_workers` option runs
/// several); each flush drains whole jobs under the lock, so a job
/// is completed by exactly one worker. Drivable synchronously in tests:
/// submit from the same thread, then call FlushOnce.
class SearchBatcher {
 public:
  using SearchFn = std::function<std::vector<std::vector<Neighbor>>(
      const Matrix& queries, std::uint32_t topk)>;

  SearchBatcher(BatchPolicy policy, SearchFn fn)
      : policy_(policy), fn_(std::move(fn)) {}

  /// Non-blocking admission; kOverloaded once pending rows reach
  /// max_pending. A job with more rows than max_batch is still admitted
  /// whole (flushes are whole-job: one oversized flush, never a split).
  Admission TrySubmit(SearchJob job);

  /// Consumer step: waits for work (or Stop), then at once drains whole
  /// jobs up to max_batch rows and flushes them as one coalesced group.
  /// Returns false only when stopped AND drained; after Stop() the
  /// remaining jobs keep flushing until the queue is empty.
  bool FlushOnce();

  /// Wakes the consumer and refuses new work; accepted jobs still flush.
  void Stop();

  /// Pending query rows (admission metric; the stats opcode reports it).
  std::size_t pending_rows() const;

 private:
  const BatchPolicy policy_;
  const SearchFn fn_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<SearchJob> queue_ GKM_GUARDED_BY(mu_);
  std::size_t pending_rows_ GKM_GUARDED_BY(mu_) = 0;
  bool stopped_ GKM_GUARDED_BY(mu_) = false;
};

}  // namespace gkm::serve

#endif  // GKM_SERVE_BATCH_QUEUE_H_
