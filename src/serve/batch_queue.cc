// Copyright 2026 The gkmeans Authors.
// SearchBatcher implementation. Flushing is work-conserving — a worker
// that finds queued jobs flushes them at once — so no clock is read here:
// batch composition depends only on which queries queued while workers
// were busy, and it never changes answers (see batch_queue.h).

#include "serve/batch_queue.h"

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm::serve {

Admission SearchBatcher::TrySubmit(SearchJob job) {
  GKM_CHECK_MSG(job.queries.rows() > 0, "empty search job");
  GKM_CHECK_MSG(job.topk > 0, "search job without topk");
  const std::size_t rows = job.queries.rows();
  {
    MutexLock lock(mu_);
    if (stopped_) return Admission::kStopped;
    if (pending_rows_ + rows > policy_.max_pending) {
      GKM_COUNTER_ADD("serve.batcher.overloaded", 1);
      return Admission::kOverloaded;
    }
    queue_.push_back(std::move(job));
    pending_rows_ += rows;
  }
  cv_.NotifyOne();
  return Admission::kAccepted;
}

bool SearchBatcher::FlushOnce() {
  std::vector<SearchJob> batch;
  std::size_t batch_rows = 0;
  {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [this]() GKM_REQUIRES(mu_) {
      return stopped_ || !queue_.empty();
    });
    if (queue_.empty()) return false;  // stopped and drained

    // Work-conserving: drain at once, under the same lock hold, whole jobs
    // up to max_batch rows (the last job may overshoot; it is never split,
    // so every job completes from exactly one flush). Whatever queued while
    // the workers were busy rides along; nothing waits for company.
    while (!queue_.empty() && batch_rows < policy_.max_batch) {
      batch_rows += queue_.front().queries.rows();
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    pending_rows_ -= batch_rows;
  }

  GKM_TRACE_SPAN("serve.batcher.flush");
  GKM_COUNTER_ADD("serve.batcher.flushes", 1);
  GKM_COUNTER_ADD("serve.batcher.coalesced_rows", batch_rows);
  GKM_HISTOGRAM_RECORD("serve.batcher.batch_rows", batch_rows);

  // Coalesce outside the lock: one search at the group's max top-k.
  const std::size_t dim = batch.front().queries.cols();
  std::uint32_t max_topk = 0;
  for (const SearchJob& job : batch) {
    GKM_CHECK_MSG(job.queries.cols() == dim, "mixed dims in one batch");
    if (job.topk > max_topk) max_topk = job.topk;
  }
  Matrix coalesced;
  coalesced.Reset(batch_rows, dim);
  std::size_t at = 0;
  for (const SearchJob& job : batch) {
    for (std::size_t r = 0; r < job.queries.rows(); ++r) {
      coalesced.SetRow(at++, job.queries.Row(r));
    }
  }

  std::vector<std::vector<Neighbor>> results = fn_(coalesced, max_topk);
  GKM_CHECK_MSG(results.size() == batch_rows, "search dropped queries");

  // Complete each job with its truncated slice, in submission order.
  at = 0;
  for (SearchJob& job : batch) {
    std::vector<std::vector<Neighbor>> slice(job.queries.rows());
    for (std::size_t r = 0; r < slice.size(); ++r) {
      slice[r] = std::move(results[at++]);
      if (slice[r].size() > job.topk) slice[r].resize(job.topk);
    }
    job.done(std::move(slice));
  }
  return true;
}

void SearchBatcher::Stop() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  cv_.NotifyAll();
}

std::size_t SearchBatcher::pending_rows() const {
  MutexLock lock(mu_);
  return pending_rows_;
}

}  // namespace gkm::serve
