// Copyright 2026 The gkmeans Authors.

#include "core/graph_builder.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/distance.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace gkm {

namespace {

// The GraphBuildParams::threads convention: 0 means all hardware threads.
std::size_t ResolveThreads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// Exhaustive comparison inside one cluster (Alg. 3 lines 8-14); returns
// the number of list entries changed. Members' rows are first gathered
// into `scratch`: each row participates in ~xi comparisons, so paying one
// copy per row keeps the quadratic pair loop inside L1/L2 instead of
// striding through the full dataset (a large win at high dimensionality).
std::size_t JoinCluster(const Matrix& data,
                        const std::vector<std::uint32_t>& members,
                        Matrix& scratch, KnnGraph& graph) {
  const std::size_t m = members.size();
  if (m < 2) return 0;
  const std::size_t d = data.cols();
  scratch.Reset(m, d);
  for (std::size_t a = 0; a < m; ++a) scratch.SetRow(a, data.Row(members[a]));
  std::size_t updates = 0;
  for (std::size_t a = 0; a < m; ++a) {
    const float* xa = scratch.Row(a);
    for (std::size_t b = a + 1; b < m; ++b) {
      const float dist = L2Sqr(xa, scratch.Row(b), d);
      updates += static_cast<std::size_t>(
          graph.UpdateBoth(members[a], members[b], dist));
    }
  }
  return updates;
}

}  // namespace

std::unique_ptr<ThreadPool> MakeTreePool(std::size_t threads,
                                         std::size_t trees) {
  const std::size_t workers = std::min(ResolveThreads(threads) - 1, trees);
  if (workers == 0) return nullptr;
  return std::make_unique<ThreadPool>(workers);
}

// One queued build, shared by its handle and its pool task: the phase and,
// once done, the start.
class PendingStart::Build {
 public:
  /// Claims the build for the worker that runs it; false once dropped.
  bool Begin() {
    MutexLock lock(mu_);
    if (phase_ == Phase::kDropped) return false;
    phase_ = Phase::kRunning;
    return true;
  }

  void Finish(GkStart start) {
    {
      MutexLock lock(mu_);
      start_ = std::move(start);
      phase_ = Phase::kDone;
    }
    done_cv_.NotifyAll();
  }

  /// Waits for the build to finish and hands over its start.
  GkStart Await() {
    MutexLock lock(mu_);
    WaitDone();
    return std::move(*start_);
  }

  /// Drops the build if no worker has begun it, else waits for it.
  void DropOrJoin() {
    MutexLock lock(mu_);
    if (phase_ == Phase::kQueued) {
      phase_ = Phase::kDropped;
      return;
    }
    WaitDone();
  }

 private:
  enum class Phase { kQueued, kRunning, kDone, kDropped };

  void WaitDone() GKM_REQUIRES(mu_) {
    done_cv_.Wait(mu_, [this]() GKM_REQUIRES(mu_) {
      return phase_ == Phase::kDone;
    });
  }

  Mutex mu_;
  CondVar done_cv_;  // signaled when the phase becomes kDone
  Phase phase_ GKM_GUARDED_BY(mu_) = Phase::kQueued;
  std::optional<GkStart> start_ GKM_GUARDED_BY(mu_);
};

PendingStart::PendingStart(const Matrix& data, const GkMeansParams& params)
    : data_(&data), params_(params) {}

PendingStart::~PendingStart() {
  // A running build reads *data_, which the caller may free once we return.
  if (build_ != nullptr) build_->DropOrJoin();
}

void PendingStart::Queue(ThreadPool* pool) {
  GKM_CHECK_MSG(build_ == nullptr, "start queued twice");
  if (pool == nullptr) return;
  build_ = std::make_shared<Build>();
  // The task holds its own reference: a dropped build is skipped after its
  // handle is gone.
  pool->Submit([build = build_, &data = *data_, params = params_] {
    if (build->Begin()) build->Finish(MakeGkStart(data, params));
  });
}

GkStart PendingStart::Take() {
  if (build_ == nullptr) return MakeGkStart(*data_, params_);
  GKM_TRACE_SPAN("core.tree_wait");
  Timer wait;
  GkStart start = build_->Await();
  build_.reset();
  // Built ahead: only the wait lands on the caller's clock.
  start.seconds = wait.Seconds();
  return start;
}

KnnGraph BuildKnnGraph(const Matrix& data, const GraphBuildParams& params,
                       GraphBuildStats* stats, const RoundObserver& observer) {
  const std::unique_ptr<ThreadPool> pool =
      MakeTreePool(params.threads, params.tau);
  return BuildKnnGraph(data, params, stats, observer, pool.get(), nullptr);
}

KnnGraph BuildKnnGraph(const Matrix& data, const GraphBuildParams& params,
                       GraphBuildStats* stats, const RoundObserver& observer,
                       ThreadPool* pool, PendingStart* then) {
  const std::size_t n = data.rows();
  GKM_CHECK(params.kappa > 0);
  GKM_CHECK(params.xi >= 2);
  GKM_CHECK_MSG(n > params.kappa, "need more points than graph degree");

  Rng rng(params.seed);
  Timer total;
  KnnGraph graph(n, params.kappa);

  // k0 = floor(n / xi) clusters of expected size xi (Alg. 3 line 5); the 2M
  // tree keeps actual sizes within +/- a few of xi.
  const std::size_t k0 = std::max<std::size_t>(2, n / params.xi);

  // (i) Each round clusters with the fast k-means itself, guided by the
  // current graph (Alg. 3 line 7). Fresh seed per round so successive
  // 2M-trees explore different partitions — that diversity is what keeps
  // recall climbing. A tree reads only `data` and its seed, so all τ are
  // queued as soon as their seeds are drawn, in round order, and built
  // ahead of their rounds; `then` queues behind them. The seeds follow
  // the random init's candidate draws on the Rng, so those are drawn
  // first and scored (Alg. 3 line 4) while tree 0 builds. Starts a round
  // never takes (early stop) are dropped or joined when `starts` goes out
  // of scope.
  GkMeansParams inner;
  inner.k = k0;
  inner.kappa = params.kappa;
  inner.max_iters = params.inner_epochs;
  inner.bisect_epochs = params.bisect_epochs;
  std::vector<PendingStart> starts;
  starts.reserve(params.tau);
  {
    GKM_TRACE_SPAN("core.init_random");
    const std::vector<std::uint32_t> candidates =
        graph.DrawRandomCandidates(rng);
    for (std::size_t t = 0; t < params.tau; ++t) {
      inner.seed = rng.Next();
      starts.emplace_back(data, inner);
      starts.back().Queue(pool);
    }
    if (then != nullptr) then->Queue(pool);
    graph.ScoreRandomCandidates(data, candidates);
  }

  // The rounds' joins run on their own pool: the tree pool's FIFO queue
  // holds up to τ+1 trees, which their chunks would wait behind. The
  // calling thread waits on it, so it has `threads` workers.
  const std::size_t threads = ResolveThreads(params.threads);
  const std::unique_ptr<ThreadPool> data_pool =
      threads > 1 && params.tau > 0 ? std::make_unique<ThreadPool>(threads)
                                    : nullptr;
  std::vector<Matrix> scratch(NumSlots(data_pool.get()));

  std::vector<std::vector<std::uint32_t>> clusters(k0);
  for (std::size_t t = 0; t < params.tau; ++t) {
    GkStart start = starts[t].Take();
    ClusteringResult round;
    {
      GKM_TRACE_SPAN("core.graph_epoch");
      round = GkMeansWithGraph(data, graph, inner, std::move(start),
                               data_pool.get());
    }

    // (ii) Exhaustive comparison inside every cluster (Alg. 3 lines 8-14).
    // The clusters partition the nodes and a cluster's pairs touch only
    // its members' lists, so the joins write disjoint lists and run side
    // by side. Each list still receives the same offers in the same order,
    // so the graph is bit-identical at any thread count.
    std::size_t updates = 0;
    {
      GKM_TRACE_SPAN("core.join");
      for (auto& c : clusters) c.clear();
      for (std::size_t i = 0; i < n; ++i) {
        clusters[round.assignments[i]].push_back(
            static_cast<std::uint32_t>(i));
      }
      std::vector<std::size_t> slot_updates(scratch.size(), 0);
      ParallelForSlots(data_pool.get(), 0, k0,
                       [&](std::size_t slot, std::size_t c) {
                         slot_updates[slot] += JoinCluster(
                             data, clusters[c], scratch[slot], graph);
                       });
      for (const std::size_t u : slot_updates) updates += u;
    }

    if (stats != nullptr) {
      stats->round_distortion.push_back(round.distortion);
      stats->round_seconds.push_back(total.Seconds());
      stats->round_updates.push_back(updates);
    }
    if (observer) observer(t, graph);
    if (params.early_stop_delta > 0.0 &&
        static_cast<double>(updates) < params.early_stop_delta *
                                           static_cast<double>(n) *
                                           static_cast<double>(params.kappa)) {
      break;
    }
  }
  return graph;
}

}  // namespace gkm
