// Copyright 2026 The gkmeans Authors.
// The serving daemon: a long-running query/ingest front-end over
// StreamingGkMeans / ShardedOnlineKnnGraph speaking the GKMP protocol
// (serve/protocol.h) on loopback-or-LAN TCP.
//
// Thread model (docs/serving.md#threads):
//
//   accept thread     — accepts connections, one reader thread each
//   connection threads— parse frames (FrameParser), decode, dispatch;
//                       answer stats inline, enqueue search/ingest
//   search workers    — loop SearchBatcher::FlushOnce: flush at once
//                       whatever queries queued while the worker was
//                       busy as one batched search (amortizing the shard
//                       rwlocks and filling SIMD lanes under load, never
//                       waiting to fill a batch), complete each query
//                       with its truncated slice. Each flush is one
//                       SearchKnnBatchRouted call; under routed placement
//                       a query holds only its home shard's reader lock,
//                       so several workers rarely contend
//   ingest worker     — THE only model mutator: pops accepted insert/
//                       remove ops in queue order, journals each to the
//                       delta log BEFORE applying, then answers. The
//                       model is a pure function of the accepted-op
//                       sequence, which is what makes a restarted server
//                       answer bit-identically (see Lifecycle below).
//
// Back-pressure: both queues are bounded and admission is non-blocking —
// a full queue answers ERROR/kOverloaded immediately (the client saw it:
// no silent drops), and an accepted op is always applied and answered.
//
// Lifecycle: Start() resumes from checkpoint_base(+journal) when the
// base exists, else boots a fresh model. Shutdown() stops admission,
// drains both queues (accepted work still completes), folds the journal
// into a fresh base (StreamDeltaLog::Compact), then closes connections.
// A server restarted from those files serves search results
// byte-identical to one that never stopped.

#ifndef GKM_SERVE_SERVER_H_
#define GKM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "serve/batch_queue.h"
#include "serve/protocol.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace gkm::serve {

struct ServerOptions {
  /// Model shape. `dim` is required for a fresh boot and must match the
  /// checkpoint on resume.
  std::size_t dim = 0;
  StreamingGkMeansParams params;

  /// Micro-batching policy of the search path.
  BatchPolicy batch_policy;

  /// Admission cap on queued ingest ops (windows + removal batches).
  std::size_t ingest_queue_capacity = 64;

  /// Search worker threads draining the batcher. One is the classic
  /// single-reader; more pay off under routed placement, where each query
  /// holds only the reader lock of the one or two shards it routes to, so
  /// concurrent flushes mostly read different shards.
  std::size_t search_workers = 1;

  /// Durability: when `checkpoint_base` is non-empty the server resumes
  /// from base(+journal) if the base exists, journals every accepted op
  /// before applying it, and compacts on shutdown. Both paths must be
  /// set together.
  std::string checkpoint_base;
  std::string checkpoint_journal;
  /// Auto-compaction consulted after each applied window (0s = manual).
  DeltaCompactionPolicy compaction;

  /// TCP port to bind on 127.0.0.1 (0 = ephemeral; see Server::port()).
  int port = 0;
};

/// One running daemon. Construction via Start(); destruction shuts down.
class Server {
 public:
  /// Boots the model (fresh or checkpoint resume), binds the listener and
  /// starts every thread. nullptr + `*error` on bind/resume failure.
  static std::unique_ptr<Server> Start(const ServerOptions& opts,
                                       std::string* error);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound port (useful with opts.port == 0).
  int port() const { return port_; }

  /// Blocks until a client's kShutdown request is accepted (or Shutdown()
  /// is called locally). The caller then runs Shutdown() — the daemon
  /// main-loop idiom: Start(); WaitForShutdownRequest(); Shutdown().
  void WaitForShutdownRequest();

  /// Graceful stop: refuse new work, drain accepted work, checkpoint,
  /// close connections, join every thread. Idempotent.
  void Shutdown();

  /// Server statistics snapshot (same data the kStats opcode reports).
  StatsResponse Stats() const;

 private:
  struct Connection;
  struct IngestOp;

  Server() = default;

  bool Init(const ServerOptions& opts, std::string* error);
  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, const Frame& f);
  void SearchWorkerLoop();
  void IngestWorkerLoop();
  void ApplyInsert(IngestOp& op);
  void ApplyRemove(IngestOp& op);

  ServerOptions opts_;
  std::optional<StreamingGkMeans> model_;
  std::optional<StreamDeltaLog> delta_log_;  // engaged iff durable

  int listen_fd_ = -1;
  int port_ = 0;

  std::optional<SearchBatcher> batcher_;
  std::optional<BoundedQueue<IngestOp>> ingest_queue_;

  std::thread accept_thread_;
  std::vector<std::thread> search_workers_;
  std::thread ingest_worker_;

  Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GKM_GUARDED_BY(conns_mu_);

  Mutex lifecycle_mu_;
  CondVar lifecycle_cv_;
  bool shutdown_requested_ GKM_GUARDED_BY(lifecycle_mu_) = false;
  bool teardown_started_ GKM_GUARDED_BY(lifecycle_mu_) = false;
  bool shutdown_done_ GKM_GUARDED_BY(lifecycle_mu_) = false;

  // Stats counters. The model's own windows_seen()/bootstrapped() are
  // ingest-thread-owned, so the server mirrors them into atomics the
  // stats path may read from any connection thread.
  std::atomic<std::uint64_t> searches_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> removes_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<bool> bootstrapped_{false};
};

}  // namespace gkm::serve

#endif  // GKM_SERVE_SERVER_H_
