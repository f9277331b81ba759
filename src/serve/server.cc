// Copyright 2026 The gkmeans Authors.
// Serving daemon implementation. The protocol and queue logic live in
// their own pure components (protocol.cc, batch_queue.cc); this file is
// only the socket plumbing, the dispatch table, and the lifecycle.
//
// No wall-clock reads here: latency policy (the only time-dependent
// behavior) is entirely inside SearchBatcher, and the model mutates only
// on the ingest worker in queue-acceptance order — so nothing in this
// file can make two runs over the same accepted-op sequence diverge.

#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gkm::serve {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return !path.empty() && ::stat(path.c_str(), &st) == 0;
}

/// Sends the whole buffer; false on any transport failure (peer gone).
bool SendAll(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

/// One accepted client. The reader thread parses and dispatches; writers
/// (reader itself, search worker, ingest worker) serialize whole frames
/// under `write_mu` so concurrent responses never interleave mid-frame.
struct Server::Connection {
  int fd = -1;
  Mutex write_mu;
  std::thread reader;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void SendFrame(const Frame& f) {
    std::vector<std::uint8_t> wire;
    AppendFrame(wire, f);
    MutexLock lock(write_mu);
    // A failed send means the peer vanished; its reader thread will see
    // the hangup and retire the connection.
    SendAll(fd, wire.data(), wire.size());
  }
};

/// One accepted ingest operation, answered by the ingest worker after the
/// journal-then-apply step.
struct Server::IngestOp {
  bool is_insert = false;
  std::uint64_t request_id = 0;
  Matrix rows;                     // is_insert
  std::vector<std::uint32_t> ids;  // !is_insert
  std::shared_ptr<Connection> conn;
};

std::unique_ptr<Server> Server::Start(const ServerOptions& opts,
                                      std::string* error) {
  std::unique_ptr<Server> server(new Server());
  if (!server->Init(opts, error)) return nullptr;
  return server;
}

bool Server::Init(const ServerOptions& opts, std::string* error) {
  opts_ = opts;
  GKM_CHECK_MSG(opts_.checkpoint_base.empty() ==
                    opts_.checkpoint_journal.empty(),
                "checkpoint base and journal must be set together");

  // Model: resume when a base checkpoint exists, else boot fresh.
  if (FileExists(opts_.checkpoint_base)) {
    std::string resume_error;
    std::optional<StreamingGkMeans> resumed = TryResumeStreamCheckpoint(
        opts_.checkpoint_base, opts_.checkpoint_journal, &resume_error);
    if (!resumed.has_value()) {
      if (error != nullptr) *error = "checkpoint resume: " + resume_error;
      return false;
    }
    if (opts_.dim != 0 && resumed->dim() != opts_.dim) {
      if (error != nullptr) *error = "checkpoint dim mismatch";
      return false;
    }
    model_.emplace(std::move(*resumed));
  } else {
    if (opts_.dim == 0) {
      if (error != nullptr) *error = "fresh server needs a dimension";
      return false;
    }
    model_.emplace(opts_.dim, opts_.params);
  }
  windows_.store(model_->windows_seen(), std::memory_order_relaxed);
  bootstrapped_.store(model_->bootstrapped(), std::memory_order_relaxed);

  // Durability: the delta log anchors a fresh base now (on resume this IS
  // replay-then-compact — the journal folds into the new base and starts
  // empty) and journals every accepted op before the worker applies it.
  if (!opts_.checkpoint_base.empty()) {
    delta_log_.emplace(opts_.checkpoint_base, opts_.checkpoint_journal,
                       *model_);
    delta_log_->SetAutoCompaction(opts_.compaction);
  }

  // Every flush answers through the routed batch search, which falls back
  // to the merged batch search while no router is published (routing off,
  // S == 1, or before bootstrap). The router is republished after every
  // applied ingest op, and once here so a resumed server routes with the
  // same state it shut down with.
  model_->PublishReadState();
  batcher_.emplace(opts_.batch_policy,
                   [this](const Matrix& queries, std::uint32_t topk) {
                     thread_local SearchScratch scratch;  // one per worker
                     return model_->graph().SearchKnnBatchRouted(
                         queries, topk, scratch);
                   });
  ingest_queue_.emplace(opts_.ingest_queue_capacity);

  // Loopback listener.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = "bind/listen failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = std::max<std::size_t>(opts_.search_workers, 1);
  search_workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    search_workers_.emplace_back([this] { SearchWorkerLoop(); });
  }
  ingest_worker_ = std::thread([this] { IngestWorkerLoop(); });
  return true;
}

Server::~Server() { Shutdown(); }

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    GKM_COUNTER_ADD("serve.connections", 1);
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  FrameParser parser;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer closed or teardown shut the socket
    parser.Feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    FrameParser::Status status;
    while ((status = parser.Next(&frame)) == FrameParser::Status::kFrame) {
      HandleFrame(conn, frame);
    }
    if (status == FrameParser::Status::kError) {
      // Framing is unrecoverable: report and hang up. request_id 0 — the
      // offending frame's id is part of what could not be parsed.
      GKM_COUNTER_ADD("serve.protocol_errors", 1);
      conn->SendFrame(
          MakeErrorResponse(0, ErrorCode::kBadRequest, parser.error()));
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
  }
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& f) {
  GKM_TRACE_SPAN("serve.frame");
  switch (f.opcode) {
    case Opcode::kSearch:
    case Opcode::kBatchSearch: {
      SearchRequest req;
      if (const char* why = DecodeSearchRequest(f, &req)) {
        conn->SendFrame(MakeErrorResponse(f.request_id,
                                          ErrorCode::kBadRequest, why));
        return;
      }
      if (req.queries.cols() != model_->dim()) {
        conn->SendFrame(MakeErrorResponse(
            f.request_id, ErrorCode::kBadRequest, "query dim mismatch"));
        return;
      }
      const bool batch = f.opcode == Opcode::kBatchSearch;
      const std::size_t rows = req.queries.rows();
      SearchJob job;
      job.queries = std::move(req.queries);
      job.topk = req.topk;
      const std::uint64_t request_id = f.request_id;
      job.done = [conn, request_id,
                  batch](std::vector<std::vector<Neighbor>> results) {
        SearchResponse resp;
        resp.results = std::move(results);
        conn->SendFrame(MakeSearchResponse(request_id, batch, resp));
      };
      switch (batcher_->TrySubmit(std::move(job))) {
        case Admission::kAccepted:
          searches_.fetch_add(rows, std::memory_order_relaxed);
          break;
        case Admission::kOverloaded:
          overloaded_.fetch_add(1, std::memory_order_relaxed);
          GKM_COUNTER_ADD("serve.overloaded", 1);
          conn->SendFrame(MakeErrorResponse(
              f.request_id, ErrorCode::kOverloaded, "search queue full"));
          break;
        case Admission::kStopped:
          conn->SendFrame(MakeErrorResponse(
              f.request_id, ErrorCode::kShuttingDown, "server draining"));
          break;
      }
      return;
    }
    case Opcode::kInsert:
    case Opcode::kRemove: {
      IngestOp op;
      op.request_id = f.request_id;
      op.conn = conn;
      if (f.opcode == Opcode::kInsert) {
        InsertRequest req;
        if (const char* why = DecodeInsertRequest(f, &req)) {
          conn->SendFrame(MakeErrorResponse(f.request_id,
                                            ErrorCode::kBadRequest, why));
          return;
        }
        if (req.rows.cols() != model_->dim()) {
          conn->SendFrame(MakeErrorResponse(
              f.request_id, ErrorCode::kBadRequest, "insert dim mismatch"));
          return;
        }
        op.is_insert = true;
        op.rows = std::move(req.rows);
      } else {
        RemoveRequest req;
        if (const char* why = DecodeRemoveRequest(f, &req)) {
          conn->SendFrame(MakeErrorResponse(f.request_id,
                                            ErrorCode::kBadRequest, why));
          return;
        }
        op.ids = std::move(req.ids);
      }
      switch (ingest_queue_->TryPush(std::move(op))) {
        case Admission::kAccepted:
          break;
        case Admission::kOverloaded:
          overloaded_.fetch_add(1, std::memory_order_relaxed);
          GKM_COUNTER_ADD("serve.overloaded", 1);
          conn->SendFrame(MakeErrorResponse(
              f.request_id, ErrorCode::kOverloaded, "ingest queue full"));
          break;
        case Admission::kStopped:
          conn->SendFrame(MakeErrorResponse(
              f.request_id, ErrorCode::kShuttingDown, "server draining"));
          break;
      }
      return;
    }
    case Opcode::kStats: {
      if (DecodeEmptyPayload(f) != nullptr) {
        conn->SendFrame(MakeErrorResponse(
            f.request_id, ErrorCode::kBadRequest, "unexpected payload"));
        return;
      }
      conn->SendFrame(MakeStatsResponse(f.request_id, Stats()));
      return;
    }
    case Opcode::kShutdown: {
      if (DecodeEmptyPayload(f) != nullptr) {
        conn->SendFrame(MakeErrorResponse(
            f.request_id, ErrorCode::kBadRequest, "unexpected payload"));
        return;
      }
      // Ack first, then raise the request — the owner thread runs the
      // actual teardown (WaitForShutdownRequest + Shutdown).
      conn->SendFrame(MakeShutdownAck(f.request_id));
      {
        MutexLock lock(lifecycle_mu_);
        shutdown_requested_ = true;
      }
      lifecycle_cv_.NotifyAll();
      return;
    }
    default:
      // A response opcode as a request: well-framed nonsense.
      conn->SendFrame(MakeErrorResponse(f.request_id, ErrorCode::kBadRequest,
                                        "not a request opcode"));
      return;
  }
}

void Server::SearchWorkerLoop() {
  while (batcher_->FlushOnce()) {
  }
}

void Server::IngestWorkerLoop() {
  IngestOp op;
  while (ingest_queue_->PopBlocking(&op)) {
    if (op.is_insert) {
      ApplyInsert(op);
    } else {
      ApplyRemove(op);
    }
    op = IngestOp();  // drop the connection reference between ops
  }
}

void Server::ApplyInsert(IngestOp& op) {
  GKM_TRACE_SPAN("serve.ingest.insert");
  // Journal BEFORE apply: an op is durable the moment it can have had any
  // observable effect, so restart never loses an answered insert.
  if (delta_log_.has_value()) delta_log_->AppendWindow(op.rows);
  std::vector<std::uint32_t> assigned;
  model_->ObserveWindow(op.rows, &assigned);
  if (delta_log_.has_value()) delta_log_->MaybeCompact(*model_);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  windows_.store(model_->windows_seen(), std::memory_order_relaxed);
  bootstrapped_.store(model_->bootstrapped(), std::memory_order_relaxed);
  InsertResponse resp;
  resp.assigned = std::move(assigned);
  op.conn->SendFrame(MakeInsertResponse(op.request_id, resp));
}

void Server::ApplyRemove(IngestOp& op) {
  GKM_TRACE_SPAN("serve.ingest.remove");
  RemoveResponse resp;
  resp.removed.resize(op.ids.size(), 0);
  for (std::size_t i = 0; i < op.ids.size(); ++i) {
    const std::uint32_t id = op.ids[i];
    // Idempotent removes: a dead or never-assigned id answers 0 rather
    // than failing the batch (RemovePoint requires a live id).
    if (id >= model_->points_seen() || !model_->graph().IsAlive(id)) continue;
    if (delta_log_.has_value()) delta_log_->AppendRemoval(id);
    model_->RemovePoint(id);
    resp.removed[i] = 1;
    removes_.fetch_add(1, std::memory_order_relaxed);
  }
  // Removes bypass ObserveWindow (which republishes internally), so the
  // router's active-cluster flags are refreshed here, once per accepted
  // op. That keeps routing a pure function of the accepted-op sequence,
  // which the restart bit-identity gate relies on.
  model_->PublishReadState();
  op.conn->SendFrame(MakeRemoveResponse(op.request_id, resp));
}

StatsResponse Server::Stats() const {
  StatsResponse s;
  s.points_seen = model_->points_seen();
  s.points_alive = model_->points_alive();
  s.windows = windows_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.removes = removes_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.dim = static_cast<std::uint32_t>(model_->dim());
  s.shards = static_cast<std::uint32_t>(model_->params().graph.shards);
  s.search_queue_depth =
      static_cast<std::uint32_t>(batcher_->pending_rows());
  s.ingest_queue_depth = static_cast<std::uint32_t>(ingest_queue_->size());
  s.bootstrapped = bootstrapped_.load(std::memory_order_relaxed) ? 1 : 0;
  return s;
}

void Server::WaitForShutdownRequest() {
  MutexLock lock(lifecycle_mu_);
  lifecycle_cv_.Wait(lifecycle_mu_, [this]() GKM_REQUIRES(lifecycle_mu_) {
    return shutdown_requested_;
  });
}

void Server::Shutdown() {
  {
    MutexLock lock(lifecycle_mu_);
    shutdown_requested_ = true;
    lifecycle_cv_.NotifyAll();
    if (teardown_started_) {
      // Another thread is (or finished) tearing down; wait it out.
      lifecycle_cv_.Wait(lifecycle_mu_, [this]() GKM_REQUIRES(lifecycle_mu_) {
        return shutdown_done_;
      });
      return;
    }
    teardown_started_ = true;
  }

  // 1. Stop accepting connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();

  // 2. Refuse new work; in-flight requests answer kShuttingDown.
  batcher_->Stop();
  ingest_queue_->Stop();

  // 3. Drain: every worker completes every accepted op (responses
  // included) before exiting — accepted work is never dropped.
  for (std::thread& w : search_workers_) w.join();
  search_workers_.clear();
  ingest_worker_.join();

  // 4. Checkpoint-on-shutdown: fold the journal into a fresh base. A
  // restart resumes from it and serves bit-identical results.
  if (delta_log_.has_value()) delta_log_->Compact(*model_);

  // 5. Hang up every client and retire the reader threads.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  conns.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;

  {
    MutexLock lock(lifecycle_mu_);
    shutdown_done_ = true;
  }
  lifecycle_cv_.NotifyAll();
}

}  // namespace gkm::serve
