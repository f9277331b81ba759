// Copyright 2026 The gkmeans Authors.
// serve_mixed / serve_search: the GKMP daemon under open-loop traffic.
//
// The daemon runs in a forked child process (S=4 shards, routed placement,
// two search workers, no replicas, default batch policy, journal on). This
// process is the load generator: one synchronous control connection
// (seeding, stats, recall probes, shutdown) and at most two load
// connections, each with one sender and one receiver thread (the main
// thread is the search sender, so four threads in all), pipelining
// pre-encoded frames over raw sockets. A synchronous Client would cap the
// offered rate near its round trip.
//
// Search traffic is open loop — requests leave on schedule whatever the
// replies do, and latency is timed from each request's due time — in
// phases of Poisson arrivals:
//   operating phase — kOperatingQps for 0.3 x --seconds;
//   ladder          — kLadderSteps steps: rates grow by kLadderGrowth from
//                     a seeded start until a step fails twice in a row,
//                     then bisect (geometrically) between the best passing
//                     and the worst failing rate, so the highest rate that
//                     meets the latency limit without a growing backlog is
//                     resolved to a few percent in a fixed number of steps.
// serve_mixed adds, beside both, 20 inserts/s of 50 rows and a removal of
// 10 ids per 100 rows inserted on a second connection.
//
// Set-up — input generation, daemon start and seeding 20k points — runs
// kSetupReps times, each with a fresh daemon; the last one takes the load.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataset/synthetic.h"
#include "gkbench.h"
#include "obs/clock.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/checkpoint.h"

namespace gkbench {
namespace {

using gkm::serve::Frame;
using gkm::serve::FrameParser;
using gkm::serve::Opcode;

constexpr std::size_t kDim = 32;
constexpr std::size_t kClusters = 64;
constexpr std::size_t kKappa = 16;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSearchWorkers = 2;
constexpr std::size_t kSeedPoints = 20000;
constexpr std::size_t kSeedWindow = 1000;
/// Set-ups per run; one set-up's time swings ±40% with the host.
constexpr int kSetupReps = 3;
constexpr std::uint32_t kTopK = 10;
constexpr double kOperatingQps = 2000.0;
/// The ladder's first rate lies in [kLadderStart, kLadderStart x
/// kLadderGrowth), drawn from the seed, so max rates do not all fall on
/// one grid of rates. Today's knee is 35-50k qps.
constexpr double kLadderStart = 28000.0;
constexpr double kLadderGrowth = 1.25;
constexpr int kLadderSteps = 8;
/// Requests per block when judging a step (see MedianBlock).
constexpr std::size_t kBlock = 1000;
/// A ladder step passes when, in its median block, search p99 (refusals
/// and failures counted as misses) is within the limit and few requests
/// fail, and when the last second's completions keep up with its sends
/// (no growing backlog).
constexpr double kLatencyLimitUs = 10000.0;
constexpr double kMaxFailedFrac = 0.001;
constexpr double kMinCompletionRatio = 0.95;
constexpr double kInsertsPerSecond = 20.0;
constexpr std::size_t kInsertRows = 50;
constexpr std::size_t kRemoveIds = 10;  // per 100 inserted rows
constexpr std::size_t kQueryPool = 20000;
/// Floor of the recall check: a tripwire for a broken read path. Routed
/// search measures 0.72-0.87 recall@10 across seeds and both workloads
/// here, lower after more churn, so a floor at 0.8 would fail correct
/// runs; the recall_at_10 metric tracks quality.
constexpr double kMinRecall = 0.5;
constexpr std::size_t kProbes = 500;
/// Idle time after each phase's answers are in, so one step's queues are
/// empty before the next step starts.
constexpr double kGapSeconds = 0.5;
/// Send lateness (p99 of the median block) that voids a run: ten
/// inter-arrival times at kOperatingQps. The host's slow spells push it to
/// about 1 ms in correct runs.
constexpr double kMaxLateUs = 5000.0;
/// How long a phase waits for answers after its last send before the rest
/// count as timed out. Long enough that an overloaded step's backlog has
/// drained before the next step starts.
constexpr double kDrainSeconds = 5.0;
/// Unjudged traffic at the first ladder rate before the first step: the
/// first second at ladder rates after the light operating phase runs slow
/// (p99 up to ~200 ms) while the daemon's buffers grow.
constexpr double kWarmupSeconds = 1.0;
/// Operating phase, warm-up, ladder steps, ingest.
constexpr std::size_t kMaxSchedules = 3 + kLadderSteps;

enum Kind : std::uint8_t { kSearch, kInsert, kRemove };
enum Status : std::uint8_t { kPending, kOk, kRefused, kFailed };

std::int64_t Nanos(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

/// The requests of one connection — one search phase, or the whole
/// ingest stream — planned and encoded before it is sent, so the sender
/// only sleeps and writes. Outcome slots are written by the connection's
/// receiver thread (atomics: the main thread reads them while late
/// answers may still arrive).
class Schedule {
 public:
  explicit Schedule(std::uint32_t index) : index_(index) {}
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// Request id of the next Add: the schedule's index in the high half, so
  /// the receiver finds the schedule of any answer (0 stays reserved).
  std::uint64_t NextRequestId() const {
    return (static_cast<std::uint64_t>(index_) << 32) | (due_ns_.size() + 1);
  }
  void Add(std::int64_t due_ns, Kind kind, const Frame& frame) {
    due_ns_.push_back(due_ns);
    kind_.push_back(kind);
    gkm::serve::AppendFrame(wire_, frame);
    offset_.push_back(wire_.size());
  }
  /// Sizes the outcome slots; call once, after the last Add.
  void Seal() {
    send_ns_.assign(size(), 0);
    recv_ns_ = std::make_unique<std::atomic<std::int64_t>[]>(size());
    status_ = std::make_unique<std::atomic<std::uint8_t>[]>(size());
    removed_ = std::make_unique<std::atomic<std::uint32_t>[]>(size());
  }

  std::uint32_t index() const { return index_; }
  std::size_t size() const { return due_ns_.size(); }
  std::int64_t due_ns(std::size_t i) const { return due_ns_[i]; }
  Kind kind(std::size_t i) const { return kind_[i]; }
  const std::uint8_t* frames(std::size_t i) const {
    return wire_.data() + offset_[i];
  }
  std::size_t frame_bytes(std::size_t begin, std::size_t end) const {
    return offset_[end] - offset_[begin];
  }

  // Sender side.
  void set_send_ns(std::size_t i, std::int64_t t) { send_ns_[i] = t; }
  std::int64_t send_ns(std::size_t i) const { return send_ns_[i]; }

  // Receiver side: the status store publishes the other slots.
  void Answer(std::size_t i, Status st, std::int64_t recv_ns,
              std::uint32_t removed) {
    recv_ns_[i].store(recv_ns, std::memory_order_relaxed);
    removed_[i].store(removed, std::memory_order_relaxed);
    status_[i].store(st, std::memory_order_release);
    answered_.fetch_add(1, std::memory_order_release);
  }
  Status status(std::size_t i) const {
    return static_cast<Status>(status_[i].load(std::memory_order_acquire));
  }
  std::int64_t recv_ns(std::size_t i) const {
    return recv_ns_[i].load(std::memory_order_relaxed);
  }
  std::uint32_t removed(std::size_t i) const {
    return removed_[i].load(std::memory_order_relaxed);
  }
  std::size_t answered() const {
    return answered_.load(std::memory_order_acquire);
  }

 private:
  const std::uint32_t index_;
  std::vector<std::int64_t> due_ns_;  // absolute, MonotonicNanos clock
  std::vector<Kind> kind_;
  // Frame i is wire_[offset_[i], offset_[i + 1]).
  std::vector<std::size_t> offset_{0};
  std::vector<std::uint8_t> wire_;
  std::vector<std::int64_t> send_ns_;
  std::unique_ptr<std::atomic<std::int64_t>[]> recv_ns_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> status_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> removed_;
  std::atomic<std::size_t> answered_{0};
};

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

int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One pipelined connection: Run() sends a schedule on time from the
/// calling thread while the lane's receiver thread records the answers.
class Lane {
 public:
  explicit Lane(int port) : fd_(ConnectRaw(port)) {
    if (fd_ >= 0) receiver_ = std::thread([this] { Receive(); });
  }
  ~Lane() {
    stop_.store(true, std::memory_order_release);
    if (receiver_.joinable()) receiver_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  bool connected() const { return fd_ >= 0; }
  bool transport_error() const {
    return transport_error_.load(std::memory_order_acquire);
  }
  std::size_t refused() const {
    return refused_.load(std::memory_order_acquire);
  }

  /// Sends every frame of `schedule` at its due time (frames already due
  /// when the sender wakes leave together in one write), then waits up to
  /// kDrainSeconds for the answers.
  void Run(Schedule& schedule) {
    // Wake-up precision is part of what the generator reports (lateness).
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    schedules_[schedule.index()].store(&schedule, std::memory_order_release);
    std::size_t i = 0;
    while (i < schedule.size() && !transport_error()) {
      const std::int64_t due = schedule.due_ns(i);
      if (gkm::obs::MonotonicNanos() < due) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      const std::int64_t now = gkm::obs::MonotonicNanos();
      std::size_t end = i + 1;
      while (end < schedule.size() && schedule.due_ns(end) <= now) ++end;
      for (std::size_t j = i; j < end; ++j) schedule.set_send_ns(j, now);
      if (!SendAll(fd_, schedule.frames(i), schedule.frame_bytes(i, end))) {
        break;  // the receiver sees the hang-up and reports it
      }
      i = end;
    }
    const std::int64_t deadline =
        gkm::obs::MonotonicNanos() + Nanos(kDrainSeconds);
    while (schedule.answered() < i && !transport_error() &&
           gkm::obs::MonotonicNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  void Receive() {
    FrameParser parser;
    std::vector<std::uint8_t> buf(64 * 1024);
    while (!stop_.load(std::memory_order_acquire)) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 20);
      if (ready < 0 && errno != EINTR) return Fail();
      if (ready <= 0) continue;
      const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail();
      const std::int64_t now = gkm::obs::MonotonicNanos();
      parser.Feed(buf.data(), static_cast<std::size_t>(n));
      Frame f;
      FrameParser::Status st;
      while ((st = parser.Next(&f)) == FrameParser::Status::kFrame) {
        const std::uint64_t b = f.request_id >> 32;
        const std::uint64_t i = (f.request_id & 0xffffffffu) - 1;
        Schedule* schedule =
            b < kMaxSchedules ? schedules_[b].load(std::memory_order_acquire)
                              : nullptr;
        if (schedule == nullptr || i >= schedule->size() ||
            schedule->status(i) != kPending) {
          return Fail();  // an answer to nothing this lane sent
        }
        std::uint32_t removed = 0;
        const Status status = Classify(*schedule, i, f, &removed);
        schedule->Answer(i, status, now, removed);
      }
      if (st == FrameParser::Status::kError) return Fail();
    }
  }

  Status Classify(const Schedule& schedule, std::size_t i, const Frame& f,
                  std::uint32_t* removed) {
    if (f.opcode == Opcode::kError) {
      gkm::serve::ErrorResponse err;
      if (gkm::serve::DecodeErrorResponse(f, &err) == nullptr &&
          err.code == gkm::serve::ErrorCode::kOverloaded) {
        refused_.fetch_add(1, std::memory_order_acq_rel);
        return kRefused;
      }
      return kFailed;
    }
    switch (schedule.kind(i)) {
      case kSearch: {
        gkm::serve::SearchResponse resp;
        const bool ok = f.opcode == Opcode::kSearchResult &&
                        gkm::serve::DecodeSearchResponse(f, &resp) == nullptr &&
                        resp.results.size() == 1 &&
                        resp.results[0].size() == kTopK;
        return ok ? kOk : kFailed;
      }
      case kInsert: {
        gkm::serve::InsertResponse resp;
        const bool ok = f.opcode == Opcode::kInsertResult &&
                        gkm::serve::DecodeInsertResponse(f, &resp) == nullptr &&
                        resp.assigned.size() == kInsertRows;
        return ok ? kOk : kFailed;
      }
      case kRemove: {
        gkm::serve::RemoveResponse resp;
        if (f.opcode != Opcode::kRemoveResult ||
            gkm::serve::DecodeRemoveResponse(f, &resp) != nullptr) {
          return kFailed;
        }
        for (const std::uint8_t r : resp.removed) *removed += r;
        return kOk;
      }
    }
    return kFailed;
  }

  void Fail() { transport_error_.store(true, std::memory_order_release); }

  const int fd_;
  std::array<std::atomic<Schedule*>, kMaxSchedules> schedules_{};
  std::atomic<bool> stop_{false};
  std::atomic<bool> transport_error_{false};
  std::atomic<std::size_t> refused_{0};
  std::thread receiver_;  // declared last: it uses every member above
};

/// Owns the forked daemon and the write end of its snapshot pipe: kills
/// and reaps it on every exit path that did not already collect it.
class Child {
 public:
  Child(pid_t pid, int snapshot_fd) : pid_(pid), snapshot_fd_(snapshot_fd) {}
  ~Child() {
    EndSnapshots();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Asks the daemon to snapshot its registry now (see DaemonMain).
  void Snapshot() {
    const char tick = 's';
    if (snapshot_fd_ >= 0) (void)!::write(snapshot_fd_, &tick, 1);
  }
  /// No more snapshots; the daemon waits for this before it exits.
  void EndSnapshots() {
    if (snapshot_fd_ >= 0) ::close(snapshot_fd_);
    snapshot_fd_ = -1;
  }

  /// Waits up to `seconds` for the child to exit; true when it exited 0.
  bool WaitExit(double seconds) {
    const std::int64_t deadline = gkm::obs::MonotonicNanos() + Nanos(seconds);
    while (gkm::obs::MonotonicNanos() < deadline) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      if (r < 0) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

 private:
  pid_t pid_;
  int snapshot_fd_;
};

gkm::serve::ServerOptions DaemonOptions(const std::string& base,
                                        const std::string& journal) {
  gkm::serve::ServerOptions opts;
  opts.dim = kDim;
  opts.params.k = kClusters;
  opts.params.kappa = kKappa;
  opts.params.graph.kappa = kKappa;
  opts.params.graph.beam_width = 64;
  opts.params.graph.shards = kShards;
  opts.params.bootstrap_min = 2000;
  opts.params.max_splits_per_window = 16;
  opts.params.routed_placement = true;
  opts.params.ingest_threads = 4;
  opts.search_workers = kSearchWorkers;
  opts.checkpoint_base = base;
  opts.checkpoint_journal = journal;
  return opts;
}

/// CPU sets that keep the load generator (this process) on one core of its
/// own and the daemon on the rest, so they do not steal time from each
/// other at the ladder's top rates and the sender wakes on time. `apart`
/// is false below four cores; then both float.
struct Cores {
  cpu_set_t generator;
  cpu_set_t daemon;
  bool apart = false;
};

Cores SplitCores() {
  Cores cores;
  CPU_ZERO(&cores.generator);
  CPU_ZERO(&cores.daemon);
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 4) {
    return cores;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) last = cpu;
  }
  CPU_SET(last, &cores.generator);
  cores.daemon = all;
  CPU_CLR(last, &cores.daemon);
  cores.apart = true;
  return cores;
}

/// The daemon process: serve until a client asks for shutdown, shut down
/// gracefully (drain, compact the journal into the base), then dump the
/// registry and peak RSS for the parent. Every byte the parent writes to
/// `snapshot_fd` also snapshots the registry then, so the parent can take
/// per-layer metrics over one phase. Never returns.
[[noreturn]] void DaemonMain(const gkm::serve::ServerOptions& opts,
                             const Cores& cores, int port_fd, int snapshot_fd,
                             pid_t parent, const std::string& dump_path) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(1);
  // Before the server starts a thread: threads inherit the mask.
  if (cores.apart) sched_setaffinity(0, sizeof(cores.daemon), &cores.daemon);
  std::string error;
  std::unique_ptr<gkm::serve::Server> server =
      gkm::serve::Server::Start(opts, &error);
  const int port = server != nullptr ? server->port() : -1;
  const bool told = ::write(port_fd, &port, sizeof(port)) == sizeof(port);
  ::close(port_fd);
  if (server == nullptr || !told) ::_exit(1);
  std::vector<std::string> snapshots;
  std::thread snapshotter([&] {
    char tick = 0;
    while (::read(snapshot_fd, &tick, 1) == 1) {
      snapshots.push_back(RegistryJson());
    }
  });
  server->WaitForShutdownRequest();
  server->Shutdown();
  server.reset();
  snapshotter.join();  // the parent ends snapshots before asking to stop
  std::string dump = "{\"peak_rss_mb\":" + JsonNumber(PeakRssMb()) +
                     ",\"registry\":" + RegistryJson() + ",\"snapshots\":[";
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (i > 0) dump += ",";
    dump += snapshots[i];
  }
  dump += "]}";
  std::FILE* f = std::fopen(dump_path.c_str(), "wb");
  const bool ok = f != nullptr &&
                  std::fwrite(dump.data(), 1, dump.size(), f) == dump.size();
  const bool closed = f != nullptr && std::fclose(f) == 0;
  ::_exit(ok && closed ? 0 : 1);
}

/// A forked daemon, the synchronous control connection to it (seeding,
/// stats, recall probes, shutdown), and the ids seeding handed out.
struct Daemon {
  std::unique_ptr<Child> child;  // killed and reaped on destruction
  int port = -1;
  std::unique_ptr<gkm::serve::Client> client;
  std::vector<std::uint32_t> seed_ids;
};

/// Forks a daemon and connects to it. Call only while this process is
/// single-threaded, and holds no large buffers: the child's peak RSS, a
/// metric, counts the pages it shares with this process. On failure
/// returns false and sets `*error`.
bool StartDaemon(const gkm::serve::ServerOptions& opts, const Cores& cores,
                 const std::string& dump_path, Daemon* out,
                 std::string* error) {
  int port_pipe[2];
  int snapshot_pipe[2];
  if (::pipe(port_pipe) != 0) {
    *error = "pipe() failed";
    return false;
  }
  if (::pipe(snapshot_pipe) != 0) {
    ::close(port_pipe[0]);
    ::close(port_pipe[1]);
    *error = "pipe() failed";
    return false;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(snapshot_pipe[1]);
    DaemonMain(opts, cores, port_pipe[1], snapshot_pipe[0], parent, dump_path);
  }
  ::close(port_pipe[1]);
  ::close(snapshot_pipe[0]);
  if (pid < 0) {
    ::close(port_pipe[0]);
    ::close(snapshot_pipe[1]);
    *error = "fork() failed";
    return false;
  }
  out->child = std::make_unique<Child>(pid, snapshot_pipe[1]);
  const bool got_port = ::read(port_pipe[0], &out->port, sizeof(out->port)) ==
                        static_cast<ssize_t>(sizeof(out->port));
  ::close(port_pipe[0]);
  if (!got_port || out->port <= 0) {
    *error = "daemon did not start";
    return false;
  }
  out->client = gkm::serve::Client::Connect(out->port, error);
  return out->client != nullptr;
}

/// Seeds `daemon` with the first kSeedPoints rows of `data` in
/// kSeedWindow-row inserts. On failure returns false and sets `*error`.
bool Seed(const gkm::Matrix& data, Daemon* daemon, std::string* error) {
  for (std::size_t b = 0; b < kSeedPoints; b += kSeedWindow) {
    std::vector<std::uint32_t> assigned;
    if (daemon->client->Insert(gkm::SliceRows(data, b, b + kSeedWindow),
                               &assigned) != gkm::serve::Client::Status::kOk) {
      *error = "seed insert refused or failed";
      return false;
    }
    daemon->seed_ids.insert(daemon->seed_ids.end(), assigned.begin(),
                            assigned.end());
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::string body;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  return body;
}

/// Nearest-rank percentile (benchmark/stats.py uses the same rule).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Nearest-rank median over consecutive blocks of kBlock values (the
/// remainder joins the last block) of `stat(block)` —
/// benchmark/stats.py:blocks. A host stall (5-20 ms, a few times a
/// minute here; rarely 100+ ms) spoils a few blocks, not the phase.
template <typename Stat>
double MedianBlock(const std::vector<double>& values, Stat stat) {
  std::vector<double> per_block;
  const std::size_t blocks = std::max<std::size_t>(1, values.size() / kBlock);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first =
        values.begin() + static_cast<std::ptrdiff_t>(b * kBlock);
    const auto last = b + 1 == blocks ? values.end() : first + kBlock;
    per_block.push_back(stat(std::vector<double>(first, last)));
  }
  return Percentile(std::move(per_block), 0.5);
}

/// p99 of the median block; with kBlock = 1000 each block's p99 has
/// exactly ten samples beyond it.
double BlockP99(const std::vector<double>& values) {
  return MedianBlock(values, [](std::vector<double> block) {
    return Percentile(std::move(block), 0.99);
  });
}

/// Share of missed (+inf) requests in the median block.
double BlockFailedFrac(const std::vector<double>& latency_us) {
  return MedianBlock(latency_us, [](const std::vector<double>& block) {
    const double miss = std::numeric_limits<double>::infinity();
    return static_cast<double>(std::count(block.begin(), block.end(), miss)) /
           static_cast<double>(block.size());
  });
}

/// What one search phase measured, per request in due order.
struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  /// Every request's latency from its due time; refused, failed and
  /// unanswered requests read +inf (they miss any latency limit).
  std::vector<double> latency_us;
  std::vector<double> late_us;  // send time minus due time, every request
  std::vector<double> rtt_us;   // answered requests only
  double sent = 0.0;
  double failed = 0.0;
  double sends_last_s = 0.0;
  double completions_last_s = 0.0;

  /// The ladder's step rule; benchmark/stats.py:step_passes is the same.
  bool Passes() const {
    return sent > 0.0 && BlockP99(latency_us) <= kLatencyLimitUs &&
           BlockFailedFrac(latency_us) <= kMaxFailedFrac &&
           completions_last_s >= kMinCompletionRatio * sends_last_s;
  }
};

/// Plans, sends and measures one Poisson search phase starting `start_ns`.
PhaseResult RunSearchPhase(Lane& lane, std::uint32_t index, double rate,
                           double seconds, std::int64_t start_ns,
                           const gkm::Matrix& queries, gkm::Rng& rng,
                           Tracer& tracer) {
  Schedule schedule(index);
  const std::int64_t end_ns = start_ns + Nanos(seconds);
  std::int64_t due = start_ns;
  std::size_t next_query = rng.Index(queries.rows());
  for (;;) {
    due += Nanos(-std::log(1.0 - rng.UniformDouble()) / rate);
    if (due >= end_ns) break;
    schedule.Add(due, kSearch,
                 gkm::serve::MakeSearchRequest(schedule.NextRequestId(),
                                               kTopK, queries.Row(next_query),
                                               kDim));
    next_query = (next_query + 1) % queries.rows();
  }
  schedule.Seal();
  lane.Run(schedule);

  PhaseResult r;
  r.rate = rate;
  r.seconds = seconds;
  const std::int64_t last_s = end_ns - Nanos(1.0);
  const std::int64_t span = tracer.Add("serve.phase", index, Tracer::kNoSpan,
                                       start_ns, end_ns);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Status st = schedule.status(i);
    const std::int64_t due_at = schedule.due_ns(i);
    const std::int64_t sent_at = schedule.send_ns(i);
    r.sent += 1.0;
    if (sent_at != 0) {
      r.late_us.push_back(gkm::obs::NanosToMicros(sent_at - due_at));
    }
    if (due_at >= last_s) r.sends_last_s += 1.0;
    if (st != kPending && schedule.recv_ns(i) >= last_s &&
        schedule.recv_ns(i) < end_ns) {
      r.completions_last_s += 1.0;
    }
    if (st != kOk) {
      r.failed += 1.0;
      r.latency_us.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const std::int64_t answered_at = schedule.recv_ns(i);
    r.latency_us.push_back(gkm::obs::NanosToMicros(answered_at - due_at));
    r.rtt_us.push_back(gkm::obs::NanosToMicros(answered_at - sent_at));
    // Per-request spans for the operating phase only: the ladder's top
    // steps send ~100k requests each.
    if (index == 0) {
      tracer.Add("wire.search", static_cast<std::int64_t>(i), span, sent_at,
                 answered_at);
    }
  }
  return r;
}

}  // namespace

void RunServe(const Args& args, bool mixed, Record& rec, Tracer& tracer) {
  const std::string stem = args.out_dir + "/" + args.workload;
  const std::string base = stem + ".base.gkmc";
  const std::string journal = stem + ".journal.gkmd";
  const std::string dump = stem + ".server.json";
  const Cores cores = SplitCores();
  if (cores.apart) {
    sched_setaffinity(0, sizeof(cores.generator), &cores.generator);
  }

  const double operating_s = args.seconds * 0.3;
  const double step_s = args.seconds * 0.1;
  // Ingest runs beside the whole nominal search schedule.
  const double load_s = operating_s + kWarmupSeconds +
                        (kLadderSteps + 1) * kGapSeconds +
                        kLadderSteps * step_s;
  const std::size_t inserts =
      mixed ? static_cast<std::size_t>(load_s * kInsertsPerSecond) : 0;

  // The daemon's corpus and ingest ops are fixed, so the model it ends
  // with — a pure function of the accepted-op sequence — is the same for
  // every seed; the seed drives the search traffic (which queries, their
  // arrival times) and which held-out rows probe recall.
  const std::size_t fixed_rows = kSeedPoints + inserts * kInsertRows;
  const std::size_t drawn_rows = kQueryPool + kProbes;
  gkm::SyntheticSpec spec;
  spec.n = fixed_rows + 2 * drawn_rows;
  spec.dim = kDim;
  spec.modes = kClusters;
  spec.seed = kPoolSeed;
  const gkm::serve::ServerOptions opts = DaemonOptions(base, journal);

  // ------------------------------------------------------------- set-up --
  // Daemon start, input generation and seeding, kSetupReps times: run.py
  // reports the median. Each rep's daemon replaces the last one (killed
  // and reaped), and all of them fork before any thread of this process
  // starts.
  gkm::Matrix data;
  gkm::Matrix drawn;
  Daemon daemon;
  std::string error;
  for (int r = 0; r < kSetupReps; ++r) {
    daemon = Daemon{};
    data = gkm::Matrix();
    drawn = gkm::Matrix();
    for (const std::string& path : {base, journal, dump}) {
      std::remove(path.c_str());
    }
    const std::int64_t t0 = gkm::obs::MonotonicNanos();
    if (!StartDaemon(opts, cores, dump, &daemon, &error)) {
      rec.Check("serve.setup", false, error);
      return;
    }
    data = gkm::MakeGaussianMixture(spec).vectors;
    drawn = SampleRows(gkm::SliceRows(data, fixed_rows, data.rows()),
                       drawn_rows, args.seed);
    if (!Seed(data, &daemon, &error)) {
      rec.Check("serve.setup", false, error);
      return;
    }
    rec.Push("setup_s", SecondsSince(t0));
  }
  const std::size_t insert_row0 = kSeedPoints;
  const gkm::Matrix probes = gkm::SliceRows(drawn, 0, kProbes);
  const gkm::Matrix queries = gkm::SliceRows(drawn, kProbes, drawn_rows);
  const int port = daemon.port;
  Child& child = *daemon.child;
  std::unique_ptr<gkm::serve::Client>& client = daemon.client;
  std::vector<std::uint32_t>& seed_ids = daemon.seed_ids;
  child.Snapshot();  // snapshots[0]: seeded, before any load

  // ---------------------------------------------------------------- load --
  Lane search_lane(port);
  std::optional<Lane> ingest_lane;
  if (mixed) ingest_lane.emplace(port);
  if (!search_lane.connected() || (mixed && !ingest_lane->connected())) {
    rec.Check("serve.connect", false, "load connection refused");
    return;
  }
  gkm::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 7);
  // A short lead so every sender is parked before the first due time.
  const std::int64_t load_start = gkm::obs::MonotonicNanos() + Nanos(0.05);

  // Ingest removes ids the seeding answers handed out, in a fixed random
  // order, so the plan needs no answer from the daemon before it is
  // encoded. Routed placement may since have moved a point to a new id
  // (migration re-inserts it); such a removal answers 0 and shows in
  // serve.remove_misses.
  gkm::Rng removal_rng(kPoolSeed);
  for (std::size_t i = seed_ids.size(); i > 1; --i) {
    std::swap(seed_ids[i - 1], seed_ids[removal_rng.Index(i)]);
  }
  Schedule ingest(kMaxSchedules - 1);
  for (std::size_t i = 0, removals = 0; i < inserts; ++i) {
    const std::int64_t due =
        load_start + Nanos(static_cast<double>(i) / kInsertsPerSecond);
    const std::size_t row = insert_row0 + i * kInsertRows;
    ingest.Add(due, kInsert,
               gkm::serve::MakeInsertRequest(
                   ingest.NextRequestId(),
                   gkm::SliceRows(data, row, row + kInsertRows)));
    if ((i + 1) * kInsertRows % 100 == 0) {
      const std::vector<std::uint32_t> doomed(
          seed_ids.begin() + removals * kRemoveIds,
          seed_ids.begin() + (removals + 1) * kRemoveIds);
      ++removals;
      ingest.Add(due + 1000, kRemove,
                 gkm::serve::MakeRemoveRequest(ingest.NextRequestId(), doomed));
    }
  }
  ingest.Seal();
  std::jthread ingest_sender;
  if (mixed) ingest_sender = std::jthread([&] { ingest_lane->Run(ingest); });

  std::vector<PhaseResult> phases;
  phases.push_back(RunSearchPhase(search_lane, 0, kOperatingQps, operating_s,
                                  load_start, queries, rng, tracer));
  child.Snapshot();  // snapshots[1]: the operating phase is over
  // Ladder: best passing ladder rate `lo`, worst failing rate `hi` (0 =
  // none yet); while no ladder rate has passed, a failure steps down by
  // kLadderGrowth. A failing rate is run once more before it counts — one
  // host stall must not end the climb — and only its last attempt counts
  // (benchmark/stats.py:ladder_max_rate).
  double lo = 0.0;
  double hi = 0.0;
  double rate = kLadderStart * std::pow(kLadderGrowth, rng.UniformDouble());
  bool failed_once = false;
  // Each phase starts from an idle daemon: an overloaded step leaves
  // queued inserts behind, and applying them in a burst would stall the
  // next step's searches.
  const auto next_start = [&] {
    const std::int64_t idle_deadline =
        gkm::obs::MonotonicNanos() + Nanos(kDrainSeconds);
    gkm::serve::StatsResponse busy;
    while (client->GetStats(&busy) == gkm::serve::Client::Status::kOk &&
           busy.search_queue_depth + busy.ingest_queue_depth > 0 &&
           gkm::obs::MonotonicNanos() < idle_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kGapSeconds));
    return gkm::obs::MonotonicNanos() + Nanos(0.01);
  };
  const std::size_t warmup_ok =
      RunSearchPhase(search_lane, 1, rate, kWarmupSeconds,
                     next_start(), queries, rng, tracer)
          .rtt_us.size();
  for (int step = 1; step <= kLadderSteps; ++step) {
    phases.push_back(RunSearchPhase(search_lane,
                                    static_cast<std::uint32_t>(step + 1), rate,
                                    step_s, next_start(), queries, rng,
                                    tracer));
    if (phases.back().Passes()) {
      lo = std::max(lo, rate);
      failed_once = false;
    } else if (!failed_once) {
      failed_once = true;
      continue;  // the same rate again
    } else {
      hi = hi == 0.0 ? rate : std::min(hi, rate);
      failed_once = false;
    }
    if (hi == 0.0) {
      rate *= kLadderGrowth;
    } else if (lo == 0.0) {
      rate = hi / kLadderGrowth;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  if (ingest_sender.joinable()) ingest_sender.join();

  // ------------------------------------------------------------- results --
  std::size_t search_ok = warmup_ok;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& r = phases[p];
    search_ok += r.rtt_us.size();
    rec.Push("phase.rate", r.rate);
    rec.Push("phase.seconds", r.seconds);
    rec.Push("phase.sent", r.sent);
    rec.Push("phase.failed", r.failed);
    rec.Push("phase.sends_last_s", r.sends_last_s);
    rec.Push("phase.completions_last_s", r.completions_last_s);
    rec.Push("phase.passes", r.Passes() ? 1.0 : 0.0);
    rec.Push("phase.block_p99_us", BlockP99(r.latency_us));
    rec.Push("phase.block_failed_frac", BlockFailedFrac(r.latency_us));
  }
  rec.SetSeries("search_us", phases[0].latency_us);
  rec.SetSeries("gen.send_late_us", phases[0].late_us);
  rec.SetSeries("wire.rtt_us", phases[0].rtt_us);
  // Latency is timed from due times, so lateness is already inside it;
  // this only voids a run whose generator stopped keeping its schedule.
  const double late_p99 = BlockP99(phases[0].late_us);
  rec.Check("serve.generator_on_time", late_p99 <= kMaxLateUs,
            "operating-phase send lateness p99 (median block) " +
                JsonNumber(late_p99) + " us > " + JsonNumber(kMaxLateUs) +
                " us");

  // The result's attempted/failed: operating-phase requests of both
  // connections (ladder steps probe for failure on purpose).
  const std::int64_t operating_end = load_start + Nanos(operating_s);
  double attempted = phases[0].sent;
  double failed = phases[0].failed;
  std::size_t inserts_ok = kSeedPoints / kSeedWindow;
  std::size_t inserted_rows = kSeedPoints;
  std::size_t removes_ok = 0;
  std::size_t removed_ids = 0;
  for (std::size_t i = 0; i < ingest.size(); ++i) {
    const Status st = ingest.status(i);
    if (ingest.due_ns(i) < operating_end) {
      attempted += 1.0;
      if (st != kOk) failed += 1.0;
    }
    if (st != kOk) continue;
    const bool insert = ingest.kind(i) == kInsert;
    tracer.Add(insert ? "wire.insert" : "wire.remove",
               static_cast<std::int64_t>(i), Tracer::kNoSpan,
               ingest.send_ns(i), ingest.recv_ns(i));
    if (insert) {
      ++inserts_ok;
      inserted_rows += kInsertRows;
      rec.Push("insert_us",
               gkm::obs::NanosToMicros(ingest.recv_ns(i) - ingest.due_ns(i)));
    } else {
      ++removes_ok;
      removed_ids += ingest.removed(i);
    }
  }
  rec.Set("attempted", attempted);
  rec.Set("failed", failed);
  rec.Set("serve.remove_misses",
          static_cast<double>(removes_ok * kRemoveIds - removed_ids));
  const std::size_t refused =
      search_lane.refused() + (mixed ? ingest_lane->refused() : 0);
  rec.Check("serve.transport",
            !search_lane.transport_error() &&
                !(mixed && ingest_lane->transport_error()),
            "a load connection failed or answered out of protocol");

  // ------------------------------------------- probes, tallies, shutdown --
  std::vector<std::vector<gkm::Neighbor>> got;
  if (client->BatchSearch(probes, kTopK, &got) !=
      gkm::serve::Client::Status::kOk) {
    rec.Check("serve.probe_search", false, "probe batch search failed");
    return;
  }
  gkm::serve::StatsResponse stats;
  if (client->GetStats(&stats) != gkm::serve::Client::Status::kOk) {
    rec.Check("serve.stats", false, "stats request failed");
    return;
  }
  // No silent drops: every request the daemon accepted was answered, and
  // every refusal it counted reached the generator.
  const auto tally = [&](const char* what, std::uint64_t server,
                         std::uint64_t client_side) {
    rec.Check(std::string("serve.tally.") + what, server == client_side,
              std::string(what) + ": daemon counted " + std::to_string(server) +
                  ", generator saw " + std::to_string(client_side));
  };
  tally("searches", stats.searches, search_ok + kProbes);
  tally("inserts", stats.inserts, inserts_ok);
  tally("removes", stats.removes, removed_ids);
  tally("overloaded", stats.overloaded, refused);
  tally("points_alive", stats.points_alive, inserted_rows - removed_ids);

  child.EndSnapshots();
  const bool asked =
      client->RequestShutdown() == gkm::serve::Client::Status::kOk;
  client.reset();
  rec.Check("serve.shutdown", asked && child.WaitExit(60.0),
            "daemon did not shut down cleanly");
  const std::string server_dump = ReadFile(dump);
  if (!server_dump.empty()) rec.SetRaw("server", server_dump);

  // The daemon folded its journal into the base on shutdown, so the
  // checkpoint restores exactly the model that answered the probes: its
  // live set is the ground truth for recall, and its distortion is the
  // served clustering's.
  std::string load_error;
  const std::optional<gkm::StreamingGkMeans> model =
      gkm::TryLoadStreamCheckpoint(base, &load_error);
  rec.Check("serve.checkpoint", model.has_value(),
            "shutdown checkpoint: " + load_error);
  if (model.has_value()) {
    rec.Set("distortion", model->Distortion());
    const gkm::ShardedOnlineKnnGraph& graph = model->graph();
    gkm::Matrix live(0, kDim);
    std::vector<std::uint32_t> live_ids;
    for (std::uint32_t g = 0; g < graph.size(); ++g) {
      if (!graph.IsAliveUnlocked(g)) continue;
      live.AppendRow(graph.Point(g));
      live_ids.push_back(g);
    }
    tally("checkpoint_points_alive", live_ids.size(), stats.points_alive);
    const double recall =
        RecallAt(ExactTopK(live, live_ids, probes, kTopK), got);
    rec.Set("recall_at_10", recall);
    rec.Check("serve.recall_at_10", recall >= kMinRecall,
              "recall@10 " + JsonNumber(recall) + " < " +
                  JsonNumber(kMinRecall));
  }
  for (const std::string& path : {base, journal, dump}) {
    std::remove(path.c_str());
  }
}

}  // namespace gkbench
