// Copyright 2026 The gkmeans Authors.
// End-to-end tests of the serving daemon (serve/server.h) over loopback
// TCP: concurrent clients mixing query/ingest/remove traffic (the CI
// TSan run covers this file with the rest of the suite), the
// no-silent-drop back-pressure contract, graceful shutdown via the
// protocol, and the restart contract — a server stopped mid-stream and
// resumed from its checkpoint+journal answers byte-identically to one
// that never stopped, pinned both on search results and on the final
// checkpoint bytes.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "dataset/synthetic.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/server.h"

namespace gkm::serve {
namespace {

constexpr std::size_t kDim = 16;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Matrix MakeData(std::size_t n, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 6;
  spec.seed = seed;
  return MakeGaussianMixture(spec).vectors;
}

ServerOptions SmallServer() {
  ServerOptions opts;
  opts.dim = kDim;
  opts.params.k = 4;
  opts.params.bootstrap_min = 200;
  opts.params.epochs_per_window = 1;
  opts.params.graph.kappa = 8;
  opts.params.graph.beam_width = 24;
  opts.params.graph.num_seeds = 16;
  opts.params.graph.bootstrap = 64;
  opts.params.graph.seed = 11;
  opts.params.graph.shards = 2;
  opts.batch_policy.max_batch = 8;
  return opts;
}

std::unique_ptr<Client> MustConnect(int port) {
  std::string error;
  std::unique_ptr<Client> client = Client::Connect(port, &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

/// Feeds `data` in `window`-row inserts through one client; returns every
/// assigned global id in row order.
std::vector<std::uint32_t> Feed(Client& client, const Matrix& data,
                                std::size_t window) {
  std::vector<std::uint32_t> all;
  for (std::size_t b = 0; b < data.rows(); b += window) {
    Matrix rows = SliceRows(data, b, std::min(b + window, data.rows()));
    std::vector<std::uint32_t> assigned;
    EXPECT_EQ(client.Insert(rows, &assigned), Client::Status::kOk)
        << client.last_error().message;
    EXPECT_EQ(assigned.size(), rows.rows());
    all.insert(all.end(), assigned.begin(), assigned.end());
  }
  return all;
}

TEST(ServeLoop, EndToEndMixedConcurrentClients) {
  std::string error;
  std::unique_ptr<Server> server = Server::Start(SmallServer(), &error);
  ASSERT_NE(server, nullptr) << error;

  // Seed enough data that searches return real neighbors.
  const Matrix seed_data = MakeData(400, 1);
  std::unique_ptr<Client> ingest_client = MustConnect(server->port());
  const std::vector<std::uint32_t> seeded =
      Feed(*ingest_client, seed_data, 100);

  // Concurrently: one ingest+remove client and two search clients.
  std::thread ingester([&server] {
    std::unique_ptr<Client> c = MustConnect(server->port());
    const Matrix more = MakeData(300, 2);
    for (std::size_t b = 0; b < 300; b += 50) {
      std::vector<std::uint32_t> assigned;
      ASSERT_EQ(c->Insert(SliceRows(more, b, b + 50), &assigned),
                Client::Status::kOk);
      // Remove a prefix of what this window assigned (alive by
      // construction — only this thread removes).
      const std::vector<std::uint32_t> victims(assigned.begin(),
                                               assigned.begin() + 10);
      std::vector<std::uint8_t> removed;
      ASSERT_EQ(c->Remove(victims, &removed), Client::Status::kOk);
      for (const std::uint8_t r : removed) EXPECT_EQ(r, 1);
    }
  });
  std::vector<std::thread> searchers;
  for (int t = 0; t < 2; ++t) {
    searchers.emplace_back([&server, t] {
      std::unique_ptr<Client> c = MustConnect(server->port());
      const Matrix queries = MakeData(40, 100 + t);
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        std::vector<Neighbor> got;
        ASSERT_EQ(c->Search(queries.Row(q), kDim, 5, &got),
                  Client::Status::kOk);
        EXPECT_EQ(got.size(), 5u);
      }
      // Batched path too.
      std::vector<std::vector<Neighbor>> batch;
      ASSERT_EQ(c->BatchSearch(SliceRows(queries, 0, 8), 3, &batch),
                Client::Status::kOk);
      for (const std::vector<Neighbor>& list : batch) {
        EXPECT_EQ(list.size(), 3u);
      }
    });
  }
  ingester.join();
  for (std::thread& t : searchers) t.join();

  StatsResponse stats;
  ASSERT_EQ(ingest_client->GetStats(&stats), Client::Status::kOk);
  EXPECT_GE(stats.points_seen, 700u);  // slot bound >= rows (shard holes)
  EXPECT_EQ(stats.points_alive, 700u - 60u);
  EXPECT_EQ(stats.inserts, 10u);  // 4 seed + 6 concurrent windows
  EXPECT_EQ(stats.removes, 60u);
  EXPECT_GE(stats.searches, 2u * 40u + 2u * 8u);
  EXPECT_EQ(stats.dim, kDim);
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.bootstrapped, 1);

  // Graceful shutdown via the protocol.
  std::thread owner([&server] {
    server->WaitForShutdownRequest();
    server->Shutdown();
  });
  EXPECT_EQ(ingest_client->RequestShutdown(), Client::Status::kOk);
  owner.join();
}

TEST(ServeLoop, SearchMatchesDirectGraphSearch) {
  // The served result must be exactly what the model's own SearchKnn
  // returns — batching, framing and transport add nothing and lose
  // nothing. Compare against a local model fed the same stream.
  ServerOptions opts = SmallServer();
  std::string error;
  std::unique_ptr<Server> server = Server::Start(opts, &error);
  ASSERT_NE(server, nullptr) << error;

  StreamingGkMeans local(kDim, opts.params);
  const Matrix data = MakeData(500, 3);
  std::unique_ptr<Client> client = MustConnect(server->port());
  Feed(*client, data, 100);
  for (std::size_t b = 0; b < 500; b += 100) {
    local.ObserveWindow(SliceRows(data, b, b + 100));
  }

  const Matrix queries = MakeData(30, 4);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<Neighbor> served;
    ASSERT_EQ(client->Search(queries.Row(q), kDim, 7, &served),
              Client::Status::kOk);
    const std::vector<Neighbor> direct =
        local.graph().SearchKnn(queries.Row(q), 7);
    ASSERT_EQ(served.size(), direct.size()) << "query " << q;
    for (std::size_t j = 0; j < direct.size(); ++j) {
      EXPECT_EQ(served[j], direct[j]) << "query " << q << " rank " << j;
    }
  }
  server->Shutdown();
}

TEST(ServeLoop, RestartFromCheckpointAnswersBitIdentical) {
  const Matrix data = MakeData(600, 5);
  const Matrix queries = MakeData(50, 6);
  const std::vector<std::uint32_t> removals = {3, 57, 140, 201, 388};

  // Uninterrupted run: all 6 windows + removals, then search.
  std::vector<std::vector<Neighbor>> uninterrupted;
  {
    ServerOptions opts = SmallServer();
    opts.checkpoint_base = TempPath("serve_a.gkmc");
    opts.checkpoint_journal = TempPath("serve_a.gkmd");
    std::remove(opts.checkpoint_base.c_str());
    std::remove(opts.checkpoint_journal.c_str());
    std::string error;
    std::unique_ptr<Server> server = Server::Start(opts, &error);
    ASSERT_NE(server, nullptr) << error;
    std::unique_ptr<Client> client = MustConnect(server->port());
    Feed(*client, data, 100);
    std::vector<std::uint8_t> removed;
    ASSERT_EQ(client->Remove(removals, &removed), Client::Status::kOk);
    ASSERT_EQ(client->BatchSearch(queries, 10, &uninterrupted),
              Client::Status::kOk);
    server->Shutdown();
  }

  // Interrupted run: 3 windows, shutdown (checkpoint), restart from the
  // files, the remaining 3 windows + the same removals, same search.
  ServerOptions opts = SmallServer();
  opts.checkpoint_base = TempPath("serve_b.gkmc");
  opts.checkpoint_journal = TempPath("serve_b.gkmd");
  std::remove(opts.checkpoint_base.c_str());
  std::remove(opts.checkpoint_journal.c_str());
  {
    std::string error;
    std::unique_ptr<Server> server = Server::Start(opts, &error);
    ASSERT_NE(server, nullptr) << error;
    std::unique_ptr<Client> client = MustConnect(server->port());
    Feed(*client, SliceRows(data, 0, 300), 100);
    server->Shutdown();
  }
  std::vector<std::vector<Neighbor>> restarted;
  {
    std::string error;
    std::unique_ptr<Server> server = Server::Start(opts, &error);
    ASSERT_NE(server, nullptr) << error;
    StatsResponse stats;
    std::unique_ptr<Client> client = MustConnect(server->port());
    ASSERT_EQ(client->GetStats(&stats), Client::Status::kOk);
    EXPECT_EQ(stats.points_alive, 300u);  // resumed mid-stream
    EXPECT_EQ(stats.windows, 3u);
    Feed(*client, SliceRows(data, 300, 600), 100);
    std::vector<std::uint8_t> removed;
    ASSERT_EQ(client->Remove(removals, &removed), Client::Status::kOk);
    ASSERT_EQ(client->BatchSearch(queries, 10, &restarted),
              Client::Status::kOk);
    server->Shutdown();
  }

  // Search results element-wise identical...
  ASSERT_EQ(restarted.size(), uninterrupted.size());
  for (std::size_t q = 0; q < restarted.size(); ++q) {
    ASSERT_EQ(restarted[q].size(), uninterrupted[q].size()) << "query " << q;
    for (std::size_t j = 0; j < restarted[q].size(); ++j) {
      EXPECT_EQ(restarted[q][j], uninterrupted[q][j])
          << "query " << q << " rank " << j;
    }
  }
  // ...and the compacted shutdown checkpoints are byte-identical: the
  // model is a pure function of the accepted-op sequence, restart or not.
  const auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
    return bytes;
  };
  EXPECT_EQ(slurp(TempPath("serve_a.gkmc")), slurp(TempPath("serve_b.gkmc")));
}

TEST(ServeLoop, RoutedWorkersServeConcurrentClients) {
  // Routed placement + several search workers draining one SearchBatcher
  // concurrently (the multi-consumer FlushOnce path), with ingest commits
  // and router republication racing the reads. Served answers must match
  // a local model's routed batch search against the same stream.
  ServerOptions opts = SmallServer();
  opts.params.routed_placement = true;
  opts.search_workers = 3;
  std::string error;
  std::unique_ptr<Server> server = Server::Start(opts, &error);
  ASSERT_NE(server, nullptr) << error;

  const Matrix seed_data = MakeData(400, 21);
  std::unique_ptr<Client> ingest_client = MustConnect(server->port());
  Feed(*ingest_client, seed_data, 100);

  std::thread ingester([&server] {
    std::unique_ptr<Client> c = MustConnect(server->port());
    const Matrix more = MakeData(200, 22);
    for (std::size_t b = 0; b < 200; b += 50) {
      std::vector<std::uint32_t> assigned;
      ASSERT_EQ(c->Insert(SliceRows(more, b, b + 50), &assigned),
                Client::Status::kOk);
      // Under routed placement a migrated row is re-published under a
      // fresh global id, so a just-assigned id can already be stale; the
      // server answers removed=0 for it instead of failing the batch.
      const std::vector<std::uint32_t> victims(assigned.begin(),
                                               assigned.begin() + 5);
      std::vector<std::uint8_t> removed;
      ASSERT_EQ(c->Remove(victims, &removed), Client::Status::kOk);
      ASSERT_EQ(removed.size(), victims.size());
    }
  });
  std::vector<std::thread> searchers;
  for (int t = 0; t < 3; ++t) {
    searchers.emplace_back([&server, t] {
      std::unique_ptr<Client> c = MustConnect(server->port());
      const Matrix queries = MakeData(30, 200 + t);
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        std::vector<Neighbor> got;
        ASSERT_EQ(c->Search(queries.Row(q), kDim, 5, &got),
                  Client::Status::kOk);
        EXPECT_EQ(got.size(), 5u);
        for (std::size_t j = 1; j < got.size(); ++j) {
          EXPECT_LE(got[j - 1].dist, got[j].dist);
        }
      }
    });
  }
  ingester.join();
  for (std::thread& th : searchers) th.join();

  // Quiescent now: the served answer must be exactly the local model's
  // routed batch search against the same accepted-op sequence.
  StreamingGkMeans local(kDim, opts.params);
  for (std::size_t b = 0; b < 400; b += 100) {
    local.ObserveWindow(SliceRows(seed_data, b, b + 100));
  }
  const Matrix more = MakeData(200, 22);
  std::vector<std::uint32_t> local_removals;
  for (std::size_t b = 0; b < 200; b += 50) {
    std::vector<std::uint32_t> assigned;
    local.ObserveWindow(SliceRows(more, b, b + 50), &assigned);
    // Mirror the server's idempotent remove: migration may have retired
    // an assigned id already, and ApplyRemove skips not-alive ids.
    for (std::size_t i = 0; i < 5; ++i) {
      const std::uint32_t id = assigned[i];
      if (id < local.points_seen() && local.graph().IsAlive(id)) {
        local.RemovePoint(id);
      }
    }
    local.PublishReadState();
  }
  const Matrix queries = MakeData(20, 300);
  SearchScratch scratch;
  const std::vector<std::vector<Neighbor>> direct =
      local.graph().SearchKnnBatchRouted(queries, 5, scratch);
  std::vector<std::vector<Neighbor>> served;
  ASSERT_EQ(ingest_client->BatchSearch(queries, 5, &served),
            Client::Status::kOk);
  ASSERT_EQ(served.size(), direct.size());
  for (std::size_t q = 0; q < served.size(); ++q) {
    ASSERT_EQ(served[q].size(), direct[q].size()) << "query " << q;
    for (std::size_t j = 0; j < served[q].size(); ++j) {
      EXPECT_EQ(served[q][j], direct[q][j]) << "query " << q << " rank " << j;
    }
  }
  EXPECT_GT(local.graph().route_hits(), 0u);
  server->Shutdown();
}

TEST(ServeLoop, NoSilentDropsUnderIngestFlood) {
  // Tiny ingest queue + concurrent inserters: some requests are refused
  // with OVERLOADED. The contract under test: every request gets exactly
  // one answer, every ACCEPTED window is applied (stats.inserts), every
  // refused one is NOT, and the server's overload count matches what the
  // clients saw — nothing vanishes.
  ServerOptions opts = SmallServer();
  opts.ingest_queue_capacity = 1;
  std::string error;
  std::unique_ptr<Server> server = Server::Start(opts, &error);
  ASSERT_NE(server, nullptr) << error;

  std::atomic<std::uint64_t> accepted{0}, refused{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&server, &accepted, &refused, t] {
      std::unique_ptr<Client> c = MustConnect(server->port());
      const Matrix rows = MakeData(40, 50 + t);
      for (int i = 0; i < 10; ++i) {
        std::vector<std::uint32_t> assigned;
        const Client::Status s =
            c->Insert(SliceRows(rows, 4 * i, 4 * i + 4), &assigned);
        if (s == Client::Status::kOk) {
          ++accepted;
        } else {
          ASSERT_EQ(s, Client::Status::kRefused);
          ASSERT_EQ(c->last_error().code, ErrorCode::kOverloaded);
          ++refused;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(accepted + refused, 40u);  // one answer per request
  StatsResponse stats;
  std::unique_ptr<Client> c = MustConnect(server->port());
  ASSERT_EQ(c->GetStats(&stats), Client::Status::kOk);
  EXPECT_EQ(stats.inserts, accepted.load());
  EXPECT_EQ(stats.points_alive, 4u * accepted.load());
  EXPECT_EQ(stats.overloaded, refused.load());
  server->Shutdown();
}

TEST(ServeLoop, MalformedBytesGetErrorResponseThenHangup) {
  std::string error;
  std::unique_ptr<Server> server = Server::Start(SmallServer(), &error);
  ASSERT_NE(server, nullptr) << error;

  // A raw socket speaking garbage: the server answers one kError frame
  // (kBadRequest) and hangs up; the process survives.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char garbage[] = "this is not a GKMP frame at all....";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    // Collect everything until the server hangs up.
    std::vector<std::uint8_t> reply;
    std::uint8_t buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.insert(reply.end(), buf, buf + n);
    }
    ::close(fd);
    FrameParser parser;
    parser.Feed(reply.data(), reply.size());
    Frame frame;
    ASSERT_EQ(parser.Next(&frame), FrameParser::Status::kFrame);
    EXPECT_EQ(frame.opcode, Opcode::kError);
    ErrorResponse decoded;
    ASSERT_EQ(DecodeErrorResponse(frame, &decoded), nullptr);
    EXPECT_EQ(decoded.code, ErrorCode::kBadRequest);
  }

  std::unique_ptr<Client> probe = MustConnect(server->port());
  // A bad request that is WELL-framed: wrong dimension. This only refuses
  // the request — the connection stays usable afterwards.
  Matrix wrong;
  wrong.Reset(1, kDim + 3);
  for (std::size_t c = 0; c < kDim + 3; ++c) wrong.Row(0)[c] = 0.0f;
  std::vector<std::vector<Neighbor>> out;
  EXPECT_EQ(probe->BatchSearch(wrong, 3, &out), Client::Status::kRefused);
  EXPECT_EQ(probe->last_error().code, ErrorCode::kBadRequest);
  StatsResponse stats;
  EXPECT_EQ(probe->GetStats(&stats), Client::Status::kOk);  // still alive
  server->Shutdown();
}

}  // namespace
}  // namespace gkm::serve
