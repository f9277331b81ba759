// Copyright 2026 The gkmeans Authors.
// Serving-daemon load test: mixed query + ingest + churn traffic against
// an in-process gkm::serve::Server over loopback TCP, measuring
// end-to-end RPC latency (p50/p99), sustained query throughput, and the
// admission-control refusal rate, plus a query-only comparison of the
// routed fan-out (routed placement, four search workers) against the
// single-reader merged baseline.
// Emits BENCH_serve_loadtest.json (schema gkm-bench-v1: p50_us, p99_us,
// qps, overload_rate, routed_qps, merged_qps, routed_merged_qps_ratio).
//
// Two gate tiers:
//   always on — the protocol's correctness contract: zero transport
//     failures, every refusal explicit (client-side tallies must equal
//     the server's own counters: no silent drops), and a server
//     restarted from its shutdown checkpoint answering a fixed probe
//     set bit-identically to the uninterrupted server.
//   cores >= 4 && GKM_SCALE >= 1 — p99 latency and QPS floors (reduced-
//     scale smoke runs on small CI machines report but do not gate, the
//     same floor pattern as bench_stream_throughput).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/matrix.h"
#include "dataset/synthetic.h"
#include "obs/clock.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

constexpr std::size_t kDim = 32;
constexpr std::uint32_t kTopK = 10;
constexpr std::size_t kSeedWindow = 100;   // rows per bootstrap insert
constexpr std::size_t kLoadWindow = 50;    // rows per mixed-phase insert
constexpr std::size_t kChurnPerWindow = 10;
constexpr std::size_t kQueryThreads = 4;
constexpr std::size_t kProbeQueries = 64;

void Die(const std::string& msg) {
  std::fprintf(stderr, "bench_serve_loadtest: FAIL — %s\n", msg.c_str());
  std::exit(1);
}

gkm::Matrix MakeData(std::size_t n, std::uint64_t seed) {
  gkm::SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 12;
  spec.seed = seed;
  return gkm::MakeGaussianMixture(spec).vectors;
}

gkm::serve::ServerOptions Options(const std::string& base,
                                  const std::string& journal) {
  gkm::serve::ServerOptions opts;
  opts.dim = kDim;
  opts.params.k = 8;
  opts.params.bootstrap_min = 400;
  opts.params.epochs_per_window = 1;
  opts.params.graph.kappa = 10;
  opts.params.graph.beam_width = 32;
  opts.params.graph.num_seeds = 24;
  opts.params.graph.bootstrap = 64;
  opts.params.graph.seed = 17;
  opts.params.graph.shards = 2;
  opts.batch_policy.max_batch = 32;
  opts.checkpoint_base = base;
  opts.checkpoint_journal = journal;
  return opts;
}

std::unique_ptr<gkm::serve::Client> MustConnect(int port) {
  std::string error;
  std::unique_ptr<gkm::serve::Client> client =
      gkm::serve::Client::Connect(port, &error);
  if (client == nullptr) Die("connect: " + error);
  return client;
}

// Client-side tallies, compared against the server's own counters at the
// end — agreement is the "no silent drops" gate: every request either
// got its answer or an explicit refusal the client saw.
struct Tally {
  std::atomic<std::uint64_t> search_rows_ok{0};
  std::atomic<std::uint64_t> insert_windows_ok{0};
  std::atomic<std::uint64_t> removed_ids_ok{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> transport{0};
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = gkm::bench::SmokeFromArgs(argc, argv, 0.2);
  gkm::bench::Header("serve_loadtest",
                     "GKMP daemon under mixed query+ingest+churn load");

  const std::size_t seed_n =
      (gkm::bench::ScaledN(2500, 800) / kSeedWindow) * kSeedWindow;
  const std::size_t load_windows = gkm::bench::ScaledN(40, 10);
  const std::size_t searches_per_thread = gkm::bench::ScaledN(400, 120);
  const std::size_t cores = std::thread::hardware_concurrency();

  const std::string base = "serve_loadtest_base.gkmc";
  const std::string journal = "serve_loadtest_journal.gkmd";
  std::remove(base.c_str());
  std::remove(journal.c_str());

  std::string error;
  std::unique_ptr<gkm::serve::Server> server =
      gkm::serve::Server::Start(Options(base, journal), &error);
  if (server == nullptr) Die("start: " + error);

  Tally tally;

  // --- bootstrap: seed the model through the protocol -----------------------
  const gkm::Matrix seed_data = MakeData(seed_n, 1);
  std::size_t seed_windows = 0;
  {
    std::unique_ptr<gkm::serve::Client> seeder = MustConnect(server->port());
    for (std::size_t b = 0; b < seed_n; b += kSeedWindow, ++seed_windows) {
      const gkm::Matrix rows = gkm::SliceRows(seed_data, b, b + kSeedWindow);
      std::vector<std::uint32_t> assigned;
      tally.issued.fetch_add(1);
      if (seeder->Insert(rows, &assigned) != gkm::serve::Client::Status::kOk) {
        Die("seed insert refused or failed");
      }
      tally.insert_windows_ok.fetch_add(1);
    }
  }

  // --- mixed phase: concurrent queries, ingest, and churn -------------------
  const gkm::Matrix load_data = MakeData(load_windows * kLoadWindow, 2);
  const gkm::Matrix query_data =
      MakeData(kQueryThreads * searches_per_thread, 3);
  std::vector<std::vector<std::uint64_t>> latencies_ns(kQueryThreads);

  const std::uint64_t t0 = gkm::obs::MonotonicNanos();

  std::thread ingester([&] {
    std::unique_ptr<gkm::serve::Client> client = MustConnect(server->port());
    std::vector<std::uint32_t> my_ids;  // churn only ids this thread owns
    std::size_t next_churn = 0;
    for (std::size_t w = 0; w < load_windows; ++w) {
      const gkm::Matrix rows = gkm::SliceRows(load_data, w * kLoadWindow,
                                              (w + 1) * kLoadWindow);
      // Retry refused ingest: accepted-or-explicitly-refused is the
      // contract, and every refusal must show up in the server tally.
      for (;;) {
        std::vector<std::uint32_t> assigned;
        tally.issued.fetch_add(1);
        const gkm::serve::Client::Status s = client->Insert(rows, &assigned);
        if (s == gkm::serve::Client::Status::kOk) {
          tally.insert_windows_ok.fetch_add(1);
          my_ids.insert(my_ids.end(), assigned.begin(), assigned.end());
          break;
        }
        if (s != gkm::serve::Client::Status::kRefused) {
          tally.transport.fetch_add(1);
          return;
        }
        tally.refused.fetch_add(1);
        std::this_thread::yield();
      }
      if (my_ids.size() >= next_churn + kChurnPerWindow) {
        const std::vector<std::uint32_t> doomed(
            my_ids.begin() + next_churn,
            my_ids.begin() + next_churn + kChurnPerWindow);
        next_churn += kChurnPerWindow;
        for (;;) {
          std::vector<std::uint8_t> removed;
          tally.issued.fetch_add(1);
          const gkm::serve::Client::Status s = client->Remove(doomed, &removed);
          if (s == gkm::serve::Client::Status::kOk) {
            for (std::uint8_t r : removed) {
              if (r == 0) Die("churn removed an id that was not alive");
            }
            tally.removed_ids_ok.fetch_add(removed.size());
            break;
          }
          if (s != gkm::serve::Client::Status::kRefused) {
            tally.transport.fetch_add(1);
            return;
          }
          tally.refused.fetch_add(1);
          std::this_thread::yield();
        }
      }
    }
  });

  std::vector<std::thread> queriers;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      std::unique_ptr<gkm::serve::Client> client = MustConnect(server->port());
      latencies_ns[t].reserve(searches_per_thread);
      for (std::size_t q = 0; q < searches_per_thread; ++q) {
        const float* query =
            query_data.Row(t * searches_per_thread + q);
        std::vector<gkm::Neighbor> got;
        tally.issued.fetch_add(1);
        const std::uint64_t start = gkm::obs::MonotonicNanos();
        const gkm::serve::Client::Status s =
            client->Search(query, kDim, kTopK, &got);
        if (s == gkm::serve::Client::Status::kOk) {
          latencies_ns[t].push_back(gkm::obs::MonotonicNanos() - start);
          tally.search_rows_ok.fetch_add(1);
        } else if (s == gkm::serve::Client::Status::kRefused) {
          tally.refused.fetch_add(1);  // explicit OVERLOADED, not counted
        } else {
          tally.transport.fetch_add(1);
          return;
        }
      }
    });
  }

  ingester.join();
  for (std::thread& th : queriers) th.join();
  const double mixed_secs =
      static_cast<double>(gkm::obs::MonotonicNanos() - t0) * 1e-9;

  if (tally.transport.load() != 0) Die("transport failures under load");

  // --- fixed probe set, then checkpoint shutdown + restart ------------------
  const gkm::Matrix probes = MakeData(kProbeQueries, 4);
  std::vector<std::vector<gkm::Neighbor>> before;
  {
    std::unique_ptr<gkm::serve::Client> client = MustConnect(server->port());
    tally.issued.fetch_add(1);
    if (client->BatchSearch(probes, kTopK, &before) !=
        gkm::serve::Client::Status::kOk) {
      Die("probe batch search failed");
    }
    tally.search_rows_ok.fetch_add(kProbeQueries);

    // No-silent-drops gate: the server's counters must equal what the
    // clients saw acknowledged or refused.
    gkm::serve::StatsResponse stats;
    if (client->GetStats(&stats) != gkm::serve::Client::Status::kOk) {
      Die("stats rpc failed");
    }
    if (stats.searches != tally.search_rows_ok.load()) {
      Die("server search count disagrees with client tally");
    }
    if (stats.inserts != tally.insert_windows_ok.load()) {
      Die("server insert count disagrees with client tally");
    }
    if (stats.removes != tally.removed_ids_ok.load()) {
      Die("server remove count disagrees with client tally");
    }
    if (stats.overloaded != tally.refused.load()) {
      Die("server overload count disagrees with client tally");
    }
    const std::uint64_t want_alive = seed_n + load_windows * kLoadWindow -
                                     tally.removed_ids_ok.load();
    if (stats.points_alive != want_alive) {
      Die("live point count disagrees with applied inserts/removes");
    }
  }
  const std::uint64_t alive_before =
      seed_n + load_windows * kLoadWindow - tally.removed_ids_ok.load();
  server->Shutdown();
  server.reset();

  // Restart-from-checkpoint gate: the resumed server must answer the
  // probe set bit-identically (ids and distances).
  server = gkm::serve::Server::Start(Options(base, journal), &error);
  if (server == nullptr) Die("restart: " + error);
  {
    std::unique_ptr<gkm::serve::Client> client = MustConnect(server->port());
    std::vector<std::vector<gkm::Neighbor>> after;
    if (client->BatchSearch(probes, kTopK, &after) !=
        gkm::serve::Client::Status::kOk) {
      Die("probe batch search after restart failed");
    }
    if (after.size() != before.size()) Die("probe result count changed");
    for (std::size_t q = 0; q < before.size(); ++q) {
      if (after[q].size() != before[q].size()) {
        Die("restart changed a probe's result length");
      }
      for (std::size_t i = 0; i < before[q].size(); ++i) {
        if (after[q][i].id != before[q][i].id ||
            after[q][i].dist != before[q][i].dist) {
          Die("restart is not bit-identical to the uninterrupted server");
        }
      }
    }
    gkm::serve::StatsResponse stats;
    if (client->GetStats(&stats) != gkm::serve::Client::Status::kOk) {
      Die("stats rpc after restart failed");
    }
    if (stats.points_alive != alive_before) {
      Die("restart changed the live point count");
    }
  }
  server->Shutdown();
  server.reset();
  std::remove(base.c_str());
  std::remove(journal.c_str());

  // --- routed fan-out: query-only throughput comparison ---------------------
  // Two fresh servers over the same corpus: the classic single-reader
  // merged baseline vs routed placement with four search workers, each
  // query holding only the reader locks of the shards it routes to. Same
  // client load (4 query threads); the ratio is the routed fan-out
  // headline.
  const auto query_only_qps = [&](bool routed) {
    gkm::serve::ServerOptions opts = Options("", "");  // ephemeral, no journal
    opts.params.graph.shards = 4;
    if (routed) {
      opts.params.routed_placement = true;
      opts.search_workers = 4;
    }
    std::string err;
    std::unique_ptr<gkm::serve::Server> srv =
        gkm::serve::Server::Start(opts, &err);
    if (srv == nullptr) Die("fan-out compare start: " + err);
    {
      std::unique_ptr<gkm::serve::Client> seeder = MustConnect(srv->port());
      for (std::size_t b = 0; b < seed_n; b += kSeedWindow) {
        std::vector<std::uint32_t> assigned;
        if (seeder->Insert(gkm::SliceRows(seed_data, b, b + kSeedWindow),
                           &assigned) != gkm::serve::Client::Status::kOk) {
          Die("fan-out compare seed insert failed");
        }
      }
    }
    std::atomic<std::uint64_t> answered{0};
    std::atomic<bool> broken{false};
    const std::uint64_t start_ns = gkm::obs::MonotonicNanos();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kQueryThreads; ++t) {
      threads.emplace_back([&, t] {
        std::unique_ptr<gkm::serve::Client> client =
            MustConnect(srv->port());
        for (std::size_t q = 0; q < searches_per_thread; ++q) {
          const float* query = query_data.Row(t * searches_per_thread + q);
          std::vector<gkm::Neighbor> got;
          const gkm::serve::Client::Status s =
              client->Search(query, kDim, kTopK, &got);
          if (s == gkm::serve::Client::Status::kOk) {
            answered.fetch_add(1);
          } else if (s != gkm::serve::Client::Status::kRefused) {
            broken.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const double secs =
        static_cast<double>(gkm::obs::MonotonicNanos() - start_ns) * 1e-9;
    srv->Shutdown();
    srv.reset();
    if (broken.load()) Die("fan-out compare transport failure");
    if (answered.load() == 0) Die("fan-out compare: no accepted searches");
    return static_cast<double>(answered.load()) / secs;
  };
  const double merged_qps = query_only_qps(false);
  const double routed_qps = query_only_qps(true);
  const double routed_merged_qps_ratio = routed_qps / merged_qps;
  std::printf("\nquery-only fan-out (S=4, %zu threads): merged single-reader "
              "%.0f qps, routed fan-out %.0f qps (%.2fx)\n",
              kQueryThreads, merged_qps, routed_qps, routed_merged_qps_ratio);

  // --- metrics --------------------------------------------------------------
  std::vector<std::uint64_t> all_ns;
  for (const std::vector<std::uint64_t>& v : latencies_ns) {
    all_ns.insert(all_ns.end(), v.begin(), v.end());
  }
  if (all_ns.empty()) Die("no accepted searches — nothing to measure");
  std::sort(all_ns.begin(), all_ns.end());
  const double p50_us =
      static_cast<double>(all_ns[all_ns.size() / 2]) * 1e-3;
  const double p99_us =
      static_cast<double>(all_ns[all_ns.size() * 99 / 100]) * 1e-3;
  const double qps =
      static_cast<double>(all_ns.size()) / mixed_secs;
  const double overload_rate =
      static_cast<double>(tally.refused.load()) /
      static_cast<double>(tally.issued.load());

  std::printf("\nmixed phase: %zu searches, %zu ingest windows x %zu rows, "
              "%llu churn removals over %.2fs (%zu cores)\n",
              all_ns.size(), load_windows, kLoadWindow,
              static_cast<unsigned long long>(tally.removed_ids_ok.load()),
              mixed_secs, cores);
  std::printf("latency p50 %.0f us, p99 %.0f us; %.0f qps; overload rate "
              "%.4f (%llu refused, all explicit)\n",
              p50_us, p99_us, qps, overload_rate,
              static_cast<unsigned long long>(tally.refused.load()));
  std::printf("no-silent-drop accounting: OK; restart bit-identity: OK\n");

  gkm::bench::JsonReport report("serve_loadtest");
  report.Add("p50_us", p50_us);
  report.Add("p99_us", p99_us);
  report.Add("qps", qps);
  report.Add("overload_rate", overload_rate);
  report.Add("routed_qps", routed_qps);
  report.Add("merged_qps", merged_qps);
  report.Add("routed_merged_qps_ratio", routed_merged_qps_ratio);
  const std::string path = report.Write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());

  // Perf gates only where they mean something: a warm multi-core machine
  // at full scale. Smoke runs on small shared CI runners report only.
  const bool can_gate = cores >= 4 && gkm::bench::Scale() >= 1.0;
  if (can_gate) {
    if (p99_us > 25000.0) Die("p99 latency gate: > 25ms under mixed load");
    if (qps < 1000.0) Die("throughput gate: < 1000 qps under mixed load");
    if (routed_merged_qps_ratio < 1.5) {
      Die("routed fan-out gate: routed qps < 1.5x single-reader");
    }
    std::printf("perf gates: OK (p99 <= 25ms, qps >= 1000, routed fan-out "
                ">= 1.5x)\n");
  } else {
    std::printf("perf gates skipped (need >= 4 cores and GKM_SCALE >= 1; "
                "%zu cores, scale %.2g)\n",
                cores, gkm::bench::Scale());
  }
  (void)smoke;
  return 0;
}
