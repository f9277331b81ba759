// Copyright 2026 The gkmeans Authors.
// Seed-corpus generator for the checkpoint fuzz harnesses. Usage:
//
//   make_fuzz_corpus <output-dir>      # typically <repo>/fuzz/corpus
//
// Writes GKMC seeds under <out>/gkmc_load/, GKMD journal seeds under
// <out>/gkmd_replay/, and GKMP wire-frame seeds under <out>/serve_frame/.
// The checkpoint seeds all derive from the deterministic model in
// fuzz/fuzz_model.h so the journal seeds' base-hash binding matches the
// base fuzz_gkmd_replay.cc rebuilds at startup. Every GKMC seed written
// here comes from the real writer (v6) and is loaded back before the
// generator exits, so a drifted format fails generation instead of
// checking in a dead seed. The v2-v5 seeds in the corpus are frozen
// read-only fixtures: no writer produces those layouts any more, so this
// generator never touches them (tests/checkpoint_fixture_test.cc loads
// each one).

#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz_model.h"
#include "serve/protocol.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace {

void Die(const std::string& msg) {
  std::fprintf(stderr, "make_fuzz_corpus: %s\n", msg.c_str());
  std::exit(1);
}

void MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    Die("cannot create " + path);
  }
}

void CopyFile(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) Die("cannot read " + from);
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) Die("cannot write " + to);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    if (std::fwrite(buf, 1, n, out) != n) Die("short write to " + to);
  }
  std::fclose(in);
  std::fclose(out);
}

void CheckLoads(const std::string& path) {
  std::string error;
  if (!gkm::TryLoadStreamCheckpoint(path, &error)) {
    Die(path + " does not load back: " + error);
  }
}

// --- GKMP frame seeds -------------------------------------------------------

// Writes `frames` as one wire stream and verifies the stream parses back
// into the same number of frames with no parser error — a drifted codec
// fails generation instead of checking in a dead seed.
void WriteFrameSeed(const std::string& path,
                    const std::vector<gkm::serve::Frame>& frames) {
  std::vector<std::uint8_t> wire;
  for (const gkm::serve::Frame& f : frames) {
    gkm::serve::AppendFrame(wire, f);
  }

  gkm::serve::FrameParser parser;
  parser.Feed(wire.data(), wire.size());
  gkm::serve::Frame parsed;
  std::size_t n = 0;
  gkm::serve::FrameParser::Status status;
  while ((status = parser.Next(&parsed)) ==
         gkm::serve::FrameParser::Status::kFrame) {
    ++n;
  }
  if (status == gkm::serve::FrameParser::Status::kError) {
    Die(path + " seed does not parse back: " + parser.error());
  }
  if (n != frames.size()) Die(path + " seed round-trip lost frames");

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + path);
  if (!wire.empty() &&
      std::fwrite(wire.data(), 1, wire.size(), f) != wire.size()) {
    Die("short write to " + path);
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "fuzz/corpus";
  const std::string gkmc = out + "/gkmc_load";
  const std::string gkmd = out + "/gkmd_replay";
  MakeDir(out);
  MakeDir(gkmc);
  MakeDir(gkmd);

  const std::vector<gkm::Matrix> windows = gkmfuzz::FuzzWindows();

  // Seeds straight from the writer: the canonical single-shard base
  // (identical to the replay harness's), a 3-shard arena, and a
  // pre-bootstrap cursor.
  gkm::StreamingGkMeans base = gkmfuzz::MakeFuzzBase(1);
  gkm::SaveStreamCheckpoint(gkmc + "/v6_s1.gkmc", base);
  CheckLoads(gkmc + "/v6_s1.gkmc");

  gkm::SaveStreamCheckpoint(gkmc + "/v6_s3.gkmc", gkmfuzz::MakeFuzzBase(3));
  CheckLoads(gkmc + "/v6_s3.gkmc");

  gkm::StreamingGkMeans young(gkmfuzz::kDim, gkmfuzz::FuzzParams(1));
  young.ObserveWindow(windows[0]);  // 16 points < bootstrap_min
  gkm::SaveStreamCheckpoint(gkmc + "/v6_prebootstrap.gkmc", young);
  CheckLoads(gkmc + "/v6_prebootstrap.gkmc");

  // SQ8 seeds: a trained post-removal model — the 16-row graph bootstrap
  // trains the quantizer on the first window — plus an untrained cursor
  // whose arena is still staging fp32 rows, so the loader's
  // trained/untrained branch and the codes/norms/quantizer sections all
  // sit in the corpus.
  gkm::StreamingGkMeansParams qp = gkmfuzz::FuzzParams(1);
  qp.graph.storage = gkm::StorageMode::kSq8;
  gkm::StreamingGkMeans sq8(gkmfuzz::kDim, qp);
  for (std::size_t w = 0; w < gkmfuzz::kBaseWindows; ++w) {
    sq8.ObserveWindow(windows[w]);
  }
  sq8.RemovePoint(3);
  gkm::SaveStreamCheckpoint(gkmc + "/v6_sq8.gkmc", sq8);
  CheckLoads(gkmc + "/v6_sq8.gkmc");

  gkm::StreamingGkMeans sq8_young(gkmfuzz::kDim, qp);
  sq8_young.ObserveWindow(gkm::SliceRows(windows[0], 0, 8));  // < bootstrap
  gkm::SaveStreamCheckpoint(gkmc + "/v6_sq8_untrained.gkmc", sq8_young);
  CheckLoads(gkmc + "/v6_sq8_untrained.gkmc");

  // Routed seed: four shards under routed placement, so the cluster-home
  // block and the per-mode seed tables of shard 0 (cursor block) and of
  // extra shards (their sections) carry entries, and each of the loader's
  // reads of them sees data.
  gkm::StreamingGkMeansParams rp = gkmfuzz::FuzzParams(4);
  rp.routed_placement = true;
  gkm::StreamingGkMeans routed(gkmfuzz::kDim, rp);
  for (const gkm::Matrix& w : windows) routed.ObserveWindow(w);
  std::uint32_t victim = 3;  // global ids interleave shards: skip holes
  while (!routed.graph().IsAlive(victim)) ++victim;
  routed.RemovePoint(victim);
  const gkm::StreamSnapshot rsnap = routed.Snapshot();
  if (rsnap.cluster_home.size() != rp.k) Die("routed seed has no homes");
  bool extra_modes = false;
  for (std::size_t s = 1; s < rsnap.shards.size(); ++s) {
    extra_modes = extra_modes || !rsnap.shards[s].mode_seeds.empty();
  }
  if (rsnap.shards[0].mode_seeds.empty() || !extra_modes) {
    Die("routed seed has empty per-mode seed tables");
  }
  gkm::SaveStreamCheckpoint(gkmc + "/v6_routed_s4.gkmc", routed);
  CheckLoads(gkmc + "/v6_routed_s4.gkmc");

  // Journal seeds, bound to the same base the replay harness regenerates.
  // Scratch base/journal live in the output dir and are cleaned up after.
  const std::string tmp_base = out + "/scratch_base.gkmc";
  const std::string tmp_journal = out + "/scratch_journal.gkmd";
  {
    gkm::StreamDeltaLog log(tmp_base, tmp_journal, base);
    CopyFile(tmp_journal, gkmd + "/header_only.gkmd");

    log.AppendWindow(windows[gkmfuzz::kBaseWindows]);
    base.ObserveWindow(windows[gkmfuzz::kBaseWindows]);
    log.AppendStateCheck(base);
    log.AppendRemoval(5);
    base.RemovePoint(5);
    log.AppendWindow(windows[gkmfuzz::kBaseWindows + 1]);
    base.ObserveWindow(windows[gkmfuzz::kBaseWindows + 1]);
    log.AppendStateCheck(base);
    CopyFile(tmp_journal, gkmd + "/ingest_remove_digest.gkmd");
  }
  for (const char* name : {"header_only.gkmd", "ingest_remove_digest.gkmd"}) {
    std::string error;
    if (!gkm::TryResumeStreamCheckpoint(tmp_base, gkmd + "/" + name,
                                        &error)) {
      Die(std::string(name) + " does not replay: " + error);
    }
  }
  std::remove(tmp_base.c_str());
  std::remove(tmp_journal.c_str());

  // GKMP frame seeds for fuzz_serve_frame: one seed per frame type from
  // the real encoders so the fuzzer starts from every opcode's grammar,
  // plus a multi-frame stream (resync/compaction coverage). Derived from
  // the same deterministic fuzz windows as the checkpoint seeds.
  const std::string gkmp = out + "/serve_frame";
  MakeDir(gkmp);
  namespace serve = gkm::serve;
  const gkm::Matrix queries = gkm::SliceRows(windows[0], 0, 3);
  WriteFrameSeed(gkmp + "/search.gkmp",
                 {serve::MakeSearchRequest(1, 10, queries.Row(0),
                                           gkmfuzz::kDim)});
  WriteFrameSeed(gkmp + "/batch_search.gkmp",
                 {serve::MakeBatchSearchRequest(2, 5, queries)});
  WriteFrameSeed(gkmp + "/insert.gkmp", {serve::MakeInsertRequest(3, queries)});
  WriteFrameSeed(gkmp + "/remove.gkmp",
                 {serve::MakeRemoveRequest(4, {0, 7, 123456})});
  WriteFrameSeed(gkmp + "/stats.gkmp", {serve::MakeStatsRequest(5)});
  WriteFrameSeed(gkmp + "/shutdown.gkmp", {serve::MakeShutdownRequest(6)});

  serve::SearchResponse batch_results;
  batch_results.results.resize(queries.rows());
  for (std::size_t q = 0; q < batch_results.results.size(); ++q) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      batch_results.results[q].push_back(
          {static_cast<std::uint32_t>(8 * q + i), 0.25f * (i + 1)});
    }
  }
  serve::SearchResponse single_result;
  single_result.results.push_back(batch_results.results[0]);
  WriteFrameSeed(gkmp + "/search_result.gkmp",
                 {serve::MakeSearchResponse(1, /*batch=*/false,
                                            single_result)});
  WriteFrameSeed(gkmp + "/batch_search_result.gkmp",
                 {serve::MakeSearchResponse(2, /*batch=*/true,
                                            batch_results)});
  serve::InsertResponse inserted;
  inserted.assigned = {10, 11, 12};
  WriteFrameSeed(gkmp + "/insert_result.gkmp",
                 {serve::MakeInsertResponse(3, inserted)});
  serve::RemoveResponse removed;
  removed.removed = {1, 1, 0};
  WriteFrameSeed(gkmp + "/remove_result.gkmp",
                 {serve::MakeRemoveResponse(4, removed)});
  serve::StatsResponse stats;
  stats.points_seen = 300;
  stats.points_alive = 297;
  stats.windows = 3;
  stats.searches = 42;
  stats.inserts = 3;
  stats.removes = 3;
  stats.overloaded = 1;
  stats.dim = gkmfuzz::kDim;
  stats.shards = 2;
  stats.bootstrapped = 1;
  WriteFrameSeed(gkmp + "/stats_result.gkmp",
                 {serve::MakeStatsResponse(5, stats)});
  WriteFrameSeed(gkmp + "/shutdown_ack.gkmp", {serve::MakeShutdownAck(6)});
  WriteFrameSeed(gkmp + "/error.gkmp",
                 {serve::MakeErrorResponse(7, serve::ErrorCode::kOverloaded,
                                           "search queue full")});
  WriteFrameSeed(gkmp + "/pipeline.gkmp",
                 {serve::MakeStatsRequest(8),
                  serve::MakeSearchRequest(9, 3, queries.Row(1),
                                           gkmfuzz::kDim),
                  serve::MakeRemoveRequest(10, {2}),
                  serve::MakeShutdownRequest(11)});

  std::printf("corpus written under %s\n", out.c_str());
  return 0;
}
