// Copyright 2026 The gkmeans Authors.
// The committed fuzz corpus (fuzz/corpus/) as tier-1 fixtures. Writers emit
// GKMC v6 only, so the frozen v2-v5 seeds in fuzz/corpus/gkmc_load/ are the
// only remaining instances of those layouts and the only inputs that reach
// the loader's legacy branches. Every GKMC seed must load, convert to v6,
// round-trip byte for byte and continue exactly like the model it came
// from; projecting its v6 bytes back to the seed's own version must give
// the seed byte for byte, so a legacy branch that misreads a field fails
// here even when the misread state is self-consistent; every strict prefix of a legacy seed must be a clean load error;
// and every GKMD seed must replay over the base the current writer saves
// for the fuzz model, so a seed left stale by a writer change fails here
// instead of turning into a dead hash-mismatch case. GKM_CORPUS_DIR is set
// by the build.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "checkpoint_projection.h"
#include "fuzz_model.h"
#include "gtest/gtest.h"
#include "stream/checkpoint.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {
namespace {

std::vector<std::string> CorpusFiles(const char* subdir, const char* ext) {
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(GKM_CORPUS_DIR) / subdir;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string SaveBytes(const StreamingGkMeans& model, const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  SaveStreamCheckpoint(path, model);
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

std::optional<StreamingGkMeans> TryLoadBytes(const std::string& bytes,
                                             std::string* error) {
  std::FILE* f =
      fmemopen(const_cast<char*>(bytes.data()), bytes.size(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return std::nullopt;
  auto model = TryLoadStreamCheckpoint(f, error);
  std::fclose(f);
  return model;
}

// The `version` bytes of a non-routed v6 file, through the projection chain
// V6 -> V5/V4 -> V3 -> V2. `n_points` is the model's slot count (the v2
// step drops one birth window per point).
std::string ProjectToVersion(const std::string& v6, std::uint32_t version,
                             std::size_t n_points) {
  switch (version) {
    case 6:
      return v6;
    case 5:
      return projection::ProjectV6ToV5(v6);
    case 4:
      return projection::ProjectV6ToV4(v6);
    case 3:
      return projection::ProjectV4ToV3(projection::ProjectV6ToV4(v6));
    case 2:
      return projection::ProjectV3ToV2(
          projection::ProjectV4ToV3(projection::ProjectV6ToV4(v6)), n_points);
  }
  ADD_FAILURE() << "no projection to version " << version;
  return std::string();
}

TEST(CheckpointFixtures, LegacyFixturesCoverEveryReadableVersion) {
  std::set<std::uint32_t> versions;
  for (const std::string& path : CorpusFiles("gkmc_load", ".gkmc")) {
    versions.insert(FileVersion(ReadFileBytes(path)));
  }
  EXPECT_EQ(versions, (std::set<std::uint32_t>{2, 3, 4, 5, 6}));
}

TEST(CheckpointFixtures, EverySeedConvertsToV6AndContinuesIdentically) {
  const Matrix next = gkmfuzz::FuzzWindows()[gkmfuzz::kBaseWindows];
  for (const std::string& path : CorpusFiles("gkmc_load", ".gkmc")) {
    SCOPED_TRACE(path);
    const std::string original = ReadFileBytes(path);
    std::string error;
    std::optional<StreamingGkMeans> legacy = TryLoadBytes(original, &error);
    ASSERT_TRUE(legacy.has_value()) << error;

    const std::string v6 = SaveBytes(*legacy, "fixture_v6.gkmc");
    EXPECT_EQ(FileVersion(v6), 6u);
    // The v6 file carries exactly the seed's fields: projected back to the
    // seed's version it is the seed, byte for byte.
    EXPECT_EQ(ProjectToVersion(v6, FileVersion(original),
                               legacy->labels().size()),
              original);
    // Re-saving the converted model reproduces the legacy model's v6
    // bytes, so every persisted field survived the conversion.
    std::optional<StreamingGkMeans> converted = TryLoadBytes(v6, &error);
    ASSERT_TRUE(converted.has_value()) << error;
    EXPECT_EQ(SaveBytes(*converted, "fixture_v6_again.gkmc"), v6);

    legacy->ObserveWindow(next);
    converted->ObserveWindow(next);
    EXPECT_EQ(SaveBytes(*converted, "fixture_next_v6.gkmc"),
              SaveBytes(*legacy, "fixture_next_legacy.gkmc"));
  }
}

TEST(CheckpointFixtures, EveryLegacyPrefixFailsCleanly) {
  for (const std::string& path : CorpusFiles("gkmc_load", ".gkmc")) {
    const std::string bytes = ReadFileBytes(path);
    if (FileVersion(bytes) == 6) continue;
    for (std::size_t len = 1; len < bytes.size(); ++len) {
      std::string error;
      ASSERT_FALSE(TryLoadBytes(bytes.substr(0, len), &error).has_value())
          << path << " prefix of " << len << " bytes";
      ASSERT_FALSE(error.empty()) << path << " prefix of " << len << " bytes";
    }
  }
}

TEST(CheckpointFixtures, JournalSeedsReplayOverTheCurrentBase) {
  const std::string base = ::testing::TempDir() + "/fixture_base.gkmc";
  SaveStreamCheckpoint(base, gkmfuzz::MakeFuzzBase(1));
  const std::vector<std::string> journals =
      CorpusFiles("gkmd_replay", ".gkmd");
  EXPECT_FALSE(journals.empty());
  for (const std::string& path : journals) {
    std::string error;
    std::optional<StreamingGkMeans> resumed =
        TryResumeStreamCheckpoint(base, path, &error);
    EXPECT_TRUE(resumed.has_value()) << path << ": " << error;
  }
  std::remove(base.c_str());
}

}  // namespace
}  // namespace gkm
