// Copyright 2026 The gkmeans Authors.
// libFuzzer harness for the delta-journal replay path: a fixed valid base
// checkpoint (regenerated deterministically at startup from
// fuzz/fuzz_model.h, byte-identical to the one the corpus seeds were
// journaled against) plus a fuzzed journal must produce either a resumed
// model or a clean error — never an abort or crash. A journal cut mid-
// record, lying about record sizes, or carrying unknown tags is the
// expected input here, not the exception.
//
// Build with -DGKM_FUZZ=ON. Under Clang this links libFuzzer; elsewhere
// GKM_FUZZ_STANDALONE supplies a main() that replays each journal given on
// the command line, prints `<file>: loaded` or `<file>: rejected: <error>`,
// and exits non-zero when any journal was rejected.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fuzz_model.h"
#include "stream/checkpoint.h"

namespace {

std::string g_base_path;

void EnsureBase() {
  if (!g_base_path.empty()) return;
  const char* tmp = std::getenv("TMPDIR");
  g_base_path = std::string(tmp != nullptr ? tmp : "/tmp") +
                "/gkm_fuzz_gkmd_base." + std::to_string(getpid()) + ".gkmc";
  gkm::SaveStreamCheckpoint(g_base_path, gkmfuzz::MakeFuzzBase(1));
}

/// Replays `data` as a GKMD journal over the base; false, with `*error`
/// set, when the replay rejects it.
bool Replay(const std::uint8_t* data, std::size_t size, std::string* error) {
  if (size == 0) {  // fmemopen rejects zero-length buffers
    *error = "empty input";
    return false;
  }
  EnsureBase();  // standalone builds never call LLVMFuzzerInitialize
  std::FILE* journal = fmemopen(const_cast<std::uint8_t*>(data), size, "rb");
  if (journal == nullptr) {
    *error = "fmemopen failed";
    return false;
  }
  const bool resumed =
      gkm::TryResumeStreamCheckpoint(g_base_path, journal, error).has_value();
  std::fclose(journal);
  return resumed;
}

}  // namespace

extern "C" int LLVMFuzzerInitialize(int*, char***) {
  EnsureBase();
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string error;
  (void)Replay(data, size, &error);
  return 0;
}

#ifdef GKM_FUZZ_STANDALONE
#include "fuzz_replay_main.h"

int main(int argc, char** argv) {
  const int status = gkmfuzz::ReplayFiles(argc, argv, Replay);
  if (!g_base_path.empty()) std::remove(g_base_path.c_str());
  return status;
}
#endif  // GKM_FUZZ_STANDALONE
