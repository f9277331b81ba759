// Copyright 2026 The gkmeans Authors.
// libFuzzer harness for TryLoadStreamCheckpoint: every byte string must
// produce either a model or a clean error — never an abort, crash,
// unbounded allocation, or leak. The input is served through fmemopen so
// no filesystem round-trip is needed per execution.
//
// Build with -DGKM_FUZZ=ON. Under Clang this links libFuzzer; elsewhere
// GKM_FUZZ_STANDALONE supplies a main() that loads each file given on the
// command line, prints `<file>: loaded` or `<file>: rejected: <error>`, and
// exits non-zero when any file was rejected, so the checked-in corpus
// doubles as a regression suite: every seed there must still load.

#include <cstdint>
#include <cstdio>
#include <string>

#include "stream/checkpoint.h"

namespace {

/// Loads `data` as a GKMC checkpoint; false, with `*error` set, when the
/// loader rejects it.
bool Load(const std::uint8_t* data, std::size_t size, std::string* error) {
  if (size == 0) {  // fmemopen rejects zero-length buffers
    *error = "empty input";
    return false;
  }
  std::FILE* f = fmemopen(const_cast<std::uint8_t*>(data), size, "rb");
  if (f == nullptr) {
    *error = "fmemopen failed";
    return false;
  }
  const bool loaded = gkm::TryLoadStreamCheckpoint(f, error).has_value();
  std::fclose(f);
  return loaded;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string error;
  (void)Load(data, size, &error);
  return 0;
}

#ifdef GKM_FUZZ_STANDALONE
#include "fuzz_replay_main.h"

int main(int argc, char** argv) {
  return gkmfuzz::ReplayFiles(argc, argv, Load);
}
#endif  // GKM_FUZZ_STANDALONE
