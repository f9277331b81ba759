// Copyright 2026 The gkmeans Authors.
// The standalone (non-libFuzzer) replay loop shared by the checkpoint
// harnesses: feeds each file named on the command line to the harness's
// load function and reports whether it was accepted.

#ifndef GKM_FUZZ_FUZZ_REPLAY_MAIN_H_
#define GKM_FUZZ_FUZZ_REPLAY_MAIN_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gkmfuzz {

/// Loads `size` bytes; false, with `*error` set, when they are rejected.
using LoadFn = bool (*)(const std::uint8_t* data, std::size_t size,
                        std::string* error);

/// Runs `load` over every file in argv[1..argc), printing
/// `<file>: loaded` or `<file>: rejected: <error>` for each. Returns 0 when
/// every file loaded, 1 when any was rejected or could not be read.
inline int ReplayFiles(int argc, char** argv, LoadFn load) {
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::printf("%s: rejected: cannot open\n", argv[i]);
      status = 1;
      continue;
    }
    std::vector<std::uint8_t> bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      bytes.push_back(static_cast<std::uint8_t>(c));
    }
    std::fclose(f);
    std::string error;
    if (load(bytes.data(), bytes.size(), &error)) {
      std::printf("%s: loaded\n", argv[i]);
    } else {
      std::printf("%s: rejected: %s\n", argv[i], error.c_str());
      status = 1;
    }
  }
  return status;
}

}  // namespace gkmfuzz

#endif  // GKM_FUZZ_FUZZ_REPLAY_MAIN_H_
