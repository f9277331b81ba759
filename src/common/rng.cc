// Copyright 2026 The gkmeans Authors.

#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace gkm {

namespace {

// Largest sparse SampleDistinct count that checks repeats by a linear scan
// over the values drawn so far (κ+1 candidates of the random graph init).
constexpr std::size_t kSampleScanMax = 64;

}  // namespace

double Rng::Sqrt(double x) { return std::sqrt(x); }
double Rng::Log(double x) { return std::log(x); }

std::vector<std::uint32_t> Rng::SampleDistinct(std::size_t n,
                                               std::size_t count) {
  GKM_CHECK_MSG(count <= n, "cannot sample more distinct values than exist");
  std::vector<std::uint32_t> out;
  out.reserve(count);
  if (count * 2 >= n) {
    // Dense regime: shuffle a full index vector and truncate.
    std::vector<std::uint32_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
    Shuffle(all);
    all.resize(count);
    return all;
  }
  // Sparse regime: Floyd's algorithm, O(count) expected insertions. The
  // values drawn so far are exactly `out`: a short one is scanned in
  // place, a long one is mirrored in a hash set. Both give one output.
  if (count <= kSampleScanMax) {
    for (std::size_t j = n - count; j < n; ++j) {
      auto t = static_cast<std::uint32_t>(Index(j + 1));
      if (std::find(out.begin(), out.end(), t) != out.end()) {
        t = static_cast<std::uint32_t>(j);
      }
      out.push_back(t);
    }
    return out;
  }
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(count * 2);
  for (std::size_t j = n - count; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(Index(j + 1));
    if (!seen.insert(t).second) t = static_cast<std::uint32_t>(j);
    seen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace gkm
