// Copyright 2026 The gkmeans Authors.
// Tests for the deterministic RNG: reproducibility, range contracts and
// basic statistical sanity (not a PRNG test battery — just what the
// library's algorithms rely on).

#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

namespace gkm {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a.Next();
  a.Next();
  a.Seed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(5);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntBoundOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(11);
  const std::uint64_t bound = 10;
  std::vector<int> hist(bound, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++hist[rng.UniformInt(bound)];
  for (const int h : hist) {
    EXPECT_NEAR(h, draws / static_cast<int>(bound), draws / 100);
  }
}

TEST(RngTest, UniformFloatInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.UniformFloat();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
}

TEST(RngTest, GaussianMomentsCloseToStandard) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / draws;
  const double var = sum2 / draws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
  // Vanishingly unlikely to be identity.
  bool moved = false;
  for (int i = 0; i < 100; ++i) moved |= v[i] != i;
  EXPECT_TRUE(moved);
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng(21);
  for (const auto& [n, count] : std::vector<std::pair<std::size_t, std::size_t>>{
           {10, 10}, {100, 5}, {1000, 500}, {50, 1}}) {
    const auto sample = rng.SampleDistinct(n, count);
    EXPECT_EQ(sample.size(), count);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
    for (const auto s : sample) EXPECT_LT(s, n);
  }
}

TEST(RngTest, SampleDistinctZeroCount) {
  Rng rng(2);
  EXPECT_TRUE(rng.SampleDistinct(5, 0).empty());
}

TEST(RngTest, SampleDistinctCoversUniformly) {
  // Each element of [0,20) should be picked roughly equally often.
  Rng rng(33);
  std::vector<int> hits(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto s : rng.SampleDistinct(20, 3)) ++hits[s];
  }
  for (const int h : hits) {
    EXPECT_NEAR(h, trials * 3 / 20, trials / 25);
  }
}

// FNV-1a 64-bit over 32-bit words.
std::uint64_t HashWords(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The exact sequences SampleDistinct draws, and the generator state it
// leaves behind, on both sides of the dense/sparse split and of the
// small-count boundary inside the sparse branch. Captured from the
// hash-set-only sparse branch; run with GKM_PRINT_GOLDEN=1 to print the
// values of the current build.
TEST(RngTest, SampleDistinctSequencesArePinned) {
  struct Pin {
    std::size_t n;
    std::size_t count;
    std::uint64_t sample_hash;
    std::uint64_t next_after;
  };
  const Pin pins[] = {
      {100, 1, 0x747f030d97d0b560ULL, 0x44f13b622e72b80fULL},
      {100, 41, 0x48089d918d3f8f78ULL, 0x8917c95faaf77dc0ULL},
      {100, 64, 0x285b0647dab3f872ULL, 0x091a84aa6948dbd7ULL},
      {100, 65, 0x4c87ce9290d5d86aULL, 0x08c97eaf69bd10e2ULL},
      {50000, 1, 0x486af1a39b6936afULL, 0x4e8c97392f7ee324ULL},
      {50000, 41, 0xefda17192da4cc7aULL, 0xf8e01cf856100370ULL},
      {50000, 64, 0x926ff721cf30cdcdULL, 0x37469b06eff76508ULL},
      {50000, 65, 0x71750f059f6e0da6ULL, 0x21587125e4a0e58eULL},
      {50000, 1000, 0x56cb60dd526629c4ULL, 0x728a2e45c4c3716eULL},
  };
  const bool print = std::getenv("GKM_PRINT_GOLDEN") != nullptr;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "n " << pin.n << " count "
                                      << pin.count);
    Rng rng(0x5eed0000ULL + pin.n + pin.count);
    std::vector<std::uint32_t> all;
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<std::uint32_t> s = rng.SampleDistinct(pin.n, pin.count);
      ASSERT_EQ(s.size(), pin.count);
      all.insert(all.end(), s.begin(), s.end());
    }
    const std::uint64_t hash = HashWords(all);
    const std::uint64_t next = rng.Next();
    if (print) {
      std::printf("      {%zu, %zu, 0x%016llxULL, 0x%016llxULL},\n", pin.n,
                  pin.count, static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(next));
      continue;
    }
    EXPECT_EQ(hash, pin.sample_hash);
    EXPECT_EQ(next, pin.next_after);
  }
}

}  // namespace
}  // namespace gkm
