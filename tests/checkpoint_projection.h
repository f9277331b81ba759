// Copyright 2026 The gkmeans Authors.
// Byte-level helpers shared by the checkpoint tests: whole-file reads, the
// version word, and projections of GKMC files onto the older layouts.
// Writers emit v6 only; v2-v5 are read-only. Each
// older version is a strict subset of the next one's fields, so deleting
// what a newer version appended (and rewriting the version word) must
// reproduce the bytes an older writer produced for the same model. The
// goldens captured in v4/v5 (and v3/v2 before them) stay reachable through
// the chain V6 -> V5/V4 -> V3 -> V2, which proves each version only added
// fields and never changed a number an older one carried. Layouts:
// docs/checkpoint-format.md.

#ifndef GKM_TESTS_CHECKPOINT_PROJECTION_H_
#define GKM_TESTS_CHECKPOINT_PROJECTION_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "gtest/gtest.h"

namespace gkm {

/// The whole file at `path` (empty, with a test failure, if it cannot be
/// opened).
inline std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

/// The version word of GKMC/GKMD bytes (0 if too short to hold one).
inline std::uint32_t FileVersion(const std::string& bytes) {
  std::uint32_t v = 0;
  if (bytes.size() >= 8) std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

namespace projection {

// Walks a v6 file front to back, copying what the target version keeps and
// dropping what v6 appended. Any field the target cannot hold (routing on,
// a non-empty mode-seed table or cluster-home block, SQ8 codes in a v4
// projection) fails the test and yields an empty string.
class V6Walker {
 public:
  V6Walker(const std::string& in, std::uint32_t target)
      : in_(in), target_(target) {}

  std::string Run() {
    Copy(4);  // magic
    Skip(4);
    out_.append(reinterpret_cast<const char*>(&target_), 4);
    // Params: fields 1-18, ttl_windows, graph.shards, graph.storage
    // (v5+), then the 33-byte routing tail (v6).
    const std::uint64_t k = PeekU64();
    Copy(18 * 8 + 8);
    const std::uint64_t shards = CopyU64();
    if (target_ >= 5) {
      Copy(8);
    } else {
      Require(PeekU64() == 0, "v4 has no storage field: fp32 only");
      Skip(8);
    }
    Require(in_[pos_] == 0, "routed models have no pre-v6 projection");
    Skip(1 + 8 + 8 + 8 + 8);
    // Cursor: windows, bootstrapped, two RNGs, shard 0's seed state, then
    // shard 0's per-mode seed table (v6).
    Copy(8 + 1 + 41 + 41 + 24);
    SkipEmptyTable("mode-seed table");
    const std::uint64_t dim = Arena();
    Graph();
    Copy(4 * CopyU64());  // labels
    Copy(4 * k);          // cluster representatives
    SkipEmptyTable("cluster-home block");
    Copy(8 + 4 * k + 8 * k * dim + 8 * k + 8 * k + 8);  // cluster state
    Matrix();                                           // drift baseline
    Removal();
    Copy(8 * CopyU64());  // birth windows
    // Shard section table; the byte sizes are re-derived from the
    // projected sections (v6 -> v5 drops 8 bytes from each).
    Require(shards >= 1 && CopyU64() == shards,
            "shard table disagrees with params");
    const std::size_t table = out_.size();
    Copy(8 * (shards - 1));
    for (std::uint64_t s = 1; s < shards; ++s) {
      const std::size_t begin = out_.size();
      Copy(41 + 24);  // RNG + seed state
      Arena();
      Graph();
      Removal();
      SkipEmptyTable("mode-seed table");
      const std::uint64_t bytes = out_.size() - begin;
      std::memcpy(&out_[table + 8 * (s - 1)], &bytes, 8);
    }
    Copy(4);  // trailer
    Require(pos_ == in_.size(), "bytes after the trailer");
    return ok_ ? out_ : std::string();
  }

 private:
  void Require(bool cond, const char* what) {
    if (!cond && ok_) {
      ADD_FAILURE() << "v6 -> v" << target_ << " projection: " << what
                    << " (at byte " << pos_ << ")";
      ok_ = false;
    }
  }
  bool Fits(std::uint64_t n) {
    Require(n <= in_.size() - pos_, "truncated input");
    return ok_;
  }
  void Copy(std::uint64_t n) {
    if (!Fits(n)) return;
    out_.append(in_, pos_, n);
    pos_ += n;
  }
  void Skip(std::uint64_t n) {
    if (Fits(n)) pos_ += n;
  }
  std::uint64_t PeekU64() {
    std::uint64_t v = 0;
    if (Fits(8)) std::memcpy(&v, in_.data() + pos_, 8);
    return v;
  }
  std::uint64_t CopyU64() {
    const std::uint64_t v = PeekU64();
    Copy(8);
    return v;
  }
  void SkipEmptyTable(const char* what) {
    Require(PeekU64() == 0, what);
    Skip(8);
  }
  // Matrix block; returns its column count.
  std::uint64_t Matrix() {
    const std::uint64_t rows = CopyU64();
    const std::uint64_t cols = CopyU64();
    Copy(4 * rows * cols);
    return cols;
  }
  // Arena block; v4 has the bare matrix without the trained flag.
  std::uint64_t Arena() {
    if (!Fits(1)) return 0;
    const char trained = in_[pos_];
    if (target_ >= 5) {
      Copy(1);
    } else {
      Require(trained == 0, "v4 has no SQ8 arena");
      Skip(1);
    }
    if (trained == 0) return Matrix();
    const std::uint64_t rows = CopyU64();
    const std::uint64_t cols = CopyU64();
    Copy(rows * cols + 4 * rows + 8 * cols);  // codes, norms, quantizer
    return cols;
  }
  void Graph() {
    const std::uint64_t n = CopyU64();
    Copy(8);  // kappa
    for (std::uint64_t i = 0; i < n && ok_; ++i) {
      std::uint32_t len = 0;
      if (Fits(4)) std::memcpy(&len, in_.data() + pos_, 4);
      Copy(4 + 8 * static_cast<std::uint64_t>(len));
    }
  }
  // A shard's removal bookkeeping: two id lists and the last-inserted slot.
  void Removal() {
    Copy(4 * CopyU64());
    Copy(4 * CopyU64());
    Copy(4);
  }

  const std::string& in_;
  const std::uint32_t target_;
  std::size_t pos_ = 0;
  std::string out_;
  bool ok_ = true;
};

/// The v5 bytes of a non-routed v6 file (any storage, any shard count).
inline std::string ProjectV6ToV5(const std::string& v6) {
  return V6Walker(v6, 5).Run();
}

/// The v4 bytes of a non-routed fp32 v6 file (any shard count).
inline std::string ProjectV6ToV4(const std::string& v6) {
  return V6Walker(v6, 4).Run();
}

/// The v3 bytes of an S=1 v4 file: the params block is 20 u64-sized fields
/// at offset 8 with graph.shards last, and the shard section table is a
/// single u64 shard count right before the 4-byte trailer.
inline std::string ProjectV4ToV3(const std::string& v4) {
  const std::size_t shards_param = 8 + 19 * 8;
  std::string out = v4.substr(0, 4);
  const std::uint32_t v3 = 3;
  out.append(reinterpret_cast<const char*>(&v3), 4);
  out += v4.substr(8, shards_param - 8);
  out += v4.substr(shards_param + 8, v4.size() - 4 - 8 - (shards_param + 8));
  out += v4.substr(v4.size() - 4);
  return out;
}

/// The v2 bytes of a v3 file with no removals: the params block is 19
/// u64-sized fields at offset 8 with ttl_windows last, and the removal
/// block before the 4-byte trailer is two empty id lists, a u32
/// last-inserted slot, and one u64 birth window per point.
inline std::string ProjectV3ToV2(const std::string& v3, std::size_t n_points) {
  const std::size_t ttl_begin = 8 + 18 * 8;
  const std::size_t removal = 8 + 8 + 4 + 8 + 8 * n_points;
  std::string out = v3.substr(0, 4);
  const std::uint32_t v2 = 2;
  out.append(reinterpret_cast<const char*>(&v2), 4);
  out += v3.substr(8, ttl_begin - 8);
  out += v3.substr(ttl_begin + 8, v3.size() - 4 - removal - (ttl_begin + 8));
  out += v3.substr(v3.size() - 4);
  return out;
}

}  // namespace projection
}  // namespace gkm

#endif  // GKM_TESTS_CHECKPOINT_PROJECTION_H_
