// Copyright 2026 The gkmeans Authors.
// Row-major float matrix with 64-byte aligned rows — the canonical container
// for datasets and centroid tables across the library.

#ifndef GKM_COMMON_MATRIX_H_
#define GKM_COMMON_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace gkm {

/// Dense row-major matrix of `float`. Rows are padded so every row starts on
/// a 64-byte boundary, which keeps the distance kernels on their fast path
/// regardless of the logical dimension.
///
/// The matrix owns its storage; copies are deep. Row access returns raw
/// pointers — the intended usage is tight numeric loops, not element sugar.
class Matrix {
 public:
  Matrix() = default;

  /// Creates an `n x d` zero-initialized matrix.
  Matrix(std::size_t n, std::size_t d) { Reset(n, d); }

  /// Re-shapes to `n x d`, zero-initializing all elements.
  void Reset(std::size_t n, std::size_t d) {
    n_ = n;
    d_ = d;
    stride_ = PaddedDim(d);
    data_.assign(n_ * stride_ + kAlignFloats, 0.0f);
    base_ = AlignedBase();
  }

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return d_; }
  /// Number of floats between consecutive rows (>= cols()).
  std::size_t stride() const { return stride_; }
  bool empty() const { return n_ == 0; }
  /// Rows the storage holds before AppendRow must grow it.
  std::size_t capacity() const {
    return stride_ == 0 ? 0 : (data_.size() - kAlignFloats) / stride_;
  }

  /// Pointer to row `i` (64-byte aligned).
  float* Row(std::size_t i) {
    GKM_DCHECK(i < n_);
    return base_ + i * stride_;
  }
  const float* Row(std::size_t i) const {
    GKM_DCHECK(i < n_);
    return base_ + i * stride_;
  }

  float& At(std::size_t i, std::size_t j) {
    GKM_DCHECK(j < d_);
    return Row(i)[j];
  }
  float At(std::size_t i, std::size_t j) const {
    GKM_DCHECK(j < d_);
    return Row(i)[j];
  }

  /// Copies `d` floats from `src` into row `i`.
  void SetRow(std::size_t i, const float* src) {
    std::memcpy(Row(i), src, d_ * sizeof(float));
  }

  /// Grows backing storage to hold at least `rows` rows without moving
  /// existing data logically. The column count must already be set.
  void Reserve(std::size_t rows) {
    GKM_CHECK_MSG(stride_ > 0, "Reserve before column count is set");
    const std::size_t need = rows * stride_ + kAlignFloats;
    if (need <= data_.size()) return;
    // Reallocation can land on a different alignment offset, so rows are
    // copied into a fresh buffer at its own aligned base rather than
    // resized in place.
    std::vector<float> fresh(need, 0.0f);
    float* fresh_base = AlignedIn(fresh);
    if (n_ > 0) {
      std::memcpy(fresh_base, base_, n_ * stride_ * sizeof(float));
    }
    data_ = std::move(fresh);
    base_ = AlignedBase();
  }

  /// Appends one row (amortized O(d) via capacity doubling) — the growth
  /// path of the streaming subsystem. Use `Matrix(0, d)` to fix `d` first.
  void AppendRow(const float* src) {
    GKM_CHECK_MSG(stride_ > 0, "AppendRow before column count is set");
    if ((n_ + 1) * stride_ + kAlignFloats > data_.size()) {
      Reserve(n_ < 8 ? 16 : n_ * 2);
    }
    ++n_;
    SetRow(n_ - 1, src);
  }

  /// Logical equality on shape and row contents (padding ignored).
  bool operator==(const Matrix& o) const {
    if (n_ != o.n_ || d_ != o.d_) return false;
    for (std::size_t i = 0; i < n_; ++i) {
      if (std::memcmp(Row(i), o.Row(i), d_ * sizeof(float)) != 0) return false;
    }
    return true;
  }

  Matrix(const Matrix& o) { CopyFrom(o); }
  Matrix& operator=(const Matrix& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }
  Matrix(Matrix&& o) noexcept { MoveFrom(std::move(o)); }
  Matrix& operator=(Matrix&& o) noexcept {
    if (this != &o) MoveFrom(std::move(o));
    return *this;
  }

 private:
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kAlignFloats = kAlignBytes / sizeof(float);

  static std::size_t PaddedDim(std::size_t d) {
    return (d + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  static float* AlignedIn(std::vector<float>& buf) {
    auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    std::uintptr_t aligned = (addr + kAlignBytes - 1) / kAlignBytes * kAlignBytes;
    return buf.data() + (aligned - addr) / sizeof(float);
  }

  float* AlignedBase() { return AlignedIn(data_); }

  void CopyFrom(const Matrix& o) {
    Reset(o.n_, o.d_);
    for (std::size_t i = 0; i < n_; ++i) SetRow(i, o.Row(i));
  }

  void MoveFrom(Matrix&& o) {
    n_ = o.n_;
    d_ = o.d_;
    stride_ = o.stride_;
    data_ = std::move(o.data_);
    base_ = AlignedBase();
    o.n_ = o.d_ = o.stride_ = 0;
    o.base_ = nullptr;
  }

  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::size_t stride_ = 0;
  std::vector<float> data_;
  float* base_ = nullptr;
};

/// Deep-copies rows [begin, end) of `m` into a new matrix. The canonical
/// way to carve a base/query split out of one generated sample so both
/// sides share a distribution.
inline Matrix SliceRows(const Matrix& m, std::size_t begin, std::size_t end) {
  GKM_CHECK(begin <= end && end <= m.rows());
  Matrix out(end - begin, m.cols());
  for (std::size_t i = begin; i < end; ++i) {
    out.SetRow(i - begin, m.Row(i));
  }
  return out;
}

}  // namespace gkm

#endif  // GKM_COMMON_MATRIX_H_
