// Dense row-major float32 matrix — the workhorse of the NN substrate.
//
// Deliberately minimal: shape + storage + element access. All numeric
// kernels live in gemm.h / ops.h so they can be tuned independently.
//
// Storage layout: rows are padded to a 64-byte (16-float) leading dimension
// and the buffer itself is 64-byte aligned, so SIMD kernels can load/store
// full vectors of any row without straddling cache lines and without scalar
// remainder handling (stride() is always a multiple of 16).
//
// INVARIANT: padding elements (columns [cols(), stride()) of each row) are
// always zero. Every Matrix mutation path maintains this: construction,
// Resize and Fill zero the padding, ResizeForOverwrite's one caller
// (GatherRows) copies whole zero-padded rows, and kernels only write
// logical columns (GEMM C-padding stays zero because B/W padding is
// zero). Flat loops over [data(), data() + size()) are allowed only when
// they preserve zeros at zero — e.g. relu, axpy, scale, Adam updates —
// which all existing flat users do. size() is the PHYSICAL buffer length
// (rows * stride), not rows * cols.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace naru {

/// Minimal std::allocator replacement with a fixed over-alignment, used so
/// Matrix can keep std::vector value semantics while guaranteeing 64-byte
/// base alignment. Elements constructed without a value are left
/// uninitialized (default-, not value-initialized), so vector::resize(n)
/// grows without a zero pass; Matrix names the value wherever it needs
/// zeros.
template <typename T, size_t kAlign>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kAlign));
  }

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

/// Row alignment of Matrix storage, in bytes and in floats.
constexpr size_t kMatrixRowAlignBytes = 64;
constexpr size_t kMatrixRowAlignFloats = kMatrixRowAlignBytes / sizeof(float);

/// Leading dimension (in floats) for a row of `cols` logical columns.
constexpr size_t PaddedStride(size_t cols) {
  return (cols + kMatrixRowAlignFloats - 1) / kMatrixRowAlignFloats *
         kMatrixRowAlignFloats;
}

/// Row-major float matrix. A batch of activations is one Matrix with one
/// example per row.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        stride_(PaddedStride(cols)),
        data_(rows * stride_, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Leading dimension in floats: Row(r+1) - Row(r). A multiple of 16;
  /// equal for any two matrices with the same cols().
  size_t stride() const { return stride_; }
  /// PHYSICAL element count (rows * stride), including zero padding. Flat
  /// loops over this range must preserve zeros at zero (see header).
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* Row(size_t r) {
    NARU_DCHECK(r < rows_);
    return data_.data() + r * stride_;
  }
  const float* Row(size_t r) const {
    NARU_DCHECK(r < rows_);
    return data_.data() + r * stride_;
  }

  float& At(size_t r, size_t c) {
    NARU_DCHECK(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }
  float At(size_t r, size_t c) const {
    NARU_DCHECK(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }

  /// Reshapes to (rows, cols), reallocating if needed. CONTRACT: when
  /// `cols` is unchanged, the leading min(old_rows, rows) rows keep their
  /// contents (the stride is a function of cols, so row offsets do not
  /// move) — the plan executor (src/plan) truncates stacked walks by
  /// shrinking rows and relies on this. Contents are unspecified only for
  /// the newly added tail and whenever `cols` changes. Padding is zero in
  /// all cases.
  void Resize(size_t rows, size_t cols) {
    const size_t stride = PaddedStride(cols);
    if (cols == cols_) {
      // vector::resize keeps the prefix and zero-fills growth, which keeps
      // both the preservation contract and the padding invariant.
      data_.resize(rows * stride, 0.0f);
    } else {
      // A cols change (even within the same stride) could leave old data in
      // what is now padding, so start from zeros.
      data_.assign(rows * stride, 0.0f);
    }
    rows_ = rows;
    cols_ = cols;
    stride_ = stride;
  }

  /// Reshapes to (rows, cols) for a caller that then writes every
  /// element, padding included (all rows * stride() floats, zeros in the
  /// padding): nothing is initialized or kept, and a buffer that must
  /// grow is reallocated without copying the old contents.
  void ResizeForOverwrite(size_t rows, size_t cols) {
    const size_t stride = PaddedStride(cols);
    if (rows * stride > data_.capacity()) data_.clear();
    data_.resize(rows * stride);
    rows_ = rows;
    cols_ = cols;
    stride_ = stride;
  }

  /// Sets every logical element to `v`; padding stays zero.
  void Fill(float v) {
    if (v == 0.0f) {
      std::fill(data_.begin(), data_.end(), 0.0f);
      return;
    }
    for (size_t r = 0; r < rows_; ++r) {
      float* row = Row(r);
      for (size_t c = 0; c < cols_; ++c) row[c] = v;
    }
  }
  void Zero() { Fill(0.0f); }

  /// Frobenius-style helpers used by the optimizer and tests.
  double SumSquares() const;
  double AbsMax() const;

  std::string ShapeString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  std::vector<float, AlignedAllocator<float, kMatrixRowAlignBytes>> data_;
};

/// Row-major int32 matrix for dictionary codes (one tuple per row).
/// Deliberately unpadded: codes feed scalar gather loops, not SIMD.
class IntMatrix {
 public:
  IntMatrix() = default;
  IntMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  int32_t* Row(size_t r) {
    NARU_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const int32_t* Row(size_t r) const {
    NARU_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  int32_t& At(size_t r, size_t c) {
    NARU_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  int32_t At(size_t r, size_t c) const {
    NARU_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Same preservation contract as Matrix::Resize: with `cols` unchanged,
  /// the leading min(old_rows, rows) rows keep their contents.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }
  void Fill(int32_t v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<int32_t> data_;
};

}  // namespace naru
