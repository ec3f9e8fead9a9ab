// Internal raw-pointer row-range kernels behind GemmNN/GemmNT (gemm.h). Not
// part of the public tensor API; gemm.cc calls these from inside its
// ParallelFor row partitions, and tests reach them indirectly through the
// public entry points plus the SimdLevel test override (kernel.h).
//
// Conventions shared by all kernels here:
//   - All strides are in elements. Pointers from Matrix are 64-byte aligned
//     with strides that are multiples of 16 floats, but the kernels only
//     require that reading/writing the full padded width is legal.
//   - Each call owns C rows [lo, hi) exclusively; kernels always accumulate
//     into C (callers zero C first for the non-accumulate case).
//   - Padding columns of B are zero, so accumulating over the padded width
//     leaves C padding zero.
//   - Per C element the reduction order is fixed (ascending k, one
//     accumulator chain), independent of [lo, hi): bit-identical results
//     across thread counts for a fixed dispatch level.
#pragma once

#include <cstddef>

namespace naru {
namespace gemm_detail {

/// C rows [lo, hi) += A * B. A is (m x k) with leading dim lda; B is
/// (k x n) with leading dim ldb; C has leading dim ldc. REQUIRES ldb == ldc
/// (both PaddedStride(n)): the j loop runs over the full padded width with
/// no remainder handling. `onehot_a` enables the zero-skip on A values.
void NNRowsSimd(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t k,
                bool onehot_a);

/// C rows [lo, hi) += A * B^T. A is (m x k) with leading dim lda; B is
/// (n x k) with leading dim ldb; C has leading dim ldc. REQUIRES
/// lda == ldb (both PaddedStride(k)): dot products run over the padded
/// width kpad (zero padding contributes zero). n is C's logical width.
void NTRowsSimd(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t kpad,
                size_t n);

}  // namespace gemm_detail
}  // namespace naru
