// Matrix-multiply kernels, thread-parallel over output rows.
//
// Three explicit variants cover every case the NN forward/backward passes
// need, avoiding a general (and slower) stride-parameterized kernel:
//   GemmNN:  C = A   * B      (forward:  X * W)
//   GemmNT:  C = A   * B^T    (backward: dY * W^T, and embedding-reuse logits)
//   GemmTN:  C = A^T * B      (backward: X^T * dY for weight gradients)
// All support optional accumulation into C (beta = 1).
//
// GemmNN and GemmNT take a KernelKind: kScalar runs the portable
// register-tiled reference kernel in gemm.cc (per element: separately
// rounded multiply and add, ascending k, no FMA; the same bits at either
// tile width), kSimd runs the cache-blocked SIMD kernels in gemm_simd.cc
// behind runtime CPU dispatch (kernel.h). GemmTN is training-only and
// stays scalar.
//
// Determinism: work is partitioned by output row and each row's reduction
// order is fixed, so for a FIXED kernel the result is bit-identical across
// thread counts and row splits. Different kernels round differently.
#pragma once

#include "tensor/kernel.h"
#include "tensor/matrix.h"

namespace naru {

/// Shape hint for GemmNN's A operand. kOneHot keeps the zero-skip fast path
/// (profitable only when most of A is zeros, i.e. the one-hot-encoded input
/// layer); kDense runs branch-free. The hint never changes results: skipped
/// terms are exact zero contributions, so both paths are bit-identical for
/// finite weights.
enum class InputHint : uint8_t {
  kDense = 0,
  kOneHot = 1,
};

/// C(MxN) = A(MxK) * B(KxN) [+ C if accumulate].
void GemmNN(const Matrix& a, const Matrix& b, Matrix* c,
            bool accumulate = false, KernelKind kernel = KernelKind::kScalar,
            InputHint hint = InputHint::kDense);

/// C(MxN) = A(MxK) * B(NxK)^T [+ C if accumulate].
void GemmNT(const Matrix& a, const Matrix& b, Matrix* c,
            bool accumulate = false, KernelKind kernel = KernelKind::kScalar);

/// C(KxN) = A(MxK)^T * B(MxN) [+ C if accumulate]. Training-only; always
/// scalar, and keeps the zero-skip on A (the sparse one-hot input actually
/// pays there).
void GemmTN(const Matrix& a, const Matrix& b, Matrix* c,
            bool accumulate = false);

/// Columns of the scalar kernel's register tile on this host: 16 (256-bit
/// vectors) where DetectedSimdLevel() finds AVX2 on x86, else 8 (128-bit).
/// Both widths give the same bits; benches report which one ran.
size_t ScalarTileCols();

/// Adds a length-N bias row to every row of C(MxN).
void AddBiasRows(const Matrix& bias, Matrix* c);

/// bias_grad(1xN) += column sums of dY(MxN).
void AccumulateBiasGrad(const Matrix& dy, Matrix* bias_grad);

}  // namespace naru
