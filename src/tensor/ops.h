// Elementwise and row-wise tensor kernels used by layers and the sampler.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace naru {

/// out = relu(in); shapes must match (out may alias in).
void ReluForward(const Matrix& in, Matrix* out);

/// dx = dy * 1[x > 0]; `x` is the pre-activation input (dx may alias dy).
void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx);

/// Softmax over each row of `logits` into `probs` (may alias).
/// Numerically stabilized by per-row max subtraction.
void SoftmaxRows(const Matrix& logits, Matrix* probs);

/// Softmax over columns [begin, end) of each row, writing into the
/// corresponding columns of `probs` (other columns untouched).
void SoftmaxRowsSlice(const Matrix& logits, size_t begin, size_t end,
                      Matrix* probs);

/// log(sum(exp(row[begin:end]))) with max-subtraction, for one row.
double LogSumExpSlice(const float* row, size_t begin, size_t end);

/// c += a * scale (shapes must match).
void Axpy(const Matrix& a, float scale, Matrix* c);

/// out (rows x cols.size()) = columns cols[0], cols[1], ... of `in`.
void GatherColumns(const Matrix& in, const std::vector<size_t>& cols,
                   Matrix* out);

/// out (rows.size() x cols) = rows rows[0], rows[1], ... of `in`.
void GatherRows(const Matrix& in, const std::vector<size_t>& rows,
                Matrix* out);

/// Returns the global L2 norm sqrt(sum of squares) of the matrix.
double L2Norm(const Matrix& m);

}  // namespace naru
