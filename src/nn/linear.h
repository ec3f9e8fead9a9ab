// Fully-connected layer y = x W + b with explicit forward/backward.
//
// Layers are stateless with respect to activations: the caller owns the
// input/output matrices and passes the forward input back into Backward.
// This keeps memory management explicit and makes layers trivially reusable
// across batch sizes.
//
// Forward takes a KernelKind (kernel.h): the default kScalar is the
// reference path; kSimd runs the blocked SIMD kernels. Backward is
// training-only and always scalar.
#pragma once

#include <string>

#include "nn/parameter.h"
#include "tensor/gemm.h"
#include "util/random.h"

namespace naru {

class Linear {
 public:
  /// Constructs an (in_dim x out_dim) layer with Kaiming-uniform weights.
  Linear(std::string name, size_t in_dim, size_t out_dim, Rng* rng);

  size_t in_dim() const { return w_.value.rows(); }
  size_t out_dim() const { return w_.value.cols(); }

  /// y = x W + b. x is (batch x in), y resized to (batch x out).
  void Forward(const Matrix& x, Matrix* y,
               KernelKind kernel = KernelKind::kScalar,
               InputHint hint = InputHint::kDense) const;

  /// Given the forward input `x` and upstream gradient `dy`, accumulates
  /// dW += x^T dy, db += colsum(dy) and computes dx = dy W^T (skipped when
  /// dx == nullptr, e.g. at the first layer).
  void Backward(const Matrix& x, const Matrix& dy, Matrix* dx);

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }

  /// Appends this layer's parameters to `out` (optimizer registration).
  void CollectParameters(std::vector<Parameter*>* out) {
    out->push_back(&w_);
    out->push_back(&b_);
  }

 private:
  Parameter w_;  // (in x out)
  Parameter b_;  // (1 x out)
};

}  // namespace naru
