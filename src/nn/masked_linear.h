// MADE-style masked fully-connected layer.
//
// A MaskedLinear is a Linear whose weight matrix is elementwise-multiplied
// by a fixed binary mask that enforces the autoregressive property
// (Germain et al., 2015). The mask is applied once to the initial weights
// and re-applied to every weight gradient, so masked entries stay exactly
// zero through training.
#pragma once

#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/gemm.h"
#include "util/random.h"

namespace naru {

/// Caller-owned scratch for MaskedLinear::ForwardColumns: the weight
/// columns and biases of one output-unit subset, gathered from the layer on
/// every call.
struct ColumnPanel {
  Matrix w;
  Matrix b;
};

class MaskedLinear {
 public:
  /// `mask` must be (in_dim x out_dim) with entries in {0, 1}.
  MaskedLinear(std::string name, size_t in_dim, size_t out_dim, Matrix mask,
               Rng* rng);

  size_t in_dim() const { return w_.value.rows(); }
  size_t out_dim() const { return w_.value.cols(); }

  /// Same kernel semantics as Linear::Forward.
  void Forward(const Matrix& x, Matrix* y,
               KernelKind kernel = KernelKind::kScalar,
               InputHint hint = InputHint::kDense) const;

  /// Forward restricted to the output units `cols`: y (batch x
  /// cols.size()) holds columns cols[0], cols[1], ... of Forward(x). The
  /// panel is gathered from the current weights on each call, so it cannot
  /// go stale after training. Every GEMM kernel reduces each output element
  /// over ascending k on its own, so the results are bit-identical to the
  /// matching columns of Forward.
  void ForwardColumns(const Matrix& x, const std::vector<size_t>& cols,
                      Matrix* y, ColumnPanel* panel,
                      KernelKind kernel = KernelKind::kScalar,
                      InputHint hint = InputHint::kDense) const;

  /// Accumulates masked weight grads; dx computed unless nullptr.
  /// With `accumulate_dx`, dx += dy W^T instead of overwriting (used when
  /// several output heads feed gradient into one shared hidden layer).
  void Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                bool accumulate_dx = false);

  const Matrix& mask() const { return mask_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

  void CollectParameters(std::vector<Parameter*>* out) {
    out->push_back(&w_);
    out->push_back(&b_);
  }

  /// Re-applies the mask to the weight values. Called after deserialization
  /// (and defensively after optimizer steps in debug builds).
  void ProjectWeights();

 private:
  Parameter w_;
  Parameter b_;
  Matrix mask_;
};

}  // namespace naru
