#include "nn/masked_linear.h"

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace naru {

MaskedLinear::MaskedLinear(std::string name, size_t in_dim, size_t out_dim,
                           Matrix mask, Rng* rng)
    : w_(name + ".w", in_dim, out_dim),
      b_(name + ".b", 1, out_dim),
      mask_(std::move(mask)) {
  NARU_CHECK(mask_.rows() == in_dim && mask_.cols() == out_dim);
  KaimingUniformInit(&w_.value, in_dim, rng);
  ProjectWeights();
}

void MaskedLinear::Forward(const Matrix& x, Matrix* y, KernelKind kernel,
                           InputHint hint) const {
  // Weights are maintained pre-masked, so the plain GEMM is correct.
  GemmNN(x, w_.value, y, /*accumulate=*/false, kernel, hint);
  AddBiasRows(b_.value, y);
}

void MaskedLinear::ForwardColumns(const Matrix& x,
                                  const std::vector<size_t>& cols, Matrix* y,
                                  ColumnPanel* panel, KernelKind kernel,
                                  InputHint hint) const {
  GatherColumns(w_.value, cols, &panel->w);
  GemmNN(x, panel->w, y, /*accumulate=*/false, kernel, hint);
  GatherColumns(b_.value, cols, &panel->b);
  AddBiasRows(panel->b, y);
}

void MaskedLinear::Backward(const Matrix& x, const Matrix& dy, Matrix* dx,
                            bool accumulate_dx) {
  // dx must use the masked weights (they are, by invariant).
  if (dx != nullptr) GemmNT(dy, w_.value, dx, accumulate_dx);
  // Weight grad must be masked so masked entries never receive updates.
  Matrix dw;
  GemmTN(x, dy, &dw, /*accumulate=*/false);
  const float* m = mask_.data();
  const float* src = dw.data();
  float* dst = w_.grad.data();
  for (size_t i = 0; i < dw.size(); ++i) dst[i] += src[i] * m[i];
  AccumulateBiasGrad(dy, &b_.grad);
}

void MaskedLinear::ProjectWeights() {
  const float* m = mask_.data();
  float* w = w_.value.data();
  for (size_t i = 0; i < w_.value.size(); ++i) w[i] *= m[i];
}

}  // namespace naru
