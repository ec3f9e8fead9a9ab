#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/gemm.h"

namespace naru {

Linear::Linear(std::string name, size_t in_dim, size_t out_dim, Rng* rng)
    : w_(name + ".w", in_dim, out_dim), b_(name + ".b", 1, out_dim) {
  KaimingUniformInit(&w_.value, in_dim, rng);
}

void Linear::Forward(const Matrix& x, Matrix* y, KernelKind kernel,
                     InputHint hint) const {
  GemmNN(x, w_.value, y, /*accumulate=*/false, kernel, hint);
  AddBiasRows(b_.value, y);
}

void Linear::Backward(const Matrix& x, const Matrix& dy, Matrix* dx) {
  GemmTN(x, dy, &w_.grad, /*accumulate=*/true);
  AccumulateBiasGrad(dy, &b_.grad);
  if (dx != nullptr) GemmNT(dy, w_.value, dx);
}

}  // namespace naru
