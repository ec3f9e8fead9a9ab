// Generic ReLU multi-layer perceptron with stored activations.
//
// Used by the MSCN baseline's regression head and by Naru's architecture-A
// per-column networks. The MLP owns its intermediate activation buffers, so
// Forward must be followed by a matching Backward (training), or used alone
// (inference).
#pragma once

#include <string>
#include <vector>

#include "nn/linear.h"

namespace naru {

class Mlp {
 public:
  /// dims = {in, hidden..., out}. ReLU between layers, linear final layer.
  Mlp(std::string name, const std::vector<size_t>& dims, Rng* rng);

  size_t in_dim() const { return layers_.front().in_dim(); }
  size_t out_dim() const { return layers_.back().out_dim(); }

  /// y = MLP(x); stashes activations for a subsequent Backward. The kernel
  /// applies to the GEMMs only; pass non-scalar kernels solely on inference
  /// paths (Backward assumes scalar-forward arithmetic).
  void Forward(const Matrix& x, Matrix* y,
               KernelKind kernel = KernelKind::kScalar);

  /// Inference-only forward that does not touch the stored activations
  /// (safe to call concurrently from const contexts).
  void ForwardInference(const Matrix& x, Matrix* y,
                        KernelKind kernel = KernelKind::kScalar) const;

  /// Backpropagates dy (w.r.t. the last Forward output), accumulating
  /// parameter grads; writes dx unless nullptr.
  void Backward(const Matrix& dy, Matrix* dx);

  void CollectParameters(std::vector<Parameter*>* out) {
    for (auto& l : layers_) l.CollectParameters(out);
  }

  std::vector<Linear>& layers() { return layers_; }

 private:
  std::vector<Linear> layers_;
  // inputs_[i] is the input fed to layer i on the last Forward;
  // pre_[i] is layer i's pre-activation output.
  std::vector<Matrix> inputs_;
  std::vector<Matrix> pre_;
};

}  // namespace naru
