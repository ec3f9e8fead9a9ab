// MADE: masked autoregressive network over relational tuples (§3.2, §4.3 B).
//
// The model maps an encoded tuple to one output block per column, where
// block i is (after softmax) the conditional distribution
// P̂(X_i | x_1..x_{i-1}). Autoregressiveness is enforced with MADE weight
// masks (Germain et al. 2015): every input dimension carries the index of
// the column it encodes, hidden units carry degrees in {0..n-2} meaning
// "may depend on columns <= degree", and output block i may only read
// hidden units with degree < i. Column order is the table order (§3.1).
//
// Output heads are per-column MaskedLinears. Large-domain columns can use
// the paper's "embedding reuse" (§4.2): the head emits h dims and logits
// are formed against the input embedding table, logits = H · E_i^T, saving
// a |A_i| x F output layer.
#pragma once

#include <string>
#include <vector>

#include "core/conditional_model.h"
#include "core/encoding.h"
#include "core/trainable_model.h"
#include "nn/masked_linear.h"
#include "util/status.h"

namespace naru {

class MadeModel : public ConditionalModel, public TrainableModel {
 public:
  struct Config {
    /// Hidden layer widths; empty = linear (bias/logistic) MADE.
    std::vector<size_t> hidden_sizes = {128, 128, 128, 128};
    EncoderConfig encoder;
    /// Use embedding reuse for columns that are embedding-encoded.
    bool embedding_reuse = true;
    /// ResMADE: pre-activation residual skips between equal-width hidden
    /// layers, h_{l+1} = ReLU(W h_l + b + h_l). Degree vectors of
    /// equal-width layers coincide, so the identity path is mask-safe and
    /// the autoregressive property is preserved. Deeper MADE stacks train
    /// noticeably faster with this on.
    bool residual = false;
    uint64_t seed = 1;
  };

  /// `domains[i]` is |A_i| for column i in model (= table) order.
  MadeModel(std::vector<size_t> domains, Config config);

  /// Scratch buffers for one inference forward pass. The model's weights
  /// are read-only at inference, so callers holding distinct contexts may
  /// evaluate concurrently; every sampling session owns one (which is what
  /// makes SupportsConcurrentSampling() true). Training keeps using the
  /// model's own member context.
  struct EvalContext {
    Matrix x;
    std::vector<Matrix> acts;
    Matrix head_tmp;  // reuse heads' h-dim output
    Matrix block;     // current head logits
    // Incremental-walk scratch (sessions only): one degree's gathered
    // weight panel, its output units and their residual inputs.
    ColumnPanel panel;
    Matrix slice;
    Matrix skip;
  };

  // --- ConditionalModel ---
  size_t num_columns() const override { return domains_.size(); }
  size_t DomainSize(size_t col) const override { return domains_[col]; }
  void ConditionalDist(const IntMatrix& samples, size_t col,
                       Matrix* probs) override;
  /// Re-entrant ConditionalDist evaluating through caller-owned scratch.
  void ConditionalDistWith(EvalContext* ctx, const IntMatrix& samples,
                           size_t col, Matrix* probs) const;
  void LogProbRows(const IntMatrix& tuples,
                   std::vector<double>* out_nats) override;
  /// Sessions own an EvalContext each, so they can run concurrently. A
  /// session keeps its trunk between Dist calls: when called with col =
  /// previous col + 1 on the same rows (or on rows a Relayout rearranged,
  /// whose trunk rows it gathers the same way), it encodes only column
  /// col-1 and recomputes only the hidden units of degree col-1 — the only
  /// units whose inputs changed. Every kernel on the path (encode, gemm,
  /// bias, relu, softmax) is row-independent. Column 0 needs no trunk at
  /// all (its head reads no hidden unit); any other call runs the full
  /// trunk. Results are bit-identical to ConditionalDistWith.
  std::unique_ptr<SamplingSession> StartSession(size_t batch) override;
  bool SupportsConcurrentSampling() const override { return true; }
  /// Switches the inference forward paths (ConditionalDist*, LogProbRows,
  /// sessions) to `kernel`; training stays scalar.
  void SetInferenceKernel(KernelKind kernel) override;
  KernelKind inference_kernel() const override { return inference_kernel_; }
  /// The widest hidden layer dominates the stacked GEMM chain (linear
  /// MADE: no hidden GEMMs, leave the hint unknown).
  size_t StackedWidthHint() const override {
    size_t width = 0;
    for (size_t h : config_.hidden_sizes) width = std::max(width, h);
    return width;
  }

  // --- Training ---
  /// Fused forward/backward over a batch of full tuples; accumulates
  /// parameter gradients (mean-scaled) and returns the summed NLL in nats.
  double ForwardBackward(const IntMatrix& codes);

  /// All trainable parameters (optimizer registration, serialization).
  std::vector<Parameter*> Parameters();

  /// float32 model size (the paper's reported estimator size).
  size_t SizeBytes();

  Status Save(const std::string& path);
  Status Load(const std::string& path);

  const Config& config() const { return config_; }
  const InputEncoder& encoder() const { return encoder_; }

 private:
  class Session;

  /// Encodes columns < upto and runs the hidden stack into `ctx`; the
  /// result lives in final_hidden(*ctx). With upto == num_columns() this is
  /// a full forward. Const: only caller scratch is written. `kernel` picks
  /// the GEMM family (training passes kScalar, inference the configured
  /// inference_kernel_).
  void ForwardTrunk(const IntMatrix& codes, size_t upto, EvalContext* ctx,
                    KernelKind kernel) const;

  /// Sizes the trunk in `ctx` for `rows` rows with every input and hidden
  /// unit zero: the state before any column is encoded, which is all
  /// column 0's head needs.
  void ZeroTrunk(size_t rows, EvalContext* ctx) const;

  /// Extends a trunk that holds the prefix of columns < col-1 for these
  /// same rows to columns < col: encodes column col-1 and recomputes, per
  /// hidden layer, only the units of degree col-1. Units of lower degree
  /// are already final; units of higher degree keep finite, non-negative
  /// stale values that every later reader multiplies by an exact-zero
  /// masked weight, exactly as in a full ForwardTrunk.
  void AdvanceTrunk(const IntMatrix& codes, size_t col, EvalContext* ctx,
                    KernelKind kernel) const;

  const Matrix& final_hidden(const EvalContext& ctx) const {
    return ctx.acts.empty() ? ctx.x : ctx.acts.back();
  }

  /// Computes the raw logits block for `col` from the last ForwardTrunk
  /// through `ctx`. The block is written into `block` (batch x
  /// domains_[col]), which may alias &ctx->block.
  void HeadForward(size_t col, EvalContext* ctx, Matrix* block,
                   KernelKind kernel) const;

  /// Backpropagates a logits-block gradient through head `col`,
  /// accumulating into dfinal (batch x F). Reads the member context's
  /// forward activations (training is single-threaded by design).
  void HeadBackward(size_t col, const Matrix& dblock, Matrix* dfinal);

  /// Builds the MADE mask between two degree vectors.
  static Matrix BuildMask(const std::vector<int>& in_deg,
                          const std::vector<int>& out_deg, bool strict);

  /// True when hidden layer `layer` carries a ResMADE residual skip.
  bool HasSkip(size_t layer) const;

  std::vector<size_t> domains_;
  Config config_;
  Rng rng_;
  InputEncoder encoder_;
  // degree_units_[l][d]: indices of hidden layer l's units of degree d.
  std::vector<std::vector<std::vector<size_t>>> degree_units_;
  std::vector<MaskedLinear> hidden_;

  struct Head {
    std::unique_ptr<MaskedLinear> fc;
    bool reuse = false;  // logits = fc_out · E^T
  };
  std::vector<Head> heads_;

  // Inference kernel (scalar by default; see SetInferenceKernel) and the
  // sparse-input hint for the first hidden layer, fixed at construction
  // from the encoder's one-hot width fraction.
  KernelKind inference_kernel_ = KernelKind::kScalar;
  InputHint input_hint_ = InputHint::kDense;

  // Member workspace for the single-threaded paths (training, the
  // stateless ConditionalDist, LogProbRows). Concurrent inference goes
  // through session-owned EvalContexts instead.
  EvalContext eval_;
  Matrix dblock_;
  Matrix dtmp_;
  std::vector<int32_t> targets_;
};

}  // namespace naru
