// Causal Transformer autoregressive model (§3.1, §4.3).
//
// The paper's framework accepts any model of the Eq. 1 form; it names the
// Transformer [Vaswani et al. 2017] among the candidate architectures and
// self-attention as a candidate aggregator ⊕ for architecture A. This is
// that third architecture: each column is one token position, a causal
// (lower-triangular) attention mask enforces autoregressiveness, and output
// position i reads only the SOS token plus columns < i — exactly
// P̂(X_i | x_<i).
//
// Layout: pre-LayerNorm blocks,
//   h = x + Attn(LN1(x));  x' = h + FFN(LN2(h))
// followed by a final LayerNorm and one logits head per column. Column
// values enter through per-column embedding tables of width d_model; with
// `embedding_reuse` the same table decodes the output block
// (logits = y_i · E_i^T, GPT-style weight tying — the §4.2 optimization).
//
// Forward/backward are hand-written against the tensor substrate. The
// per-query cost of ConditionalDist(col) is attention over col+1 positions
// only, so early sampler columns are cheap.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/conditional_model.h"
#include "core/trainable_model.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "util/random.h"
#include "util/status.h"

namespace naru {

class TransformerModel : public ConditionalModel, public TrainableModel {
 public:
  struct Config {
    size_t d_model = 64;     ///< Token width; must be divisible by num_heads.
    size_t num_heads = 4;    ///< Attention heads per block.
    size_t num_layers = 2;   ///< Transformer blocks.
    size_t ffn_hidden = 256; ///< FFN inner width.
    /// Tie each column's output logits to its input embedding (§4.2).
    bool embedding_reuse = true;
    uint64_t seed = 1;
  };

  /// `domains[i]` is |A_i| for column i in table order.
  TransformerModel(std::vector<size_t> domains, Config config);

  /// Scratch for one inference forward pass: the block activations are
  /// ping-ponged through a single set of matrices (inference needs no
  /// per-block stashes — those exist only for backward). Weights are
  /// read-only at inference, so callers holding distinct contexts may
  /// evaluate concurrently; every sampling session owns one. Training
  /// keeps the member workspace (ForwardBackward reads the stashes).
  struct EvalContext {
    Matrix x;  // current block input/output (batch*T x E)
    Matrix ln1_out, q, k, v;
    Matrix attn_probs;  // (batch*heads*T x T), causal rows
    Matrix attn_cat, attn_proj;
    Matrix res1, ln2_out, ffn_out;
    Matrix y;  // lnf_ output
    Matrix ybuf, logits;
  };

  // --- ConditionalModel ---
  size_t num_columns() const override { return domains_.size(); }
  size_t DomainSize(size_t col) const override { return domains_[col]; }
  void ConditionalDist(const IntMatrix& samples, size_t col,
                       Matrix* probs) override;
  /// Re-entrant ConditionalDist evaluating through caller-owned scratch.
  void ConditionalDistWith(EvalContext* ctx, const IntMatrix& samples,
                           size_t col, Matrix* probs) const;
  /// Sessions own an EvalContext each, so they can run concurrently. They
  /// keep no state between Dist calls (Relayout is a no-op): each
  /// recomputes from the prefix through ConditionalDistWith. Causal
  /// attention only mixes token positions *within* a row; across rows
  /// every kernel on the path (embed, layernorm, gemm, attention, softmax)
  /// is row-independent.
  std::unique_ptr<SamplingSession> StartSession(size_t batch) override;
  bool SupportsConcurrentSampling() const override { return true; }
  /// The widest GEMM in the stacked chain is the FFN inner layer (or the
  /// d_model-wide projections when ffn_hidden is smaller).
  size_t StackedWidthHint() const override {
    return std::max(config_.d_model, config_.ffn_hidden);
  }
  void LogProbRows(const IntMatrix& tuples,
                   std::vector<double>* out_nats) override;
  /// Switches inference GEMMs (projections, FFN, heads, tied logits) to
  /// `kernel`; training stays scalar, and so does the per-head attention
  /// math.
  void SetInferenceKernel(KernelKind kernel) override;
  KernelKind inference_kernel() const override { return inference_kernel_; }

  // --- TrainableModel ---
  double ForwardBackward(const IntMatrix& codes) override;
  std::vector<Parameter*> Parameters() override;

  /// Weight (de)serialization; the loading model must be constructed with
  /// the same domains and Config.
  Status Save(const std::string& path);
  Status Load(const std::string& path);

  const Config& config() const { return config_; }

 private:
  struct Block {
    Block(const std::string& name, size_t d_model, size_t ffn_hidden,
          Rng* rng);

    LayerNorm ln1;
    Linear wq, wk, wv, wo;
    LayerNorm ln2;
    Mlp ffn;

    // Forward stashes (batch*T rows unless noted).
    Matrix ln1_out, q, k, v;
    Matrix attn_probs;  // (batch*heads*T x T), causal rows
    Matrix attn_cat;    // concatenated head outputs
    Matrix attn_proj;
    Matrix res1;        // x + attn_proj
    Matrix ln2_out;
    Matrix ffn_out;
  };

  /// Runs the trunk on the first `seq_len` token positions of `codes`
  /// (column j feeds position j+1; columns >= seq_len-1 are never read).
  /// Leaves the final normalized activations in y_ (batch*seq_len x E),
  /// keeping every block's stashes for backward. `kernel` picks the GEMM
  /// family (training passes kScalar).
  void ForwardTrunk(const IntMatrix& codes, size_t seq_len,
                    KernelKind kernel);

  /// Inference trunk through caller scratch: same math as ForwardTrunk but
  /// activations ping-pong through one set of matrices (no per-block
  /// stashes) and the FFN uses its stateless inference path. Const: only
  /// `ctx` is written. Leaves the normalized activations in ctx->y.
  void ForwardTrunkWith(EvalContext* ctx, const IntMatrix& codes,
                        size_t seq_len, KernelKind kernel) const;

  /// Head `col` logits from y_ position `col` into logits_ (batch x D_col).
  void HeadForward(size_t col, size_t batch, size_t seq_len,
                   KernelKind kernel);

  /// Head `col` logits from ctx->y into ctx->logits. Const.
  void HeadForwardWith(EvalContext* ctx, size_t col, size_t batch,
                       size_t seq_len, KernelKind kernel) const;

  /// Multi-head causal attention for one example/head pair, reading Q/K/V
  /// and writing probs/cat through explicit matrices so the training path
  /// (block stashes) and the inference path (EvalContext scratch) share
  /// the exact same arithmetic.
  static void AttendForward(const Matrix& qm, const Matrix& km,
                            const Matrix& vm, Matrix* probs, Matrix* cat,
                            size_t num_heads, size_t b, size_t h, size_t T);
  void AttendBackwardOne(Block* blk, size_t b, size_t h, size_t T,
                         const Matrix& dcat);

  std::vector<size_t> domains_;
  Config config_;
  Rng rng_;
  KernelKind inference_kernel_ = KernelKind::kScalar;

  std::vector<std::unique_ptr<Embedding>> embeds_;  // per column, width E
  Parameter pos_;  // (n x E) learned positional embedding
  Parameter sos_;  // (1 x E) start-of-tuple token
  std::vector<Block> blocks_;
  LayerNorm lnf_;
  std::vector<std::unique_ptr<Linear>> heads_;  // null under reuse

  // Training workspaces (ForwardBackward reads these stashes).
  std::vector<Matrix> xs_;  // xs_[l] = input to block l; xs_[L] = trunk out
  Matrix y_;                // lnf_(xs_[L])
  Matrix ybuf_, logits_, dlogits_, dybuf_;
  Matrix dy_, dx_, dres1_, dcat_, dq_, dk_, dv_, dtmp_, dtmp2_;
  std::vector<int32_t> targets_;

  // Member context for the single-threaded inference paths (the stateless
  // ConditionalDist, LogProbRows). Concurrent inference goes through
  // session-owned EvalContexts instead.
  EvalContext eval_;
};

}  // namespace naru
