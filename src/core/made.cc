#include "core/made.h"

#include <cmath>
#include <utility>

#include "nn/loss.h"
#include "nn/serialize.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace naru {

Matrix MadeModel::BuildMask(const std::vector<int>& in_deg,
                            const std::vector<int>& out_deg, bool strict) {
  Matrix mask(in_deg.size(), out_deg.size());
  for (size_t i = 0; i < in_deg.size(); ++i) {
    float* row = mask.Row(i);
    for (size_t j = 0; j < out_deg.size(); ++j) {
      const bool allowed =
          strict ? (out_deg[j] > in_deg[i]) : (out_deg[j] >= in_deg[i]);
      row[j] = allowed ? 1.0f : 0.0f;
    }
  }
  return mask;
}

MadeModel::MadeModel(std::vector<size_t> domains, Config config)
    : domains_(std::move(domains)),
      config_(std::move(config)),
      rng_(config_.seed),
      encoder_(domains_, config_.encoder, &rng_) {
  const size_t n = domains_.size();
  NARU_CHECK(n >= 1);

  // Input degrees: every input dimension carries its column index.
  std::vector<int> prev_deg;
  prev_deg.reserve(encoder_.total_width());
  for (size_t c = 0; c < n; ++c) {
    for (size_t k = 0; k < encoder_.width(c); ++k) {
      prev_deg.push_back(static_cast<int>(c));
    }
  }

  // Hidden degrees cycle over {0 .. n-2}: degree d = "sees columns <= d".
  const int max_deg = n >= 2 ? static_cast<int>(n) - 1 : 1;
  for (size_t l = 0; l < config_.hidden_sizes.size(); ++l) {
    const size_t width = config_.hidden_sizes[l];
    std::vector<int> deg(width);
    std::vector<std::vector<size_t>> units(static_cast<size_t>(max_deg));
    for (size_t k = 0; k < width; ++k) {
      deg[k] = static_cast<int>(k % static_cast<size_t>(max_deg));
      units[static_cast<size_t>(deg[k])].push_back(k);
    }
    // input->hidden needs "hidden_deg >= input_col"; hidden->hidden needs
    // "out_deg >= in_deg". Both are the non-strict comparison, but for the
    // input layer the degree means "is column c", which is compatible.
    Matrix mask = BuildMask(prev_deg, deg, /*strict=*/false);
    hidden_.emplace_back(StrFormat("made.h%zu", l), prev_deg.size(), width,
                         std::move(mask), &rng_);
    degree_units_.push_back(std::move(units));
    prev_deg = std::move(deg);
  }

  // Output heads: block i may only read units with degree < i, hence the
  // strict mask. Column 0's head sees nothing (bias-only marginal start);
  // that is intended: P(X_0) is learned through the bias + softmax.
  heads_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    const bool reuse = config_.embedding_reuse &&
                       encoder_.encoding(c) == ColEncoding::kEmbedding;
    const size_t out_width =
        reuse ? config_.encoder.embed_dim : domains_[c];
    std::vector<int> out_deg(out_width, static_cast<int>(c));
    Matrix mask = BuildMask(prev_deg, out_deg, /*strict=*/true);
    heads_[c].reuse = reuse;
    heads_[c].fc = std::make_unique<MaskedLinear>(
        StrFormat("made.out%zu", c), prev_deg.size(), out_width,
        std::move(mask), &rng_);
  }
  eval_.acts.resize(hidden_.size());

  // With a mostly-one-hot input row the first layer's zero-skip fast path
  // pays (one nonzero per one-hot column); embedding-dominated inputs are
  // dense and run branch-free.
  input_hint_ = encoder_.OneHotWidthFraction() > 0.5 ? InputHint::kOneHot
                                                     : InputHint::kDense;
}

void MadeModel::SetInferenceKernel(KernelKind kernel) {
  inference_kernel_ = kernel;
}

bool MadeModel::HasSkip(size_t layer) const {
  return config_.residual && layer > 0 &&
         hidden_[layer].in_dim() == hidden_[layer].out_dim();
}

void MadeModel::ForwardTrunk(const IntMatrix& codes, size_t upto,
                             EvalContext* ctx, KernelKind kernel) const {
  if (ctx->acts.size() != hidden_.size()) ctx->acts.resize(hidden_.size());
  encoder_.EncodeBatchPrefix(codes, upto, &ctx->x);
  const Matrix* cur = &ctx->x;
  for (size_t l = 0; l < hidden_.size(); ++l) {
    // Only the encoded input is one-hot sparse; hidden activations are
    // dense post-ReLU.
    const InputHint hint = l == 0 ? input_hint_ : InputHint::kDense;
    hidden_[l].Forward(*cur, &ctx->acts[l], kernel, hint);
    if (HasSkip(l)) Axpy(*cur, 1.0f, &ctx->acts[l]);
    ReluForward(ctx->acts[l], &ctx->acts[l]);
    cur = &ctx->acts[l];
  }
}

void MadeModel::ZeroTrunk(size_t rows, EvalContext* ctx) const {
  ctx->x.Resize(rows, encoder_.total_width());
  ctx->x.Zero();
  ctx->acts.resize(hidden_.size());
  for (size_t l = 0; l < hidden_.size(); ++l) {
    ctx->acts[l].Resize(rows, hidden_[l].out_dim());
    ctx->acts[l].Zero();
  }
}

void MadeModel::AdvanceTrunk(const IntMatrix& codes, size_t col,
                             EvalContext* ctx, KernelKind kernel) const {
  const size_t deg = col - 1;
  encoder_.EncodeColumn(codes, deg, &ctx->x);
  const Matrix* cur = &ctx->x;
  for (size_t l = 0; l < hidden_.size(); ++l) {
    const std::vector<size_t>& units = degree_units_[l][deg];
    const InputHint hint = l == 0 ? input_hint_ : InputHint::kDense;
    hidden_[l].ForwardColumns(*cur, units, &ctx->slice, &ctx->panel, kernel,
                              hint);
    if (HasSkip(l)) {
      // Equal-width layers share degree vectors, so the identity path of
      // unit j reads the previous layer's unit j — also of degree col-1.
      GatherColumns(*cur, units, &ctx->skip);
      Axpy(ctx->skip, 1.0f, &ctx->slice);
    }
    ReluForward(ctx->slice, &ctx->slice);
    Matrix& act = ctx->acts[l];
    for (size_t r = 0; r < ctx->slice.rows(); ++r) {
      const float* src = ctx->slice.Row(r);
      float* dst = act.Row(r);
      for (size_t j = 0; j < units.size(); ++j) dst[units[j]] = src[j];
    }
    cur = &act;
  }
}

void MadeModel::HeadForward(size_t col, EvalContext* ctx, Matrix* block,
                            KernelKind kernel) const {
  const Head& head = heads_[col];
  // Linear (no-hidden) MADE heads read the one-hot input directly.
  const InputHint hint = hidden_.empty() ? input_hint_ : InputHint::kDense;
  if (!head.reuse) {
    head.fc->Forward(final_hidden(*ctx), block, kernel, hint);
    return;
  }
  head.fc->Forward(final_hidden(*ctx), &ctx->head_tmp, kernel,
                   hint);  // (B x h)
  const Embedding* emb = encoder_.embedding(col);
  NARU_CHECK(emb != nullptr);
  GemmNT(ctx->head_tmp, emb->table().value, block, /*accumulate=*/false,
         kernel);  // (B x D)
}

void MadeModel::HeadBackward(size_t col, const Matrix& dblock,
                             Matrix* dfinal) {
  Head& head = heads_[col];
  if (!head.reuse) {
    head.fc->Backward(final_hidden(eval_), dblock, dfinal,
                      /*accumulate_dx=*/true);
    return;
  }
  Embedding* emb = encoder_.embedding(col);
  // logits = tmp · E^T  =>  dtmp = dblock · E;  dE += dblock^T · tmp.
  GemmNN(dblock, emb->table().value, &dtmp_);
  GemmTN(dblock, eval_.head_tmp, &emb->table().grad, /*accumulate=*/true);
  head.fc->Backward(final_hidden(eval_), dtmp_, dfinal,
                    /*accumulate_dx=*/true);
}

void MadeModel::ConditionalDist(const IntMatrix& samples, size_t col,
                                Matrix* probs) {
  ConditionalDistWith(&eval_, samples, col, probs);
}

void MadeModel::ConditionalDistWith(EvalContext* ctx, const IntMatrix& samples,
                                    size_t col, Matrix* probs) const {
  NARU_CHECK(col < num_columns());
  ForwardTrunk(samples, col, ctx, inference_kernel_);
  HeadForward(col, ctx, &ctx->block, inference_kernel_);
  SoftmaxRows(ctx->block, probs);
}

// Sampling cursor with private scratch: distinct sessions evaluate the
// (read-only) weights concurrently. Between Dist calls the scratch keeps
// the trunk of the last column, which an in-order walk extends one degree
// at a time (see StartSession in made.h).
class MadeModel::Session : public SamplingSession {
 public:
  explicit Session(const MadeModel* model) : model_(model) {}

  void Dist(const IntMatrix& samples, size_t col, Matrix* probs) override {
    NARU_CHECK(col < model_->num_columns());
    const KernelKind kernel = model_->inference_kernel_;
    if (col == 0) {
      model_->ZeroTrunk(samples.rows(), &ctx_);
    } else if (col == next_col_ && samples.rows() == rows_ &&
               kernel == kernel_) {
      model_->AdvanceTrunk(samples, col, &ctx_, kernel);
    } else {
      model_->ForwardTrunk(samples, col, &ctx_, kernel);
    }
    next_col_ = col + 1;
    rows_ = samples.rows();
    kernel_ = kernel;
    model_->HeadForward(col, &ctx_, &ctx_.block, kernel);
    SoftmaxRows(ctx_.block, probs);
  }

  // Gathers the trunk rows the way the caller gathered its sample rows,
  // so the walk keeps advancing one degree per column.
  void Relayout(const std::vector<size_t>& src) override {
    if (next_col_ == kNoWalk) return;  // no trunk yet
    GatherRows(ctx_.x, src, &gathered_);
    std::swap(ctx_.x, gathered_);
    for (Matrix& act : ctx_.acts) {
      GatherRows(act, src, &gathered_);
      std::swap(act, gathered_);
    }
    rows_ = src.size();
  }

 private:
  static constexpr size_t kNoWalk = static_cast<size_t>(-1);

  const MadeModel* model_;
  EvalContext ctx_;
  Matrix gathered_;  // Relayout scratch, swapped with the trunk matrices
  size_t next_col_ = kNoWalk;  // the column an in-order walk asks for next
  size_t rows_ = 0;
  KernelKind kernel_ = KernelKind::kScalar;
};

std::unique_ptr<SamplingSession> MadeModel::StartSession(size_t batch) {
  (void)batch;  // contexts size themselves on first Dist
  return std::make_unique<Session>(this);
}

void MadeModel::LogProbRows(const IntMatrix& tuples,
                            std::vector<double>* out_nats) {
  const size_t batch = tuples.rows();
  out_nats->assign(batch, 0.0);
  ForwardTrunk(tuples, num_columns(), &eval_, inference_kernel_);
  for (size_t c = 0; c < num_columns(); ++c) {
    HeadForward(c, &eval_, &eval_.block, inference_kernel_);
    const size_t d = domains_[c];
    for (size_t r = 0; r < batch; ++r) {
      const float* row = eval_.block.Row(r);
      const double log_z = LogSumExpSlice(row, 0, d);
      const int32_t target = tuples.At(r, c);
      (*out_nats)[r] += static_cast<double>(row[target]) - log_z;
    }
  }
}

double MadeModel::ForwardBackward(const IntMatrix& codes) {
  const size_t batch = codes.rows();
  NARU_CHECK(batch > 0);
  // Training is pinned to the scalar reference kernel: gradients must match
  // the arithmetic the tests and the determinism contract were built on.
  ForwardTrunk(codes, num_columns(), &eval_, KernelKind::kScalar);

  const float grad_scale = 1.0f / static_cast<float>(batch);
  Matrix dfinal(final_hidden(eval_).rows(), final_hidden(eval_).cols());
  targets_.resize(batch);

  double total_nll = 0;
  for (size_t c = 0; c < num_columns(); ++c) {
    HeadForward(c, &eval_, &eval_.block, KernelKind::kScalar);
    for (size_t r = 0; r < batch; ++r) targets_[r] = codes.At(r, c);
    dblock_.Resize(eval_.block.rows(), eval_.block.cols());
    dblock_.Zero();
    total_nll += SoftmaxCrossEntropySlice(eval_.block, 0, domains_[c],
                                          targets_.data(), grad_scale,
                                          &dblock_);
    HeadBackward(c, dblock_, &dfinal);
  }

  // Backprop through the hidden stack.
  Matrix grad = std::move(dfinal);
  Matrix grad_prev;
  for (size_t l = hidden_.size(); l-- > 0;) {
    // acts[l] is post-ReLU; its positivity gates the ReLU backward.
    ReluBackward(eval_.acts[l], grad, &grad);
    const Matrix& input = (l == 0) ? eval_.x : eval_.acts[l - 1];
    hidden_[l].Backward(input, grad, &grad_prev);
    // ResMADE identity path: z = W h + b + h, so dh gains the gated
    // upstream gradient in addition to the masked-linear term.
    if (HasSkip(l)) Axpy(grad, 1.0f, &grad_prev);
    grad = std::move(grad_prev);
    grad_prev = Matrix();
  }
  if (hidden_.empty()) {
    // Degenerate linear MADE: heads consumed x_ directly and dfinal is the
    // gradient w.r.t. x_ (now held in `grad`).
  }
  encoder_.Backward(codes, grad);
  return total_nll;
}

std::vector<Parameter*> MadeModel::Parameters() {
  std::vector<Parameter*> params;
  encoder_.CollectParameters(&params);
  for (auto& h : hidden_) h.CollectParameters(&params);
  for (auto& head : heads_) head.fc->CollectParameters(&params);
  return params;
}

size_t MadeModel::SizeBytes() { return ParameterBytes(Parameters()); }

Status MadeModel::Save(const std::string& path) {
  return SaveParameters(path, Parameters());
}

Status MadeModel::Load(const std::string& path) {
  NARU_RETURN_NOT_OK(LoadParameters(path, Parameters()));
  for (auto& h : hidden_) h.ProjectWeights();
  for (auto& head : heads_) head.fc->ProjectWeights();
  return Status::OK();
}

}  // namespace naru
