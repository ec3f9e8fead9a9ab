#include "core/transformer.h"

#include <cmath>
#include <cstring>

#include "nn/init.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/macros.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace naru {

TransformerModel::Block::Block(const std::string& name, size_t d_model,
                               size_t ffn_hidden, Rng* rng)
    : ln1(name + ".ln1", d_model),
      wq(name + ".wq", d_model, d_model, rng),
      wk(name + ".wk", d_model, d_model, rng),
      wv(name + ".wv", d_model, d_model, rng),
      wo(name + ".wo", d_model, d_model, rng),
      ln2(name + ".ln2", d_model),
      ffn(name + ".ffn", {d_model, ffn_hidden, d_model}, rng) {}

TransformerModel::TransformerModel(std::vector<size_t> domains, Config config)
    : domains_(std::move(domains)),
      config_(config),
      rng_(config.seed),
      pos_("tfm.pos", domains_.size(), config.d_model),
      sos_("tfm.sos", 1, config.d_model),
      lnf_("tfm.lnf", config.d_model) {
  NARU_CHECK(!domains_.empty());
  NARU_CHECK(config_.d_model % config_.num_heads == 0);
  NARU_CHECK(config_.num_layers > 0);
  const size_t n = domains_.size();
  const size_t e = config_.d_model;

  embeds_.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    embeds_.push_back(std::make_unique<Embedding>(
        StrFormat("tfm.embed%zu", c), domains_[c], e, &rng_));
  }
  NormalInit(&pos_.value, 0.02, &rng_);
  NormalInit(&sos_.value, 0.02, &rng_);

  blocks_.reserve(config_.num_layers);
  for (size_t l = 0; l < config_.num_layers; ++l) {
    blocks_.emplace_back(StrFormat("tfm.block%zu", l), e,
                         config_.ffn_hidden, &rng_);
  }

  heads_.resize(n);
  if (!config_.embedding_reuse) {
    for (size_t c = 0; c < n; ++c) {
      heads_[c] = std::make_unique<Linear>(StrFormat("tfm.head%zu", c), e,
                                           domains_[c], &rng_);
    }
  }
  xs_.resize(config_.num_layers + 1);
}

namespace {

inline float DotSlice(const float* a, const float* b, size_t n) {
  float s = 0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

void TransformerModel::AttendForward(const Matrix& qm, const Matrix& km,
                                     const Matrix& vm, Matrix* probs,
                                     Matrix* cat, size_t num_heads, size_t b,
                                     size_t h, size_t T) {
  const size_t dh = qm.cols() / num_heads;
  const size_t off = h * dh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (size_t i = 0; i < T; ++i) {
    float* prow = probs->Row((b * num_heads + h) * T + i);
    const float* qi = qm.Row(b * T + i) + off;
    // Causal scores over j <= i, softmax-stabilized.
    float maxv = -1e30f;
    for (size_t j = 0; j <= i; ++j) {
      const float s = scale * DotSlice(qi, km.Row(b * T + j) + off, dh);
      prow[j] = s;
      if (s > maxv) maxv = s;
    }
    float z = 0;
    for (size_t j = 0; j <= i; ++j) {
      prow[j] = std::exp(prow[j] - maxv);
      z += prow[j];
    }
    const float inv_z = 1.0f / z;
    for (size_t j = 0; j <= i; ++j) prow[j] *= inv_z;
    for (size_t j = i + 1; j < T; ++j) prow[j] = 0.0f;
    // Head output: weighted sum of V rows.
    float* out = cat->Row(b * T + i) + off;
    std::memset(out, 0, dh * sizeof(float));
    for (size_t j = 0; j <= i; ++j) {
      const float w = prow[j];
      const float* vj = vm.Row(b * T + j) + off;
      for (size_t d = 0; d < dh; ++d) out[d] += w * vj[d];
    }
  }
}

void TransformerModel::AttendBackwardOne(Block* blk, size_t b, size_t h,
                                         size_t T, const Matrix& dcat) {
  const size_t dh = config_.d_model / config_.num_heads;
  const size_t off = h * dh;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<float> ds(T);
  for (size_t i = 0; i < T; ++i) {
    const float* prow =
        blk->attn_probs.Row((b * config_.num_heads + h) * T + i);
    const float* doi = dcat.Row(b * T + i) + off;
    // dS_ij = <dO_i, V_j>; dV_j += P_ij dO_i.
    for (size_t j = 0; j <= i; ++j) {
      const float* vj = blk->v.Row(b * T + j) + off;
      float* dvj = dv_.Row(b * T + j) + off;
      const float p = prow[j];
      float s = 0;
      for (size_t d = 0; d < dh; ++d) {
        s += doi[d] * vj[d];
        dvj[d] += p * doi[d];
      }
      ds[j] = s;
    }
    // Softmax backward over the causal slice.
    float dot = 0;
    for (size_t j = 0; j <= i; ++j) dot += prow[j] * ds[j];
    // dQ_i += sum_j dS'_ij K_j * scale; dK_j += dS'_ij Q_i * scale.
    float* dqi = dq_.Row(b * T + i) + off;
    const float* qi = blk->q.Row(b * T + i) + off;
    for (size_t j = 0; j <= i; ++j) {
      const float g = prow[j] * (ds[j] - dot) * scale;
      const float* kj = blk->k.Row(b * T + j) + off;
      float* dkj = dk_.Row(b * T + j) + off;
      for (size_t d = 0; d < dh; ++d) {
        dqi[d] += g * kj[d];
        dkj[d] += g * qi[d];
      }
    }
  }
}

void TransformerModel::ForwardTrunk(const IntMatrix& codes, size_t seq_len,
                                    KernelKind kernel) {
  const size_t batch = codes.rows();
  const size_t T = seq_len;
  const size_t e = config_.d_model;
  NARU_CHECK(T >= 1 && T <= domains_.size());

  Matrix& x0 = xs_[0];
  x0.Resize(batch * T, e);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t p = 0; p < T; ++p) {
      float* row = x0.Row(b * T + p);
      const float* src =
          p == 0 ? sos_.value.Row(0)
                 : embeds_[p - 1]->table().value.Row(
                       static_cast<size_t>(codes.At(b, p - 1)));
      const float* pe = pos_.value.Row(p);
      for (size_t d = 0; d < e; ++d) row[d] = src[d] + pe[d];
    }
  }

  for (size_t l = 0; l < blocks_.size(); ++l) {
    Block& blk = blocks_[l];
    const Matrix& x = xs_[l];
    blk.ln1.Forward(x, &blk.ln1_out);
    blk.wq.Forward(blk.ln1_out, &blk.q, kernel);
    blk.wk.Forward(blk.ln1_out, &blk.k, kernel);
    blk.wv.Forward(blk.ln1_out, &blk.v, kernel);
    blk.attn_probs.Resize(batch * config_.num_heads * T, T);
    blk.attn_cat.Resize(batch * T, e);
    ParallelFor(0, batch, [&](size_t lo, size_t hi) {
      for (size_t b = lo; b < hi; ++b) {
        for (size_t h = 0; h < config_.num_heads; ++h) {
          AttendForward(blk.q, blk.k, blk.v, &blk.attn_probs, &blk.attn_cat,
                        config_.num_heads, b, h, T);
        }
      }
    });
    blk.wo.Forward(blk.attn_cat, &blk.attn_proj, kernel);
    blk.res1.Resize(batch * T, e);
    std::memcpy(blk.res1.data(), x.data(), x.size() * sizeof(float));
    Axpy(blk.attn_proj, 1.0f, &blk.res1);
    blk.ln2.Forward(blk.res1, &blk.ln2_out);
    blk.ffn.Forward(blk.ln2_out, &blk.ffn_out, kernel);
    Matrix& next = xs_[l + 1];
    next.Resize(batch * T, e);
    std::memcpy(next.data(), blk.res1.data(),
                blk.res1.size() * sizeof(float));
    Axpy(blk.ffn_out, 1.0f, &next);
  }
  lnf_.Forward(xs_.back(), &y_);
}

void TransformerModel::ForwardTrunkWith(EvalContext* ctx,
                                        const IntMatrix& codes,
                                        size_t seq_len,
                                        KernelKind kernel) const {
  const size_t batch = codes.rows();
  const size_t T = seq_len;
  const size_t e = config_.d_model;
  NARU_CHECK(T >= 1 && T <= domains_.size());

  Matrix& x = ctx->x;
  x.Resize(batch * T, e);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t p = 0; p < T; ++p) {
      float* row = x.Row(b * T + p);
      const float* src =
          p == 0 ? sos_.value.Row(0)
                 : embeds_[p - 1]->table().value.Row(
                       static_cast<size_t>(codes.At(b, p - 1)));
      const float* pe = pos_.value.Row(p);
      for (size_t d = 0; d < e; ++d) row[d] = src[d] + pe[d];
    }
  }

  for (const Block& blk : blocks_) {
    blk.ln1.Forward(x, &ctx->ln1_out);
    blk.wq.Forward(ctx->ln1_out, &ctx->q, kernel);
    blk.wk.Forward(ctx->ln1_out, &ctx->k, kernel);
    blk.wv.Forward(ctx->ln1_out, &ctx->v, kernel);
    ctx->attn_probs.Resize(batch * config_.num_heads * T, T);
    ctx->attn_cat.Resize(batch * T, e);
    ParallelFor(0, batch, [&](size_t lo, size_t hi) {
      for (size_t b = lo; b < hi; ++b) {
        for (size_t h = 0; h < config_.num_heads; ++h) {
          AttendForward(ctx->q, ctx->k, ctx->v, &ctx->attn_probs,
                        &ctx->attn_cat, config_.num_heads, b, h, T);
        }
      }
    });
    blk.wo.Forward(ctx->attn_cat, &ctx->attn_proj, kernel);
    ctx->res1.Resize(batch * T, e);
    std::memcpy(ctx->res1.data(), x.data(), x.size() * sizeof(float));
    Axpy(ctx->attn_proj, 1.0f, &ctx->res1);
    blk.ln2.Forward(ctx->res1, &ctx->ln2_out);
    blk.ffn.ForwardInference(ctx->ln2_out, &ctx->ffn_out, kernel);
    // x <- res1 + ffn_out (x's storage is reused as the next block input).
    std::memcpy(x.data(), ctx->res1.data(), ctx->res1.size() * sizeof(float));
    Axpy(ctx->ffn_out, 1.0f, &x);
  }
  lnf_.Forward(x, &ctx->y);
}

void TransformerModel::HeadForward(size_t col, size_t batch, size_t seq_len,
                                   KernelKind kernel) {
  const size_t e = config_.d_model;
  ybuf_.Resize(batch, e);
  for (size_t b = 0; b < batch; ++b) {
    std::memcpy(ybuf_.Row(b), y_.Row(b * seq_len + col), e * sizeof(float));
  }
  if (config_.embedding_reuse) {
    GemmNT(ybuf_, embeds_[col]->table().value, &logits_,
           /*accumulate=*/false, kernel);
  } else {
    heads_[col]->Forward(ybuf_, &logits_, kernel);
  }
}

void TransformerModel::HeadForwardWith(EvalContext* ctx, size_t col,
                                       size_t batch, size_t seq_len,
                                       KernelKind kernel) const {
  const size_t e = config_.d_model;
  ctx->ybuf.Resize(batch, e);
  for (size_t b = 0; b < batch; ++b) {
    std::memcpy(ctx->ybuf.Row(b), ctx->y.Row(b * seq_len + col),
                e * sizeof(float));
  }
  if (config_.embedding_reuse) {
    GemmNT(ctx->ybuf, embeds_[col]->table().value, &ctx->logits,
           /*accumulate=*/false, kernel);
  } else {
    heads_[col]->Forward(ctx->ybuf, &ctx->logits, kernel);
  }
}

void TransformerModel::ConditionalDistWith(EvalContext* ctx,
                                           const IntMatrix& samples,
                                           size_t col, Matrix* probs) const {
  NARU_CHECK(col < domains_.size());
  const size_t T = col + 1;
  ForwardTrunkWith(ctx, samples, T, inference_kernel_);
  HeadForwardWith(ctx, col, samples.rows(), T, inference_kernel_);
  SoftmaxRows(ctx->logits, probs);
}

void TransformerModel::ConditionalDist(const IntMatrix& samples, size_t col,
                                       Matrix* probs) {
  ConditionalDistWith(&eval_, samples, col, probs);
}

namespace {
// Sampling cursor with private scratch: distinct sessions evaluate the
// (read-only) weights concurrently.
class TransformerSession : public SamplingSession {
 public:
  explicit TransformerSession(const TransformerModel* model)
      : model_(model) {}
  void Dist(const IntMatrix& samples, size_t col, Matrix* probs) override {
    model_->ConditionalDistWith(&ctx_, samples, col, probs);
  }

 private:
  const TransformerModel* model_;
  TransformerModel::EvalContext ctx_;
};
}  // namespace

std::unique_ptr<SamplingSession> TransformerModel::StartSession(size_t batch) {
  (void)batch;  // contexts size themselves on first Dist
  return std::make_unique<TransformerSession>(this);
}

void TransformerModel::SetInferenceKernel(KernelKind kernel) {
  inference_kernel_ = kernel;
}

void TransformerModel::LogProbRows(const IntMatrix& tuples,
                                   std::vector<double>* out_nats) {
  const size_t batch = tuples.rows();
  const size_t n = domains_.size();
  out_nats->assign(batch, 0.0);
  ForwardTrunkWith(&eval_, tuples, n, inference_kernel_);
  for (size_t c = 0; c < n; ++c) {
    HeadForwardWith(&eval_, c, batch, n, inference_kernel_);
    for (size_t b = 0; b < batch; ++b) {
      const float* row = eval_.logits.Row(b);
      const double lse = LogSumExpSlice(row, 0, domains_[c]);
      (*out_nats)[b] += row[tuples.At(b, c)] - lse;
    }
  }
}

double TransformerModel::ForwardBackward(const IntMatrix& codes) {
  const size_t batch = codes.rows();
  const size_t n = domains_.size();
  const size_t e = config_.d_model;
  NARU_CHECK(codes.cols() == n);
  // Training is pinned to the scalar reference kernel.
  ForwardTrunk(codes, n, KernelKind::kScalar);

  // Heads + loss; dy_ collects gradients w.r.t. y_.
  const float gscale = 1.0f / static_cast<float>(batch);
  dy_.Resize(batch * n, e);
  dy_.Zero();
  targets_.resize(batch);
  double total_nll = 0;
  for (size_t c = 0; c < n; ++c) {
    HeadForward(c, batch, n, KernelKind::kScalar);
    for (size_t b = 0; b < batch; ++b) targets_[b] = codes.At(b, c);
    dlogits_.Resize(batch, domains_[c]);
    dlogits_.Zero();
    total_nll += SoftmaxCrossEntropySlice(logits_, 0, domains_[c],
                                          targets_.data(), gscale, &dlogits_);
    if (config_.embedding_reuse) {
      GemmTN(dlogits_, ybuf_, &embeds_[c]->table().grad, /*accumulate=*/true);
      GemmNN(dlogits_, embeds_[c]->table().value, &dybuf_);
    } else {
      heads_[c]->Backward(ybuf_, dlogits_, &dybuf_);
    }
    for (size_t b = 0; b < batch; ++b) {
      float* dst = dy_.Row(b * n + c);
      const float* src = dybuf_.Row(b);
      for (size_t d = 0; d < e; ++d) dst[d] += src[d];
    }
  }

  // Trunk backward.
  lnf_.Backward(xs_.back(), dy_, &dx_);
  for (size_t li = blocks_.size(); li-- > 0;) {
    Block& blk = blocks_[li];
    // xs_[li+1] = res1 + ffn(ln2(res1)); dx_ holds d xs_[li+1].
    blk.ffn.Backward(dx_, &dtmp_);                  // d ln2_out
    blk.ln2.Backward(blk.res1, dtmp_, &dtmp2_);     // d res1 via ffn path
    dres1_.Resize(dx_.rows(), e);
    std::memcpy(dres1_.data(), dx_.data(), dx_.size() * sizeof(float));
    Axpy(dtmp2_, 1.0f, &dres1_);
    // res1 = xs_[li] + wo(attn_cat).
    blk.wo.Backward(blk.attn_cat, dres1_, &dcat_);
    dq_.Resize(dcat_.rows(), e);
    dk_.Resize(dcat_.rows(), e);
    dv_.Resize(dcat_.rows(), e);
    dq_.Zero();
    dk_.Zero();
    dv_.Zero();
    ParallelFor(0, batch, [&](size_t lo, size_t hi) {
      for (size_t b = lo; b < hi; ++b) {
        for (size_t h = 0; h < config_.num_heads; ++h) {
          AttendBackwardOne(&blk, b, h, n, dcat_);
        }
      }
    });
    // d ln1_out = dq Wq^T + dk Wk^T + dv Wv^T.
    blk.wq.Backward(blk.ln1_out, dq_, &dtmp_);
    blk.wk.Backward(blk.ln1_out, dk_, &dtmp2_);
    Axpy(dtmp2_, 1.0f, &dtmp_);
    blk.wv.Backward(blk.ln1_out, dv_, &dtmp2_);
    Axpy(dtmp2_, 1.0f, &dtmp_);
    blk.ln1.Backward(xs_[li], dtmp_, &dtmp2_);
    // d xs_[li] = d res1 (residual) + attention path.
    dx_ = dres1_;
    Axpy(dtmp2_, 1.0f, &dx_);
  }

  // Input gradients: positional, SOS, and value embeddings.
  for (size_t b = 0; b < batch; ++b) {
    for (size_t p = 0; p < n; ++p) {
      const float* g = dx_.Row(b * n + p);
      float* dpos = pos_.grad.Row(p);
      for (size_t d = 0; d < e; ++d) dpos[d] += g[d];
      float* demb =
          p == 0 ? sos_.grad.Row(0)
                 : embeds_[p - 1]->table().grad.Row(
                       static_cast<size_t>(codes.At(b, p - 1)));
      for (size_t d = 0; d < e; ++d) demb[d] += g[d];
    }
  }
  return total_nll;
}

Status TransformerModel::Save(const std::string& path) {
  return SaveParameters(path, Parameters());
}

Status TransformerModel::Load(const std::string& path) {
  return LoadParameters(path, Parameters());
}

std::vector<Parameter*> TransformerModel::Parameters() {
  std::vector<Parameter*> out;
  for (auto& emb : embeds_) emb->CollectParameters(&out);
  out.push_back(&pos_);
  out.push_back(&sos_);
  for (auto& blk : blocks_) {
    blk.ln1.CollectParameters(&out);
    blk.wq.CollectParameters(&out);
    blk.wk.CollectParameters(&out);
    blk.wv.CollectParameters(&out);
    blk.wo.CollectParameters(&out);
    blk.ln2.CollectParameters(&out);
    blk.ffn.CollectParameters(&out);
  }
  lnf_.CollectParameters(&out);
  for (auto& h : heads_) {
    if (h) h->CollectParameters(&out);
  }
  return out;
}

}  // namespace naru
