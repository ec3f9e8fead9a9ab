#include "core/sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace naru {

std::unique_ptr<SamplerWorkspace> SamplerWorkspacePool::Acquire() {
  {
    MutexLock lock(&mu_);
    if (!free_.empty()) {
      auto ws = std::move(free_.back());
      free_.pop_back();
      return ws;
    }
    ++created_;
  }
  return std::make_unique<SamplerWorkspace>();
}

void SamplerWorkspacePool::Release(std::unique_ptr<SamplerWorkspace> ws) {
  if (ws == nullptr) return;
  MutexLock lock(&mu_);
  free_.push_back(std::move(ws));
}

size_t SamplerWorkspacePool::total_created() const {
  MutexLock lock(&mu_);
  return created_;
}

size_t SamplerWorkspacePool::available() const {
  MutexLock lock(&mu_);
  return free_.size();
}

void SamplerColumnStep(const ConditionalModel* model, const Query& query,
                       size_t col, bool wildcard,
                       const SamplerRowBlock& block, Rng* rng) {
  const size_t d = block.probs->cols();
  for (size_t r = 0; r < block.rows; ++r) {
    const size_t row_index = block.row_offset + r;
    float* row = block.probs->Row(row_index);
    if (!block.alive[r]) {
      // Dead paths keep a valid (but irrelevant) prefix so stateful
      // sessions stay well-defined.
      block.samples->At(row_index, col) = model->FallbackCode(query, col);
      continue;
    }
    double mass;
    if (wildcard) {
      mass = 1.0;  // wildcard position: P(X ∈ full domain) is exactly 1
    } else {
      // Per-path mask: the model zeroes entries outside the allowed set
      // given this path's sampled prefix (Alg. 1 lines 12-14).
      mass = model->MaskProbsToRegion(query, block.samples->Row(row_index),
                                      col, row);
    }
    if (!(mass > 0.0) || !std::isfinite(mass)) {
      block.weights[r] = 0.0;
      block.alive[r] = 0;
      block.samples->At(row_index, col) = model->FallbackCode(query, col);
      continue;
    }
    block.weights[r] *= std::min(mass, 1.0);
    // Draw from the truncated, renormalized conditional (the row has
    // been zeroed outside the region; Categorical renormalizes).
    const size_t v = rng->Categorical(row, d);
    block.samples->At(row_index, col) = static_cast<int32_t>(v);
  }
}

uint64_t SamplerShardSeed(uint64_t seed, size_t shard) {
  // splitmix64 finalizer over (seed, shard): adjacent shards land in
  // uncorrelated regions of the xoshiro seed space.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t SamplerNumShards(size_t num_samples, size_t shard_size) {
  return (num_samples + shard_size - 1) / shard_size;
}

ProgressiveSampler::ProgressiveSampler(ConditionalModel* model,
                                       ProgressiveSamplerConfig cfg)
    : model_(model), cfg_(cfg) {
  NARU_CHECK(cfg_.num_samples >= 1);
  NARU_CHECK(cfg_.shard_size >= 1);
}

uint64_t ProgressiveSampler::ShardSeed(uint64_t seed, size_t shard) {
  return SamplerShardSeed(seed, shard);
}

size_t ProgressiveSampler::NumShards() const {
  return SamplerNumShards(cfg_.num_samples, cfg_.shard_size);
}

double ProgressiveSampler::EstimateSelectivity(const Query& query) {
  return EstimateWithStdError(query, nullptr);
}

int ProgressiveSampler::LastConstrainedPosition(const Query& query) const {
  // Last constrained *model position* (not table column): permuted models
  // serve table columns out of order and factorized models subdivide them,
  // so the trailing-wildcard early exit must respect the model's own walk
  // order.
  int last_col = -1;
  for (size_t i = 0; i < model_->num_columns(); ++i) {
    if (!model_->PositionIsWildcard(query, i)) {
      last_col = static_cast<int>(i);
    }
  }
  return last_col;
}

ProgressiveSampler::Path ProgressiveSampler::Classify(
    const Query& query) const {
  if (query.HasEmptyRegion()) return Path::kEmpty;
  // The uniform-region strawman integrates over the full region and takes
  // none of the exact shortcuts.
  if (cfg_.uniform_region) return Path::kSampled;
  const int last_col = LastConstrainedPosition(query);
  if (last_col < 0) return Path::kAllWildcard;
  if (last_col == 0) return Path::kLeadingOnly;
  return Path::kSampled;
}

double ProgressiveSampler::EstimateWithStdError(const Query& query,
                                                double* std_error) {
  return EstimateWithOptions(query, std_error, RunOptions{});
}

double ProgressiveSampler::LeadingOnlyMass(const Query& query) {
  // Position 0 has no prefix, so one 1-row session step yields the exact
  // contained mass P̂(X_0 ∈ R_0) — identical to what any sample path would
  // multiply in, with zero Monte Carlo variance.
  auto session = model_->StartSession(1);
  IntMatrix dummy(1, model_->num_columns());
  dummy.Fill(0);
  Matrix probs;
  session->Dist(dummy, 0, &probs);
  NARU_CHECK(probs.rows() == 1 && probs.cols() == model_->DomainSize(0));
  const double mass =
      model_->MaskProbsToRegion(query, dummy.Row(0), 0, probs.Row(0));
  if (!(mass > 0.0) || !std::isfinite(mass)) return 0.0;
  return std::min(mass, 1.0);
}

double ProgressiveSampler::EstimateWithOptions(const Query& query,
                                               double* std_error,
                                               const RunOptions& options) {
  const size_t num_samples =
      options.num_samples != 0 ? options.num_samples : cfg_.num_samples;
  NARU_CHECK(query.num_columns() == model_->num_table_columns());
  if (std_error != nullptr) *std_error = 0.0;
  switch (Classify(query)) {
    case Path::kEmpty:
      return 0.0;
    case Path::kAllWildcard:
      return 1.0;
    case Path::kLeadingOnly:
      return LeadingOnlyMass(query);
    case Path::kSampled:
      break;
  }
  const int last_col = LastConstrainedPosition(query);

  const size_t num_shards = SamplerNumShards(num_samples, cfg_.shard_size);
  std::vector<double> shard_w(num_shards, 0.0);
  std::vector<double> shard_w2(num_shards, 0.0);

  // The walk's stop signal, shared by every shard: the first shard to see
  // it stop (between columns, never inside a kernel) latches it, and
  // every other shard bails at its next column boundary.
  WalkControl uncontrolled;
  WalkControl* control =
      options.control != nullptr ? options.control : &uncontrolled;
  auto run_shard = [&](size_t k) {
    if (control->ShouldStop()) return;
    const size_t lo = k * cfg_.shard_size;
    const size_t rows = std::min(cfg_.shard_size, num_samples - lo);
    Rng rng(ShardSeed(cfg_.seed, k));
    WorkspaceLease ws(&workspaces_);
    shard_w[k] = cfg_.uniform_region
                     ? UniformShardWeightSum(query, rows, &rng, ws.get())
                     : ShardWeightSum(query, rows, last_col, &rng, ws.get(),
                                      &shard_w2[k], control);
  };

  // The model's kernel-level parallelism (gemm) is suppressed inside shard
  // execution whenever shard-level parallelism is available, so thread
  // accounting stays honest.
  const bool concurrent_ok = model_->SupportsConcurrentSampling();
  // A caller-established serial region wins: whoever opened it (a bench's
  // sequential baseline, say) is accounting threads at a coarser grain.
  const bool parallel =
      concurrent_ok && num_shards > 1 && !ScopedSerialRegion::Active();
  if (parallel) {
    GlobalThreadPool()->ParallelFor(
        0, num_shards,
        [&](size_t lo, size_t hi) {
          ScopedSerialRegion serial;
          for (size_t k = lo; k < hi; ++k) run_shard(k);
        },
        /*min_chunk=*/1);
  } else if (concurrent_ok && num_shards > 1) {
    // Serial was chosen even though parallelism was available (a caller's
    // serial region): honest thread accounting, kernels run inline.
    ScopedSerialRegion serial;
    for (size_t k = 0; k < num_shards; ++k) run_shard(k);
  } else {
    // No shard parallelism to trade on (a single shard, or a model
    // without concurrent sessions): keep the kernels' internal pool
    // parallelism — it is the only parallelism available.
    for (size_t k = 0; k < num_shards; ++k) run_shard(k);
  }

  if (control->stopped()) {
    // Partial shard sums are meaningless; the caller turns this into a
    // typed DEADLINE_EXCEEDED result.
    return std::numeric_limits<double>::quiet_NaN();
  }

  // Reduce in shard order: the sum is independent of execution order.
  double weight_sum = 0;
  double weight_sq_sum = 0;
  for (size_t k = 0; k < num_shards; ++k) {
    weight_sum += shard_w[k];
    weight_sq_sum += shard_w2[k];
  }
  const double s = static_cast<double>(num_samples);
  const double mean = weight_sum / s;
  if (std_error != nullptr && !cfg_.uniform_region && num_samples > 1) {
    // Unbiased sample variance of the path weights.
    const double var =
        std::max(0.0, (weight_sq_sum - s * mean * mean) / (s - 1.0));
    *std_error = std::sqrt(var / s);
  }
  return mean;
}

double ProgressiveSampler::ShardWeightSum(
    const Query& query, size_t rows, int last_col, Rng* rng,
    SamplerWorkspace* ws, double* weight_sq_sum, WalkControl* control) {
  const size_t n = model_->num_columns();
  ws->samples.Resize(rows, n);
  ws->samples.Fill(0);
  ws->weights.assign(rows, 1.0);
  ws->alive.assign(rows, 1);

  auto session = model_->StartSession(rows);
  for (size_t col = 0; col <= static_cast<size_t>(last_col); ++col) {
    // Mid-walk checkpoint: BETWEEN columns only, so a walk that is not
    // stopped consumes exactly the draws and arithmetic of an
    // uncontrolled walk (bit-identity).
    if (control->ShouldStop()) return 0.0;
    const bool wildcard = model_->PositionIsWildcard(query, col);
    session->Dist(ws->samples, col, &ws->probs);
    NARU_CHECK(ws->probs.rows() == rows &&
               ws->probs.cols() == model_->DomainSize(col));
    SamplerColumnStep(model_, query, col, wildcard,
                      SamplerRowBlock{&ws->samples, &ws->probs,
                                      ws->weights.data(), ws->alive.data(),
                                      /*row_offset=*/0, rows},
                      rng);
  }

  double sum = 0;
  for (size_t r = 0; r < rows; ++r) {
    const double w = ws->weights[r];
    sum += w;
    *weight_sq_sum += w * w;
  }
  return sum;
}

double ProgressiveSampler::UniformShardWeightSum(const Query& query,
                                                 size_t rows, Rng* rng,
                                                 SamplerWorkspace* ws) {
  // The uniform-region strawman exists only for the §5.1 ablation and is
  // not generalized to factorized position layouts.
  NARU_CHECK(model_->num_columns() == model_->num_table_columns());
  const size_t n = model_->num_columns();
  ws->samples.Resize(rows, n);
  ws->samples.Fill(0);
  ws->weights.assign(rows, 1.0);

  // First materialize uniform draws from the full region R_1 x ... x R_n,
  // then weight each point by |R| · P̂(x) (naive Monte Carlo integration).
  auto session = model_->StartSession(rows);
  for (size_t col = 0; col < n; ++col) {
    const ValueSet& region = query.region(model_->TableColumnOf(col));
    const size_t count = region.Count();
    NARU_CHECK(count > 0);
    session->Dist(ws->samples, col, &ws->probs);
    for (size_t r = 0; r < rows; ++r) {
      const int32_t v = region.NthCode(rng->UniformInt(count));
      const double p =
          static_cast<double>(ws->probs.At(r, static_cast<size_t>(v)));
      ws->weights[r] *= p * static_cast<double>(count);
      ws->samples.At(r, col) = v;
    }
  }

  double sum = 0;
  for (double w : ws->weights) sum += w;
  return sum;
}

}  // namespace naru
