#include "core/sampler.h"

#include <algorithm>
#include <cmath>
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
    // been zeroed outside the region; Categorical renormalizes). A
    // constrained column's mass is already the row's ascending double sum
    // (the MaskProbsToRegion contract: the zeroed entries add +0), so
    // the draw takes it as its total instead of summing the row again.
    const size_t v =
        wildcard ? rng->Categorical(row, d) : rng->Categorical(row, d, mass);
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
  const int last_col = LastConstrainedPosition(query);
  if (last_col < 0) return Path::kAllWildcard;
  if (last_col == 0) return Path::kLeadingOnly;
  return Path::kSampled;
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

}  // namespace naru
