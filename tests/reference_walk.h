// A test-only reference for progressive sampling: the paper's Algorithm 1
// (§5.1) written out plainly, one query at a time.
//
// Production has one walk, the plan executor (src/plan), which stacks the
// rows of many queries into shared forward passes, forks walks at shared
// prefixes, relayouts stateful sessions and spreads (tree, shard) tasks
// over threads. This walker does none of that. It shares with production
// only the model interface and the determinism contract: paths are cut
// into shards of `shard_size`, shard k draws from
// Rng(SamplerShardSeed(seed, k)), and the shard sums are reduced in shard
// order. Each column step calls the model's stateless ConditionalDist,
// masks each live row with MaskProbsToRegion, folds the mass into the
// row's weight and draws the next code with Rng::Categorical; dead rows
// take FallbackCode. Tests compare every serving route with it bit for
// bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/conditional_model.h"
#include "core/sampler.h"
#include "query/query.h"
#include "util/random.h"

namespace naru {
namespace reference {

struct WalkResult {
  double estimate = 0.0;
  double std_error = 0.0;
};

/// Last constrained model position of `query`, or -1 if none.
inline int LastConstrainedPosition(const ConditionalModel& model,
                                   const Query& query) {
  int last = -1;
  for (size_t pos = 0; pos < model.num_columns(); ++pos) {
    if (!model.PositionIsWildcard(query, pos)) last = static_cast<int>(pos);
  }
  return last;
}

/// Algorithm 1 for one query, with the exact answers that need no walk:
/// an empty region is 0, an all-wildcard query is 1, and a query that
/// constrains only position 0 is the contained mass of that position's
/// marginal.
inline WalkResult Walk(ConditionalModel* model, const Query& query,
                       size_t num_samples, size_t shard_size, uint64_t seed) {
  const size_t n = model->num_columns();
  if (query.HasEmptyRegion()) return {0.0, 0.0};
  const int last = LastConstrainedPosition(*model, query);
  if (last < 0) return {1.0, 0.0};

  IntMatrix samples;
  Matrix probs;
  if (last == 0) {
    samples.Resize(1, n);
    samples.Fill(0);
    model->ConditionalDist(samples, 0, &probs);
    const double mass =
        model->MaskProbsToRegion(query, samples.Row(0), 0, probs.Row(0));
    if (!(mass > 0.0) || !std::isfinite(mass)) return {0.0, 0.0};
    return {std::min(mass, 1.0), 0.0};
  }

  double weight_sum = 0;
  double weight_sq_sum = 0;
  for (size_t k = 0; k * shard_size < num_samples; ++k) {
    const size_t rows = std::min(shard_size, num_samples - k * shard_size);
    Rng rng(SamplerShardSeed(seed, k));
    samples.Resize(rows, n);
    samples.Fill(0);
    std::vector<double> weights(rows, 1.0);
    std::vector<uint8_t> alive(rows, 1);
    for (size_t col = 0; col <= static_cast<size_t>(last); ++col) {
      const bool wildcard = model->PositionIsWildcard(query, col);
      model->ConditionalDist(samples, col, &probs);
      for (size_t r = 0; r < rows; ++r) {
        if (!alive[r]) {
          samples.At(r, col) = model->FallbackCode(query, col);
          continue;
        }
        const double mass =
            wildcard ? 1.0
                     : model->MaskProbsToRegion(query, samples.Row(r), col,
                                                probs.Row(r));
        if (!(mass > 0.0) || !std::isfinite(mass)) {
          weights[r] = 0.0;
          alive[r] = 0;
          samples.At(r, col) = model->FallbackCode(query, col);
          continue;
        }
        weights[r] *= std::min(mass, 1.0);
        samples.At(r, col) =
            static_cast<int32_t>(rng.Categorical(probs.Row(r), probs.cols()));
      }
    }
    double shard_sum = 0;
    double shard_sq = 0;
    for (const double w : weights) {
      shard_sum += w;
      shard_sq += w * w;
    }
    weight_sum += shard_sum;
    weight_sq_sum += shard_sq;
  }

  const double s = static_cast<double>(num_samples);
  WalkResult out;
  out.estimate = weight_sum / s;
  if (num_samples > 1) {
    // Unbiased sample variance of the path weights.
    const double var = std::max(
        0.0, (weight_sq_sum - s * out.estimate * out.estimate) / (s - 1.0));
    out.std_error = std::sqrt(var / s);
  }
  return out;
}

}  // namespace reference
}  // namespace naru
