// Tuple generation and alternative Monte Carlo integrators (§5.1, §6.7.2,
// §8).
//
// Progressive sampling (Algorithm 1) is one member of a family of
// model-driven Monte Carlo schemes. This module provides the rest:
//
//  - Ancestral sampling: full tuples x ~ P̂ drawn by walking the chain-rule
//    conditionals (the §8 "sample in-distribution tuples from a compact
//    synopsis" primitive for approximate query processing).
//  - Rejection (indicator) estimation: sel ≈ mean 1[x ∈ R] over ancestral
//    samples — unbiased but useless for small regions; the natural third
//    point in the uniform-vs-progressive integrator ablation.
//  - Uniform-region estimation: the paper's §5.1 strawman ("first
//    attempt"), uniform draws from the region importance-weighted by
//    |R| · P̂(x); it collapses on skewed data and exists for the ablation.
//  - Weighted in-region draws: the progressive walk returned as
//    (tuple, weight) pairs. The proposal density is q(x) = P̂(x) / w(x)
//    with w(x) the path weight, so these double as importance samples for
//    any conditional expectation under the model.
//  - Independence Metropolis-Hastings (the §6.7.2 pointer): a chain with
//    target ∝ P̂(x)·1[x ∈ R] and progressive draws as the independence
//    proposal. The acceptance ratio collapses to min(1, w'/w) — the path
//    weights are sufficient — giving asymptotically exact in-region
//    samples (progressive draws alone are q-biased; reweighting or MH
//    corrects them).
#pragma once

#include <functional>
#include <vector>

#include "core/conditional_model.h"
#include "query/query.h"
#include "util/random.h"

namespace naru {

/// Draws weighted in-region tuples and unconditional model samples by
/// walking the model's conditionals. All emitted tuples are in TABLE
/// column order regardless of the model's internal ordering.
class TupleGenerator {
 public:
  TupleGenerator(ConditionalModel* model, uint64_t seed = 11);

  /// `count` tuples x ~ P̂ (ancestral sampling; every region wildcard).
  void DrawUnconditional(size_t count, IntMatrix* tuples);

  /// `count` in-region tuples with their progressive path weights.
  /// Each weight is an unbiased estimate of P̂(X ∈ R); a path that hits a
  /// zero-mass conditional gets weight 0 (its tuple is an arbitrary filler
  /// and must be ignored by consumers). E_q[w] = P̂(R) (Theorem 1).
  void DrawWeighted(const Query& query, size_t count, IntMatrix* tuples,
                    std::vector<double>* weights);

  ConditionalModel* model() { return model_; }

 private:
  friend class IndependenceMhChain;

  /// Walks one chunk of paths; regions indexed by table column.
  void WalkChunk(const Query* query, size_t chunk, IntMatrix* tuples,
                 std::vector<double>* weights);

  ConditionalModel* model_;
  Rng rng_;
  IntMatrix samples_;  // model-position order workspace
  Matrix probs_;
};

/// Selectivity by the indicator method: mean of 1[x ∈ R] over ancestral
/// samples. Converges like p(1-p)/S — hopeless for low selectivities,
/// which is exactly what the integrator ablation demonstrates.
double RejectionSelectivity(ConditionalModel* model, const Query& query,
                            size_t num_samples, uint64_t seed = 13);

/// Selectivity by the §5.1 strawman: mean of |R| · P̂(x) over points x
/// drawn uniformly from the query region R. Unbiased, but its variance
/// explodes when the mass concentrates in a small part of R. Paths run in
/// shards of 128, shard k on the stream SamplerShardSeed(seed, k). Takes
/// no exact shortcut but the empty region (0); models whose positions
/// subdivide table columns are not supported.
double UniformRegionSelectivity(ConditionalModel* model, const Query& query,
                                size_t num_samples, uint64_t seed = 7);

/// True when `row` (table order) satisfies every region of `query`.
bool RowSatisfies(const Query& query, const int32_t* row);

/// Independence Metropolis-Hastings over the query region (§6.7.2).
///
/// Target density π(x) ∝ P̂(x)·1[x ∈ R]; proposals are progressive draws
/// with proposal density q(x) = P̂(x)/w(x), so the Hastings ratio is
///   α = min(1, w(x') / w(x)).
/// After burn-in the chain states are distributed as P̂ conditioned on the
/// region — unweighted in-region tuples for AQP-style consumers.
class IndependenceMhChain {
 public:
  IndependenceMhChain(ConditionalModel* model, const Query& query,
                      uint64_t seed = 17);

  /// Advances the chain `steps` proposals (burn-in or thinning).
  void Advance(size_t steps);

  /// Emits `count` states, advancing `thin` proposals between emissions.
  /// Rows are table-order tuples.
  void Sample(size_t count, size_t thin, IntMatrix* tuples);

  /// Fraction of proposals accepted so far (diagnostic; independence MH
  /// with a well-matched proposal accepts most moves).
  double acceptance_rate() const {
    return proposals_ == 0
               ? 0.0
               : static_cast<double>(accepts_) / static_cast<double>(proposals_);
  }

 private:
  void Propose();

  TupleGenerator gen_;
  const Query* query_;
  Rng rng_;
  std::vector<int32_t> state_;  // table order
  double state_weight_ = 0;
  size_t accepts_ = 0;
  size_t proposals_ = 0;
  IntMatrix prop_tuples_;
  std::vector<double> prop_weights_;
  size_t buffer_pos_ = 0;  // next unread row of the proposal buffer
};

/// Self-normalized estimate of E[g(X) | X ∈ R] under the model:
/// Σ g(x_i) w_i / Σ w_i over weighted in-region draws. The workhorse of
/// the §8 approximate-query-processing application (AVG/SUM aggregates
/// under predicates without scanning).
double ConditionalExpectation(
    ConditionalModel* model, const Query& query,
    const std::function<double(const int32_t*)>& g, size_t num_samples,
    uint64_t seed = 19);

}  // namespace naru
