// The end-to-end Naru estimator (§4, §5): a trained autoregressive model
// queried through progressive sampling, with exact enumeration for small
// query regions. Every estimate is served through an InferenceEngine
// (src/serve): a single Estimate is a one-request batch, so it takes the
// same resolve step and the same plan executor as batched and streamed
// serving (serve/async_engine.h). The engine shards sample paths across
// threads and shares workspaces and exact-result caches across the queries
// of a batch. For a fixed seed every route gives the same bits (see
// docs/SERVING.md for the full determinism contract).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/conditional_model.h"
#include "core/sampler.h"
#include "estimator/estimator.h"
// The typed request/result vocabulary (a leaf header: query + util only).
#include "serve/request.h"

namespace naru {

class InferenceEngine;

struct NaruEstimatorConfig {
  /// Progressive sample paths (names the estimator "Naru-<S>").
  size_t num_samples = 1000;
  /// Regions with at most this many points are answered by exact
  /// enumeration instead of sampling (0 disables enumeration).
  size_t enumeration_threshold = 10000;
  uint64_t sampler_seed = 7;
  /// Paths are walked in shards of exactly this many (the last shard takes
  /// the remainder). The shard is the unit of determinism AND of
  /// parallelism: per-shard RNG streams are derived from (seed, shard)
  /// (SamplerShardSeed), so the thread count never changes an estimate.
  /// Changing this value — including its default — changes every sampled
  /// estimate for a given seed, so it participates in serving memo keys.
  size_t shard_size = 128;
  /// Kernel family for the model's inference forward passes (tensor layer;
  /// see kernel.h). Applied to the wrapped model at construction. Scalar is
  /// the bit-stable default; simd trades bit-compatibility with scalar for
  /// speed (it is still bit-deterministic across thread counts and batch
  /// sizes on its own), so the kernel participates in
  /// serving memo keys. NOTE: the kernel is model-wide state — wrapping
  /// one model with estimators of different kernels is unsupported (the
  /// last constructed wins); use one model instance per kernel to A/B.
  KernelKind kernel = KernelKind::kScalar;
};

/// Wraps any ConditionalModel (a trained MadeModel, an arch-A model, or an
/// OracleModel) as an Estimator. Does not own the model.
class NaruEstimator : public Estimator {
 public:
  NaruEstimator(ConditionalModel* model, NaruEstimatorConfig config,
                size_t model_size_bytes, std::string name = "");
  ~NaruEstimator() override;

  std::string name() const override { return name_; }

  /// One request in, one EstimateResult out — estimate, Status
  /// (DEADLINE_EXCEEDED when the request's deadline passes before or
  /// during the computation), std-error when sampled, provenance, samples
  /// used. Served by the private engine as a one-request batch with
  /// CachePolicy::kBypass: no cache is read or written, and the result is
  /// bit-identical to the same request inside any batch.
  EstimateResult Estimate(const Query& query,
                          const EstimateOptions& options = {});
  EstimateResult Estimate(const EstimateRequest& request) {
    return Estimate(request.query, request.options);
  }

  /// The Estimator interface over Estimate() (default options can
  /// neither shed nor fail, so the bare estimate is always valid).
  double EstimateSelectivity(const Query& query) override;
  /// Serves the batch through a lazily created private InferenceEngine
  /// (defaults: shared global pool, caching on). Construct an engine
  /// explicitly to control threads or share caches across estimators.
  void EstimateBatch(const std::vector<Query>& queries,
                     std::vector<double>* out) override;
  size_t SizeBytes() const override { return model_size_bytes_; }

  /// True when `query`'s region is small enough for exact enumeration
  /// under this config (the serving engine's resolve step asks).
  bool ShouldEnumerate(const Query& query) const;

  /// Drops the private serving engine's cached results for this model.
  /// Call after retraining the wrapped model in place, or EstimateBatch
  /// would keep serving pre-retrain memo entries while
  /// EstimateSelectivity reflects the new weights.
  void InvalidateServingCaches();

  ConditionalModel* model() const { return model_; }
  const NaruEstimatorConfig& config() const { return config_; }
  ProgressiveSampler* sampler() { return &sampler_; }

 private:
  /// The private serving engine, built on first use.
  InferenceEngine* engine();

  ConditionalModel* model_;
  NaruEstimatorConfig config_;
  ProgressiveSampler sampler_;
  size_t model_size_bytes_;
  std::string name_;
  std::once_flag engine_once_;
  std::unique_ptr<InferenceEngine> engine_;
};

}  // namespace naru
