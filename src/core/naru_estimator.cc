#include "core/naru_estimator.h"

#include <cmath>

#include "serve/inference_engine.h"
#include "util/string_util.h"

namespace naru {

NaruEstimator::NaruEstimator(ConditionalModel* model,
                             NaruEstimatorConfig config,
                             size_t model_size_bytes, std::string name)
    : model_(model),
      config_(config),
      sampler_(model),
      model_size_bytes_(model_size_bytes),
      name_(name.empty() ? StrFormat("Naru-%zu", config.num_samples)
                         : std::move(name)) {
  // Model-wide: see NaruEstimatorConfig::kernel. Scalar is a real (re)set,
  // not a no-op, so a fresh estimator restores the reference path.
  model_->SetInferenceKernel(config_.kernel);
}

NaruEstimator::~NaruEstimator() = default;

bool NaruEstimator::ShouldEnumerate(const Query& query) const {
  if (config_.enumeration_threshold == 0) return false;
  return query.Log10RegionSize() <=
         std::log10(static_cast<double>(config_.enumeration_threshold));
}

InferenceEngine* NaruEstimator::engine() {
  // Estimate, EstimateBatch and InvalidateServingCaches may race on first
  // use.
  std::call_once(engine_once_,
                 [this] { engine_ = std::make_unique<InferenceEngine>(); });
  return engine_.get();
}

EstimateResult NaruEstimator::Estimate(const Query& query,
                                       const EstimateOptions& options) {
  // A one-request batch that bypasses the caches: the engine's resolve
  // step and a one-query plan are the only route to an estimate.
  std::vector<EstimateRequest> requests;
  requests.emplace_back(query, options);
  requests[0].options.cache_policy = CachePolicy::kBypass;
  std::vector<EstimateResult> results;
  engine()->EstimateBatch(this, requests, &results);
  return std::move(results[0]);
}

double NaruEstimator::EstimateSelectivity(const Query& query) {
  return Estimate(query).estimate;
}

void NaruEstimator::InvalidateServingCaches() {
  engine()->ClearCachesFor(model_);
}

void NaruEstimator::EstimateBatch(const std::vector<Query>& queries,
                                  std::vector<double>* out) {
  std::vector<EstimateRequest> requests;
  requests.reserve(queries.size());
  for (const Query& q : queries) requests.emplace_back(q);
  std::vector<EstimateResult> results;
  engine()->EstimateBatch(this, requests, &results);
  // Default options carry no deadline, so every result is OK.
  out->resize(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    (*out)[i] = results[i].estimate;
  }
}

}  // namespace naru
