#include "core/naru_estimator.h"

#include <cmath>

#include "core/enumerator.h"
#include "serve/inference_engine.h"
#include "util/string_util.h"

namespace naru {

NaruEstimator::NaruEstimator(ConditionalModel* model,
                             NaruEstimatorConfig config,
                             size_t model_size_bytes, std::string name)
    : model_(model),
      config_(config),
      sampler_(model,
               ProgressiveSamplerConfig{
                   .num_samples = config.num_samples,
                   .shard_size = config.shard_size,
                   .seed = config.sampler_seed,
               }),
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

EstimateResult NaruEstimator::Estimate(const Query& query,
                                       const EstimateOptions& options) {
  // One control carries the request's deadline from the dispatch check
  // into the enumeration or the walk, which re-check it between steps
  // (never inside a kernel). Deadline-free requests (the default, and the
  // bit-identity reference) never pay a clock read.
  WalkControl control(options.deadline);
  if (control.ShouldStop()) {
    return EstimateResult::Shed(
        Status::DeadlineExceeded("deadline expired before dispatch"));
  }
  EstimateResult result;
  result.status = Status::OK();
  if (query.HasEmptyRegion()) {
    result.estimate = 0.0;
    result.provenance = ResultProvenance::kExact;
    return result;
  }
  if (ShouldEnumerate(query)) {
    result.estimate =
        EnumerateSelectivity(model_, query, /*batch=*/2048, &control);
    if (control.stopped()) {
      return EstimateResult::Shed(
          Status::DeadlineExceeded("deadline expired mid-enumeration"));
    }
    result.provenance = ResultProvenance::kEnumerated;
    return result;
  }
  ProgressiveSampler::RunOptions run;
  run.num_samples = options.num_samples;  // 0 = the configured budget
  run.control = &control;
  result.estimate =
      sampler_.EstimateWithOptions(query, &result.std_error, run);
  if (control.stopped()) {
    return EstimateResult::Shed(
        Status::DeadlineExceeded("deadline expired mid-walk"));
  }
  // The sampler short-circuits all-wildcard and leading-only queries to
  // exact answers; label those honestly instead of claiming a walk.
  if (sampler_.Classify(query) == ProgressiveSampler::Path::kSampled) {
    result.provenance = ResultProvenance::kSampled;
    result.samples_used = options.EffectiveSamples(config_.num_samples);
  } else {
    result.provenance = ResultProvenance::kExact;
  }
  return result;
}

double NaruEstimator::EstimateSelectivity(const Query& query) {
  return Estimate(query).estimate;
}

void NaruEstimator::InvalidateServingCaches() {
  // Enter the same call_once as EstimateBatch: a plain null-check here
  // would race with a concurrent first EstimateBatch constructing engine_.
  std::call_once(engine_once_,
                 [this] { engine_ = std::make_unique<InferenceEngine>(); });
  engine_->ClearCachesFor(model_);
}

void NaruEstimator::EstimateBatch(const std::vector<Query>& queries,
                                  std::vector<double>* out) {
  std::call_once(engine_once_,
                 [this] { engine_ = std::make_unique<InferenceEngine>(); });
  std::vector<EstimateRequest> requests;
  requests.reserve(queries.size());
  for (const Query& q : queries) requests.emplace_back(q);
  std::vector<EstimateResult> results;
  engine_->EstimateBatch(this, requests, &results);
  // Default options carry no deadline, so every result is OK.
  out->resize(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    (*out)[i] = results[i].estimate;
  }
}

}  // namespace naru
