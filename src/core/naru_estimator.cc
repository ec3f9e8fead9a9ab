#include "core/naru_estimator.h"

#include <cmath>
#include <limits>

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
  EstimateResult result;
  if (options.ExpiredAt(std::chrono::steady_clock::now())) {
    result.status =
        Status::DeadlineExceeded("deadline expired before dispatch");
    result.provenance = ResultProvenance::kShed;
    return result;
  }
  result.status = Status::OK();
  if (query.HasEmptyRegion()) {
    result.estimate = 0.0;
    result.provenance = ResultProvenance::kExact;
    return result;
  }
  if (ShouldEnumerate(query)) {
    // The deadline propagates into exact enumeration too: expiry is
    // re-checked between LogProbRows batches and the enumeration is
    // abandoned once it passes — the same typed DEADLINE_EXCEEDED as a
    // mid-walk abandonment (deadline-free requests pay no clock reads).
    bool enum_abandoned = false;
    result.estimate = EnumerateSelectivity(model_, query, /*batch=*/2048,
                                           options.deadline, &enum_abandoned);
    if (enum_abandoned) {
      result.estimate = std::numeric_limits<double>::quiet_NaN();
      result.status =
          Status::DeadlineExceeded("deadline expired mid-enumeration");
      result.provenance = ResultProvenance::kShed;
      return result;
    }
    result.provenance = ResultProvenance::kEnumerated;
    return result;
  }
  ProgressiveSampler::RunOptions run;
  run.num_samples = options.num_samples;  // 0 = the configured budget
  // Propagate the soft deadline into the walk: the sampler re-checks it
  // between column steps (same inclusive predicate as the dispatch-time
  // shed above) and abandons the walk once it expires. Deadline-free
  // requests (the default, and the bit-identity reference) never pay a
  // clock read.
  bool abandoned = false;
  run.deadline = options.deadline;
  run.abandoned = &abandoned;
  result.estimate =
      sampler_.EstimateWithOptions(query, &result.std_error, run);
  if (abandoned) {
    result.estimate = std::numeric_limits<double>::quiet_NaN();
    result.std_error = 0.0;
    result.status = Status::DeadlineExceeded("deadline expired mid-walk");
    result.provenance = ResultProvenance::kShed;
    return result;
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
  engine_->EstimateBatch(this, queries, out);
}

}  // namespace naru
