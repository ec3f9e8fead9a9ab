// Common interface for all selectivity estimators (Table 2).
//
// Estimators are constructed from a table (unsupervised synopses) or from a
// table plus training queries (the supervised baselines) and answer
// conjunctive range/equality queries with a selectivity in [0, 1].
#pragma once

#include <string>
#include <vector>

#include "query/query.h"

namespace naru {

/// Abstract base of every selectivity estimator in the repo — the Naru
/// model-backed estimator, the Table 2 baselines, and the multi-order
/// ensemble all implement this surface, so benchmarks and the serving
/// layer treat them interchangeably.
///
/// Thread-safety is implementation-defined: NaruEstimator's batched paths
/// (EstimateBatch via InferenceEngine / AsyncEngine) manage their own
/// synchronization, but most baselines assume single-threaded use.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Display name used in benchmark tables (e.g. "Naru-2000").
  virtual std::string name() const = 0;

  /// Estimated fraction of rows satisfying `query`.
  virtual double EstimateSelectivity(const Query& query) = 0;

  /// Estimates a batch of queries, writing one selectivity per query into
  /// `out` (resized to queries.size()). The default loops over
  /// EstimateSelectivity; estimators with a cheaper amortized path (Naru's
  /// serving engine, the multi-order ensemble) override it. For a fixed
  /// seed the batch results must equal the one-query ones exactly, so
  /// callers may mix the two paths freely.
  virtual void EstimateBatch(const std::vector<Query>& queries,
                             std::vector<double>* out) {
    out->resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      (*out)[i] = EstimateSelectivity(queries[i]);
    }
  }

  /// Storage footprint charged against the paper's per-dataset budget.
  virtual size_t SizeBytes() const = 0;

  /// Convenience: selectivity scaled to a cardinality.
  double EstimateCardinality(const Query& query, size_t num_rows) {
    return EstimateSelectivity(query) * static_cast<double>(num_rows);
  }
};

}  // namespace naru
