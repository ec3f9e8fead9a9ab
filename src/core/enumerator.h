// Exact enumeration querying (§5): sums model point densities over every
// tuple in the query region. Practical only when the region is small; the
// NaruEstimator falls back to it below a configurable region size, and
// Table 6 uses its cost model to report naive-enumeration latencies.
#pragma once

#include "core/conditional_model.h"
#include "query/query.h"
#include "util/deadline.h"

namespace naru {

/// Sum of P̂(x) over all x in R_1 x ... x R_n, batching tuples through the
/// model. The caller is responsible for checking the region is small
/// (e.g. via Query::Log10RegionSize).
///
/// Stop contract (mirrors the sampler's mid-walk checks): `control`
/// (nullptr = run to completion) is checked BETWEEN LogProbRows batches —
/// never inside a kernel — and before the final partial batch. Once it
/// stops, the enumeration is given up: control->stopped() is true and the
/// return value is NaN (must not be used). A control without a deadline
/// never reads the clock.
double EnumerateSelectivity(ConditionalModel* model, const Query& query,
                            size_t batch = 2048,
                            WalkControl* control = nullptr);

/// Estimated wall-clock seconds a naive enumeration of `query` would take
/// at `points_per_second` model throughput (Table 6's "Enum (est.)").
double EstimateEnumerationSeconds(const Query& query,
                                  double points_per_second);

}  // namespace naru
