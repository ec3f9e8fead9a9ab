// Typed serving requests and results.
//
// Every serving surface in src/serve traffics in these two value types
// instead of bare doubles: an EstimateRequest carries the query plus the
// caller's intent (per-request sample budget, soft deadline, priority
// class, cache policy), and an EstimateResult carries the estimate plus
// its provenance — how it was produced, how many sample paths it spent,
// the Monte Carlo standard error when it sampled, where its latency went,
// and a Status instead of an out-of-band error channel.
//
// Contract: a request with DEFAULT options is served bit-identically by
// every surface — NaruEstimator::Estimate (a one-request batch), the
// blocking and async engines, and the network server — whatever batch it
// lands in (the repo-wide determinism invariant, see
// docs/ARCHITECTURE.md). Non-default options
// change WHAT is asked (sample budget) or WHETHER it is answered
// (deadline), never silently degrade an answer: a shed request returns a
// typed DEADLINE_EXCEEDED status, not a stale or approximate value.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>

#include "query/query.h"
#include "util/deadline.h"
#include "util/status.h"

namespace naru {

/// Dispatch priority class of a request. The async dispatcher flushes
/// pending work highest class first (FIFO within a class); the priority
/// never affects a value, only when it is computed. Under sustained
/// saturation lower classes can be starved — admission control is the
/// ROADMAP follow-up this enum gives an API to.
enum class RequestPriority : uint8_t {
  kLow = 0,
  kNormal = 1,  ///< the default
  kHigh = 2,
};

/// Per-request result-cache policy. Hits can never change an estimate
/// (the memo stores only exact values), so this is a freshness /
/// footprint knob, not a correctness one.
enum class CachePolicy : uint8_t {
  /// Look up and store through the engine's exact-result memo (an engine
  /// whose cache_budget_bytes is 0 keeps nothing, whatever the policy).
  /// The default.
  kReadWrite = 0,
  /// Look up but never insert: serve hot entries without letting this
  /// request's (e.g. one-off, scan-like) key evict the working set.
  kReadOnly = 1,
  /// Neither look up nor insert: always recompute. The recomputed value
  /// is bit-identical to a cached one by the determinism contract.
  kBypass = 2,
};

/// How an EstimateResult was produced. The values are wire codes
/// (net/protocol.h) and never move; code 4 is retired and must not be
/// reused, since a peer built before its retirement may still send it.
enum class ResultProvenance : uint8_t {
  kUnknown = 0,
  kCacheHit = 1,      ///< full-query memo hit (exact)
  kExact = 2,         ///< exact shortcut: empty / all-wildcard / leading-only
  kEnumerated = 3,    ///< exact enumeration of a small region
  kPlannedGroup = 5,  ///< sampled through a compiled SamplingPlan
  /// Not answered: deadline expired before dispatch, the walk was
  /// abandoned mid-column after every sharer expired, or admission
  /// control dropped the request from a full pending queue. `status`
  /// distinguishes the three (DEADLINE_EXCEEDED vs RESOURCE_EXHAUSTED).
  kShed = 6,
};

/// Short lower-case name, e.g. "cache_hit" (stats rendering, CLI output).
const char* ResultProvenanceToString(ResultProvenance provenance);

/// Per-request serving options. The default-constructed value is what
/// NaruEstimator::EstimateSelectivity serves.
struct EstimateOptions {
  /// Progressive sample paths for THIS request; 0 inherits the
  /// estimator's configured num_samples. Part of the value contract: two
  /// requests for one query with different budgets are different
  /// computations (they never coalesce and never share memo entries).
  /// Exact paths (enumeration, empty/wildcard/leading-only shortcuts)
  /// ignore it. A value above kMaxSamples is rejected with a typed
  /// INVALID_ARGUMENT result and costs no model evaluation.
  size_t num_samples = 0;

  /// Largest per-request budget the engine serves: 8,192 shards at the
  /// default shard size. The budget arrives from outside the process (the
  /// wire carries it as a u64), and the plan executor pushes one task per
  /// (tree, shard), so an unchecked budget could ask for billions of tasks.
  static constexpr size_t kMaxSamples = size_t{1} << 20;

  /// Soft completion deadline. A request whose deadline has already
  /// passed when the engine dispatches it is SHED: it costs no model
  /// evaluation and resolves to a DEADLINE_EXCEEDED status (counted in
  /// EngineStats::shed_deadline). The deadline also propagates INTO the
  /// compute: the sampled walk re-checks it between column steps (never
  /// inside a kernel) and is abandoned — typed DEADLINE_EXCEEDED, counted
  /// in EngineStats::shed_midwalk — once every request sharing the
  /// computation has expired; exact enumeration re-checks it between
  /// LogProbRows batches the same way. The remaining exact shortcuts
  /// (empty / all-wildcard / leading-only) are single model-free steps and
  /// run to completion once started. kNoDeadline (the default) never
  /// sheds.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;

  /// Flush class in the async dispatcher; see RequestPriority.
  RequestPriority priority = RequestPriority::kNormal;

  /// Result-cache interaction; see CachePolicy.
  CachePolicy cache_policy = CachePolicy::kReadWrite;

  /// Convenience: a deadline `ms` milliseconds from now (DeadlineAfterMs:
  /// too far out for the clock, or +inf, is kNoDeadline).
  static std::chrono::steady_clock::time_point DeadlineInMs(double ms) {
    return DeadlineAfterMs(std::chrono::steady_clock::now(), ms);
  }

  bool has_deadline() const { return deadline != kNoDeadline; }

  /// The shared expiry predicate (util/deadline.h): INCLUSIVE at the
  /// deadline instant — a request whose deadline equals the check time is
  /// already expired, matching the documented "expired by dispatch time".
  bool ExpiredAt(std::chrono::steady_clock::time_point now) const {
    return DeadlineExpired(deadline, now);
  }

  /// THE resolution of the 0-means-inherit budget rule, shared by every
  /// layer that keys or computes on the effective sample count (async
  /// in-flight keys, engine memo/coalescing keys, the plan budgets) —
  /// they must all agree or duplicate sharing could pair requests the
  /// memo keeps apart.
  size_t EffectiveSamples(size_t configured) const {
    return num_samples != 0 ? num_samples : configured;
  }
};

/// One serving request: a query plus options. Movable and copyable; the
/// serving layers take it by value and move it through their queues.
struct EstimateRequest {
  Query query;
  EstimateOptions options;

  /// Canonical query bytes (serve/query_key.h), filled by the first
  /// serving layer that needs them and reused by every layer below —
  /// AsyncEngine::Submit serializes them once for its in-flight
  /// duplicate-sharing key and the engine's keyed batch pass reuses them
  /// instead of serializing a second time. Leave empty when constructing
  /// a request by hand; a non-empty value MUST equal QueryKey(query).
  std::string key;

  EstimateRequest() : query(std::vector<ValueSet>{}) {}
  explicit EstimateRequest(Query q, EstimateOptions opts = {})
      : query(std::move(q)), options(opts) {}
};

/// One serving result. `status` is the source of truth: when it is not OK
/// (e.g. DEADLINE_EXCEEDED for a shed request) `estimate` is NaN and must
/// not be used.
struct EstimateResult {
  /// Selectivity in [0, 1] when status.ok(); NaN otherwise.
  double estimate = std::numeric_limits<double>::quiet_NaN();
  Status status;

  /// Monte Carlo standard error of the estimate when it was sampled
  /// (provenance kPlannedGroup); 0 for exact answers. A
  /// ±2·std_error band is the usual ~95% confidence interval.
  double std_error = 0.0;

  ResultProvenance provenance = ResultProvenance::kUnknown;

  /// Sample paths this request spent (0 for exact / cached / shed
  /// answers). Echoes the effective per-request budget.
  size_t samples_used = 0;

  /// Milliseconds spent queued before dispatch (async surface; 0 on the
  /// blocking path). Queue + compute ≈ the latency the caller observed.
  double queue_ms = 0.0;
  /// Retry-after hint, milliseconds: on a RESOURCE_EXHAUSTED result the
  /// server's estimate of how long until the pending queues drain enough
  /// to admit a resubmission (pending depth × the dispatcher's smoothed
  /// per-request service time, floored so it is always positive on an
  /// admission shed). 0 = no hint (every other status, and shed paths
  /// where retrying is pointless — e.g. an expired-deadline victim).
  double retry_after_ms = 0.0;
  /// Milliseconds of compute attributed to THIS request, per phase: a
  /// request resolved in the keyed/exact pass (cache hit, shortcut,
  /// enumeration) is charged only its own resolution, and a sampled
  /// request its resolution plus the fused plan segment's elapsed time
  /// (shared work is batch-attributed). A cache hit therefore always
  /// reports less compute than a sampled walk; shed requests report the
  /// compute burned before abandonment (0 when shed pre-dispatch).
  double compute_ms = 0.0;

  bool ok() const { return status.ok(); }

  /// An unanswered request (provenance kShed): NaN estimate, no standard
  /// error, no sample paths spent, and `status` saying why.
  static EstimateResult Shed(Status status) {
    EstimateResult result;
    result.status = std::move(status);
    result.provenance = ResultProvenance::kShed;
    return result;
  }
};

}  // namespace naru
