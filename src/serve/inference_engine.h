// Batched, thread-parallel serving for Naru estimators — the one route to
// an estimate.
//
// The engine serves *batches*: queries against the same ConditionalModel
// share one SamplerWorkspace pool and exact-result caches, and every
// batch's sampled queries compile into one SamplingPlan (src/plan) whose
// (tree, shard) tasks spread across a thread pool. Every model walks
// through that plan executor, and NaruEstimator::Estimate is a one-request
// batch here. The one thing the engine caches is the exact full-query
// result memo (exact shortcuts, enumerations and sampled walks alike), so
// for a fixed sampler seed an estimate is bit-identical to the same query
// served alone, regardless of batch size, thread count, or cache eviction
// history.
//
// The native surface is typed (serve/request.h): EstimateBatch maps
// EstimateRequests — query + per-request sample budget, soft deadline,
// priority class, cache policy — to EstimateResults carrying the
// estimate, a Status (DEADLINE_EXCEEDED for shed requests), the Monte
// Carlo standard error when sampled, a provenance tag, and latency
// attribution. For default options it is bit-identical to
// NaruEstimator::Estimate.
//
// The memo is a size-aware LRU map (serve/lru_cache.h) bounded by a byte
// budget per model; hit/miss/eviction counters and occupancy are exposed
// through EngineStats. For an asynchronous Submit()-based surface on top
// of this engine, see serve/async_engine.h.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/naru_estimator.h"
#include "core/sampler.h"
#include "plan/sampling_plan.h"
#include "serve/lru_cache.h"
#include "serve/request.h"
#include "util/latency_histogram.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace naru {

struct InferenceEngineConfig {
  /// Compute threads: 0 = share the process-global pool, 1 = strictly
  /// serial on the calling thread, n > 1 = a dedicated pool of n workers.
  /// Only binding for models with SupportsConcurrentSampling(): other
  /// models fall back to their kernels' internal parallelism, which runs
  /// on the process-global pool regardless of this setting (it is the
  /// only parallelism they have).
  size_t num_threads = 0;
  /// Per-model byte budget of the exact-result memo. Entries are charged
  /// key bytes + LruResultCache::kEntryOverheadBytes; once the budget is
  /// exceeded the least-recently-used entries are evicted. Hits and
  /// eviction can never change an estimate — a re-asked query recomputes
  /// to the bit-identical value through the deterministic sampler. 0
  /// keeps nothing: the engine skips every lookup and insert. A request's
  /// CachePolicy can only further restrict caching (read-only / bypass).
  size_t cache_budget_bytes = 4 * 1024 * 1024;
  /// Fork fan-out cap per plan tree: 0 = auto-tuned per batch from the
  /// model's StackedWidthHint, its active inference kernel, and the
  /// sampler's shard size (AutoGroupWidth, plan/sampling_plan.h); a
  /// nonzero N pins the cap (`--group-width auto|N` in the serving
  /// benches). Execution-only: tree shape never changes an estimate, so
  /// it is never part of memo keys.
  size_t group_width = 0;
};

/// Per-priority-class compute percentiles (snapshot computed by stats()
/// from fixed-memory log-bucketed histograms — see util/latency_histogram.h
/// for the ~19% resolution caveat; counts and maxima are exact). They
/// cover every result the engine delivered for the class, duplicates
/// included; the queue side lives in AsyncEngineStats::class_queue.
struct ClassLatencyStats {
  size_t results = 0;          ///< results delivered in this class
  double compute_p50_ms = 0.0;
  double compute_p99_ms = 0.0;
  double compute_max_ms = 0.0;
};

/// Serving counters and cache introspection. Counters are cumulative
/// since construction / ClearCaches(); occupancy fields are a snapshot
/// taken by stats(). ClearCachesFor() drops the erased model's occupancy
/// and eviction history from subsequent snapshots but leaves the
/// cumulative request counters untouched.
struct EngineStats {
  size_t queries = 0;            ///< requests accepted by EstimateBatch
  size_t memo_hits = 0;          ///< full-query cache hits
  size_t memo_misses = 0;        ///< full-query lookups that missed
  size_t exact_shortcuts = 0;    ///< empty / all-wildcard / leading-only
  size_t enumerated = 0;         ///< answered by exact enumeration
  size_t sampled = 0;            ///< full progressive-sampling walks

  size_t memo_evictions = 0;     ///< LRU evictions from the memo caches
  size_t memo_entries = 0;       ///< live memo entries across all models
  size_t memo_bytes = 0;         ///< charged memo bytes across all models

  size_t planned_queries = 0;    ///< sampled walks served through plans
  size_t plan_batches = 0;       ///< batches that compiled a sampling plan
  size_t plan_trees = 0;         ///< plan trees compiled (GEMM-fusion units)
  size_t plan_shared_cols = 0;   ///< per-shard column walks saved by sharing
  size_t plan_walk_cols = 0;     ///< column walks without prefix sharing
  /// Deepest fork nesting over all compiled trees (0 = no forks: every
  /// tree was a single chain; 1 = one fork on every path).
  size_t plan_max_depth = 0;
  /// Widest single fork (children at one node) over all compiled trees.
  size_t plan_max_fanout = 0;
  size_t workspaces_created = 0; ///< sampler workspaces ever created (churn)

  /// Requests shed with DEADLINE_EXCEEDED: their deadline had already
  /// passed when the engine dispatched them, so they cost no model
  /// evaluation (the compute-vs-provenance counters above never see
  /// them).
  size_t shed_deadline = 0;
  /// Computations abandoned BETWEEN column steps because every request
  /// sharing the walk had expired mid-walk; each abandoned computation's
  /// requests resolve with DEADLINE_EXCEEDED. Counts computations, not
  /// requests (coalesced duplicates share one abandonment).
  size_t shed_midwalk = 0;

  /// Per-priority-class compute percentiles (index = RequestPriority
  /// value: 0 low, 1 normal, 2 high).
  std::array<ClassLatencyStats, 3> class_latency;

  /// Results DELIVERED per provenance (serve/request.h). Unlike the
  /// compute counters above (which count distinct computations),
  /// coalesced duplicates count here too — the columns answer "what did
  /// callers receive", not "what did the engine run".
  size_t results_cache_hit = 0;
  size_t results_exact = 0;
  size_t results_enumerated = 0;
  size_t results_planned = 0;
  size_t results_shed = 0;

  /// Fraction of per-shard column walks the prefix sharing eliminated.
  double prefix_share_ratio() const {
    return plan_walk_cols == 0
               ? 0.0
               : static_cast<double>(plan_shared_cols) /
                     static_cast<double>(plan_walk_cols);
  }
};

/// The blocking batch-serving engine. Thread-safe with respect to its own
/// state; see EstimateBatch for the per-model concurrency contract.
class InferenceEngine {
 public:
  explicit InferenceEngine(InferenceEngineConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Serves all requests against `est`, one EstimateResult per request in
  /// *out. Requests whose deadline has already passed at dispatch are
  /// shed with a DEADLINE_EXCEEDED status and cost no model evaluation;
  /// everything else resolves with status OK. Requests coalesce only when
  /// their canonical query bytes, effective sample budgets, AND cache
  /// policies all match (the representative's policy governs the cache
  /// interaction). Thread-safe with respect to the engine's own state; do not
  /// call concurrently for estimators sharing a model that does not
  /// support concurrent sampling.
  void EstimateBatch(NaruEstimator* est,
                     const std::vector<EstimateRequest>& requests,
                     std::vector<EstimateResult>* out);

  /// Groups a mixed batch by estimator and serves each group batched:
  /// `ests` and `requests` are parallel arrays of equal length, and
  /// (*out)[i] is ests[i]'s result for requests[i].
  void EstimateMixedBatch(const std::vector<NaruEstimator*>& ests,
                          const std::vector<EstimateRequest>& requests,
                          std::vector<EstimateResult>* out);

  /// Counters plus a point-in-time cache occupancy snapshot.
  EngineStats stats() const;

  /// Drops every cached entry and zeroes all counters.
  void ClearCaches();

  /// Drops all cached entries for one model. Call when a model the engine
  /// has served is destroyed or retrained while the engine lives — cache
  /// keys are model addresses, so a replacement model allocated at the
  /// same address would otherwise hit the old model's exact-result
  /// entries.
  void ClearCachesFor(const ConditionalModel* model);

  /// Effective worker count (1 when serial, pool width otherwise).
  size_t num_threads() const;

  const InferenceEngineConfig& config() const { return cfg_; }

  SamplerWorkspacePool* workspace_pool() { return &workspaces_; }

 private:
  /// Every routing step short of the sampled walk: memo lookup, empty
  /// region, enumeration, trailing-wildcard exit, leading-only marginal.
  /// Returns true with *result filled when the query resolved; false when
  /// it needs a progressive-sampling walk.
  /// `memo_key` is the batch-hoisted full cache key (config prefix +
  /// canonical query bytes). `deadline` is the computation's deadline
  /// (joined over coalesced duplicates, WalkControl::Join): exact
  /// enumeration re-checks it between LogProbRows batches and resolves to
  /// a typed DEADLINE_EXCEEDED shed (counted in shed_midwalk, never
  /// memoized) once it passes.
  bool ResolveBeforeSampling(NaruEstimator* est, const Query& query,
                             const std::string& memo_key,
                             CachePolicy cache_policy,
                             std::chrono::steady_clock::time_point deadline,
                             EstimateResult* result);

  /// One unresolved sampled representative headed for the plan: everything
  /// EstimatePlanned needs that EstimateBatch's keyed pass already
  /// derived.
  struct SampledRep {
    size_t index = 0;        ///< representative's index into the batch
    std::string memo_key;    ///< full cache key (config prefix + bytes)
    size_t budget = 0;       ///< effective per-request sample budget
    CachePolicy policy = CachePolicy::kReadWrite;
    /// The computation's deadline: the join of every request coalesced
    /// into it (WalkControl::Join; kNoDeadline = never stop).
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
    /// Wall time this rep spent in the keyed/exact resolve pass — folded
    /// into its compute_ms on top of the fused segment's elapsed time.
    double resolve_ms = 0.0;
  };

  /// Serves the batch's unresolved sampled requests through a compiled
  /// SamplingPlan (prefix sharing + stacked GEMMs, grouping split by
  /// per-request budget); fills (*out)[rep.index] and memoizes each
  /// completed result. Reps whose plan tree was stopped mid-walk (all
  /// sharers expired) resolve with DEADLINE_EXCEEDED and are never
  /// memoized. compute_ms per rep = its resolve_ms + the fused planned
  /// segment's elapsed time (group work is shared, so the segment is
  /// batch-attributed).
  void EstimatePlanned(NaruEstimator* est,
                       const std::vector<EstimateRequest>& requests,
                       const std::vector<SampledRep>& reps, ThreadPool* pool,
                       std::vector<EstimateResult>* out);

  /// nullptr when the engine is strictly serial.
  ThreadPool* pool() const;

  InferenceEngineConfig cfg_;
  std::unique_ptr<ThreadPool> own_pool_;
  SamplerWorkspacePool workspaces_;

  /// One lock for caches + stats: every per-request touch is a short
  /// map/counter update, and a single capability keeps the hit-count and
  /// occupancy columns of one stats() snapshot mutually consistent.
  mutable Mutex mu_;
  /// The result memo per model. Keys embed the estimator's sampling config
  /// in addition to the query regions: estimators wrapping the same model
  /// with different path counts/seeds must not share entries.
  std::unordered_map<const ConditionalModel*, LruResultCache> memos_
      NARU_GUARDED_BY(mu_);
  EngineStats stats_ NARU_GUARDED_BY(mu_);
  /// Per-priority-class compute_ms accumulation (index = RequestPriority
  /// value); stats() renders percentiles into EngineStats::class_latency.
  std::array<LatencyHistogram, 3> class_compute_ NARU_GUARDED_BY(mu_);
};

}  // namespace naru
