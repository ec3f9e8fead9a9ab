// Asynchronous, streaming submission on top of the batch InferenceEngine.
//
// The blocking EstimateBatch surface forces a server to collect a whole
// batch before any sampling starts. AsyncEngine inverts that: callers
// Submit() single EstimateRequests as they arrive and immediately get a
// std::future<EstimateResult>; a background dispatcher thread coalesces
// pending submissions into adaptive micro-batches — flushed as soon as
// `max_batch_size` requests are pending OR the oldest pending request has
// waited `max_wait_ms` — and drives them through the shard-parallel
// InferenceEngine. Request arrival therefore overlaps with sampling: while
// one micro-batch is being estimated, the next one accumulates.
//
// Requests carry intent (serve/request.h): the dispatcher cuts each
// micro-batch HIGHEST PRIORITY CLASS FIRST instead of pure FIFO — and
// within a class, deadline-carrying requests first, tightest deadline
// first, with deadline-free requests keeping FIFO among themselves, so a
// near-deadline request is never stranded behind deadline-free traffic.
// Both preferences are STRICT: just as sustained higher-class traffic
// can starve a lower class, sustained deadline-carrying traffic at or
// above the service rate can starve deadline-free requests of the same
// class. Give latency-sensitive work a deadline (or a class) of its
// own; Drain() remains the FIFO escape hatch — it reverts the cut to
// arrival order for its duration, so a drain is never starved.
// A request whose soft deadline has expired by the time its batch
// dispatches is shed by the engine with a typed DEADLINE_EXCEEDED result
// instead of burning model evaluations on an answer nobody is waiting
// for; one that expires mid-walk is abandoned between column steps once
// every sharer has expired. Results carry the estimate, Status,
// std-error, provenance, and queue/compute latency attribution.
//
// Overload safety: with AsyncEngineConfig::max_pending set, the pending
// queues are BOUNDED. A Submit against full queues sheds the oldest
// request of the lowest pending priority class (or rejects the incoming
// request when it is itself lowest) with a typed RESOURCE_EXHAUSTED
// result — the open-loop saturation discipline: the low class degrades
// first, the queue depth and therefore worst-case queueing delay stay
// bounded, and nothing blocks.
//
// Determinism contract: a request's estimate is independent of which
// micro-batch it lands in. EstimateBatch coalesces duplicates and serves
// every distinct (query, budget) through the fixed-seed sharded plan
// executor, and every cache entry is exact, so for a fixed seed Submit()
// returns a value bit-identical to NaruEstimator::Estimate — regardless of
// arrival order, batching boundaries, priority interleaving, thread count,
// or cache eviction history (asserted in tests/test_serving_async.cc).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/inference_engine.h"
#include "serve/request.h"
#include "util/latency_histogram.h"
#include "util/thread_annotations.h"

namespace naru {

struct AsyncEngineConfig {
  /// Flush a micro-batch as soon as this many submissions are pending
  /// (values below 1 are treated as 1). Larger batches amortize better;
  /// the deadline below bounds the latency cost of waiting for them.
  size_t max_batch_size = 64;
  /// Flush deadline: a pending request is dispatched at most this many
  /// milliseconds after the OLDEST pending request's submission even if
  /// the batch is not full. 0 dispatches as soon as the dispatcher is
  /// free (lowest latency, least coalescing). Negative values are
  /// treated as 0.
  double max_wait_ms = 2.0;
  /// Admission control: upper bound on requests pending in the
  /// dispatcher's queues (joiners of in-flight twins never count — they
  /// add no work). 0 (the default) = unbounded, the pre-admission
  /// behavior. When a Submit finds the queues full, the LOWEST priority
  /// class pays: if a class strictly below the incoming request's has
  /// pending work, its OLDEST request is shed (typed RESOURCE_EXHAUSTED,
  /// future resolved immediately) and the incoming request is admitted;
  /// otherwise the incoming request — itself (tied-)lowest — is rejected
  /// the same way. A higher class is therefore never admission-shed
  /// while a lower class has pending work. Counted in
  /// AsyncEngineStats::shed_admission.
  size_t max_pending = 0;
  /// The wrapped blocking engine (threads, caching, cache budget).
  InferenceEngineConfig engine;
};

/// Per-priority-class queue-latency percentiles over every delivered
/// result (admission sheds and joiners included — each waited its own
/// time), from the same log-bucketed histograms as ClassLatencyStats.
struct ClassQueueStats {
  size_t queued = 0;  ///< deliveries with a measured queue time
  double queue_p50_ms = 0.0;
  double queue_p99_ms = 0.0;
  double queue_max_ms = 0.0;
};

/// Dispatcher counters (cumulative since construction). The wrapped
/// engine's counters are engine()->stats(); no counter lives in both.
struct AsyncEngineStats {
  size_t submitted = 0;         ///< requests accepted by Submit
  size_t completed = 0;         ///< requests whose result has been delivered
  size_t batches = 0;           ///< micro-batches dispatched
  size_t size_flushes = 0;      ///< flushed because max_batch_size was hit
  size_t deadline_flushes = 0;  ///< flushed because max_wait_ms expired
  size_t drain_flushes = 0;     ///< flushed early by Drain() / destruction
  size_t largest_batch = 0;     ///< widest micro-batch dispatched
  /// Submissions that joined an identical in-flight twin instead of
  /// enqueueing their own computation (see Submit).
  size_t joined_duplicates = 0;
  /// Micro-batches cut out of FIFO order because a higher priority class
  /// jumped the queue.
  size_t priority_flushes = 0;
  /// Micro-batches whose within-class cut order was changed by deadlines:
  /// a deadline-carrying request was pulled ahead of an earlier-arrived
  /// request of its own class (see DispatcherLoop's tightest-deadline
  /// ordering).
  size_t deadline_reorders = 0;
  /// Requests shed by admission control (pending queues at max_pending):
  /// evicted victims (expired-deadline or oldest-lowest-class) and
  /// rejected-incoming requests. The engine never sees these requests, so
  /// EngineStats::results_shed does not count them.
  size_t shed_admission = 0;
  /// Subset of shed_admission: victims whose deadline had ALREADY expired
  /// while they waited. Admission control prefers these — the dispatcher
  /// would shed them at dispatch anyway, so evicting them costs nothing —
  /// over the oldest-lowest-class victim; they resolve with
  /// DEADLINE_EXCEEDED (not RESOURCE_EXHAUSTED: retrying is pointless).
  size_t expired_victims = 0;
  /// High-water mark of the pending-queue depth observed after any
  /// Submit. With max_pending > 0 this never exceeds it — the saturation
  /// smoke asserts exactly that.
  size_t max_pending_seen = 0;
  /// Queue-latency percentiles per priority class (index =
  /// RequestPriority value: 0 low, 1 normal, 2 high).
  std::array<ClassQueueStats, 3> class_queue;
};

/// Multi-line human-readable rendering of one serving stack's counters:
/// the dispatcher's and its wrapped engine's. The STATS control verb
/// replies with it and `naru_cli serve` prints it on exit; perfbench
/// parses the `# async:`, `# engine:`, `# caches:`, `# plans:` and
/// `# workspaces created:` lines, so their leading fields keep their order.
std::string FormatEngineStats(const EngineStats& engine,
                              const AsyncEngineStats& async);

/// A streaming serving front-end over one InferenceEngine. Thread-safe:
/// any number of threads may Submit concurrently. Estimators passed to
/// Submit must outlive the delivery of their results.
class AsyncEngine {
 public:
  explicit AsyncEngine(AsyncEngineConfig config = {});
  /// Drains every pending submission, then joins the dispatcher.
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueues one typed request and returns a future resolving to its
  /// EstimateResult. For default options the estimate is bit-identical to
  /// est->EstimateSelectivity(request.query) for a fixed seed; a request
  /// whose deadline expires before dispatch resolves (never blocks) with
  /// status DEADLINE_EXCEEDED, and one that overflows a bounded pending
  /// queue (see AsyncEngineConfig::max_pending) with RESOURCE_EXHAUSTED.
  /// If `on_complete` is provided it is invoked with the result on the
  /// dispatcher thread, before the future becomes ready — keep it cheap
  /// (record a timestamp, bump a counter); heavy work there stalls every
  /// later micro-batch. (Admission-shed results are the one exception:
  /// they are delivered on the thread that triggered the shed — the
  /// victim's or the rejected request's submitter.)
  ///
  /// The request's priority class decides which micro-batch it lands in
  /// (higher classes are flushed first); its canonical query bytes are
  /// serialized HERE, once, and ride inside request.key down through the
  /// engine's keyed batch pass.
  ///
  /// In-flight duplicate sharing: a deadline-free request submitted while
  /// an identical one (same estimator, same effective sample budget, same
  /// priority class, same cache policy, identical regions by canonical key) is
  /// still pending or mid-walk JOINS the twin's computation instead of
  /// enqueueing its own — its future resolves, and its on_complete fires,
  /// when the twin's result is delivered. Exact for the same reason batch
  /// coalescing is: identical requests have identical deterministic
  /// answers. Requests carrying a deadline neither join nor accept
  /// joiners (shedding is per-request; sharing a computation would let
  /// one request's deadline decide another's fate); counted in
  /// AsyncEngineStats::joined_duplicates.
  std::future<EstimateResult> Submit(
      NaruEstimator* est, EstimateRequest request,
      std::function<void(const EstimateResult&)> on_complete = {});

  /// Blocks until every request submitted before this call has completed —
  /// and no longer: requests submitted concurrently with or after Drain
  /// are not waited for, so a drain cannot be starved by ongoing traffic.
  /// Pending work is flushed immediately (counted as drain_flushes)
  /// rather than waiting out max_wait_ms, and flushes revert to
  /// FIFO-by-arrival for the drain's duration so ongoing higher-priority
  /// submissions cannot starve a pre-Drain low-priority request past the
  /// barrier.
  void Drain();

  AsyncEngineStats async_stats() const;
  /// The wrapped blocking engine: its stats() are the compute-side
  /// counters, and ClearCachesFor drops a retrained model's memo.
  InferenceEngine* engine() { return &engine_; }

 private:
  /// Followers of one in-flight computation (duplicate submissions that
  /// joined it). The vectors are parallel — callbacks[i] (possibly empty)
  /// belongs to promises[i] — so a follower's callback failure can be
  /// confined to that follower's future. Mutated only under mu_ while the
  /// key is registered in `inflight_`; read lock-free by the dispatcher
  /// after it unregisters the key.
  struct Joiners {
    std::vector<std::promise<EstimateResult>> promises;
    std::vector<std::function<void(const EstimateResult&)>> callbacks;
    /// Per-joiner submission times: each joiner's delivered queue_ms is
    /// measured from ITS OWN arrival, not the primary's.
    std::vector<std::chrono::steady_clock::time_point> arrivals;
  };

  struct Pending {
    NaruEstimator* est;
    EstimateRequest request;
    std::promise<EstimateResult> promise;
    std::function<void(const EstimateResult&)> on_complete;
    std::chrono::steady_clock::time_point arrival;
    /// Submission sequence number (Drain bookkeeping; priority flushing
    /// delivers primaries out of order, so emptiness of the
    /// below-watermark outstanding set — not a completion count — is the
    /// drain condition).
    uint64_t seq = 0;
    /// Estimator identity + budget + priority + canonical query bytes;
    /// empty when the request is not registered for duplicate sharing
    /// (deadline-carrying requests).
    std::string inflight_key;
    std::shared_ptr<Joiners> joiners;
  };

  static constexpr size_t kNumPriorities = 3;
  static size_t PriorityIndex(RequestPriority priority) {
    return static_cast<size_t>(priority) < kNumPriorities
               ? static_cast<size_t>(priority)
               : static_cast<size_t>(RequestPriority::kNormal);
  }

  void DispatcherLoop() NARU_EXCLUDES(mu_);
  size_t TotalPendingLocked() const NARU_REQUIRES(mu_);
  /// Earliest arrival over every pending queue's front (time_point::max()
  /// when nothing is pending); the dispatcher's flush-deadline anchor.
  std::chrono::steady_clock::time_point OldestArrivalLocked() const
      NARU_REQUIRES(mu_);
  /// Drain's wait predicate: no primary sequenced before `watermark` is
  /// still outstanding.
  bool DrainSatisfiedLocked(uint64_t watermark) const NARU_REQUIRES(mu_);

  AsyncEngineConfig cfg_;
  InferenceEngine engine_;

  /// One lock for the whole dispatcher state below: queues, duplicate
  /// registry, drain bookkeeping and counters move together on every
  /// submit/cut/delivery, so a single capability is both sufficient and
  /// the only ordering-free choice.
  mutable Mutex mu_;
  CondVar cv_;        ///< wakes the dispatcher: work arrived, drain, stop
  CondVar drain_cv_;  ///< wakes Drain waiters: outstanding_ shrank
  /// One FIFO queue per priority class (index = RequestPriority value).
  /// Micro-batches are cut highest class first; within a class,
  /// deadline-carrying requests tightest-first, deadline-free FIFO.
  std::array<std::deque<Pending>, kNumPriorities> pending_
      NARU_GUARDED_BY(mu_);
  /// Pending deadline-CARRYING requests per class, maintained by every
  /// enqueue/cut/evict: the dispatcher's tightest-deadline pick only
  /// scans a queue when its count is nonzero, so the common all-
  /// deadline-free cut stays O(1) pop_front per slot under mu_.
  std::array<size_t, kNumPriorities> pending_deadlines_ NARU_GUARDED_BY(mu_){};
  /// Key -> joiner list of the computation currently pending or mid-walk
  /// for that key. Registered by Submit, unregistered by the dispatcher
  /// when the result is delivered (later duplicates then hit the engine's
  /// memo instead).
  std::unordered_map<std::string, std::shared_ptr<Joiners>> inflight_
      NARU_GUARDED_BY(mu_);
  size_t drain_waiters_ NARU_GUARDED_BY(mu_) = 0;  ///< active Drain calls
  bool stop_ NARU_GUARDED_BY(mu_) = false;
  AsyncEngineStats stats_ NARU_GUARDED_BY(mu_);
  /// Per-class queue-latency accumulation over every delivered result
  /// (admission sheds and joiners included — each waited its own time);
  /// async_stats() renders percentiles into class_queue.
  std::array<LatencyHistogram, kNumPriorities> class_queue_
      NARU_GUARDED_BY(mu_);
  /// Smoothed per-request service time across dispatched micro-batches
  /// (batch wall time / batch width, EWMA α=0.2); with the pending depth
  /// it prices the retry-after hint on admission-shed results.
  double ewma_service_ms_ NARU_GUARDED_BY(mu_) = 0.0;
  /// Drain bookkeeping: sequence numbers of primaries submitted but not
  /// yet delivered. Priority flushing dispatches primaries OUT of
  /// submission order, so Drain(watermark) waits until no outstanding
  /// sequence number is below its watermark — which also covers every
  /// pre-watermark joiner, since a joiner's primary is always submitted
  /// (hence sequenced) before the joiner.
  uint64_t next_seq_ NARU_GUARDED_BY(mu_) = 0;
  std::set<uint64_t> outstanding_ NARU_GUARDED_BY(mu_);

  std::thread dispatcher_;  // last member: joins before the rest dies
};

}  // namespace naru
