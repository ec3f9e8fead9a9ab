#include "serve/async_engine.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "serve/query_key.h"
#include "util/deadline.h"
#include "util/string_util.h"

namespace naru {

namespace {

// In-flight keys pair the estimator's identity with everything that
// decides a computation's value, schedule, and cache interaction: the
// effective sample budget, the priority class, the cache policy, and the
// canonical query bytes. Only submissions agreeing on all of them may
// share a computation (a kBypass request must never ride a twin that may
// be served from cache).
std::string InflightKeyPrefix(const NaruEstimator* est,
                              const EstimateRequest& request) {
  return StrFormat("%p|%zu|%d|%d|", static_cast<const void*>(est),
                   request.options.EffectiveSamples(est->config().num_samples),
                   static_cast<int>(request.options.priority),
                   static_cast<int>(request.options.cache_policy));
}

}  // namespace

AsyncEngine::AsyncEngine(AsyncEngineConfig config)
    : cfg_(config), engine_(config.engine) {
  cfg_.max_batch_size = std::max<size_t>(cfg_.max_batch_size, 1);
  cfg_.max_wait_ms = std::max(cfg_.max_wait_ms, 0.0);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

AsyncEngine::~AsyncEngine() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  dispatcher_.join();
}

size_t AsyncEngine::TotalPendingLocked() const {
  size_t total = 0;
  for (const auto& q : pending_) total += q.size();
  return total;
}

std::chrono::steady_clock::time_point AsyncEngine::OldestArrivalLocked()
    const {
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const auto& q : pending_) {
    if (!q.empty()) oldest = std::min(oldest, q.front().arrival);
  }
  return oldest;
}

bool AsyncEngine::DrainSatisfiedLocked(uint64_t watermark) const {
  return outstanding_.empty() || *outstanding_.begin() >= watermark;
}

namespace {

/// Resolves ONE submitter: its callback runs before its future becomes
/// ready, and a throwing callback fails only this submitter's future —
/// never another joiner's or the primary's. The single definition for
/// every delivery site (dispatcher and admission shed), because the
/// double-set / exception-to-promise fallback is easy to get subtly
/// wrong in a second copy.
void DeliverResult(std::promise<EstimateResult>* promise,
                   const std::function<void(const EstimateResult&)>& callback,
                   const EstimateResult& value) {
  try {
    if (callback) callback(value);
    promise->set_value(value);
  } catch (...) {
    try {
      promise->set_exception(std::current_exception());
    } catch (const std::future_error&) {
      // value already set before the callback threw
    }
  }
}

}  // namespace

std::future<EstimateResult> AsyncEngine::Submit(
    NaruEstimator* est, EstimateRequest request,
    std::function<void(const EstimateResult&)> on_complete) {
  // Serialize the canonical query bytes ONCE, here: they become both the
  // tail of the in-flight duplicate-sharing key and — riding inside
  // request.key — the engine's batch-pass key, which used to re-serialize
  // them per batch.
  if (request.key.empty()) AppendQueryKey(request.query, &request.key);
  // Deadline-carrying requests never share a computation: whether a
  // request is shed is decided by ITS deadline alone.
  const bool sharable = !request.options.has_deadline();
  std::string key;
  if (sharable) {
    key = InflightKeyPrefix(est, request);
    key += request.key;
  }
  std::future<EstimateResult> result;
  // An admission victim evicted from the pending queues; its (and its
  // joiners') shed results are delivered OUTSIDE the lock.
  std::unique_ptr<Pending> victim;
  bool victim_evicted = false;
  // True when the victim was chosen because its own deadline had already
  // expired (satellite of the admission policy below): such victims get a
  // DEADLINE_EXCEEDED result instead of RESOURCE_EXHAUSTED.
  bool victim_expired = false;
  // Retry-after hint priced under the lock (pending depth × smoothed
  // per-request service time); attached to RESOURCE_EXHAUSTED results.
  double retry_ms = 0.0;
  {
    MutexLock lock(&mu_);
    ++stats_.submitted;
    if (sharable) {
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        // An identical twin is pending or mid-walk: join it. No queue
        // entry, no extra computation — the twin's delivery resolves this
        // future. Joiners never trip admission control: they add no work.
        std::promise<EstimateResult> promise;
        result = promise.get_future();
        it->second->promises.push_back(std::move(promise));
        it->second->callbacks.push_back(std::move(on_complete));
        it->second->arrivals.push_back(std::chrono::steady_clock::now());
        ++stats_.joined_duplicates;
        return result;
      }
    }
    const size_t pri = PriorityIndex(request.options.priority);
    // Admission control: bounded pending queues shed the LOWEST class
    // first. With the queues full, find the lowest class holding pending
    // work; if the incoming request outranks it, that class's OLDEST
    // request is evicted (typed RESOURCE_EXHAUSTED) to admit the
    // incoming one — otherwise the incoming request is itself (tied-)
    // lowest and is rejected the same way. A higher class is therefore
    // never admission-shed while a lower class has pending work.
    if (cfg_.max_pending > 0 && TotalPendingLocked() >= cfg_.max_pending) {
      // Retry hint for whichever request ends up RESOURCE_EXHAUSTED:
      // current depth × smoothed per-request service time, floored so
      // the hint is always positive even before any batch has run.
      retry_ms = std::max(
          0.5, static_cast<double>(TotalPendingLocked()) * ewma_service_ms_);
      // Deadline-aware victim choice FIRST: a pending request whose
      // deadline has ALREADY expired is doomed — the dispatcher would
      // shed it at dispatch anyway — so evicting it admits the incoming
      // request at zero real cost, regardless of class order (evicting
      // an expired high-priority request to admit a low one is still
      // free). The scan only touches classes that hold deadline-carrying
      // requests, so the common all-deadline-free backlog pays nothing.
      const auto admit_now = std::chrono::steady_clock::now();
      size_t vic_class = kNumPriorities;
      size_t vic_idx = 0;
      for (size_t c = 0; c < kNumPriorities && vic_class == kNumPriorities;
           ++c) {
        if (pending_deadlines_[c] == 0) continue;
        const auto& q = pending_[c];
        for (size_t j = 0; j < q.size(); ++j) {
          const EstimateOptions& opt = q[j].request.options;
          if (opt.has_deadline() && DeadlineExpired(opt.deadline, admit_now)) {
            vic_class = c;
            vic_idx = j;
            break;
          }
        }
      }
      if (vic_class != kNumPriorities) {
        auto& q = pending_[vic_class];
        victim = std::make_unique<Pending>(std::move(q[vic_idx]));
        q.erase(q.begin() + static_cast<ptrdiff_t>(vic_idx));
        --pending_deadlines_[vic_class];  // expired victims carry deadlines
        victim_evicted = true;
        victim_expired = true;
        // Deadline-carrying requests are never sharable, so an expired
        // victim has no in-flight key and no joiners.
        outstanding_.erase(victim->seq);
        ++stats_.shed_admission;
        ++stats_.expired_victims;
        ++stats_.completed;
      } else {
        size_t lowest = 0;
        while (lowest < kNumPriorities && pending_[lowest].empty()) ++lowest;
        if (lowest < pri) {
          victim = std::make_unique<Pending>(
              std::move(pending_[lowest].front()));
          pending_[lowest].pop_front();
          if (victim->request.options.has_deadline()) {
            --pending_deadlines_[lowest];
          }
          victim_evicted = true;
          if (!victim->inflight_key.empty()) {
            inflight_.erase(victim->inflight_key);
          }
          outstanding_.erase(victim->seq);
          // Joiners riding the victim are shed with it: every one of them
          // receives (and is counted as) an admission-shed delivery.
          stats_.shed_admission += 1 + victim->joiners->promises.size();
          stats_.completed += 1 + victim->joiners->promises.size();
        } else {
          // Reject the incoming request: never enqueued, never sequenced —
          // resolve it right here (below, outside the lock).
          ++stats_.shed_admission;
          ++stats_.completed;
        }
      }
    }
    if (victim == nullptr && cfg_.max_pending > 0 &&
        TotalPendingLocked() >= cfg_.max_pending) {
      // The incoming request was the one shed. (Never default-construct
      // a Pending: EstimateRequest's default query is invalid.)
      victim = std::make_unique<Pending>(
          Pending{est,
                  std::move(request),
                  std::promise<EstimateResult>(),
                  std::move(on_complete),
                  std::chrono::steady_clock::now(),
                  /*seq=*/0,
                  std::string(),
                  std::make_shared<Joiners>()});
      result = victim->promise.get_future();
    } else {
      Pending p{est,
                std::move(request),
                std::promise<EstimateResult>(),
                std::move(on_complete),
                std::chrono::steady_clock::now(),
                next_seq_++,
                std::move(key),
                std::make_shared<Joiners>()};
      result = p.promise.get_future();
      if (sharable) inflight_.emplace(p.inflight_key, p.joiners);
      outstanding_.insert(p.seq);
      if (p.request.options.has_deadline()) ++pending_deadlines_[pri];
      pending_[pri].push_back(std::move(p));
      stats_.max_pending_seen =
          std::max(stats_.max_pending_seen, TotalPendingLocked());
    }
  }
  if (victim != nullptr) {
    // Deliver the shed result on this thread: a callback failure is
    // confined to the shed request's own future, as everywhere else.
    const auto now = std::chrono::steady_clock::now();
    const size_t shed_class = PriorityIndex(victim->request.options.priority);
    std::vector<double> shed_queue_ms;  // folded into class_queue_ below
    // A victim whose deadline had already expired while it waited resolves
    // DEADLINE_EXCEEDED, not RESOURCE_EXHAUSTED: it was doomed regardless
    // of queue pressure, and a retry hint would be misleading —
    // resubmitting an expired request is pointless.
    const Status admission_shed =
        Status::ResourceExhausted("pending queue full: admission shed");
    EstimateResult shed = EstimateResult::Shed(
        victim_expired ? Status::DeadlineExceeded(
                             "deadline expired while pending; evicted at "
                             "admission")
                       : admission_shed);
    shed.retry_after_ms = victim_expired ? 0.0 : retry_ms;
    shed.queue_ms = std::max(
        0.0,
        std::chrono::duration<double, std::milli>(now - victim->arrival)
            .count());
    shed_queue_ms.push_back(shed.queue_ms);
    DeliverResult(&victim->promise, victim->on_complete, shed);
    for (size_t j = 0; j < victim->joiners->promises.size(); ++j) {
      EstimateResult joined = EstimateResult::Shed(admission_shed);
      joined.retry_after_ms = retry_ms;
      joined.queue_ms = std::max(
          0.0, std::chrono::duration<double, std::milli>(
                   now - victim->joiners->arrivals[j])
                   .count());
      shed_queue_ms.push_back(joined.queue_ms);
      DeliverResult(&victim->joiners->promises[j],
                    victim->joiners->callbacks[j], joined);
    }
    {
      // Shed deliveries count toward the per-class queue-latency view
      // too: the caller waited that long for SOME answer. Joiners share
      // the victim's in-flight key, hence its priority class.
      MutexLock lock(&mu_);
      for (double q : shed_queue_ms) class_queue_[shed_class].Add(q);
    }
    if (victim_evicted) {
      // The eviction freed a seq below some Drain watermark, and the
      // incoming request was enqueued: wake both sides.
      drain_cv_.NotifyAll();
      cv_.NotifyAll();
    }
    return result;
  }
  cv_.NotifyAll();
  return result;
}

void AsyncEngine::Drain() {
  MutexLock lock(&mu_);
  // Wait until no primary submitted before this call is still
  // outstanding. Priority flushing dispatches primaries out of
  // submission order, so the condition is set-emptiness below the
  // watermark, not a completion count. It also covers every pre-Drain
  // joiner: a joiner delivers exactly when its (earlier-submitted, hence
  // below-watermark) primary does.
  const uint64_t watermark = next_seq_;
  ++drain_waiters_;
  cv_.NotifyAll();  // flush pending work now instead of at the deadline
  while (!DrainSatisfiedLocked(watermark)) drain_cv_.Wait(mu_);
  --drain_waiters_;
}

AsyncEngineStats AsyncEngine::async_stats() const {
  MutexLock lock(&mu_);
  AsyncEngineStats snapshot = stats_;
  for (size_t c = 0; c < kNumPriorities; ++c) {
    ClassQueueStats& cls = snapshot.class_queue[c];
    cls.queued = class_queue_[c].count();
    cls.queue_p50_ms = class_queue_[c].Quantile(0.5);
    cls.queue_p99_ms = class_queue_[c].Quantile(0.99);
    cls.queue_max_ms = class_queue_[c].max_ms();
  }
  return snapshot;
}

std::string FormatEngineStats(const EngineStats& engine,
                              const AsyncEngineStats& async) {
  std::string out;
  out += StrFormat(
      "# async: %zu submitted, %zu completed, %zu batches (largest %zu), "
      "%zu joined twins, %zu admission-shed, peak pending %zu; %zu size / "
      "%zu deadline / %zu drain flushes, %zu deadline reorders\n",
      async.submitted, async.completed, async.batches, async.largest_batch,
      async.joined_duplicates, async.shed_admission, async.max_pending_seen,
      async.size_flushes, async.deadline_flushes, async.drain_flushes,
      async.deadline_reorders);
  out += StrFormat(
      "# engine: %zu queries (%zu sampled, %zu enumerated, %zu exact "
      "shortcuts, %zu shed on deadline, %zu abandoned mid-walk, %zu shed "
      "at admission)\n",
      engine.queries, engine.sampled, engine.enumerated,
      engine.exact_shortcuts, engine.shed_deadline, engine.shed_midwalk,
      async.shed_admission);
  // An admission-shed caller received a shed result the engine never saw.
  out += StrFormat(
      "# results: %zu cache_hit / %zu exact / %zu enumerated / %zu "
      "planned_group / %zu shed; %zu priority flushes\n",
      engine.results_cache_hit, engine.results_exact,
      engine.results_enumerated, engine.results_planned,
      engine.results_shed + async.shed_admission, async.priority_flushes);
  out += StrFormat(
      "# caches: memo %zu hits / %zu misses / %zu evictions (%zu entries, "
      "%.1f KB)\n",
      engine.memo_hits, engine.memo_misses, engine.memo_evictions,
      engine.memo_entries, engine.memo_bytes / 1024.0);
  out += StrFormat(
      "# plans: %zu queries in %zu trees over %zu batches, avg tree %.1f, "
      "prefix-share ratio %.3f (%zu of %zu column walks shared)\n",
      engine.planned_queries, engine.plan_trees, engine.plan_batches,
      engine.plan_trees == 0 ? 0.0
                             : static_cast<double>(engine.planned_queries) /
                                   static_cast<double>(engine.plan_trees),
      engine.prefix_share_ratio(), engine.plan_shared_cols,
      engine.plan_walk_cols);
  out += StrFormat("# plan trees: max fork depth %zu, max fanout %zu\n",
                   engine.plan_max_depth, engine.plan_max_fanout);
  out += StrFormat("# workspaces created: %zu\n", engine.workspaces_created);
  if (async.expired_victims > 0) {
    out += StrFormat(
        "# admission victims already expired when evicted: %zu\n",
        async.expired_victims);
  }
  static const char* kClassNames[3] = {"low", "normal", "high"};
  for (size_t c = 0; c < engine.class_latency.size(); ++c) {
    const ClassLatencyStats& compute = engine.class_latency[c];
    const ClassQueueStats& queue = async.class_queue[c];
    if (compute.results == 0 && queue.queued == 0) continue;
    out += StrFormat(
        "# class %-6s %zu results, compute p50/p99/max %.3f/%.3f/%.3f ms",
        kClassNames[c], compute.results, compute.compute_p50_ms,
        compute.compute_p99_ms, compute.compute_max_ms);
    if (queue.queued > 0) {
      out += StrFormat(", queue (%zu measured) p50/p99/max %.3f/%.3f/%.3f ms",
                       queue.queued, queue.queue_p50_ms, queue.queue_p99_ms,
                       queue.queue_max_ms);
    }
    out += "\n";
  }
  return out;
}

void AsyncEngine::DispatcherLoop() {
  const auto max_wait = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.max_wait_ms));

  mu_.Lock();
  for (;;) {
    while (!stop_ && TotalPendingLocked() == 0) cv_.Wait(mu_);
    if (TotalPendingLocked() == 0) {  // stop_ and nothing left: done
      mu_.Unlock();
      return;
    }

    // Let the micro-batch accumulate until it is full, the oldest pending
    // submission (across ALL priority classes — a waiting low-priority
    // request still bounds the flush latency) hits its deadline, or
    // someone needs results now.
    auto deadline = OldestArrivalLocked() + max_wait;
    while (!stop_ && drain_waiters_ == 0 &&
           TotalPendingLocked() < cfg_.max_batch_size &&
           std::chrono::steady_clock::now() < deadline) {
      cv_.WaitUntil(mu_, deadline);
      deadline = OldestArrivalLocked() + max_wait;
    }

    // Cut one micro-batch off the queues, HIGHEST priority class first.
    // Within a class, deadline-carrying requests are cut first, TIGHTEST
    // deadline first (a near-deadline request must not be stranded
    // behind deadline-free traffic); deadline-free requests keep FIFO
    // among themselves. Later submissions keep arriving and accumulating
    // while this batch runs — that overlap is the point.
    //
    // EXCEPT while draining (or stopping): then cut FIFO BY ARRIVAL
    // across classes (ignoring deadlines too), so a pre-Drain
    // low-priority request cannot be starved past the barrier by ongoing
    // higher-priority or tighter-deadline traffic — Drain's "bounded by
    // work submitted before the call" guarantee outranks every
    // scheduling preference for its duration.
    const size_t total_pending = TotalPendingLocked();
    const size_t take = std::min(total_pending, cfg_.max_batch_size);
    const bool fifo_cut = stop_ || drain_waiters_ > 0;
    std::vector<Pending> batch;
    batch.reserve(take);
    // Per-class max arrival among selected requests (class-jump
    // detection below).
    std::array<std::chrono::steady_clock::time_point, kNumPriorities>
        selected_max_arrival;
    selected_max_arrival.fill(std::chrono::steady_clock::time_point::min());
    bool deadline_reorder = false;
    if (fifo_cut) {
      while (batch.size() < take) {
        size_t best = kNumPriorities;
        for (size_t pri = 0; pri < kNumPriorities; ++pri) {
          if (!pending_[pri].empty() &&
              (best == kNumPriorities ||
               pending_[pri].front().arrival < pending_[best].front().arrival)) {
            best = pri;
          }
        }
        if (pending_[best].front().request.options.has_deadline()) {
          --pending_deadlines_[best];
        }
        batch.push_back(std::move(pending_[best].front()));
        pending_[best].pop_front();
      }
    } else {
      for (size_t pri = kNumPriorities; pri-- > 0 && batch.size() < take;) {
        auto& q = pending_[pri];
        while (!q.empty() && batch.size() < take) {
          // Tightest deadline first; ties and the deadline-free
          // remainder resolve FIFO (index 0 = oldest). The scan only
          // runs while the class holds deadline-carrying requests — the
          // common all-deadline-free backlog stays O(1) per slot.
          size_t pick = 0;
          if (pending_deadlines_[pri] > 0) {
            auto best_deadline = kNoDeadline;
            for (size_t j = 0; j < q.size(); ++j) {
              const EstimateOptions& opt = q[j].request.options;
              if (opt.has_deadline() && opt.deadline < best_deadline) {
                best_deadline = opt.deadline;
                pick = j;
              }
            }
            --pending_deadlines_[pri];  // the pick carries a deadline
            if (pick != 0) deadline_reorder = true;
          }
          selected_max_arrival[pri] =
              std::max(selected_max_arrival[pri], q[pick].arrival);
          batch.push_back(std::move(q[pick]));
          q.erase(q.begin() + static_cast<ptrdiff_t>(pick));
        }
      }
    }
    ++stats_.batches;
    stats_.largest_batch = std::max(stats_.largest_batch, take);
    // Flush-reason attribution: a drain/stop flush is a drain flush even
    // when the queue happens to hold max_batch_size requests — the
    // results were demanded NOW, the size was incidental. (The reverse
    // ordering used to misattribute it as a size flush.)
    if (fifo_cut) {
      ++stats_.drain_flushes;
    } else if (take >= cfg_.max_batch_size) {
      ++stats_.size_flushes;
    } else {
      ++stats_.deadline_flushes;
    }
    if (deadline_reorder) ++stats_.deadline_reorders;
    // A priority flush = a CLASS jumped the queue: some selected request
    // arrived after a request left behind in a strictly lower class.
    // (Within-class deadline reordering is counted separately above and
    // must not masquerade as a class jump.)
    if (take < total_pending) {
      for (size_t pri = 1; pri < kNumPriorities && !fifo_cut; ++pri) {
        bool jumped = false;
        for (size_t lower = 0; lower < pri; ++lower) {
          if (!pending_[lower].empty() &&
              pending_[lower].front().arrival < selected_max_arrival[pri]) {
            jumped = true;
          }
        }
        if (jumped) {
          ++stats_.priority_flushes;
          break;
        }
      }
    }
    mu_.Unlock();

    const auto flush_time = std::chrono::steady_clock::now();
    std::vector<NaruEstimator*> ests;
    std::vector<EstimateRequest> requests;
    ests.reserve(take);
    requests.reserve(take);
    for (Pending& p : batch) {
      ests.push_back(p.est);
      requests.push_back(std::move(p.request));  // batch keeps promises only
    }
    std::vector<EstimateResult> out;
    std::exception_ptr batch_error;
    try {
      engine_.EstimateMixedBatch(ests, requests, &out);
    } catch (...) {
      // Estimation itself is noexcept in practice; this guards allocation
      // failure so waiters never hang.
      batch_error = std::current_exception();
    }
    if (batch_error != nullptr) {
      // Status end to end: an engine-side failure becomes a typed
      // Internal result on every request of the batch.
      out.assign(take, EstimateResult{});
      for (EstimateResult& r : out) {
        r.status = Status::Internal("batch estimation failed");
      }
    }
    // Smoothed per-request service time for the retry-after hint:
    // batch wall time amortized over its width.
    const double batch_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - flush_time)
                                .count();
    for (size_t i = 0; i < take; ++i) {
      out[i].queue_ms = std::chrono::duration<double, std::milli>(
                            flush_time - batch[i].arrival)
                            .count();
    }

    // Unregister the batch's in-flight keys BEFORE delivering: a joiner
    // that slipped in while the batch was computing is captured here (its
    // promise is already in the Joiners list), and any duplicate arriving
    // after this point starts a fresh computation that will hit the
    // engine's memo.
    size_t delivered = take;
    mu_.Lock();
    for (const Pending& p : batch) {
      if (!p.inflight_key.empty()) inflight_.erase(p.inflight_key);
      delivered += p.joiners->promises.size();
    }
    mu_.Unlock();

    // Per-request delivery: each submitter's callback runs on the
    // dispatcher thread before ITS future becomes ready (DeliverResult).
    // (class, queue_ms) per delivered result, folded into class_queue_
    // under the lock below.
    std::vector<std::pair<size_t, double>> queue_samples;
    queue_samples.reserve(delivered);
    for (size_t i = 0; i < take; ++i) {
      Pending& p = batch[i];
      const size_t cls = PriorityIndex(requests[i].options.priority);
      queue_samples.emplace_back(cls, out[i].queue_ms);
      DeliverResult(&p.promise, p.on_complete, out[i]);
      for (size_t j = 0; j < p.joiners->promises.size(); ++j) {
        // A joiner's queue time runs from its OWN submission to the
        // twin's dispatch (0 when it joined a batch already mid-walk).
        EstimateResult joined = out[i];
        joined.queue_ms = std::max(
            0.0, std::chrono::duration<double, std::milli>(
                     flush_time - p.joiners->arrivals[j])
                     .count());
        queue_samples.emplace_back(cls, joined.queue_ms);
        DeliverResult(&p.joiners->promises[j], p.joiners->callbacks[j],
                      joined);
      }
    }

    mu_.Lock();
    stats_.completed += delivered;
    for (const Pending& p : batch) outstanding_.erase(p.seq);
    const double per_req = batch_ms / static_cast<double>(take);
    ewma_service_ms_ = ewma_service_ms_ == 0.0
                           ? per_req
                           : 0.8 * ewma_service_ms_ + 0.2 * per_req;
    for (const auto& s : queue_samples) class_queue_[s.first].Add(s.second);
    drain_cv_.NotifyAll();  // a Drain watermark may have been reached
  }
}

}  // namespace naru
