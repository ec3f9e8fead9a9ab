// Async serving latency: Submit()-based streaming vs the blocking path,
// under OPEN-LOOP load.
//
// bench_serving_throughput measures closed-loop throughput (the next batch
// waits for the previous one); real servers face open-loop arrivals — a
// Poisson process that does not slow down when the server falls behind, so
// queueing delay shows up in the latency a client observes. This bench
// replays one such trace two ways:
//
//   blocking   sleep to each arrival, then answer that single query with a
//              blocking EstimateBatch before reading the next — request
//              arrival and sampling never overlap, so any service backlog
//              is paid as queueing delay;
//   async      sleep to each arrival, Submit() to the AsyncEngine, move
//              on — the dispatcher coalesces adaptive micro-batches
//              (flush on max-batch or the max-wait deadline) while later
//              requests keep arriving.
//
// Latency is measured against the SCHEDULED arrival (completion − arrival),
// so it includes queueing delay. Every configuration must produce estimates
// bit-identical to the sequential per-query path (checked; nonzero exit on
// mismatch) — the grid trades latency against batching, never accuracy.
//
// Knobs (env or flags, see bench_common.h):
//   --threads N         engine threads                  (default 4, smoke 2)
//   --serve-requests N  trace length                    (default 256)
//   --serve-unique N    distinct query templates        (default 64)
//   --serve-samples N   sample paths per query          (default 256)
//   --serve-qps X       open-loop arrival rate; 0 = all arrive at t=0
//                       (default 200, smoke 0)
//   --max-batch N       async flush size                (default 32)
//   --max-wait-ms X     restrict the deadline grid to {X} (default 0/2/8)
//   --serve-mixed-priority  also replay the trace with cycling priority
//                       classes and every 4th request carrying an expired
//                       deadline: asserts typed DEADLINE_EXCEEDED results,
//                       shed counters, and priority-ordered flushing
//                       (default off; ON under --smoke so CI exercises
//                       the shedding path on every push)
//   --serve-saturation  also replay the trace as an open-loop burst
//                       (QPS >> service rate) against a BOUNDED pending
//                       queue: asserts the admission policy — queue depth
//                       never exceeds --max-pending, only the low class
//                       is admission-shed while it has pending work
//                       (typed RESOURCE_EXHAUSTED), and every non-shed
//                       result stays bit-identical to the unsaturated
//                       sequential run (default off; ON under --smoke)
//   --max-pending N     pending-queue bound for the saturation phase
//                       (default 8)
//   --smoke             CI preset: tiny model, no arrival sleeps
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/async_engine.h"
#include "util/string_util.h"

namespace naru {
namespace bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration MsToDuration(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

void PrintRow(const char* mode, double wait_ms, double achieved_qps,
              const QuantileSketch& latency_ms, size_t batches,
              size_t largest) {
  std::printf("%10s %9s %9.1f %8.2f %8.2f %8.2f %8.2f %8zu %8zu\n", mode,
              wait_ms < 0 ? "-" : StrFormat("%.1f", wait_ms).c_str(),
              achieved_qps, latency_ms.Quantile(0.5), latency_ms.Quantile(0.9),
              latency_ms.Quantile(0.99), latency_ms.Max(), batches, largest);
}

int Run() {
  const BenchEnv env = GetBenchEnv();
  const bool smoke = GetEnvBool("NARU_SMOKE", false);
  const size_t rows = std::min<size_t>(env.dmv_rows, smoke ? 4000 : 20000);
  const size_t epochs = std::min<size_t>(env.epochs, smoke ? 1 : 3);
  const size_t num_requests = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_REQUESTS", smoke ? 64 : 256), 1, 1 << 22));
  const size_t num_unique = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_UNIQUE", smoke ? 24 : 64), 1, 1 << 22));
  const size_t num_samples = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_SAMPLES", smoke ? 128 : 256), 1, 1 << 20));
  const double qps =
      std::max(GetEnvDouble("NARU_SERVE_QPS", smoke ? 0.0 : 200.0), 0.0);
  const size_t threads = env.threads > 0 ? env.threads : (smoke ? 2 : 4);
  const size_t max_batch = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_MAX_BATCH", 32), 1, 1 << 20));
  std::vector<double> wait_grid = {0.0, 2.0, 8.0};
  const double wait_override = GetEnvDouble("NARU_MAX_WAIT_MS", -1.0);
  if (wait_override >= 0) wait_grid = {wait_override};
  if (smoke && wait_override < 0) wait_grid = {1.0};

  PrintBanner("Async serving latency: open-loop Submit vs blocking",
              StrFormat("rows=%zu requests=%zu unique=%zu samples=%zu "
                        "qps=%.0f threads=%zu max_batch=%zu",
                        rows, num_requests, num_unique, num_samples, qps,
                        threads, max_batch));

  Table table = MakeDmvLike(rows, env.seed);
  auto model = TrainModel(table, DmvModelConfig(env.seed + 5), epochs,
                          "Naru(async)");

  WorkloadConfig wcfg;
  wcfg.num_queries = num_unique;
  wcfg.min_filters = 1;
  wcfg.max_filters = 8;
  wcfg.seed = env.seed + 17;
  const std::vector<Query> pool = GenerateWorkload(table, wcfg);
  const std::vector<OpenLoopRequest> trace =
      GenerateOpenLoopTrace(num_requests, qps, pool.size(), env.seed + 29);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = num_samples;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, model->SizeBytes());

  // The bit-identity reference: the sequential per-query path.
  std::vector<double> reference(pool.size());
  {
    ScopedSerialRegion serial;
    for (size_t i = 0; i < pool.size(); ++i) {
      reference[i] = est.EstimateSelectivity(pool[i]);
    }
  }

  std::printf("\n%10s %9s %9s %8s %8s %8s %8s %8s %8s\n", "mode", "wait_ms",
              "qps", "p50_ms", "p90_ms", "p99_ms", "max_ms", "batches",
              "largest");

  bool all_identical = true;

  BenchJsonWriter json("serving_async");
  json.SetConfig("rows", rows);
  json.SetConfig("requests", num_requests);
  json.SetConfig("unique", num_unique);
  json.SetConfig("samples", num_samples);
  json.SetConfig("qps", qps);
  json.SetConfig("threads", threads);
  json.SetConfig("max_batch", max_batch);
  json.SetConfig("smoke", smoke);
  // One row per mode; "mode" is the row identity the regression checker
  // joins on, numeric fields are the gated metrics.
  const auto add_latency_row = [&json](const std::string& mode, double qps_out,
                                       const QuantileSketch& lat,
                                       size_t batches, size_t largest) {
    json.AddRow(JsonObject{{"mode", mode},
                           {"qps", qps_out},
                           {"p50_ms", lat.Quantile(0.5)},
                           {"p90_ms", lat.Quantile(0.9)},
                           {"p99_ms", lat.Quantile(0.99)},
                           {"max_ms", lat.Max()},
                           {"batches", batches},
                           {"largest_batch", largest}});
  };

  // ---- Blocking baseline: arrival and sampling never overlap. ----
  {
    InferenceEngineConfig ecfg;
    ecfg.num_threads = threads;
    InferenceEngine engine(ecfg);
    QuantileSketch latency_ms;
    std::vector<EstimateRequest> one;
    std::vector<EstimateResult> out;
    const auto start = SteadyClock::now();
    for (const OpenLoopRequest& req : trace) {
      const auto scheduled = start + MsToDuration(req.arrival_ms);
      std::this_thread::sleep_until(scheduled);
      one.assign(1, EstimateRequest(pool[req.pool_index]));
      engine.EstimateBatch(&est, one, &out);
      if (!out[0].ok() || out[0].estimate != reference[req.pool_index]) {
        all_identical = false;
      }
      const std::chrono::duration<double, std::milli> lat =
          SteadyClock::now() - scheduled;
      latency_ms.Add(lat.count());
    }
    const std::chrono::duration<double> total = SteadyClock::now() - start;
    const double achieved =
        total.count() > 0 ? num_requests / total.count() : 0.0;
    PrintRow("blocking", -1.0, achieved, latency_ms, num_requests, 1);
    add_latency_row("blocking", achieved, latency_ms, num_requests, 1);
  }

  // ---- Async grid: one max-wait deadline per row. ----
  for (const double wait_ms : wait_grid) {
    AsyncEngineConfig acfg;
    acfg.max_batch_size = max_batch;
    acfg.max_wait_ms = wait_ms;
    acfg.engine.num_threads = threads;
    AsyncEngine engine(acfg);

    std::vector<double> latencies(trace.size(), 0.0);
    std::vector<std::future<EstimateResult>> futures;
    futures.reserve(trace.size());
    const auto start = SteadyClock::now();
    for (size_t i = 0; i < trace.size(); ++i) {
      const auto scheduled = start + MsToDuration(trace[i].arrival_ms);
      std::this_thread::sleep_until(scheduled);
      futures.push_back(engine.Submit(
          &est, EstimateRequest(pool[trace[i].pool_index]),
          // Runs on the dispatcher thread right before the future
          // resolves; the later future.get() sequences the write.
          [&latencies, i, scheduled](const EstimateResult&) {
            const std::chrono::duration<double, std::milli> lat =
                SteadyClock::now() - scheduled;
            latencies[i] = lat.count();
          }));
    }
    engine.Drain();
    const std::chrono::duration<double> total = SteadyClock::now() - start;

    QuantileSketch latency_ms;
    for (size_t i = 0; i < trace.size(); ++i) {
      const EstimateResult r = futures[i].get();
      if (!r.ok() || r.estimate != reference[trace[i].pool_index]) {
        all_identical = false;
      }
      latency_ms.Add(latencies[i]);
    }
    const auto astats = engine.async_stats();
    const double achieved =
        total.count() > 0 ? num_requests / total.count() : 0.0;
    PrintRow("async", wait_ms, achieved, latency_ms, astats.batches,
             astats.largest_batch);
    add_latency_row(StrFormat("async-wait%.1f", wait_ms), achieved,
                    latency_ms, astats.batches, astats.largest_batch);
  }

  // ---- Mixed-priority, short-deadline traffic (the shedding path). ----
  //
  // Run by default under --smoke (so CI builds and exercises priority
  // flushing and deadline shedding on every push) or explicitly with
  // --serve-mixed-priority. Priorities cycle low/normal/high in
  // submission order; every 4th request carries an already-expired
  // deadline and MUST come back as a typed DEADLINE_EXCEEDED result —
  // never an exception, never a block — while every live request must
  // stay bit-identical to the sequential path.
  bool shedding_ok = true;
  if (GetEnvBool("NARU_SERVE_MIXED_PRIORITY", smoke)) {
    AsyncEngineConfig acfg;
    // Small flushes: backlog forces reordering. --max-batch can shrink
    // the geometry further but never widen it past the backlog.
    acfg.max_batch_size = std::min<size_t>(max_batch, 8);
    acfg.max_wait_ms = 0.5;
    acfg.engine.num_threads = threads;
    AsyncEngine engine(acfg);

    constexpr RequestPriority kCycle[3] = {RequestPriority::kLow,
                                           RequestPriority::kNormal,
                                           RequestPriority::kHigh};
    std::vector<std::future<EstimateResult>> futures;
    std::vector<uint8_t> expired(trace.size(), 0);
    futures.reserve(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {  // burst: no arrival sleeps
      EstimateRequest request(pool[trace[i].pool_index]);
      request.options.priority = kCycle[i % 3];
      if (i % 4 == 3) {
        request.options.deadline = EstimateOptions::DeadlineInMs(-1.0);
        expired[i] = 1;
      }
      futures.push_back(engine.Submit(&est, std::move(request)));
    }
    // Wait on the futures rather than Drain(): an active drain reverts
    // flushing to FIFO-by-arrival (its no-starvation guarantee), which
    // would suppress the priority reordering this phase asserts.

    size_t shed = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
      const EstimateResult r = futures[i].get();
      if (expired[i]) {
        if (r.status.code() != StatusCode::kDeadlineExceeded) {
          shedding_ok = false;
        }
        ++shed;
      } else if (!r.ok() || r.estimate != reference[trace[i].pool_index]) {
        all_identical = false;
      }
    }
    const EngineStats stats = engine.engine()->stats();
    const auto astats = engine.async_stats();
    std::printf(
        "\nmixed-priority trace: %zu requests, %zu expired deadlines -> "
        "%zu shed (engine counted %zu), %zu priority flushes over %zu "
        "batches\n",
        trace.size(), shed, stats.results_shed, stats.shed_deadline,
        astats.priority_flushes, astats.batches);
    if (stats.shed_deadline != shed || stats.results_shed != shed) {
      shedding_ok = false;
    }
    // With a burst of 3 interleaved classes against 8-wide flushes, the
    // dispatcher must have jumped the FIFO order at least once. Whether a
    // backlog forms is scheduling-timing-coupled, so the trigger is
    // waived under NARU_SMOKE_NO_PERF_ASSERT (sanitizer legs) — the
    // typed-shed and bit-identity checks above stay enforced.
    if (PerfAssertsEnabled() && trace.size() >= 32 &&
        astats.priority_flushes == 0) {
      shedding_ok = false;
    }
    std::printf("shedding path typed and counted: %s\n",
                shedding_ok ? "yes" : "NO (BUG)");
    json.AddRow(JsonObject{{"mode", "mixed-priority"},
                           {"shed_deadline", stats.shed_deadline},
                           {"priority_flushes", astats.priority_flushes},
                           {"batches", astats.batches}});
  }

  // ---- Saturation: open-loop burst against a bounded pending queue. ----
  //
  // Run by default under --smoke or explicitly with --serve-saturation.
  // The burst submits far faster than the engine serves (caching off so
  // every request costs a walk), alternating low/high priority so a low
  // is always pending when a high arrives. Asserted invariants, per the
  // overload-safety contract:
  //   - the pending depth never exceeds max_pending (high-water mark);
  //   - highs are never admission-shed (a strictly lower class was always
  //     available when one arrived);
  //   - some lows ARE shed, each with a typed RESOURCE_EXHAUSTED result;
  //   - every non-shed result is bit-identical to the unsaturated
  //     sequential run with the same seed.
  bool saturation_ok = true;
  if (GetEnvBool("NARU_SERVE_SATURATION", smoke)) {
    const size_t max_pending = static_cast<size_t>(
        std::clamp<int64_t>(GetEnvInt("NARU_MAX_PENDING", 8), 1, 1 << 20));
    AsyncEngineConfig acfg;
    acfg.max_batch_size = 2;  // slow service: tiny batches, no deadline wait
    acfg.max_wait_ms = 0.0;
    acfg.max_pending = max_pending;
    acfg.engine.num_threads = threads;
    acfg.engine.cache_budget_bytes = 0;  // a real walk per request: overload
    AsyncEngine engine(acfg);

    // Mostly lows, with FEWER than max_pending highs spread through the
    // burst: the queue can then never hold highs alone, so every high
    // arrives while a strictly lower class has pending work — making
    // "highs are never admission-shed" a policy guarantee to assert, not
    // a race.
    const size_t num_highs = std::min(max_pending - 1, trace.size() / 8);
    const size_t high_stride =
        num_highs > 0 ? trace.size() / (num_highs + 1) : trace.size() + 1;
    std::vector<std::future<EstimateResult>> futures;
    std::vector<uint8_t> is_high(trace.size(), 0);
    futures.reserve(trace.size());
    size_t highs_sent = 0;
    for (size_t i = 0; i < trace.size(); ++i) {  // burst: no arrival sleeps
      EstimateRequest request(pool[trace[i].pool_index]);
      if (highs_sent < num_highs && (i + 1) % high_stride == 0) {
        is_high[i] = 1;
        ++highs_sent;
      }
      request.options.priority =
          is_high[i] ? RequestPriority::kHigh : RequestPriority::kLow;
      futures.push_back(engine.Submit(&est, std::move(request)));
    }
    engine.Drain();

    size_t shed_low = 0, shed_high = 0, served = 0;
    bool retry_hints_ok = true;
    double max_retry_hint_ms = 0.0;
    for (size_t i = 0; i < trace.size(); ++i) {
      const EstimateResult r = futures[i].get();
      if (r.status.code() == StatusCode::kResourceExhausted) {
        ++(is_high[i] ? shed_high : shed_low);
        // Every admission shed must carry a positive retry-after hint
        // (pending depth × smoothed service time, floored): a client that
        // obeys it stops hammering a full queue.
        if (!(r.retry_after_ms > 0.0)) retry_hints_ok = false;
        max_retry_hint_ms = std::max(max_retry_hint_ms, r.retry_after_ms);
      } else if (!r.ok() ||
                 r.estimate != reference[trace[i].pool_index]) {
        saturation_ok = false;  // admitted requests must stay exact
      } else {
        ++served;
      }
    }
    const auto astats = engine.async_stats();
    std::printf(
        "\nsaturation trace: %zu requests vs max_pending=%zu -> %zu served, "
        "%zu low / %zu high admission-shed (dispatcher counted %zu), peak "
        "pending %zu\n",
        trace.size(), max_pending, served, shed_low, shed_high,
        astats.shed_admission, astats.max_pending_seen);
    // Bounded depth, low-first shedding, and conservation: every request
    // either served or shed, and the counters agree.
    if (astats.max_pending_seen > max_pending) saturation_ok = false;
    if (shed_high != 0) saturation_ok = false;
    if (trace.size() >= 4 * max_pending && shed_low == 0) {
      saturation_ok = false;  // a real burst must have overflowed
    }
    if (astats.shed_admission != shed_low + shed_high) saturation_ok = false;
    if (astats.submitted != astats.completed) saturation_ok = false;
    if (!retry_hints_ok) saturation_ok = false;
    std::printf(
        "admission control bounded and low-shed-first: %s "
        "(retry hints positive: %s, max %.2f ms)\n",
        saturation_ok ? "yes" : "NO (BUG)", retry_hints_ok ? "yes" : "NO",
        max_retry_hint_ms);
    json.AddRow(JsonObject{{"mode", "saturation"},
                           {"shed_admission", astats.shed_admission},
                           {"served", served},
                           {"peak_pending", astats.max_pending_seen}});
  }

  json.Write();

  std::printf("\nestimates bit-identical across all configurations: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  return all_identical && shedding_ok && saturation_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
