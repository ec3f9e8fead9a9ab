// Adversarial serving matrix: every overload policy must fire, and the
// numbers feed the perf trajectory.
//
// bench_serving_async proves each overload mechanism in isolation with a
// hand-shaped trace. This bench replays the full adversarial scenario
// matrix (src/workload/adversarial.h) — selectivity-banded pools, skewed
// literals, cache-churning key streams, bursty open-loop arrivals,
// deadline pressure — through the AsyncEngine and asserts that the
// policies the matrix is shaped to trigger actually fired:
//
//   deadline shed      (expired_deadline_fraction > 0  -> shed_deadline)
//   admission shed     (bursty arrival vs bounded queue -> shed_admission)
//   priority flush     (same cell, inverted class mix  -> priority_flushes)
//   mid-walk abandon   (huge sample budget + tight live deadline
//                                                      -> shed_midwalk)
//
// Per scenario it reports latency percentiles against the scheduled
// arrival, achieved qps, q-error quantiles vs the pool's EXECUTED ground
// truth, and the shed counters, and writes everything to
// BENCH_adversarial.json for tools/check_bench_regression.py.
//
// Knobs (env or flags, see bench_common.h):
//   --threads N          engine threads              (default 4, smoke 2)
//   --serve-requests N   requests per scenario       (default 192, smoke 48)
//   --serve-unique N     pool entries per scenario   (default 32, smoke 24)
//   --serve-samples N    baseline sample budget      (default 256, smoke 128)
//   --smoke              CI preset: tiny model, no arrival sleeps, scaled
//                        mid-walk budgets
//
// The mid-walk cell's tight deadline is not a constant: it is one
// micro-batch of the cell's own walks, timed on this host when the cell
// starts, so abandonments keep landing mid-walk on fast and slow hosts
// alike.
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
#include "workload/adversarial.h"

namespace naru {
namespace bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration MsToDuration(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Q-error on cardinalities floored at one row (the zero band would
/// otherwise divide by zero; the floor is the standard convention).
double QError(double est_sel, double true_sel, double rows) {
  const double est = std::max(est_sel * rows, 1.0);
  const double truth = std::max(true_sel * rows, 1.0);
  return std::max(est / truth, truth / est);
}

/// Median wall time of one mid-walk micro-batch: `width` sampled pool
/// queries at `budget` paths each, served by a fresh cache-less engine
/// with `threads` workers (three batches of consecutive pool entries).
double MicroBatchMs(NaruEstimator* est, const std::vector<Query>& pool,
                    size_t budget, size_t width, size_t threads) {
  std::vector<EstimateRequest> sampled;
  for (const Query& q : pool) {
    if (est->sampler()->Classify(q) != ProgressiveSampler::Path::kSampled) {
      continue;
    }
    sampled.emplace_back(q);
    sampled.back().options.num_samples = budget;
  }
  NARU_CHECK(!sampled.empty());
  InferenceEngineConfig ecfg;
  ecfg.num_threads = threads;
  ecfg.cache_budget_bytes = 0;
  InferenceEngine engine(ecfg);
  std::vector<double> ms;
  std::vector<EstimateRequest> batch;
  std::vector<EstimateResult> out;
  for (size_t b = 0; b < 3; ++b) {
    batch.clear();
    for (size_t j = 0; j < width; ++j) {
      batch.push_back(sampled[(b * width + j) % sampled.size()]);
    }
    Stopwatch sw;
    engine.EstimateBatch(est, batch, &out);
    ms.push_back(sw.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[1];
}

int Run() {
  const BenchEnv env = GetBenchEnv();
  const bool smoke = GetEnvBool("NARU_SMOKE", false);
  const size_t rows = std::min<size_t>(env.dmv_rows, smoke ? 4000 : 20000);
  const size_t epochs = std::min<size_t>(env.epochs, smoke ? 1 : 3);
  const size_t num_requests = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_REQUESTS", smoke ? 48 : 192), 1, 1 << 22));
  const size_t pool_size = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_UNIQUE", smoke ? 24 : 32), 4, 1 << 20));
  const size_t num_samples = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_SAMPLES", smoke ? 128 : 256), 1, 1 << 20));
  const size_t threads = env.threads > 0 ? env.threads : (smoke ? 2 : 4);

  PrintBanner("Adversarial serving matrix: overload policies under sweep",
              StrFormat("rows=%zu requests/scenario=%zu pool=%zu samples=%zu "
                        "threads=%zu smoke=%d",
                        rows, num_requests, pool_size, num_samples, threads,
                        smoke ? 1 : 0));

  Table table = MakeDmvLike(rows, env.seed);
  auto model = TrainModel(table, DmvModelConfig(env.seed + 7), epochs,
                          "Naru(adversarial)");
  NaruEstimatorConfig ncfg;
  ncfg.num_samples = num_samples;
  ncfg.enumeration_threshold = 0;
  NaruEstimator est(model.get(), ncfg, model->SizeBytes());

  BenchJsonWriter json("adversarial");
  json.SetConfig("rows", rows);
  json.SetConfig("requests", num_requests);
  json.SetConfig("pool", pool_size);
  json.SetConfig("samples", num_samples);
  json.SetConfig("threads", threads);
  json.SetConfig("smoke", smoke);

  std::printf("\n%-22s %8s %8s %8s %8s %8s %6s %6s %6s %6s\n", "scenario",
              "qps", "p50_ms", "p99_ms", "qerr50", "qerr95", "dl", "adm",
              "mid", "pflush");

  bool ok = true;
  size_t total_shed_deadline = 0, total_shed_admission = 0;
  size_t total_shed_midwalk = 0, total_priority_flushes = 0;

  for (AdversarialScenario sc : AdversarialScenarioMatrix()) {
    // Keep the mid-walk cell CI-sized under --smoke: the contract is only
    // that a walk takes longer than the live deadline, so an abandonment
    // lands at a column-step boundary in between.
    if (smoke && sc.request_samples > 0) sc.request_samples = 4000;
    // Mid-walk cells get tiny flushes (each walk is huge, batching them
    // only adds queue delay). Bursty cells face a BOUNDED queue so the
    // admission policy is in play, with flushes strictly narrower than
    // the bound — a flush that swallows the whole queue leaves nothing
    // behind to jump ahead of, and priority flushing could never fire.
    const size_t max_batch =
        (sc.request_samples > 0 || sc.arrival == ArrivalKind::kBursty) ? 2
                                                                       : 8;
    AdversarialTrace trace = GenerateAdversarialTrace(
        table, sc, pool_size, num_requests, env.seed + 101);
    if (sc.request_samples > 0) {
      // The tight deadline is one micro-batch of this cell's walks on this
      // host: tights arriving during an in-flight batch are still live at
      // their (tightest-first) dispatch, and their own batch overruns it.
      // The pool does not depend on the deadline, so regenerating keeps
      // the pool and the arrivals.
      sc.tight_deadline_ms =
          MicroBatchMs(&est, trace.pool, sc.request_samples, max_batch,
                       threads);
      std::printf("# %s: tight deadline %.1f ms (one %zu x %zu-sample "
                  "micro-batch, timed here)\n",
                  sc.name.c_str(), sc.tight_deadline_ms, max_batch,
                  sc.request_samples);
      json.SetConfig(sc.name + "_tight_deadline_ms", sc.tight_deadline_ms);
      trace = GenerateAdversarialTrace(table, sc, pool_size, num_requests,
                                       env.seed + 101);
    }

    AsyncEngineConfig acfg;
    acfg.max_batch_size = max_batch;
    acfg.max_wait_ms = 0.5;
    acfg.max_pending = sc.arrival == ArrivalKind::kBursty ? 6 : 0;
    acfg.engine.num_threads = threads;
    AsyncEngine engine(acfg);

    // Smoke skips arrival sleeps EXCEPT on mid-walk cells: collapsing all
    // arrivals to t=0 there would let the whole tight-deadline population
    // expire inside the first in-flight batch, and the cell's point —
    // deadlines dying DURING a walk — would degenerate to dispatch sheds.
    // (The cell's ~250 qps trace costs <200 ms of wall-clock sleeping.)
    const bool sleep_arrivals = !smoke || sc.request_samples > 0;
    std::vector<double> latencies(trace.requests.size(), 0.0);
    std::vector<std::future<EstimateResult>> futures;
    futures.reserve(trace.requests.size());
    const auto start = SteadyClock::now();
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      SteadyClock::time_point scheduled;
      EstimateRequest request = [&] {
        if (!sleep_arrivals) {
          // Pin each request's RELATIVE deadline to its actual submit
          // instant instead of the collapsed schedule (otherwise a
          // "tight" deadline at arrival_ms=900 would be ~900ms of slack
          // when everything submits at t=0).
          scheduled = SteadyClock::now();
          return MaterializeRequest(
              trace, i,
              scheduled - MsToDuration(trace.requests[i].arrival_ms));
        }
        scheduled = start + MsToDuration(trace.requests[i].arrival_ms);
        std::this_thread::sleep_until(scheduled);
        return MaterializeRequest(trace, i, start);
      }();
      futures.push_back(engine.Submit(
          &est, std::move(request),
          // Runs on the dispatcher thread right before the future
          // resolves; the later future.get() sequences the write.
          [&latencies, i, scheduled](const EstimateResult&) {
            latencies[i] = std::chrono::duration<double, std::milli>(
                               SteadyClock::now() - scheduled)
                               .count();
          }));
    }
    // Wait on the futures rather than Drain(): an active drain reverts
    // flushing to FIFO-by-arrival (its no-starvation guarantee), which
    // would suppress both the priority reordering and the tightest-
    // deadline-first dispatch this matrix asserts.
    std::vector<EstimateResult> results;
    results.reserve(futures.size());
    for (auto& f : futures) results.push_back(f.get());
    const std::chrono::duration<double> total = SteadyClock::now() - start;
    // Futures resolve at delivery, BEFORE the dispatcher's bookkeeping
    // for the batch; drain now (a no-op schedule-wise — everything is
    // done) so the counters below are final.
    engine.Drain();

    QuantileSketch latency_ms, qerr;
    size_t served = 0, shed = 0, failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const EstimateResult& r = results[i];
      latency_ms.Add(std::max(0.0, latencies[i]));
      if (r.ok()) {
        ++served;
        qerr.Add(QError(r.estimate,
                        trace.pool_true_sel[trace.requests[i].pool_index],
                        static_cast<double>(rows)));
      } else if (r.provenance == ResultProvenance::kShed) {
        ++shed;
      } else {
        ++failed;  // anything non-shed and non-OK is a real bug
      }
    }
    if (failed > 0) {
      std::printf("!! %s: %zu non-shed failures\n", sc.name.c_str(), failed);
      ok = false;
    }

    const EngineStats stats = engine.engine()->stats();
    const auto astats = engine.async_stats();
    if (astats.submitted != astats.completed) {
      std::printf("!! %s: submitted %zu != completed %zu\n", sc.name.c_str(),
                  astats.submitted, astats.completed);
      ok = false;
    }

    // The matrix cells are SHAPED to trigger specific policies; a zero
    // counter on the triggering cell means the policy silently stopped
    // firing — exactly the regression this bench exists to catch. The
    // triggers are wall-clock-coupled (which shed path fires depends on
    // whether a deadline expires before dispatch or mid-walk), so they
    // are waived under NARU_SMOKE_NO_PERF_ASSERT (sanitizer slowdown
    // shifts timing, not correctness); the conservation and typed-result
    // checks above stay enforced.
    if (PerfAssertsEnabled()) {
      if (sc.expired_deadline_fraction > 0) {
        if (stats.shed_deadline == 0) {
          std::printf("!! %s: expected deadline sheds, saw none\n",
                      sc.name.c_str());
          ok = false;
        }
        // The storm cell is also where flush-order is observable: an
        // UNBOUNDED deep backlog of interleaved classes (a bounded queue
        // would evict exactly the older-lower requests the detector keys
        // on).
        if (astats.priority_flushes == 0) {
          std::printf("!! %s: expected priority flushes, saw none\n",
                      sc.name.c_str());
          ok = false;
        }
      }
      if (sc.arrival == ArrivalKind::kBursty && astats.shed_admission == 0) {
        std::printf("!! %s: expected admission sheds, saw none\n",
                    sc.name.c_str());
        ok = false;
      }
      if (sc.request_samples > 0 && stats.shed_midwalk == 0) {
        std::printf("!! %s: expected mid-walk abandonments, saw none\n",
                    sc.name.c_str());
        ok = false;
      }
    }
    total_shed_deadline += stats.shed_deadline;
    total_shed_admission += astats.shed_admission;
    total_shed_midwalk += stats.shed_midwalk;
    total_priority_flushes += astats.priority_flushes;

    const double achieved =
        total.count() > 0 ? futures.size() / total.count() : 0.0;
    std::printf("%-22s %8.1f %8.2f %8.2f %8.2f %8.2f %6zu %6zu %6zu %6zu\n",
                sc.name.c_str(), achieved, latency_ms.Quantile(0.5),
                latency_ms.Quantile(0.99), qerr.Quantile(0.5),
                qerr.Quantile(0.95), stats.shed_deadline,
                astats.shed_admission, stats.shed_midwalk,
                astats.priority_flushes);
    json.AddRow(JsonObject{{"scenario", sc.name},
                           {"qps", achieved},
                           {"p50_ms", latency_ms.Quantile(0.5)},
                           {"p99_ms", latency_ms.Quantile(0.99)},
                           {"max_ms", latency_ms.Max()},
                           {"qerr_p50", qerr.Quantile(0.5)},
                           {"qerr_p95", qerr.Quantile(0.95)},
                           {"qerr_max", qerr.Max()},
                           {"served", served},
                           {"shed", shed},
                           {"shed_deadline", stats.shed_deadline},
                           {"shed_admission", astats.shed_admission},
                           {"shed_midwalk", stats.shed_midwalk},
                           {"priority_flushes", astats.priority_flushes}});
  }

  // Matrix-wide: every overload policy fired somewhere.
  std::printf(
      "\nmatrix totals: %zu deadline sheds, %zu admission sheds, "
      "%zu mid-walk abandonments, %zu priority flushes\n",
      total_shed_deadline, total_shed_admission, total_shed_midwalk,
      total_priority_flushes);
  if (PerfAssertsEnabled() &&
      (total_shed_deadline == 0 || total_shed_admission == 0 ||
       total_shed_midwalk == 0 || total_priority_flushes == 0)) {
    ok = false;
  }
  std::printf("every overload policy exercised: %s\n",
              ok ? "yes" : "NO (BUG)");

  json.Write();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
