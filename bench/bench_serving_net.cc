// Network serving: the full socket path (wire protocol -> poll loop ->
// per-tenant AsyncEngine) under open-loop load, on a real loopback TCP
// connection.
//
// Everything below bench_serving_async measures the engine in-process;
// this bench adds the layers a deployed estimator actually runs behind —
// frame encode/decode, kernel socket buffers, the single-threaded I/O
// loop, and the multi-tenant registry — and checks that none of them
// costs correctness:
//
//   roundtrip    every pool query once against one quiet tenant: the
//                estimate that crosses the wire must be BIT-IDENTICAL to
//                a local sequential walk of the same model (doubles
//                cross as IEEE-754 bit patterns).
//   open-loop    two tenants driven concurrently from two connections,
//                pipelined (responses return in completion order and are
//                matched by request_id); per-tenant round-trip
//                percentiles measured from send time.
//   saturation   tenant alpha — bounded admission quota, cache off,
//                tiny batches — is flooded with DISTINCT queries while
//                tenant beta runs its normal trace on the other
//                connection. Asserts the isolation contract end to end:
//                alpha sheds (typed RESOURCE_EXHAUSTED with a positive
//                retry_after_ms hint on the wire), beta sheds NOTHING,
//                beta's estimates stay bit-identical, and beta's engine
//                counters show zero admission sheds.
//
// After the phases the server drains (Shutdown) and the conservation
// invariant is checked: every submitted request produced exactly one
// response, none orphaned, zero protocol errors.
//
// Knobs (env or flags, see bench_common.h):
//   --threads N         per-tenant engine threads       (default 4, smoke 2)
//   --serve-requests N  per-tenant open-loop trace length (default 192,
//                       smoke 48)
//   --serve-unique N    distinct query templates per tenant (default 48,
//                       smoke 16)
//   --serve-samples N   sample paths per query          (default 256,
//                       smoke 128)
//   --serve-qps X       open-loop arrival rate; 0 = burst (default 300,
//                       smoke 0)
//   --max-pending N     alpha's admission quota         (default 8)
//   --smoke             CI preset: tiny model, burst arrivals
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/registry.h"
#include "net/server.h"
#include "query/workload.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace naru {
namespace bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration MsToDuration(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// One connection's view of one trace: pipelined sends (paced by the
/// trace's arrival times), then a read loop matching responses by id.
struct ClientRun {
  QuantileSketch latency_ms;
  size_t served = 0;
  size_t shed = 0;    ///< typed RESOURCE_EXHAUSTED responses
  size_t failed = 0;  ///< transport/protocol failures (must stay 0)
  double max_retry_ms = 0.0;
  bool retry_hints_ok = true;  ///< every shed carried a positive hint
  bool identical = true;       ///< served estimates match the reference
  double total_s = 0.0;
};

ClientRun DriveTenant(uint16_t port, const std::string& tenant,
                      const std::vector<Query>& pool,
                      const std::vector<OpenLoopRequest>& trace,
                      const std::vector<double>* reference,
                      RequestPriority priority) {
  ClientRun run;
  NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    run.failed = trace.size();
    return run;
  }
  if (!client.SetRecvTimeoutMs(120000).ok()) {
    run.failed = trace.size();
    return run;
  }

  std::unordered_map<uint64_t, size_t> index_of;
  std::unordered_map<uint64_t, SteadyClock::time_point> sent_at;
  index_of.reserve(trace.size());
  sent_at.reserve(trace.size());

  const auto start = SteadyClock::now();
  for (size_t i = 0; i < trace.size(); ++i) {
    std::this_thread::sleep_until(start +
                                  MsToDuration(trace[i].arrival_ms));
    WireEstimateRequest request;
    request.request_id = i + 1;
    request.tenant = tenant;
    request.regions = pool[trace[i].pool_index].regions();
    request.priority = priority;
    if (!client.SendEstimate(request).ok()) {
      ++run.failed;
      continue;
    }
    index_of.emplace(i + 1, trace[i].pool_index);
    sent_at.emplace(i + 1, SteadyClock::now());
  }

  const size_t expected = index_of.size();
  for (size_t n = 0; n < expected; ++n) {
    Frame frame;
    if (!client.ReadFrame(&frame).ok() ||
        frame.type != FrameType::kEstimateResponse) {
      run.failed += expected - n;
      break;
    }
    const auto idx = index_of.find(frame.response.request_id);
    const auto sent = sent_at.find(frame.response.request_id);
    if (idx == index_of.end() || sent == sent_at.end()) {
      ++run.failed;
      continue;
    }
    const std::chrono::duration<double, std::milli> lat =
        SteadyClock::now() - sent->second;
    run.latency_ms.Add(lat.count());
    const EstimateResult result = FromWireResponse(frame.response);
    if (result.status.code() == StatusCode::kResourceExhausted) {
      ++run.shed;
      if (!(result.retry_after_ms > 0.0)) run.retry_hints_ok = false;
      run.max_retry_ms = std::max(run.max_retry_ms, result.retry_after_ms);
    } else if (!result.ok() ||
               (reference != nullptr &&
                result.estimate != (*reference)[idx->second])) {
      run.identical = false;
    } else {
      ++run.served;
    }
  }
  const std::chrono::duration<double> total = SteadyClock::now() - start;
  run.total_s = total.count();
  return run;
}

void PrintRun(const char* label, const ClientRun& run) {
  const double qps =
      run.total_s > 0
          ? (run.served + run.shed + run.failed) / run.total_s
          : 0.0;
  std::printf("%16s %8.1f %8.2f %8.2f %8.2f %8.2f %7zu %6zu %6zu\n", label,
              qps, run.latency_ms.Quantile(0.5),
              run.latency_ms.Quantile(0.9), run.latency_ms.Quantile(0.99),
              run.latency_ms.Max(), run.served, run.shed, run.failed);
}

int Run() {
  const BenchEnv env = GetBenchEnv();
  const bool smoke = GetEnvBool("NARU_SMOKE", false);
  const size_t rows = std::min<size_t>(env.dmv_rows, smoke ? 3000 : 20000);
  const size_t epochs = std::min<size_t>(env.epochs, smoke ? 1 : 3);
  const size_t num_requests = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_REQUESTS", smoke ? 48 : 192), 1, 1 << 22));
  const size_t num_unique = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_UNIQUE", smoke ? 16 : 48), 1, 1 << 22));
  const size_t num_samples = static_cast<size_t>(std::clamp<int64_t>(
      GetEnvInt("NARU_SERVE_SAMPLES", smoke ? 128 : 256), 1, 1 << 20));
  const double qps =
      std::max(GetEnvDouble("NARU_SERVE_QPS", smoke ? 0.0 : 300.0), 0.0);
  const size_t threads = env.threads > 0 ? env.threads : (smoke ? 2 : 4);
  const size_t max_pending = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_MAX_PENDING", 8), 1, 1 << 20));

  PrintBanner("Network serving: loopback TCP through the tenant registry",
              StrFormat("rows=%zu requests=%zu unique=%zu samples=%zu "
                        "qps=%.0f threads=%zu max_pending=%zu",
                        rows, num_requests, num_unique, num_samples, qps,
                        threads, max_pending));

  // Two tenants, two tables, two independently trained models.
  Table alpha_table = MakeDmvLike(rows, env.seed);
  Table beta_table = MakeDmvLike(rows, env.seed + 1);
  auto alpha_model = TrainModel(alpha_table, DmvModelConfig(env.seed + 5),
                                epochs, "Naru(alpha)");
  auto beta_model = TrainModel(beta_table, DmvModelConfig(env.seed + 6),
                               epochs, "Naru(beta)");

  WorkloadConfig wcfg;
  wcfg.num_queries = num_unique;
  wcfg.min_filters = 1;
  wcfg.max_filters = 8;
  wcfg.seed = env.seed + 17;
  const std::vector<Query> alpha_pool = GenerateWorkload(alpha_table, wcfg);
  wcfg.seed = env.seed + 18;
  const std::vector<Query> beta_pool = GenerateWorkload(beta_table, wcfg);
  // The flood: DISTINCT queries (duplicates would join in-flight twins
  // and bypass admission control), sized to overwhelm alpha's quota.
  wcfg.num_queries = std::max<size_t>(2 * num_requests, 8 * max_pending);
  wcfg.seed = env.seed + 19;
  const std::vector<Query> flood_pool = GenerateWorkload(alpha_table, wcfg);

  NaruEstimatorConfig ncfg;
  ncfg.num_samples = num_samples;
  ncfg.enumeration_threshold = 0;  // every request costs a sampled walk

  // Bit-identity references, computed sequentially before the models move
  // into the registry (training is deterministic, so this local walk and
  // the server's walks run the same weights).
  std::vector<double> alpha_ref(alpha_pool.size());
  std::vector<double> beta_ref(beta_pool.size());
  {
    ScopedSerialRegion serial;
    NaruEstimator alpha_est(alpha_model.get(), ncfg,
                            alpha_model->SizeBytes());
    NaruEstimator beta_est(beta_model.get(), ncfg, beta_model->SizeBytes());
    for (size_t i = 0; i < alpha_pool.size(); ++i) {
      alpha_ref[i] = alpha_est.EstimateSelectivity(alpha_pool[i]);
    }
    for (size_t i = 0; i < beta_pool.size(); ++i) {
      beta_ref[i] = beta_est.EstimateSelectivity(beta_pool[i]);
    }
  }
  // Alpha: the throttled tenant — bounded quota, no cache, tiny batches,
  // so a flood overflows admission instead of absorbing into batching.
  ModelRegistry registry;
  {
    TenantOptions alpha_opts;
    alpha_opts.estimator = ncfg;
    alpha_opts.engine.max_batch_size = 2;
    alpha_opts.engine.max_wait_ms = 0.0;
    alpha_opts.engine.max_pending = max_pending;
    alpha_opts.engine.engine.num_threads = threads;
    alpha_opts.engine.engine.cache_budget_bytes = 0;
    std::vector<size_t> domains;
    for (size_t c = 0; c < alpha_table.num_columns(); ++c) {
      domains.push_back(alpha_table.column(c).DomainSize());
    }
    const size_t bytes = alpha_model->SizeBytes();
    const Status st =
        registry.AddTenant("alpha", "dmv_alpha", alpha_table.num_rows(),
                           std::move(domains), std::move(alpha_model),
                           bytes, alpha_opts);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  // Beta: a standard tenant — unbounded admission, cache on.
  {
    TenantOptions beta_opts;
    beta_opts.estimator = ncfg;
    beta_opts.engine.max_batch_size = 32;
    beta_opts.engine.max_wait_ms = 1.0;
    beta_opts.engine.engine.num_threads = threads;
    std::vector<size_t> domains;
    for (size_t c = 0; c < beta_table.num_columns(); ++c) {
      domains.push_back(beta_table.column(c).DomainSize());
    }
    const size_t bytes = beta_model->SizeBytes();
    const Status st =
        registry.AddTenant("beta", "dmv_beta", beta_table.num_rows(),
                           std::move(domains), std::move(beta_model), bytes,
                           beta_opts);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  NetServer server(&registry);
  {
    const Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const uint16_t port = server.port();
  std::printf("\nserver on 127.0.0.1:%u, tenants: alpha (max_pending=%zu, "
              "cache off), beta (unbounded)\n",
              port, max_pending);

  BenchJsonWriter json("serving_net");
  json.SetConfig("rows", rows);
  json.SetConfig("requests", num_requests);
  json.SetConfig("unique", num_unique);
  json.SetConfig("samples", num_samples);
  json.SetConfig("qps", qps);
  json.SetConfig("threads", threads);
  json.SetConfig("max_pending", max_pending);
  json.SetConfig("smoke", smoke);
  const auto add_latency_row = [&json](const std::string& mode,
                                       const ClientRun& run) {
    const double qps_out =
        run.total_s > 0
            ? (run.served + run.shed + run.failed) / run.total_s
            : 0.0;
    json.AddRow(JsonObject{{"mode", mode},
                           {"qps", qps_out},
                           {"p50_ms", run.latency_ms.Quantile(0.5)},
                           {"p90_ms", run.latency_ms.Quantile(0.9)},
                           {"p99_ms", run.latency_ms.Quantile(0.99)},
                           {"max_ms", run.latency_ms.Max()}});
  };

  std::printf("\n%16s %8s %8s %8s %8s %8s %7s %6s %6s\n", "phase", "qps",
              "p50_ms", "p90_ms", "p99_ms", "max_ms", "served", "shed",
              "fail");

  bool ok = true;

  // ---- Phase 1: synchronous round-trip, bit-identity over the wire ----
  {
    std::vector<OpenLoopRequest> once(beta_pool.size());
    for (size_t i = 0; i < once.size(); ++i) {
      once[i].arrival_ms = 0.0;
      once[i].pool_index = i;
    }
    const ClientRun run = DriveTenant(port, "beta", beta_pool, once,
                                      &beta_ref, RequestPriority::kNormal);
    PrintRun("roundtrip", run);
    add_latency_row("roundtrip", run);
    if (!run.identical || run.failed != 0 || run.shed != 0 ||
        run.served != beta_pool.size()) {
      ok = false;
    }
    std::printf("%16s estimates bit-identical over the wire: %s\n", "",
                run.identical ? "yes" : "NO (BUG)");
  }

  // ---- Phase 2: two tenants, two connections, open-loop ----
  ClientRun baseline_beta;
  {
    const std::vector<OpenLoopRequest> alpha_trace = GenerateOpenLoopTrace(
        num_requests, qps, alpha_pool.size(), env.seed + 29);
    const std::vector<OpenLoopRequest> beta_trace = GenerateOpenLoopTrace(
        num_requests, qps, beta_pool.size(), env.seed + 31);
    ClientRun alpha_run;
    std::thread alpha_thread([&] {
      alpha_run = DriveTenant(port, "alpha", alpha_pool, alpha_trace,
                              &alpha_ref, RequestPriority::kNormal);
    });
    baseline_beta = DriveTenant(port, "beta", beta_pool, beta_trace,
                                &beta_ref, RequestPriority::kNormal);
    alpha_thread.join();
    PrintRun("open-loop-alpha", alpha_run);
    PrintRun("open-loop-beta", baseline_beta);
    add_latency_row("open-loop-alpha", alpha_run);
    add_latency_row("open-loop-beta", baseline_beta);
    // Alpha's bounded quota may legitimately shed under a burst; beta may
    // not, and both must stay exact on everything they served.
    if (!alpha_run.identical || !baseline_beta.identical ||
        alpha_run.failed + baseline_beta.failed != 0 ||
        baseline_beta.shed != 0 || !alpha_run.retry_hints_ok) {
      ok = false;
    }
  }

  // ---- Phase 3: flood alpha, watch beta not notice ----
  {
    std::vector<OpenLoopRequest> flood(flood_pool.size());
    for (size_t i = 0; i < flood.size(); ++i) {
      flood[i].arrival_ms = 0.0;  // burst: arrivals outrun service
      flood[i].pool_index = i;
    }
    const std::vector<OpenLoopRequest> beta_trace = GenerateOpenLoopTrace(
        num_requests, qps, beta_pool.size(), env.seed + 37);
    ClientRun flood_run;
    std::thread flood_thread([&] {
      // No reference for the flood: shed/served accounting is what
      // matters, and the flood pool was never walked locally.
      flood_run = DriveTenant(port, "alpha", flood_pool, flood,
                              /*reference=*/nullptr, RequestPriority::kLow);
    });
    const ClientRun beta_run = DriveTenant(port, "beta", beta_pool,
                                           beta_trace, &beta_ref,
                                           RequestPriority::kNormal);
    flood_thread.join();
    PrintRun("flood-alpha", flood_run);
    PrintRun("flooded-beta", beta_run);
    add_latency_row("flooded-beta", beta_run);

    const std::shared_ptr<Tenant> beta = registry.GetTenant("beta");
    const size_t beta_sheds = beta->engine->async_stats().shed_admission;
    const bool isolated = beta_run.shed == 0 && beta_run.identical &&
                          beta_run.failed == 0 && beta_sheds == 0;
    // The flood must actually overflow: distinct queries against a quota
    // of max_pending with service throttled to 2-wide batches.
    const bool flooded = flood_run.shed > 0 && flood_run.retry_hints_ok &&
                         flood_run.failed == 0;
    if (!isolated || !flooded) ok = false;
    std::printf(
        "\nflood: %zu of %zu alpha requests shed (max retry hint %.1f ms); "
        "beta: %zu shed, %zu engine admission sheds, bit-identical %s -> "
        "isolation %s\n",
        flood_run.shed, flood.size(), flood_run.max_retry_ms, beta_run.shed,
        beta_sheds, beta_run.identical ? "yes" : "NO",
        isolated && flooded ? "HELD" : "BROKEN");
    json.AddRow(JsonObject{{"mode", "saturation"},
                           {"shed", flood_run.shed},
                           {"served", flood_run.served},
                           {"beta_shed", beta_sheds}});
  }

  // ---- Drain and conservation ----
  server.Shutdown();
  const NetServerStats ns = server.stats();
  std::printf(
      "\nnet totals: %zu conns, %zu frames, %zu submitted, %zu responses, "
      "%zu rejected, %zu protocol errors, %zu orphaned\n",
      ns.connections_accepted, ns.frames_received, ns.requests_submitted,
      ns.responses_sent, ns.rejected_requests, ns.protocol_errors,
      ns.orphaned_responses);
  if (ns.requests_submitted != ns.responses_sent ||
      ns.orphaned_responses != 0 || ns.protocol_errors != 0 ||
      ns.rejected_requests != 0) {
    ok = false;
  }
  json.AddRow(JsonObject{{"mode", "totals"},
                         {"frames", ns.frames_received},
                         {"responses", ns.responses_sent}});
  json.Write();

  std::printf("\nwire path exact, isolated, and conserving: %s\n",
              ok ? "yes" : "NO (BUG)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
