// naru_cli: train and query Naru estimators from the command line.
//
//   naru_cli train <data.csv> <model.bundle> [epochs]
//       Loads a CSV (header row, type-inferred columns), trains a MADE
//       model by maximum likelihood, writes a self-describing bundle.
//
//   naru_cli estimate <data.csv> <model.bundle> "<predicates>" [samples]
//       Reopens the bundle and estimates the selectivity/cardinality of a
//       conjunction like:  "city=SF AND price<=100 AND weight>10".
//       Literals are matched through each column's dictionary (ordered
//       domains, so range literals need not be present in the data).
//
//   naru_cli truth <data.csv> "<predicates>"
//       Exact answer by scanning (for comparison).
//
//   naru_cli serve <data.csv> <model.bundle> <queries.txt|-> [threads]
//       An accept loop over conjunctions (one per line; `-` reads stdin):
//       every line is Submit()ed to the streaming AsyncEngine the moment
//       it is read, micro-batching happens in the background, and one
//       result line per query streams out in submission order as results
//       complete.
//
//       Requests flow through the typed serving API (serve/request.h): a
//       line may carry, before the predicates, any of
//         @<ms>    arrival timestamp (milliseconds since serve start);
//                  recorded arrival times are replayed faithfully and
//                  per-query latency percentiles reported
//         ^high | ^low | ^normal
//                  priority class: the async dispatcher flushes pending
//                  work highest class first instead of pure FIFO
//         ~<ms>    soft deadline, milliseconds from submission; a request
//                  whose deadline expires before dispatch is SHED and its
//                  result line reports DeadlineExceeded instead of a value
//       e.g.  `@1250 ^high ~5 city=SF AND price<=100`. Shed or failed
//       requests print `NA  NA  <query>  # <status>` so the output stays
//       one line per request.
//
//       The loop prints FormatEngineStats (dispatcher flushes and sheds,
//       cache hit/miss/eviction counters, plan-tree sizes/depth/fanout,
//       prefix-share ratio, workspace churn) on stderr at exit — including
//       on SIGINT, which winds the loop down cleanly instead of discarding
//       the counters.
//
//   naru_cli serve <data.csv> <model.bundle> --listen host:port [--tenant N]
//       Network server: registers the model as one tenant in a
//       ModelRegistry and serves it over TCP (net/server.h). SIGINT
//       drains gracefully — in-flight requests resolve and flush before
//       the socket closes.
//
//   naru_cli serve <data.csv> <queries.txt|-> --connect host:port [--tenant N]
//       Network client: parses the SAME trace lines (tokens below) and
//       sends them to a --listen server instead of estimating locally.
//       Output is line-for-line identical to in-process serving; an
//       admission-shed response additionally prints the server's
//       `retry in <N> ms` back-off hint.
//
//       Serving knobs (flags map onto NARU_* env vars, see docs/SERVING.md):
//         --max-batch N      async micro-batch flush size   (default 64)
//         --max-wait-ms X    async micro-batch deadline     (default 2.0)
//         --max-pending N    admission control: bound the async pending
//                            queue; overflow sheds the lowest priority
//                            class first with a typed ResourceExhausted
//                            result line (default 0 = unbounded)
//         --cache-budget-mb N  per-model result-cache budget (default 4)
//         --group-width auto|N plan-tree fork fan-out cap (default auto:
//                            width-aware from model width x kernel)
//
//       Flags may appear anywhere, but a bare `--flag` consumes a
//       following non-flag token as its value — place flags after the
//       positional arguments or write `--flag=value`.
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/bundle.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/csv_table.h"
#include "net/client.h"
#include "net/registry.h"
#include "net/server.h"
#include "query/executor.h"
#include "query/compound.h"
#include "query/parser.h"
#include "serve/async_engine.h"
#include "serve/inference_engine.h"
#include "serve/request.h"
#include "serve/trace_format.h"
#include "tensor/kernel.h"
#include "util/deadline.h"
#include "util/env_config.h"
#include "util/quantile.h"
#include "util/string_util.h"

using namespace naru;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  naru_cli train <data.csv> <model.bundle> [epochs]\n"
               "  naru_cli estimate <data.csv> <model.bundle> \"<preds>\" "
               "[samples]\n"
               "  naru_cli truth <data.csv> \"<preds>\"\n"
               "  naru_cli serve <data.csv> <model.bundle> <queries.txt|-> "
               "[threads]\n"
               "  naru_cli serve <data.csv> <model.bundle> --listen "
               "host:port [--tenant NAME]\n"
               "  naru_cli serve <data.csv> <queries.txt|-> --connect "
               "host:port [--tenant NAME]\n"
               "    serve flags: --max-batch N --max-wait-ms X "
               "--max-pending N --cache-budget-mb N\n"
               "    estimate/serve: --kernel scalar|simd "
               "(inference kernel; default scalar)\n"
               "    trace line prefix: @<ms> arrival, ^high|^low priority, "
               "~<ms> deadline\n");
  return 2;
}

/// Splits argv into positional arguments (returned, argv[0] first) and
/// `--flag [value]` pairs, which are applied onto the NARU_* environment
/// through ApplyFlagOverrides so every knob is reachable from the CLI.
std::vector<char*> ExtractPositionals(int argc, char** argv) {
  std::vector<char*> positionals{argv[0]};
  std::vector<char*> flags{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
      flags.push_back(argv[i]);
      if (arg.find('=') == std::string::npos && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.push_back(argv[++i]);  // `--flag value` form
      }
    } else {
      positionals.push_back(argv[i]);
    }
  }
  if (!ApplyFlagOverrides(static_cast<int>(flags.size()), flags.data())) {
    std::exit(2);
  }
  return positionals;
}

/// Set by SIGINT. `serve` installs the handler WITHOUT SA_RESTART so a
/// blocking getline on stdin returns early (EINTR fails the stream); both
/// serve loops then wind down normally and print their stats on the way
/// out — Ctrl-C on a live accept loop reports the serving counters
/// instead of discarding them.
/// Resolves --kernel / NARU_KERNEL (default scalar); exits 2 on an
/// unknown name so a typo can't silently serve the scalar path.
KernelKind CliKernel() {
  const std::string name = GetEnvString("NARU_KERNEL", "scalar");
  KernelKind kernel = KernelKind::kScalar;
  if (!ParseKernelKind(name, &kernel)) {
    std::fprintf(stderr, "error: unknown --kernel '%s' (want scalar | simd)\n",
                 name.c_str());
    std::exit(2);
  }
  return kernel;
}

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

void InstallSigintHandler() {
  struct sigaction sa = {};
  sa.sa_handler = HandleSigint;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking reads
  sigaction(SIGINT, &sa, nullptr);
}

/// Waits until `at_ms` after `trace_start` in short slices so SIGINT is
/// honored promptly (sleep_until retries on EINTR). Returns false when
/// interrupted. Shared by the local and --connect replay loops.
bool ReplayWait(std::chrono::steady_clock::time_point trace_start,
                double at_ms) {
  const auto target = DeadlineAfterMs(trace_start, at_ms);
  while (!g_interrupted) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= target) return true;
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            target - now, std::chrono::milliseconds(50)));
  }
  return false;
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  std::vector<char*> args = ExtractPositionals(raw_argc, raw_argv);
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  const std::string csv_path = argv[2];

  auto table_result = LoadTableFromCsv(csv_path, "table");
  if (!table_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 table_result.status().ToString().c_str());
    return 1;
  }
  const Table& table = table_result.ValueOrDie();
  std::fprintf(stderr, "# loaded %zu rows x %zu cols from %s\n",
               table.num_rows(), table.num_columns(), csv_path.c_str());

  if (cmd == "train") {
    if (argc < 4) return Usage();
    const size_t epochs =
        argc >= 5 ? static_cast<size_t>(std::atoll(argv[4])) : 12;
    std::vector<size_t> domains;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      domains.push_back(table.column(c).DomainSize());
    }
    MadeModel::Config cfg;
    MadeModel model(domains, cfg);
    TrainerConfig tcfg;
    tcfg.epochs = epochs;
    tcfg.verbose = true;
    Trainer trainer(&model, tcfg);
    trainer.Train(table);
    const Status st = SaveModelBundle(argv[3], &model);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved %s (%.1f KB)\n", argv[3],
                model.SizeBytes() / 1024.0);
    return 0;
  }

  if (cmd == "estimate") {
    if (argc < 5) return Usage();
    auto model = LoadModelBundle(argv[3]);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    auto disjuncts = ParseDisjunction(table, argv[4]);
    if (!disjuncts.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   disjuncts.status().ToString().c_str());
      return 1;
    }
    NaruEstimatorConfig ncfg;
    ncfg.num_samples =
        argc >= 6 ? static_cast<size_t>(std::atoll(argv[5])) : 2000;
    ncfg.kernel = CliKernel();
    MadeModel* m = model.ValueOrDie().get();
    NaruEstimator est(m, ncfg, m->SizeBytes());
    // OR clauses evaluate through inclusion-exclusion (§2.2).
    const double sel = EstimateDisjunction(&est, disjuncts.ValueOrDie());
    std::printf("selectivity %.6g  cardinality %.0f\n", sel,
                sel * static_cast<double>(table.num_rows()));
    return 0;
  }

  if (cmd == "serve") {
    const std::string listen_spec = GetEnvString("NARU_LISTEN", "");
    const std::string connect_spec = GetEnvString("NARU_CONNECT", "");
    const std::string tenant_name = GetEnvString("NARU_TENANT", "default");
    if (!listen_spec.empty() && !connect_spec.empty()) {
      std::fprintf(stderr,
                   "error: --listen and --connect are mutually exclusive\n");
      return 2;
    }
    const double num_rows = static_cast<double>(table.num_rows());
    InstallSigintHandler();

    if (!connect_spec.empty()) {
      // Network client: serve <data.csv> <queries.txt|-> --connect
      // host:port [--tenant NAME]. The model stays on the server — the
      // client needs only the table schema to parse predicates into wire
      // regions, and the SAME trace tokens (`@<ms>`, `^<class>`, `~<ms>`)
      // mean the same thing they do in-process: the deadline crosses the
      // wire as a relative budget the server pins to its own clock.
      if (argc < 4) return Usage();
      std::string host;
      uint16_t port = 0;
      Status st = ParseHostPort(connect_spec, &host, &port);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 2;
      }
      NetClient client;
      st = client.Connect(host, port);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "# connected to %s:%u  tenant=%s\n", host.c_str(),
                   port, tenant_name.c_str());

      const std::string source = argv[3];
      const bool from_stdin = source == "-";
      std::ifstream file;
      if (!from_stdin) {
        file.open(source);
        if (!file) {
          std::fprintf(stderr, "error: cannot open %s\n", source.c_str());
          return 1;
        }
      }
      std::istream& in = from_stdin ? std::cin : file;

      QuantileSketch latency_ms;
      uint64_t next_id = 0;
      size_t rejected = 0;
      std::string line;
      std::string preds;
      size_t lineno = 0;
      const auto trace_start = std::chrono::steady_clock::now();
      while (!g_interrupted && std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        const TracePrefix prefix = ParseTracePrefix(line, &preds);
        if (prefix.arrival_ms >= 0 &&
            !ReplayWait(trace_start, prefix.arrival_ms)) {
          break;
        }
        auto disjuncts = ParseDisjunction(table, preds);
        if (!disjuncts.ok() || disjuncts.ValueOrDie().size() != 1) {
          std::fprintf(stderr, "error: line %zu rejected: %s\n", lineno,
                       disjuncts.ok()
                           ? "must be one conjunction"
                           : disjuncts.status().ToString().c_str());
          ++rejected;
          continue;
        }
        const Query& query = disjuncts.ValueOrDie()[0];
        WireEstimateRequest request;
        request.request_id = ++next_id;
        request.tenant = tenant_name;
        request.regions = query.regions();
        request.deadline_ms = prefix.deadline_ms;
        request.priority = prefix.priority;
        const std::string text = query.ToString(table);
        const auto sent_at = std::chrono::steady_clock::now();
        WireEstimateResponse response;
        st = client.CallEstimate(request, &response);
        if (!st.ok()) {
          std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
          return 1;
        }
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - sent_at;
        latency_ms.Add(elapsed.count());
        // Typed results cross the wire losslessly, so shed requests print
        // the same NA line they would in-process — including the
        // `retry in N ms` hint on an admission shed.
        std::fputs(
            FormatResultLine(FromWireResponse(response), num_rows, text)
                .c_str(),
            stdout);
        std::fflush(stdout);
      }

      // Server-side view of the tenant on the way out, over the same
      // socket (the STATS control verb).
      WireControlRequest ctrl;
      ctrl.request_id = ++next_id;
      ctrl.verb = ControlVerb::kStats;
      ctrl.tenant = tenant_name;
      WireControlResponse ctrl_resp;
      st = client.CallControl(ctrl, &ctrl_resp);
      if (st.ok() && ctrl_resp.status_code == StatusCode::kOk) {
        std::fputs(ctrl_resp.text.c_str(), stderr);
      }
      if (rejected > 0) {
        std::fprintf(stderr, "# %zu lines rejected by the parser\n",
                     rejected);
      }
      if (!latency_ms.empty()) {
        std::fprintf(
            stderr,
            "# round-trip ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
            latency_ms.Quantile(0.5), latency_ms.Quantile(0.9),
            latency_ms.Quantile(0.99), latency_ms.Max());
      }
      return 0;
    }

    // Remaining modes host the model in this process.
    if (argc < 4) return Usage();
    auto model = LoadModelBundle(argv[3]);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    const long long threads =
        argc >= 6 ? std::atoll(argv[5]) : GetEnvInt("NARU_THREADS", 0);
    if (threads < 0 || threads > 256) {
      std::fprintf(stderr, "error: threads must be in [0, 256]\n");
      return 1;
    }
    MadeModel* m = model.ValueOrDie().get();
    NaruEstimatorConfig ncfg;
    ncfg.kernel = CliKernel();
    // Dispatch probe up front: "simd" silently falling back to the
    // portable kernels is the first thing to rule out when serving is
    // slower than expected.
    std::fprintf(stderr, "# kernel=%s (%s)\n",
                 KernelKindName(ncfg.kernel), SimdDispatchString().c_str());

    InferenceEngineConfig ecfg;
    ecfg.num_threads = static_cast<size_t>(threads);
    ecfg.cache_budget_bytes = static_cast<size_t>(std::max<int64_t>(
                                  GetEnvInt("NARU_CACHE_BUDGET_MB", 4), 0)) *
                              1024 * 1024;
    // --group-width auto|N: plan-tree fork fan-out cap (auto = sized from
    // the model width and the active kernel).
    const std::string width_str = GetEnvString("NARU_GROUP_WIDTH", "auto");
    ecfg.group_width =
        width_str == "auto" || width_str == "0"
            ? 0
            : static_cast<size_t>(std::min<int64_t>(
                  std::max<int64_t>(GetEnvInt("NARU_GROUP_WIDTH", 0), 1),
                  4096));
    AsyncEngineConfig acfg;
    acfg.engine = ecfg;
    acfg.max_batch_size = static_cast<size_t>(
        std::max<int64_t>(GetEnvInt("NARU_MAX_BATCH", 64), 1));
    acfg.max_wait_ms = GetEnvDouble("NARU_MAX_WAIT_MS", 2.0);
    // 0 = unbounded; a bound sheds the lowest priority class first when
    // submissions outrun the service rate (typed ResourceExhausted lines).
    acfg.max_pending = static_cast<size_t>(
        std::max<int64_t>(GetEnvInt("NARU_MAX_PENDING", 0), 0));

    if (!listen_spec.empty()) {
      // Network server: serve <data.csv> <model.bundle> --listen
      // host:port [--tenant NAME]. One tenant is registered under
      // --tenant; every engine knob above becomes that tenant's isolated
      // serving stack. Ctrl-C drains gracefully: in-flight requests
      // resolve and their responses flush before the socket closes.
      std::string host;
      uint16_t port = 0;
      Status st = ParseHostPort(listen_spec, &host, &port, /*listen=*/true);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 2;
      }
      std::vector<size_t> domains;
      for (size_t c = 0; c < table.num_columns(); ++c) {
        domains.push_back(table.column(c).DomainSize());
      }
      const size_t model_bytes = m->SizeBytes();
      TenantOptions topts;
      topts.estimator = ncfg;
      topts.engine = acfg;
      ModelRegistry registry;
      st = registry.AddTenant(tenant_name, csv_path, table.num_rows(),
                              std::move(domains),
                              std::move(model).ValueOrDie(), model_bytes,
                              topts);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      NetServerConfig scfg;
      scfg.host = host;
      scfg.port = port;
      NetServer server(&registry, scfg);
      st = server.Start();
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "# listening on %s:%u  tenant=%s  (Ctrl-C drains)\n",
                   host.c_str(), server.port(), tenant_name.c_str());
      while (!g_interrupted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::fprintf(stderr, "# interrupted: draining in-flight requests\n");
      server.Shutdown();
      const NetServerStats ns = server.stats();
      std::fprintf(stderr,
                   "# net: %zu conns accepted, %zu frames, %zu submitted, "
                   "%zu responses, %zu control, %zu protocol errors "
                   "(%zu poisoned streams), %zu rejected, %zu orphaned\n",
                   ns.connections_accepted, ns.frames_received,
                   ns.requests_submitted, ns.responses_sent,
                   ns.control_requests, ns.protocol_errors,
                   ns.poisoned_streams, ns.rejected_requests,
                   ns.orphaned_responses);
      std::fputs(registry.FormatTenantStats("").c_str(), stderr);
      return 0;
    }

    if (argc < 5) return Usage();
    NaruEstimator est(m, ncfg, m->SizeBytes());
    const std::string source = argv[4];
    const bool from_stdin = source == "-";
    std::ifstream file;
    if (!from_stdin) {
      file.open(source);
      if (!file) {
        std::fprintf(stderr, "error: cannot open %s\n", source.c_str());
        return 1;
      }
    }
    std::istream& in = from_stdin ? std::cin : file;

    // Accept loop: Submit each line as it arrives (honoring `@<ms>`
    // replay timestamps), stream results out in submission order, report
    // latency percentiles. Parse errors are reported and skipped — an
    // accept loop must not die on one malformed request.
    AsyncEngine engine(acfg);

    struct Slot {
      std::future<EstimateResult> result;
      std::string text;
    };
    std::deque<Slot> inflight;
    QuantileSketch latency_ms;
    std::mutex latency_mu;
    const auto trace_start = std::chrono::steady_clock::now();
    const auto print_ready_prefix = [&](bool block) {
      while (!inflight.empty() &&
             (block || inflight.front().result.wait_for(
                           std::chrono::seconds(0)) ==
                           std::future_status::ready)) {
        // Status end to end: shed (DeadlineExceeded) and failed requests
        // arrive as typed results, never exceptions — report the one
        // request and keep the loop serving.
        const EstimateResult r = inflight.front().result.get();
        std::fputs(
            FormatResultLine(r, num_rows, inflight.front().text).c_str(),
            stdout);
        std::fflush(stdout);
        inflight.pop_front();
      }
    };

    std::string line;
    std::string preds;
    size_t lineno = 0;
    size_t rejected = 0;
    while (!g_interrupted && std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      const TracePrefix prefix = ParseTracePrefix(line, &preds);
      if (prefix.arrival_ms >= 0 &&
          !ReplayWait(trace_start, prefix.arrival_ms)) {
        break;
      }
      auto disjuncts = ParseDisjunction(table, preds);
      if (!disjuncts.ok() || disjuncts.ValueOrDie().size() != 1) {
        std::fprintf(stderr, "error: line %zu rejected: %s\n", lineno,
                     disjuncts.ok() ? "must be one conjunction"
                                    : disjuncts.status().ToString().c_str());
        ++rejected;
        continue;
      }
      EstimateRequest request(disjuncts.ValueOrDie()[0]);
      prefix.ApplyTo(&request.options);
      std::string text = request.query.ToString(table);
      const auto arrival = std::chrono::steady_clock::now();
      auto fut = engine.Submit(
          &est, std::move(request), [&, arrival](const EstimateResult&) {
            const std::chrono::duration<double, std::milli> elapsed =
                std::chrono::steady_clock::now() - arrival;
            std::lock_guard<std::mutex> lock(latency_mu);
            latency_ms.Add(elapsed.count());
          });
      inflight.push_back(Slot{std::move(fut), std::move(text)});
      print_ready_prefix(/*block=*/false);
    }
    engine.Drain();
    print_ready_prefix(/*block=*/true);

    if (g_interrupted) {
      std::fprintf(stderr, "# interrupted: drained in-flight work\n");
    }
    std::fputs(FormatEngineStats(engine.engine()->stats(),
                                 engine.async_stats())
                   .c_str(),
               stderr);
    if (rejected > 0) {
      std::fprintf(stderr, "# %zu lines rejected by the parser\n", rejected);
    }
    if (!latency_ms.empty()) {
      std::fprintf(stderr,
                   "# latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
                   latency_ms.Quantile(0.5), latency_ms.Quantile(0.9),
                   latency_ms.Quantile(0.99), latency_ms.Max());
    }
    return 0;
  }

  if (cmd == "truth") {
    if (argc < 4) return Usage();
    auto disjuncts = ParseDisjunction(table, argv[3]);
    if (!disjuncts.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   disjuncts.status().ToString().c_str());
      return 1;
    }
    const double sel =
        ExecuteDisjunctionSelectivity(table, disjuncts.ValueOrDie());
    std::printf("cardinality %.0f  selectivity %.6g\n",
                sel * static_cast<double>(table.num_rows()), sel);
    return 0;
  }
  return Usage();
}
