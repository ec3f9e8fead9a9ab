// Shared scaffolding for the per-table/per-figure benchmark binaries.
//
// Every bench runs at laptop scale by default and scales toward the paper's
// setup through environment variables:
//   NARU_DMV_ROWS        rows of the DMV-like table        (default 40000)
//   NARU_CONVA_ROWS      rows of the Conviva-A-like table  (default 20000)
//   NARU_CONVB_ROWS      rows of the Conviva-B-like table  (default 10000)
//   NARU_QUERIES         evaluation queries per workload   (default 60)
//   NARU_EPOCHS          Naru training epochs              (default 10)
//   NARU_MSCN_QUERIES    MSCN training queries             (default 800)
//   NARU_SEED            global experiment seed            (default 42)
//   NARU_THREADS         serving threads (0 = global pool) (default 0)
//   NARU_BATCH           EstimateBatch size (0 = per-bench default/grid)
//
// Serving benches add (see docs/SERVING.md for the full knob reference):
//   NARU_SERVE_REQUESTS  trace length
//   NARU_SERVE_UNIQUE    distinct query templates in the pool
//   NARU_SERVE_SAMPLES   progressive sample paths per query
//   NARU_SERVE_QPS       open-loop arrival rate (bench_serving_async)
//   NARU_MAX_BATCH       async micro-batch flush size
//   NARU_MAX_WAIT_MS     async micro-batch flush deadline
//   NARU_CACHE_BUDGET_MB per-model exact-result cache budget
//   NARU_KERNEL          inference kernel: scalar | simd
//   NARU_SMOKE           CI preset: tiny model, no arrival sleeps
//
// Every knob is also reachable as a command-line flag through
// InitBench(argc, argv): `--threads 4` sets NARU_THREADS=4, `--queries=200`
// sets NARU_QUERIES=200, and so on (see util/env_config.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "estimator/estimator.h"
#include "query/executor.h"
#include "query/metrics.h"
#include "query/workload.h"
#include "tensor/kernel.h"
#include "util/env_config.h"
#include "util/quantile.h"
#include "util/stopwatch.h"

namespace naru {
namespace bench {

/// Environment-resolved experiment scale.
struct BenchEnv {
  size_t dmv_rows;
  size_t conva_rows;
  size_t convb_rows;
  size_t queries;
  size_t epochs;
  size_t mscn_queries;
  uint64_t seed;
  /// Serving threads for the inference engine (0 = share the global pool,
  /// 1 = strictly serial).
  size_t threads;
  /// Batch size for EstimateBatch-driven evaluation (0 = let each bench
  /// pick its default or sweep its grid).
  size_t batch;
  /// Inference kernel family (NARU_KERNEL / --kernel; default scalar).
  /// Terminates with exit code 2 on an unknown name so a typoed CI matrix
  /// leg fails loudly instead of silently benchmarking the scalar path.
  KernelKind kernel;
};
BenchEnv GetBenchEnv();

/// Applies `--flag value` overrides onto the NARU_* environment (so every
/// bench shares one knob surface) — call first in main(). Terminates with
/// exit code 2 on a malformed command line.
void InitBench(int argc, char** argv);

/// A workload with ground truth attached.
struct Workload {
  std::vector<Query> queries;
  std::vector<int64_t> cards;
  std::vector<double> sels;
};

/// Generates queries per §6.1.3 and executes them for ground truth.
Workload MakeWorkload(const Table& table, size_t num_queries, uint64_t seed,
                      bool out_of_distribution = false,
                      size_t min_filters = 5, size_t max_filters = 11);

std::vector<size_t> TableDomains(const Table& table);

/// Paper-inspired model configs scaled to the bench defaults.
MadeModel::Config DmvModelConfig(uint64_t seed);
MadeModel::Config ConvivaAModelConfig(uint64_t seed);

/// Trains and returns a model, logging per-epoch NLL.
std::unique_ptr<MadeModel> TrainModel(const Table& table,
                                      MadeModel::Config config,
                                      size_t epochs, const std::string& tag);

/// Runs `est` over the workload, filling the error report and (optionally)
/// per-query latency in milliseconds.
void EvaluateEstimator(Estimator* est, const Workload& workload,
                       size_t num_rows, ErrorReport* report,
                       QuantileSketch* latency_ms = nullptr);

/// Runs `est` over the workload through EstimateBatch in batches of
/// `batch_size` (>= 1), filling the report; returns achieved queries/sec.
/// For a fixed seed the per-query errors equal EvaluateEstimator's.
double EvaluateEstimatorBatched(Estimator* est, const Workload& workload,
                                size_t num_rows, size_t batch_size,
                                ErrorReport* report);

/// Prints the paper-style grouped error table.
void PrintErrorTable(const std::string& title,
                     const std::vector<const ErrorReport*>& reports);

/// Prints a banner for the experiment.
void PrintBanner(const std::string& experiment, const std::string& detail);

/// False when NARU_SMOKE_NO_PERF_ASSERT=1: wall-clock-sensitive pass/fail
/// checks (throughput floors, deadline-coupled shed-rate windows) are
/// reported but not enforced. The sanitizer CI legs set it — a 5-20x
/// TSan/ASan slowdown says nothing about a perf regression — while
/// correctness asserts (error bounds, conservation counters, determinism)
/// stay enforced unconditionally.
bool PerfAssertsEnabled();

/// Storage budget for a dataset: `fraction` of the raw table bytes, floored
/// so miniature runs keep baselines functional (sizes are printed so the
/// comparison stays honest).
size_t BudgetBytes(const Table& table, double fraction);

/// Row count for sampling-family estimators: `fraction` of the table's
/// rows (the paper's 1.3% / 0.7% budgets), NOT floored -- the point of the
/// Sample baseline is that small samples miss rare tuples.
size_t SampleRows(const Table& table, double fraction);

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_<name>.json
//
// Benches that feed dashboards/CI write one JSON file per run alongside
// their human-readable tables, all through this shared writer so the schema
// stays uniform:
//   {
//     "bench": "<name>", "schema_version": 2,
//     "simd": "<runtime dispatch probe, e.g. 'simd dispatch: avx2'>",
//     "meta": {
//       "host":    hostname of the machine that produced the run,
//       "commit":  NARU_GIT_COMMIT if set, else `git rev-parse --short HEAD`,
//                  else "unknown",
//       "threads": NARU_THREADS, "kernel": NARU_KERNEL, "smoke": bool
//     },
//     "config": { flat key -> string/number/bool },
//     "rows":   [ { flat key -> string/number/bool }, ... ]
//   }
// tools/check_bench_regression.py compares "rows" metrics against the
// checked-in trajectory under bench/trajectory/ and treats "meta" as
// provenance only (never compared). Schema history: v1 had no "meta".
// ---------------------------------------------------------------------------

/// A flat JSON scalar (enough for the bench schema: no nesting in rows).
struct JsonValue {
  enum class Kind { kString, kNumber, kBool };
  Kind kind;
  std::string str;
  double num = 0;
  bool b = false;

  JsonValue(const char* s) : kind(Kind::kString), str(s) {}          // NOLINT
  JsonValue(std::string s) : kind(Kind::kString), str(std::move(s)) {}  // NOLINT
  JsonValue(double v) : kind(Kind::kNumber), num(v) {}               // NOLINT
  JsonValue(int v) : kind(Kind::kNumber), num(v) {}                  // NOLINT
  JsonValue(size_t v)                                                // NOLINT
      : kind(Kind::kNumber), num(static_cast<double>(v)) {}
  JsonValue(bool v) : kind(Kind::kBool), b(v) {}                     // NOLINT

  /// JSON-encodes the value (strings escaped; non-finite numbers -> null).
  std::string Encode() const;
};

/// One flat JSON object, insertion-ordered.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// Run provenance stamped into every BENCH_*.json "meta" block: host,
/// commit (NARU_GIT_COMMIT > git rev-parse > "unknown"), threads, kernel,
/// smoke. Exposed so tests can assert the stamp without parsing a file.
JsonObject BenchRunMetadata();

/// Accumulates config + result rows and writes BENCH_<name>.json.
class BenchJsonWriter {
 public:
  /// `name` becomes both the "bench" field and the file stem.
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  void SetConfig(const std::string& key, JsonValue value) {
    config_.emplace_back(key, std::move(value));
  }
  void AddRow(JsonObject row) { rows_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json into NARU_BENCH_JSON_DIR (default ".") and
  /// prints the path. Returns false (with a stderr note) on I/O failure —
  /// benches treat that as non-fatal so a read-only CWD can't fail a run.
  bool Write() const;

 private:
  std::string name_;
  JsonObject config_;
  std::vector<JsonObject> rows_;
};

}  // namespace bench
}  // namespace naru
