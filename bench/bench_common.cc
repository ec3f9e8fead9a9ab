#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace naru {
namespace bench {

BenchEnv GetBenchEnv() {
  BenchEnv env;
  env.dmv_rows = static_cast<size_t>(GetEnvInt("NARU_DMV_ROWS", 40000));
  env.conva_rows = static_cast<size_t>(GetEnvInt("NARU_CONVA_ROWS", 20000));
  env.convb_rows = static_cast<size_t>(GetEnvInt("NARU_CONVB_ROWS", 10000));
  env.queries = static_cast<size_t>(GetEnvInt("NARU_QUERIES", 60));
  env.epochs = static_cast<size_t>(GetEnvInt("NARU_EPOCHS", 10));
  env.mscn_queries =
      static_cast<size_t>(GetEnvInt("NARU_MSCN_QUERIES", 800));
  env.seed = static_cast<uint64_t>(GetEnvInt("NARU_SEED", 42));
  // Clamped: a negative value would wrap through size_t to 2^64-ish and
  // e.g. ask the serving engine for that many threads.
  env.threads = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_THREADS", 0), 0, 256));
  env.batch = static_cast<size_t>(
      std::clamp<int64_t>(GetEnvInt("NARU_BATCH", 0), 0, 1 << 20));
  const std::string kernel_name = GetEnvString("NARU_KERNEL", "scalar");
  if (!ParseKernelKind(kernel_name, &env.kernel)) {
    std::fprintf(stderr, "unknown NARU_KERNEL '%s' (want scalar | simd)\n",
                 kernel_name.c_str());
    std::exit(2);
  }
  return env;
}

void InitBench(int argc, char** argv) {
  if (!ApplyFlagOverrides(argc, argv)) {
    std::exit(2);
  }
}

Workload MakeWorkload(const Table& table, size_t num_queries, uint64_t seed,
                      bool out_of_distribution, size_t min_filters,
                      size_t max_filters) {
  WorkloadConfig cfg;
  cfg.num_queries = num_queries;
  cfg.min_filters = min_filters;
  cfg.max_filters = max_filters;
  cfg.out_of_distribution = out_of_distribution;
  cfg.seed = seed;
  Workload w;
  w.queries = GenerateWorkload(table, cfg);
  w.cards = ExecuteCounts(table, w.queries);
  w.sels.reserve(w.cards.size());
  for (int64_t c : w.cards) {
    w.sels.push_back(static_cast<double>(c) /
                     static_cast<double>(table.num_rows()));
  }
  return w;
}

std::vector<size_t> TableDomains(const Table& table) {
  std::vector<size_t> domains;
  domains.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    domains.push_back(table.column(c).DomainSize());
  }
  return domains;
}

MadeModel::Config DmvModelConfig(uint64_t seed) {
  MadeModel::Config cfg;
  // Scaled-down analogue of the paper's 5-layer DMV MLP.
  cfg.hidden_sizes = {128, 128, 128, 128};
  cfg.encoder.onehot_threshold = 64;
  cfg.encoder.embed_dim = 32;
  cfg.embedding_reuse = true;
  cfg.seed = seed;
  return cfg;
}

MadeModel::Config ConvivaAModelConfig(uint64_t seed) {
  MadeModel::Config cfg;
  // The paper's Conviva-A model: 4 hidden layers of 128, h = 64.
  cfg.hidden_sizes = {128, 128, 128, 128};
  cfg.encoder.onehot_threshold = 64;
  cfg.encoder.embed_dim = 32;
  cfg.embedding_reuse = true;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<MadeModel> TrainModel(const Table& table,
                                      MadeModel::Config config,
                                      size_t epochs,
                                      const std::string& tag) {
  auto model = std::make_unique<MadeModel>(TableDomains(table), config);
  TrainerConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.batch_size = 512;
  tcfg.lr = 2e-3;
  tcfg.lr_decay = 0.92;
  Trainer trainer(model.get(), tcfg);
  Stopwatch sw;
  const auto curve = trainer.Train(table);
  std::printf("# trained %s: %zu epochs in %.1fs, NLL %.2f -> %.2f bits\n",
              tag.c_str(), epochs, sw.ElapsedSeconds(), curve.front(),
              curve.back());
  return model;
}

void EvaluateEstimator(Estimator* est, const Workload& workload,
                       size_t num_rows, ErrorReport* report,
                       QuantileSketch* latency_ms) {
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    Stopwatch sw;
    const double sel = est->EstimateSelectivity(workload.queries[i]);
    if (latency_ms != nullptr) latency_ms->Add(sw.ElapsedMillis());
    report->Add(sel * static_cast<double>(num_rows),
                static_cast<double>(workload.cards[i]), workload.sels[i]);
  }
}

double EvaluateEstimatorBatched(Estimator* est, const Workload& workload,
                                size_t num_rows, size_t batch_size,
                                ErrorReport* report) {
  NARU_CHECK(batch_size >= 1);
  const size_t n = workload.queries.size();

  // Slice outside the timed window so the stopwatch sees only
  // EstimateBatch, matching what EvaluateEstimator times per query.
  std::vector<std::vector<Query>> batches;
  for (size_t lo = 0; lo < n; lo += batch_size) {
    const size_t hi = std::min(n, lo + batch_size);
    batches.emplace_back(
        workload.queries.begin() + static_cast<ptrdiff_t>(lo),
        workload.queries.begin() + static_cast<ptrdiff_t>(hi));
  }
  std::vector<std::vector<double>> outs(batches.size());

  Stopwatch sw;
  for (size_t b = 0; b < batches.size(); ++b) {
    est->EstimateBatch(batches[b], &outs[b]);
  }
  const double seconds = sw.ElapsedSeconds();

  size_t i = 0;
  for (const auto& sels : outs) {
    for (double sel : sels) {
      report->Add(sel * static_cast<double>(num_rows),
                  static_cast<double>(workload.cards[i]), workload.sels[i]);
      ++i;
    }
  }
  return seconds > 0 ? static_cast<double>(n) / seconds : 0.0;
}

void PrintErrorTable(const std::string& title,
                     const std::vector<const ErrorReport*>& reports) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", ErrorReport::FormatHeader().c_str());
  std::printf("%s\n",
              std::string(14 + 3 * (3 + 4 * 9), '-').c_str());
  for (const auto* r : reports) {
    std::printf("%s\n", r->FormatRow().c_str());
  }
}

void PrintBanner(const std::string& experiment, const std::string& detail) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", detail.c_str());
  std::printf("==============================================================\n");
}

bool PerfAssertsEnabled() {
  return GetEnvInt("NARU_SMOKE_NO_PERF_ASSERT", 0) == 0;
}

size_t BudgetBytes(const Table& table, double fraction) {
  const double raw = static_cast<double>(table.EstimatedRawBytes());
  return std::max<size_t>(static_cast<size_t>(raw * fraction), 256 * 1024);
}

size_t SampleRows(const Table& table, double fraction) {
  return std::max<size_t>(
      static_cast<size_t>(static_cast<double>(table.num_rows()) * fraction),
      32);
}

namespace {

std::string EscapeJsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string EncodeObject(const JsonObject& obj) {
  std::string out = "{";
  for (size_t i = 0; i < obj.size(); ++i) {
    if (i > 0) out += ", ";
    out += EscapeJsonString(obj[i].first);
    out += ": ";
    out += obj[i].second.Encode();
  }
  out += "}";
  return out;
}

}  // namespace

namespace {

/// Short commit id: NARU_GIT_COMMIT wins (CI stamps it so containers
/// without a .git directory still record provenance), then a best-effort
/// `git rev-parse`, then "unknown". Never fails the bench.
std::string ResolveCommit() {
  std::string commit = GetEnvString("NARU_GIT_COMMIT", "");
  if (!commit.empty()) return commit;
  std::FILE* pipe = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      commit.assign(buf);
      while (!commit.empty() &&
             (commit.back() == '\n' || commit.back() == '\r')) {
        commit.pop_back();
      }
    }
    pclose(pipe);
  }
  return commit.empty() ? "unknown" : commit;
}

}  // namespace

JsonObject BenchRunMetadata() {
  JsonObject meta;
  char host[256];
  if (gethostname(host, sizeof(host)) != 0) {
    std::strncpy(host, "unknown", sizeof(host));
  }
  host[sizeof(host) - 1] = '\0';
  meta.emplace_back("host", std::string(host));
  meta.emplace_back("commit", ResolveCommit());
  meta.emplace_back("threads",
                    static_cast<double>(GetEnvInt("NARU_THREADS", 0)));
  meta.emplace_back("kernel", GetEnvString("NARU_KERNEL", "scalar"));
  meta.emplace_back("smoke", GetEnvInt("NARU_SMOKE", 0) != 0);
  return meta;
}

std::string JsonValue::Encode() const {
  switch (kind) {
    case Kind::kString:
      return EscapeJsonString(str);
    case Kind::kBool:
      return b ? "true" : "false";
    case Kind::kNumber:
      break;
  }
  if (!std::isfinite(num)) return "null";
  // Integers print exactly; everything else keeps float precision.
  if (num == static_cast<double>(static_cast<int64_t>(num)) &&
      std::fabs(num) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(num));
  }
  return StrFormat("%.9g", num);
}

bool BenchJsonWriter::Write() const {
  const std::string dir = GetEnvString("NARU_BENCH_JSON_DIR", ".");
  const std::string path = StrFormat("%s/BENCH_%s.json", dir.c_str(),
                                     name_.c_str());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "# could not write %s (continuing)\n", path.c_str());
    return false;
  }
  std::string body = "{\n";
  body += StrFormat("  \"bench\": %s,\n", EscapeJsonString(name_).c_str());
  body += "  \"schema_version\": 2,\n";
  body += StrFormat("  \"simd\": %s,\n",
                    EscapeJsonString(SimdDispatchString()).c_str());
  body += StrFormat("  \"meta\": %s,\n",
                    EncodeObject(BenchRunMetadata()).c_str());
  body += StrFormat("  \"config\": %s,\n", EncodeObject(config_).c_str());
  body += "  \"rows\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    body += "    ";
    body += EncodeObject(rows_[i]);
    body += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  body += "  ]\n}\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (ok) std::printf("# wrote %s\n", path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace naru
