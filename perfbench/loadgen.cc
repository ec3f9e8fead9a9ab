// perfbench_loadgen: the repo benchmark's own client, data preparer and
// in-process tracer (see perfbench/README.md for the method).
//
//   perfbench_loadgen prepare --dir D --seed S --rows N
//       Writes D/table.csv, a DMV-like table generated from the seed, and
//       D/domains.txt, the column domain sizes the server will see after
//       it loads that CSV.
//
//   perfbench_loadgen accuracy --dir D
//       With D/model.bundle trained: writes D/accuracy.txt, the reference
//       estimates and executed cardinalities of the fixed accuracy set.
//
//   perfbench_loadgen probe --dir D --port P
//       Connects to a starting server (retrying until it listens), sends
//       one all-wildcard estimate and prints `answered_ns <t>`: the
//       CLOCK_MONOTONIC instant the answer was decoded. The harness takes
//       setup time as that instant minus the server's spawn instant.
//
//   perfbench_loadgen drive --dir D --port P --server-pid N --workload W
//                           --seed S --seconds T --trace 0|1 --out F
//       Serves the accuracy set (warm-up), drives the server closed-loop
//       for T seconds, checks every served estimate bit for bit against
//       the sequential reference walk, and writes its measurements to F
//       as one flat JSON object. With
//       --trace 1 the timed phase runs half untraced and half traced
//       (client spans around encode / send / read / decode), then replays
//       the same queries in-process through each layer's public entry
//       points (net codec, InferenceEngine::EstimateBatch,
//       CompileSamplingPlan / ExecuteSamplingPlan, NaruEstimator::Estimate,
//       GemmNN / GemmNT) and writes the spans to D/spans.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "core/bundle.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "data/csv_table.h"
#include "data/datasets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "plan/plan_executor.h"
#include "plan/sampling_plan.h"
#include "query/executor.h"
#include "query/metrics.h"
#include "query/workload.h"
#include "serve/async_engine.h"
#include "serve/inference_engine.h"
#include "serve/query_key.h"
#include "tensor/gemm.h"
#include "tensor/kernel.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace naru {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int64_t NsSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_loadgen: error: %s\n", msg.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        Die("malformed argument '" + key + "' (want --key value)");
      }
      kv_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const {
    return std::strtoll(Str(key).c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Linear-interpolated quantile of `v` (copied, sorted).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Flat JSON object of numbers and strings, in insertion order.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Add(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    Add(key, quoted + "\"");
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{" << body_ << "}\n";
    if (!out) Die("cannot write " + path);
  }

 private:
  void Add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

// ---------------------------------------------------------------- prepare

int Prepare(const Args& args) {
  const std::string dir = args.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const size_t rows = static_cast<size_t>(args.Int("rows"));
  const Table table = MakeDmvLike(rows, seed);
  CsvContents csv;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    csv.header.push_back(table.column(c).name());
  }
  csv.rows.resize(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto& row = csv.rows[r];
    row.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      row.push_back(col.dict().ValueFor(col.code(r)).ToString());
    }
  }
  const std::string csv_path = dir + "/table.csv";
  Check(WriteCsvFile(csv_path, csv), "write " + csv_path);
  // Domains as the server will see them (CSV round trip re-infers types).
  auto loaded = LoadTableFromCsv(csv_path, "table");
  Check(loaded.status(), "reload " + csv_path);
  std::ofstream out(dir + "/domains.txt");
  for (size_t c = 0; c < loaded.ValueOrDie().num_columns(); ++c) {
    out << loaded.ValueOrDie().column(c).DomainSize() << "\n";
  }
  if (!out) Die("cannot write domains.txt");
  return 0;
}

std::vector<size_t> ReadDomains(const std::string& dir) {
  std::ifstream in(dir + "/domains.txt");
  std::vector<size_t> domains;
  size_t d = 0;
  while (in >> d) domains.push_back(d);
  if (domains.empty()) Die("no domains in " + dir + "/domains.txt");
  return domains;
}

// ------------------------------------------------------------------ probe

int Probe(const Args& args) {
  const std::vector<size_t> domains = ReadDomains(args.Str("dir"));
  const uint16_t port = static_cast<uint16_t>(args.Int("port"));
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  WireEstimateRequest request;
  request.request_id = 1;
  request.tenant = "default";
  for (size_t d : domains) request.regions.push_back(ValueSet::All(d));
  for (;;) {
    NetClient client;
    if (client.Connect("127.0.0.1", port).ok()) {
      Check(client.SetRecvTimeoutMs(30000), "recv timeout");
      WireEstimateResponse response;
      Check(client.CallEstimate(request, &response), "probe estimate");
      const auto answered = Clock::now();
      if (response.status_code != StatusCode::kOk ||
          response.estimate != 1.0) {
        Die("probe: all-wildcard query did not answer exactly 1");
      }
      std::printf("answered_ns %" PRId64 "\n", NsSinceEpoch(answered));
      return 0;
    }
    if (Clock::now() > give_up) Die("probe: server never listened");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ------------------------------------------------------------------ drive

/// One workload's fixed shape.
struct WorkloadSpec {
  size_t conns = 1;
  size_t depth = 1;  ///< pipelined requests per connection
  bool hot = false;  ///< fixed memo-resident pool instead of distinct keys
};

WorkloadSpec SpecFor(const std::string& name) {
  if (name == "sampled-miss") return {2, 4, false};
  if (name == "hot-cached") return {2, 8, true};
  if (name == "single-sampled") return {1, 1, false};
  Die("unknown workload '" + name + "'");
}

/// Queries per stratified block: 4 walk-length slices x 4 cardinality
/// slices (see BuildPool).
constexpr size_t kBlock = 16;

/// Distinct, sampled-path queries from the paper's generator (§6.1.3,
/// 1-8 filters), `want` (a multiple of kBlock) of them, in stratified
/// order. Exact shortcuts and enumerated regions are dropped so every
/// request is a full progressive-sampling walk.
///
/// A walk's cost grows with its length (last filtered column + 1) and its
/// q-error with how few rows match, so a run that serves the first N
/// queries of a purely random order inherits the mix of those N. The
/// order is therefore stratified. The candidates are cut into 4 equal
/// slices by walk length, each slice into 4 equal cells by executed
/// cardinality, and block k takes the k-th query (seeded shuffle) of each
/// of the 16 cells. Every block keeps the generator's own distribution;
/// only the run-to-run sampling of that mix is removed.
std::vector<Query> BuildPool(const Table& table, NaruEstimator* est,
                             size_t want, uint64_t seed,
                             const std::unordered_set<std::string>& exclude) {
  struct Cand {
    size_t walk;
    int64_t card;
    std::string key;
    Query query;
  };
  std::vector<Cand> cands;
  std::unordered_set<std::string> keys;
  for (uint64_t round = 0; cands.size() < want; ++round) {
    if (round == 64) Die("query generator produced too few sampled queries");
    WorkloadConfig wc;
    wc.num_queries = std::max<size_t>(256, want);
    wc.min_filters = 1;
    wc.max_filters = 8;
    wc.seed = seed * 1000003ULL + round;
    for (Query& q : GenerateWorkload(table, wc)) {
      if (cands.size() >= want) break;
      if (q.HasEmptyRegion() || est->ShouldEnumerate(q) ||
          est->sampler()->Classify(q) != ProgressiveSampler::Path::kSampled) {
        continue;
      }
      std::string key = QueryKey(q);
      if (exclude.count(key) != 0 || !keys.insert(key).second) continue;
      const size_t walk = static_cast<size_t>(q.LastFilteredColumn() + 1);
      const int64_t card = ExecuteCount(table, q);
      cands.push_back({walk, card, std::move(key), std::move(q)});
    }
  }
  const auto by = [&](auto field) {
    return [&, field](size_t a, size_t b) {
      const auto fa = field(cands[a]), fb = field(cands[b]);
      return fa != fb ? fa < fb : cands[a].key < cands[b].key;
    };
  };
  std::vector<size_t> order(cands.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            by([](const Cand& c) { return std::make_pair(c.walk, c.card); }));
  const size_t slice = want / 4, cell = want / kBlock;
  std::vector<std::vector<size_t>> cells;
  Rng rng(seed ^ 0x5DEECE66DULL);
  for (size_t s = 0; s < 4; ++s) {
    std::sort(order.begin() + s * slice, order.begin() + (s + 1) * slice,
              by([](const Cand& c) { return c.card; }));
    for (size_t c = 0; c < 4; ++c) {
      const auto begin = order.begin() + s * slice + c * cell;
      std::vector<size_t> members(begin, begin + cell);
      for (size_t i = members.size(); i > 1; --i) {
        std::swap(members[i - 1], members[rng.UniformInt(i)]);
      }
      cells.push_back(std::move(members));
    }
  }
  // Within a block, cardinality cells go outermost, so any 8 consecutive
  // queries (one sampled-miss batch) span all four walk-length slices.
  std::vector<Query> pool;
  pool.reserve(want);
  for (size_t k = 0; k < cell; ++k) {
    for (size_t c = 0; c < 4; ++c) {
      for (size_t s = 0; s < 4; ++s) {
        pool.push_back(std::move(cands[cells[s * 4 + c][k]].query));
      }
    }
  }
  return pool;
}

/// One request as the client saw it.
struct Record {
  size_t query = 0;
  Clock::time_point sent;
  Clock::time_point received;
  bool answered = false;
  WireEstimateRequest wire;
  EstimateResult result;  ///< the response as the client library decodes it
};

/// A client span (trace mode only): one call the client made into the net
/// layer for one request.
struct Span {
  const char* name;
  uint64_t request_id;
  Clock::time_point start;
  Clock::time_point end;
};

/// Picks the next query index for a connection; nullopt-like -1 when the
/// workload has no further distinct query to send.
using NextQuery = std::function<int64_t(size_t conn)>;

struct LoopResult {
  std::vector<Record> records;
  std::vector<Span> spans;
  size_t transport_failures = 0;
  Clock::time_point start;
  Clock::time_point last_receive;
};

/// Runs the closed loop: each connection keeps `depth` requests in flight
/// and sends its next request only when a response arrives, until `stop`
/// says so; then waits for every outstanding response.
LoopResult ClosedLoop(std::vector<std::unique_ptr<NetClient>>& clients,
                      size_t depth, const std::vector<Query>& pool,
                      const NextQuery& next,
                      const std::function<bool()>& stop, bool trace,
                      std::atomic<uint64_t>* next_id) {
  const size_t conns = clients.size();
  std::vector<LoopResult> per_conn(conns);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_conn[c];
      NetClient& client = *clients[c];
      std::unordered_map<uint64_t, size_t> outstanding;
      std::string frame_bytes;
      const auto send_one = [&]() -> bool {
        const int64_t q = next(c);
        if (q < 0) return false;
        Record rec;
        rec.query = static_cast<size_t>(q);
        rec.wire.request_id = next_id->fetch_add(1) + 1;
        rec.wire.tenant = "default";
        rec.wire.regions = pool[rec.query].regions();
        const auto t0 = Clock::now();
        frame_bytes.clear();
        EncodeEstimateRequest(rec.wire, &frame_bytes);
        const auto t1 = Clock::now();
        rec.sent = t1;
        const Status st = client.SendRaw(frame_bytes);
        if (trace) {
          const auto t2 = Clock::now();
          out.spans.push_back({"client.encode", rec.wire.request_id, t0, t1});
          out.spans.push_back({"client.send", rec.wire.request_id, t1, t2});
        }
        if (!st.ok()) {
          ++out.transport_failures;
          out.records.push_back(std::move(rec));
          return false;
        }
        outstanding.emplace(rec.wire.request_id, out.records.size());
        out.records.push_back(std::move(rec));
        return true;
      };
      for (size_t d = 0; d < depth && !stop(); ++d) {
        if (!send_one()) break;
      }
      while (!outstanding.empty()) {
        Frame frame;
        const auto t0 = Clock::now();
        const Status st = client.ReadFrame(&frame);
        const auto t1 = Clock::now();
        if (!st.ok() || frame.type != FrameType::kEstimateResponse) {
          out.transport_failures += outstanding.size();
          break;
        }
        auto it = outstanding.find(frame.response.request_id);
        if (it == outstanding.end()) {
          ++out.transport_failures;  // an id this connection never sent
          continue;
        }
        Record& rec = out.records[it->second];
        outstanding.erase(it);
        rec.received = t1;
        rec.answered = true;
        out.last_receive = t1;
        rec.result = FromWireResponse(frame.response);
        if (trace) {
          const auto t2 = Clock::now();
          out.spans.push_back({"client.read", rec.wire.request_id, t0, t1});
          out.spans.push_back({"client.decode", rec.wire.request_id, t1, t2});
        }
        if (!stop()) send_one();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult merged;
  merged.start = start;
  merged.last_receive = start;
  for (LoopResult& r : per_conn) {
    merged.transport_failures += r.transport_failures;
    merged.last_receive = std::max(merged.last_receive, r.last_receive);
    std::move(r.records.begin(), r.records.end(),
              std::back_inserter(merged.records));
    std::move(r.spans.begin(), r.spans.end(),
              std::back_inserter(merged.spans));
  }
  return merged;
}

/// The server-side counters the STATS verb renders (one tenant).
struct ServerStats {
  size_t submitted = 0, completed = 0, batches = 0, largest_batch = 0,
         joined = 0, admission_shed = 0;
  size_t queries = 0, sampled = 0, enumerated = 0, exact = 0;
  size_t memo_hits = 0, memo_misses = 0;
  size_t planned = 0, trees = 0, plan_batches = 0, shared_cols = 0,
         walk_cols = 0;
  size_t workspaces = 0;
};

ServerStats ParseStats(const std::string& text) {
  ServerStats s;
  int found = 0;
  std::istringstream in(text);
  std::string line;
  size_t peak = 0, shed_deadline = 0, midwalk = 0, shed_adm = 0;
  size_t evictions = 0, entries = 0;
  double kb = 0, avg = 0, ratio = 0;
  while (std::getline(in, line)) {
    const char* l = line.c_str();
    if (std::sscanf(l,
                    "# async: %zu submitted, %zu completed, %zu batches "
                    "(largest %zu), %zu joined twins, %zu admission-shed, "
                    "peak pending %zu",
                    &s.submitted, &s.completed, &s.batches, &s.largest_batch,
                    &s.joined, &s.admission_shed, &peak) == 7) {
      found |= 1;
    } else if (std::sscanf(l,
                           "# engine: %zu queries (%zu sampled, %zu "
                           "enumerated, %zu exact shortcuts, %zu shed on "
                           "deadline, %zu abandoned mid-walk, %zu shed at "
                           "admission)",
                           &s.queries, &s.sampled, &s.enumerated, &s.exact,
                           &shed_deadline, &midwalk, &shed_adm) == 7) {
      found |= 2;
    } else if (std::sscanf(l,
                           "# caches: memo %zu hits / %zu misses / %zu "
                           "evictions (%zu entries, %lf KB)",
                           &s.memo_hits, &s.memo_misses, &evictions, &entries,
                           &kb) == 5) {
      found |= 4;
    } else if (std::sscanf(l,
                           "# plans: %zu queries in %zu trees over %zu "
                           "batches, avg tree %lf, prefix-share ratio %lf "
                           "(%zu of %zu column walks shared)",
                           &s.planned, &s.trees, &s.plan_batches, &avg, &ratio,
                           &s.shared_cols, &s.walk_cols) == 7) {
      found |= 8;
    } else if (std::sscanf(l, "# workspaces created: %zu", &s.workspaces) ==
               1) {
      found |= 16;
    }
  }
  if (found != 31) {
    Die("STATS output not in the expected format:\n" + text);
  }
  return s;
}

ServerStats FetchStats(NetClient* client, std::atomic<uint64_t>* next_id) {
  WireControlRequest req;
  req.request_id = next_id->fetch_add(1) + 1;
  req.verb = ControlVerb::kStats;
  req.tenant = "default";
  WireControlResponse resp;
  Check(client->CallControl(req, &resp), "STATS");
  if (resp.status_code != StatusCode::kOk) Die("STATS: " + resp.status_message);
  return ParseStats(resp.text);
}

/// utime + stime of `pid` in milliseconds (/proc/<pid>/stat fields 14-15).
double ProcessCpuMs(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) Die("cannot read /proc stat of server");
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set of `pid` so far in MiB (VmHWM of /proc/<pid>/status).
double ProcessPeakRssMb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  Die("no VmHWM for the server");
}

/// Fixed CPU-bound loop (provenance only: tells a slow host from a slow
/// build; never used to scale a metric).
double CalibrationMs() {
  const auto t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 60'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const auto t1 = Clock::now();
  if (x == 0) std::printf("unreachable\n");
  return MsBetween(t0, t1);
}

struct Phase {
  LoopResult loop;
  ServerStats before, after;
  double cpu_ms = 0.0;
  double wall_s() const {
    return std::chrono::duration<double>(loop.last_receive - loop.start)
        .count();
  }
  size_t answered() const {
    size_t n = 0;
    for (const Record& r : loop.records) n += r.answered ? 1 : 0;
    return n;
  }
  double qps() const { return answered() / std::max(wall_s(), 1e-9); }
};

/// Per-layer numbers from the in-process replay (trace mode).
struct Replay {
  double codec_us = 0, req_bytes = 0, resp_bytes = 0;
  double estimate_batch_ms = 0, deadline_flush_frac = 0;
  double compile_us = 0, execute_ms = 0;
  double gemm_gflops = 0, stacked_rows = 0;
  std::vector<Span> spans;
};

/// Times the seven codec entry points over the workload's own frames.
void ReplayCodec(const std::vector<Record>& recs, Replay* out) {
  std::vector<const Record*> sample;
  for (const Record& r : recs) {
    if (r.answered) sample.push_back(&r);
    if (sample.size() == 256) break;
  }
  if (sample.empty()) return;
  std::string req_bytes, resp_bytes;
  double req_total = 0, resp_total = 0;
  std::vector<double> per_round_us;
  for (int rep = 0; rep < 40; ++rep) {
    const auto t0 = Clock::now();
    for (const Record* r : sample) {
      req_bytes.clear();
      EncodeEstimateRequest(r->wire, &req_bytes);
      Status st;
      const size_t size = FrameSizeBytes(req_bytes, kMaxFramePayloadBytes, &st);
      Frame frame;
      Check(DecodeFrame(std::string_view(req_bytes).substr(
                            kFrameHeaderBytes, size - kFrameHeaderBytes),
                        &frame),
            "replay decode request");
      const EstimateRequest server_side =
          ToEstimateRequest(frame.request, Clock::now());
      const EstimateResult& served = r->result;
      const WireEstimateResponse wire =
          ToWireResponse(frame.request.request_id, served);
      resp_bytes.clear();
      EncodeEstimateResponse(wire, &resp_bytes);
      const size_t rsize =
          FrameSizeBytes(resp_bytes, kMaxFramePayloadBytes, &st);
      Frame back;
      Check(DecodeFrame(std::string_view(resp_bytes).substr(
                            kFrameHeaderBytes, rsize - kFrameHeaderBytes),
                        &back),
            "replay decode response");
      const EstimateResult client_side = FromWireResponse(back.response);
      if (client_side.estimate != served.estimate ||
          server_side.query.num_columns() != r->wire.regions.size()) {
        Die("codec replay is not lossless");
      }
      if (rep == 0) {
        req_total += static_cast<double>(size);
        resp_total += static_cast<double>(rsize);
      }
    }
    const auto t1 = Clock::now();
    per_round_us.push_back(MsBetween(t0, t1) * 1000.0 /
                           static_cast<double>(sample.size()));
    out->spans.push_back({"net.codec_round", 0, t0, t1});
  }
  out->codec_us = Quantile(per_round_us, 0.5);
  out->req_bytes = req_total / static_cast<double>(sample.size());
  out->resp_bytes = resp_total / static_cast<double>(sample.size());
}

/// Model FLOPs per sampled row for one column step of the MADE forward:
/// the trunk (every hidden layer) plus the column's head.
double FlopsPerRowForColumn(const MadeModel& model, size_t col) {
  const auto& hidden = model.config().hidden_sizes;
  double flops = 0;
  size_t in = model.encoder().total_width();
  for (size_t h : hidden) {
    flops += 2.0 * static_cast<double>(in) * static_cast<double>(h);
    in = h;
  }
  const double domain = static_cast<double>(model.DomainSize(col));
  if (model.encoder().embedding(col) != nullptr &&
      model.config().embedding_reuse) {
    const double e = static_cast<double>(model.encoder().width(col));
    flops += 2.0 * static_cast<double>(in) * e + 2.0 * e * domain;
  } else {
    flops += 2.0 * static_cast<double>(in) * domain;
  }
  return flops;
}

/// Times GemmNN over the trunk shapes and GemmNT over the embedding-reuse
/// head shapes at `rows` stacked rows (serial: the engine parallelizes over
/// (tree, shard) tasks, not inside a GEMM).
double GemmGflops(const MadeModel& model, size_t rows, Replay* out) {
  struct Shape {
    size_t k, n;
    bool nt;
  };
  std::vector<Shape> shapes;
  size_t in = model.encoder().total_width();
  for (size_t h : model.config().hidden_sizes) {
    shapes.push_back({in, h, false});
    in = h;
  }
  for (size_t c = 0; c < model.num_columns(); ++c) {
    if (model.encoder().embedding(c) != nullptr &&
        model.config().embedding_reuse) {
      shapes.push_back({model.encoder().width(c), model.DomainSize(c), true});
    }
  }
  ScopedSerialRegion serial;
  double flops = 0, seconds = 0;
  for (const Shape& s : shapes) {
    Matrix a(rows, s.k);
    Matrix b = s.nt ? Matrix(s.n, s.k) : Matrix(s.k, s.n);
    Matrix c(rows, s.n);
    for (size_t r = 0; r < a.rows(); ++r) {
      for (size_t j = 0; j < a.cols(); ++j) {
        a.Row(r)[j] = 0.001f * static_cast<float>((r + j) % 97);
      }
    }
    for (size_t r = 0; r < b.rows(); ++r) {
      for (size_t j = 0; j < b.cols(); ++j) {
        b.Row(r)[j] = 0.002f * static_cast<float>((r * 7 + j) % 89);
      }
    }
    const int reps = 5;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      if (s.nt) {
        GemmNT(a, b, &c, false, KernelKind::kScalar);
      } else {
        GemmNN(a, b, &c, false, KernelKind::kScalar);
      }
    }
    const auto t1 = Clock::now();
    out->spans.push_back({s.nt ? "tensor.GemmNT" : "tensor.GemmNN", 0, t0, t1});
    flops += reps * 2.0 * static_cast<double>(rows) * static_cast<double>(s.k) *
             static_cast<double>(s.n);
    seconds += std::chrono::duration<double>(t1 - t0).count();
  }
  return flops / std::max(seconds, 1e-12) / 1e9;
}

/// In-process replay of the workload's queries, at its in-flight width,
/// through each layer's public entry points.
Replay ReplayLayers(MadeModel* model, const std::vector<Query>& queries,
                    const std::vector<Record>& recs, size_t width, bool hot) {
  Replay out;
  ReplayCodec(recs, &out);

  // The served configuration: shipped defaults, two engine threads.
  NaruEstimator est(model, NaruEstimatorConfig{}, model->SizeBytes());
  AsyncEngineConfig acfg;
  acfg.engine.num_threads = 2;

  // serve: InferenceEngine::EstimateBatch at the workload's width.
  {
    InferenceEngine engine(acfg.engine);
    std::vector<EstimateResult> results;
    std::vector<double> batch_ms;
    const size_t batches = hot ? 0 : (width == 1 ? 4 : 2);
    if (hot) {
      std::vector<EstimateRequest> fill;
      for (const Query& q : queries) fill.emplace_back(q);
      engine.EstimateBatch(&est, fill, &results);
      for (int rep = 0; rep < 200; ++rep) {
        std::vector<EstimateRequest> batch;
        for (size_t i = 0; i < width; ++i) {
          batch.emplace_back(queries[(rep * width + i) % queries.size()]);
        }
        const auto t0 = Clock::now();
        engine.EstimateBatch(&est, batch, &results);
        const auto t1 = Clock::now();
        out.spans.push_back({"serve.EstimateBatch", 0, t0, t1});
        batch_ms.push_back(MsBetween(t0, t1));
      }
    } else {
      for (size_t b = 0; b < batches && (b + 1) * width <= queries.size();
           ++b) {
        std::vector<EstimateRequest> batch;
        for (size_t i = 0; i < width; ++i) {
          batch.emplace_back(queries[b * width + i]);
        }
        const auto t0 = Clock::now();
        engine.EstimateBatch(&est, batch, &results);
        const auto t1 = Clock::now();
        out.spans.push_back({"serve.EstimateBatch", 0, t0, t1});
        batch_ms.push_back(MsBetween(t0, t1));
      }
    }
    out.estimate_batch_ms = Quantile(batch_ms, 0.5);
  }

  // serve: the async dispatcher's flush policy at the same width,
  // closed-loop in process (the STATS verb does not expose flush reasons).
  {
    // Declared before the engine so they outlive its dispatcher thread.
    std::mutex mu;
    std::condition_variable cv;
    size_t inflight = 0;
    AsyncEngine engine(acfg);
    const size_t total = hot ? 64 * width : std::max<size_t>(2 * width, 4);
    if (hot) {
      std::vector<std::future<EstimateResult>> fill;
      for (const Query& q : queries) {
        fill.push_back(engine.Submit(&est, EstimateRequest(q)));
      }
      for (auto& f : fill) f.get();
    }
    const AsyncEngineStats base = engine.async_stats();
    size_t sent = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      while (sent < total && inflight < width) {
        const size_t qi = hot ? sent % queries.size() : sent;
        if (qi >= queries.size()) {
          sent = total;
          break;
        }
        ++inflight;
        ++sent;
        lock.unlock();
        engine.Submit(&est, EstimateRequest(queries[qi]),
                      [&](const EstimateResult&) {
                        std::lock_guard<std::mutex> g(mu);
                        --inflight;
                        cv.notify_one();
                      });
        lock.lock();
      }
      if (sent >= total && inflight == 0) break;
      // Wait for a free slot, or, once everything is sent, for the last
      // response; a predicate that is already true would spin on `mu`.
      cv.wait(lock, [&] {
        return sent < total ? inflight < width : inflight == 0;
      });
    }
    lock.unlock();
    engine.Drain();
    const AsyncEngineStats s = engine.async_stats();
    const size_t batches = s.batches - base.batches;
    const size_t deadline_flushes = s.deadline_flushes - base.deadline_flushes;
    out.deadline_flush_frac = batches == 0
                                  ? 0.0
                                  : static_cast<double>(deadline_flushes) /
                                        static_cast<double>(batches);
  }

  // plan: compile and execute one batch's plan at the workload's width.
  {
    std::vector<const Query*> batch;
    for (size_t i = 0; i < std::min(width, queries.size()); ++i) {
      batch.push_back(&queries[i]);
    }
    SamplingPlanOptions popts;
    popts.max_group_width =
        AutoGroupWidth(model->StackedWidthHint(), KernelKind::kScalar,
                       est.config().shard_size);
    std::vector<double> compile_us;
    SamplingPlan plan;
    for (int rep = 0; rep < 50; ++rep) {
      const auto t0 = Clock::now();
      plan = CompileSamplingPlan(model, batch, popts);
      const auto t1 = Clock::now();
      out.spans.push_back({"plan.CompileSamplingPlan", 0, t0, t1});
      compile_us.push_back(MsBetween(t0, t1) * 1000.0);
    }
    out.compile_us = Quantile(compile_us, 0.5);
    size_t member_rows = 0;
    for (const PlanTree& t : plan.trees) member_rows += t.members.size();
    out.stacked_rows = plan.trees.empty()
                           ? static_cast<double>(est.config().shard_size)
                           : static_cast<double>(member_rows) /
                                 static_cast<double>(plan.trees.size()) *
                                 static_cast<double>(est.config().shard_size);
    ThreadPool pool(2);
    PlanExecutionOptions xopts;
    xopts.num_samples = est.config().num_samples;
    xopts.shard_size = est.config().shard_size;
    xopts.seed = est.config().sampler_seed;
    xopts.thread_pool = &pool;
    std::vector<double> estimates;
    const auto t0 = Clock::now();
    ExecuteSamplingPlan(model, plan, xopts, &estimates);
    const auto t1 = Clock::now();
    out.spans.push_back({"plan.ExecuteSamplingPlan", 0, t0, t1});
    out.execute_ms = MsBetween(t0, t1);
  }

  out.gemm_gflops =
      GemmGflops(*model, static_cast<size_t>(out.stacked_rows), &out);
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& client,
                const std::vector<Span>& replay, Clock::time_point origin) {
  std::ofstream out(path);
  out << "{\"unit\": \"us\", \"spans\": [\n";
  bool first = true;
  const auto emit = [&](const Span& s, const char* source) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"source\": \"" << source
        << "\", \"request_id\": " << s.request_id
        << ", \"start\": " << MsBetween(origin, s.start) * 1000.0
        << ", \"end\": " << MsBetween(origin, s.end) * 1000.0 << "}";
    first = false;
  };
  for (const Span& s : client) emit(s, "client");
  for (const Span& s : replay) emit(s, "replay");
  out << "\n]}\n";
}

/// The accuracy set: a fixed, seed-independent list of kAccuracySize
/// distinct sampled queries (4 stratified blocks). Every run serves it
/// during warm-up; the q-error metrics are computed over it, so they are
/// deterministic for a build (README.md, "Noise findings").
constexpr size_t kAccuracySize = 64;
constexpr uint64_t kAccuracySeed = 6113;

std::vector<Query> AccuracySet(const Table& table, NaruEstimator* est) {
  return BuildPool(table, est, kAccuracySize, kAccuracySeed, {});
}

/// FNV-1a of a query's canonical key: ties accuracy.txt lines to queries.
uint64_t KeyHash(const Query& q) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : QueryKey(q)) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Reference workers: the server is idle by then, so use the whole box.
constexpr size_t kReferenceThreads = 4;

/// The gate's reference: the sequential walk (NaruEstimator::Estimate,
/// default config) of each query, spread over kReferenceThreads workers
/// that each load their own copy of the bundle. Every worker runs
/// serially, and the sequential path is bit-identical across thread
/// counts, so the split only shortens the wait.
std::unordered_map<size_t, double> ReferenceEstimates(
    const std::string& bundle, const std::vector<Query>& pool,
    const std::vector<size_t>& which) {
  std::vector<double> values(which.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kReferenceThreads; ++t) {
    workers.emplace_back([&] {
      auto model = LoadModelBundle(bundle);
      Check(model.status(), "load bundle");
      NaruEstimator est(model.ValueOrDie().get(), NaruEstimatorConfig{},
                        model.ValueOrDie()->SizeBytes());
      ScopedSerialRegion serial;
      for (size_t i = next.fetch_add(1); i < which.size();
           i = next.fetch_add(1)) {
        values[i] = est.Estimate(pool[which[i]]).estimate;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::unordered_map<size_t, double> out;
  for (size_t i = 0; i < which.size(); ++i) out[which[i]] = values[i];
  return out;
}

/// `accuracy --dir D`: reference estimates (IEEE-754 bits) and executed
/// cardinalities of the accuracy set, once per prepared bundle.
int Accuracy(const Args& args) {
  const std::string dir = args.Str("dir");
  auto table_or = LoadTableFromCsv(dir + "/table.csv", "table");
  Check(table_or.status(), "load table");
  const Table& table = table_or.ValueOrDie();
  auto model_or = LoadModelBundle(dir + "/model.bundle");
  Check(model_or.status(), "load bundle");
  NaruEstimator est(model_or.ValueOrDie().get(), NaruEstimatorConfig{},
                    model_or.ValueOrDie()->SizeBytes());
  const std::vector<Query> set = AccuracySet(table, &est);
  std::vector<size_t> all(set.size());
  std::iota(all.begin(), all.end(), 0);
  const std::unordered_map<size_t, double> ref =
      ReferenceEstimates(dir + "/model.bundle", set, all);
  std::ofstream out(dir + "/accuracy.txt");
  for (size_t i = 0; i < set.size(); ++i) {
    uint64_t bits = 0;
    const double value = ref.at(i);
    std::memcpy(&bits, &value, sizeof(bits));
    out << std::hex << KeyHash(set[i]) << " " << bits << std::dec << " "
        << ExecuteCount(table, set[i]) << "\n";
  }
  if (!out) Die("cannot write accuracy.txt");
  return 0;
}

int Drive(const Args& args) {
  const std::string dir = args.Str("dir");
  const uint16_t port = static_cast<uint16_t>(args.Int("port"));
  const long server_pid = static_cast<long>(args.Int("server-pid"));
  const WorkloadSpec spec = SpecFor(args.Str("workload"));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double seconds = static_cast<double>(args.Int("seconds"));
  const bool trace = args.Int("trace") != 0;
  const std::string out_path = args.Str("out");

  JsonOut json;
  json.Num("calibration_ms", CalibrationMs());
  json.Str("simd", SimdDispatchString());

  auto table_or = LoadTableFromCsv(dir + "/table.csv", "table");
  Check(table_or.status(), "load table");
  const Table& table = table_or.ValueOrDie();
  auto model_or = LoadModelBundle(dir + "/model.bundle");
  Check(model_or.status(), "load bundle");
  std::unique_ptr<MadeModel> model = std::move(model_or).ValueOrDie();
  NaruEstimator ref_est(model.get(), NaruEstimatorConfig{}, model->SizeBytes());

  // Queries: the accuracy set first (indices < kAccuracySize, served in
  // warm-up), then the seeded distinct-key pool the timed phase draws a
  // fresh key from per request. Running out of the pool simply ends the
  // timed phase early (reported).
  std::vector<Query> pool = AccuracySet(table, &ref_est);
  std::vector<uint64_t> acc_bits(kAccuracySize);
  std::vector<int64_t> acc_card(kAccuracySize);
  {
    std::ifstream in(dir + "/accuracy.txt");
    std::unordered_set<std::string> acc_keys;
    for (size_t i = 0; i < kAccuracySize; ++i) {
      uint64_t key = 0;
      if (!(in >> std::hex >> key >> acc_bits[i] >> std::dec >> acc_card[i]) ||
          key != KeyHash(pool[i])) {
        Die("accuracy.txt does not match the accuracy set");
      }
      acc_keys.insert(QueryKey(pool[i]));
    }
    // 60 queries per timed second: five times what the scalar default
    // serves on sampled-miss.
    const size_t want =
        spec.hot ? 0
                 : (static_cast<size_t>(128 + 60 * seconds) + kBlock - 1) /
                       kBlock * kBlock;
    if (want > 0) {
      for (Query& q : BuildPool(table, &ref_est, want, seed, acc_keys)) {
        pool.push_back(std::move(q));
      }
    }
  }
  const size_t inflight = spec.conns * spec.depth;
  std::vector<std::unique_ptr<NetClient>> clients;
  for (size_t c = 0; c < spec.conns; ++c) {
    clients.push_back(std::make_unique<NetClient>());
    Check(clients.back()->Connect("127.0.0.1", port), "connect");
    Check(clients.back()->SetRecvTimeoutMs(60000), "recv timeout");
  }
  std::atomic<uint64_t> next_id{0};

  std::vector<Record> all;  // every request this run sent, all phases
  size_t transport_failures = 0;
  const auto absorb = [&](LoopResult& r) {
    transport_failures += r.transport_failures;
    all.insert(all.end(), r.records.begin(), r.records.end());
  };

  // Distinct-key source shared by all connections: each seeded pool entry
  // is sent exactly once per run.
  std::atomic<size_t> cursor{kAccuracySize};
  bool pool_exhausted = false;
  const NextQuery distinct = [&](size_t) -> int64_t {
    const size_t i = cursor.fetch_add(1);
    return i < pool.size() ? static_cast<int64_t>(i) : -1;
  };
  // Hot source: the hot pool is two of the accuracy set's four blocks,
  // picked by the seed; connection c cycles over its own block, so the two
  // connections never overlap.
  const size_t hot_blocks[2] = {seed % 4, (seed % 4 + 1 + (seed / 4) % 3) % 4};
  std::vector<size_t> hot_pos(spec.conns, 0);
  const NextQuery hot = [&](size_t c) -> int64_t {
    return static_cast<int64_t>(hot_blocks[c % 2] * kBlock +
                                hot_pos[c]++ % kBlock);
  };
  const NextQuery& source = spec.hot ? hot : distinct;

  // Warm-up (untimed): the accuracy set, once, at the workload's own
  // concurrency. It fills hot-cached's memo, and gives the distinct
  // workloads eight or more rounds before timing so workspaces and pools
  // exist.
  {
    std::atomic<size_t> next{0};
    const NextQuery warm = [&](size_t) -> int64_t {
      const size_t i = next.fetch_add(1);
      return i < kAccuracySize ? static_cast<int64_t>(i) : -1;
    };
    LoopResult w = ClosedLoop(clients, spec.depth, pool, warm,
                              [] { return false; }, false, &next_id);
    absorb(w);
    // rss_mb: the server's peak resident set after serving the fixed
    // accuracy set at the workload's concurrency. The timed phase's own
    // peak ratchets up with run length and allocator timing (README.md,
    // "Noise findings"); this one has the same inputs in every run.
    json.Num("rss_mb", ProcessPeakRssMb(server_pid));
    if (spec.hot) {
      // A short hot spin so the hit path itself is warm.
      const auto until = Clock::now() + std::chrono::milliseconds(300);
      LoopResult h = ClosedLoop(clients, spec.depth, pool, hot,
                                [&] { return Clock::now() >= until; }, false,
                                &next_id);
      absorb(h);
    }
  }

  // Timed phase. With --trace 1 the first half runs untraced and the
  // second half records client spans; trace.overhead is their qps ratio.
  const auto timed = [&](double secs, bool traced) {
    Phase p;
    p.before = FetchStats(clients[0].get(), &next_id);
    const double cpu0 = ProcessCpuMs(server_pid);
    const auto until = Clock::now() + std::chrono::microseconds(
                                          static_cast<int64_t>(secs * 1e6));
    p.loop = ClosedLoop(clients, spec.depth, pool, source,
                        [&] { return Clock::now() >= until; }, traced,
                        &next_id);
    p.cpu_ms = ProcessCpuMs(server_pid) - cpu0;
    p.after = FetchStats(clients[0].get(), &next_id);
    if (!spec.hot && cursor.load() >= pool.size()) pool_exhausted = true;
    return p;
  };
  std::vector<Phase> phases;
  if (trace) {
    phases.push_back(timed(seconds / 2, false));
    phases.push_back(timed(seconds / 2, true));
  } else {
    phases.push_back(timed(seconds, false));
  }
  const Phase& main_phase = phases.back();
  for (Phase& p : phases) absorb(p.loop);
  for (auto& c : clients) c->Close();

  // ---- Correctness gate: every answered estimate against the sequential
  // reference walk (NaruEstimator, default config, same bundle). The
  // accuracy set's references were computed once with the bundle.
  std::vector<size_t> distinct_queries;  // seeded pool entries answered
  std::vector<size_t> timed_queries;     // distinct queries of the timed phase
  {
    std::unordered_set<size_t> seen, seen_timed;
    for (const Record& r : all) {
      if (r.answered && r.query >= kAccuracySize &&
          seen.insert(r.query).second) {
        distinct_queries.push_back(r.query);
      }
    }
    for (const Record& r : main_phase.loop.records) {
      if (r.answered && seen_timed.insert(r.query).second) {
        timed_queries.push_back(r.query);
      }
    }
  }
  std::vector<double> estimate_ms;
  std::vector<std::pair<size_t, double>> timed_refs;
  if (trace) {
    // core.estimate_ms: the sequential path alone on one thread, first.
    ScopedSerialRegion serial;
    for (size_t i = 0; i < std::min<size_t>(8, timed_queries.size()); ++i) {
      const size_t q = timed_queries[i];
      const auto t0 = Clock::now();
      timed_refs.emplace_back(q, ref_est.Estimate(pool[q]).estimate);
      estimate_ms.push_back(MsBetween(t0, Clock::now()));
    }
  }
  std::unordered_map<size_t, double> reference = ReferenceEstimates(
      dir + "/model.bundle", pool, distinct_queries);
  for (size_t i = 0; i < kAccuracySize; ++i) {
    double value = 0;
    std::memcpy(&value, &acc_bits[i], sizeof(value));
    reference[i] = value;
  }
  size_t mismatches = 0, not_ok = 0, unanswered = 0;
  for (const auto& [q, value] : timed_refs) {
    if (reference.at(q) != value) ++mismatches;
  }
  for (const Record& r : all) {
    if (!r.answered) {
      ++unanswered;
      continue;
    }
    if (!r.result.ok()) {
      ++not_ok;
      continue;
    }
    uint64_t a = 0, b = 0;
    const double ref = reference.at(r.query);
    std::memcpy(&a, &r.result.estimate, sizeof(a));
    std::memcpy(&b, &ref, sizeof(b));
    if (a != b) ++mismatches;
  }
  json.Num("checked", static_cast<double>(all.size()));
  json.Num("mismatches", static_cast<double>(mismatches));
  json.Num("not_ok", static_cast<double>(not_ok));
  json.Num("unanswered", static_cast<double>(unanswered));
  json.Num("transport_failures", static_cast<double>(transport_failures));
  json.Num("pool_exhausted", pool_exhausted ? 1 : 0);

  // ---- q-error of the served estimates over the accuracy set (every one
  // was served in warm-up and matched its reference bit for bit above).
  std::vector<double> qerr;
  const double rows = static_cast<double>(table.num_rows());
  for (size_t i = 0; i < kAccuracySize; ++i) {
    qerr.push_back(QError(reference.at(i) * rows,
                          static_cast<double>(acc_card[i])));
  }
  json.Num("qerr_queries", static_cast<double>(qerr.size()));
  json.Num("qerr_p50", Quantile(qerr, 0.5));
  json.Num("qerr_p95", Quantile(qerr, 0.95));

  // ---- End-to-end numbers of the (last) timed phase.
  const Phase& m = main_phase;
  std::vector<double> rtt, queue, compute, wire;
  size_t ok = 0;
  for (const Record& r : m.loop.records) {
    if (!r.answered || !r.result.ok()) continue;
    ++ok;
    const double ms = MsBetween(r.sent, r.received);
    rtt.push_back(ms);
    queue.push_back(r.result.queue_ms);
    compute.push_back(r.result.compute_ms);
    wire.push_back(ms - r.result.queue_ms - r.result.compute_ms);
  }
  json.Num("sent", static_cast<double>(m.loop.records.size()));
  json.Num("ok", static_cast<double>(ok));
  json.Num("wall_s", m.wall_s());
  json.Num("qps", m.qps());
  json.Num("p50_ms", Quantile(rtt, 0.5));
  json.Num("p95_ms", Quantile(rtt, 0.95));
  json.Num("mean_ms", std::accumulate(rtt.begin(), rtt.end(), 0.0) /
                          std::max<double>(rtt.size(), 1));

  // ---- Server counters over the timed phase (STATS deltas).
  const ServerStats& b = m.before;
  const ServerStats& a = m.after;
  const double batches = static_cast<double>(a.batches - b.batches);
  const double completed = static_cast<double>(a.completed - b.completed);
  const double lookups = static_cast<double>((a.memo_hits - b.memo_hits) +
                                             (a.memo_misses - b.memo_misses));
  json.Num("serve.batches", batches);
  json.Num("serve.batch_mean", batches > 0 ? completed / batches : 0.0);
  json.Num("serve.largest_batch", static_cast<double>(a.largest_batch));
  json.Num("serve.memo_hits", static_cast<double>(a.memo_hits - b.memo_hits));
  const double hits = static_cast<double>(a.memo_hits - b.memo_hits);
  json.Num("serve.memo_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  json.Num("serve.joined_twins", static_cast<double>(a.joined - b.joined));
  json.Num("serve.admission_shed",
           static_cast<double>(a.admission_shed - b.admission_shed));
  json.Num("serve.queue_ms_p50", Quantile(queue, 0.5));
  json.Num("serve.queue_ms_p95", Quantile(queue, 0.95));
  json.Num("serve.compute_ms_p50", Quantile(compute, 0.5));
  json.Num("net.wire_ms_p50", Quantile(wire, 0.5));
  json.Num("net.wire_ms_p95", Quantile(wire, 0.95));
  json.Num("core.sampled", static_cast<double>(a.sampled - b.sampled));
  json.Num("core.enumerated", static_cast<double>(a.enumerated - b.enumerated));
  json.Num("core.exact", static_cast<double>(a.exact - b.exact));
  json.Num("core.workspaces", static_cast<double>(a.workspaces));
  json.Num("plan.trees", static_cast<double>(a.trees - b.trees));
  const double walk = static_cast<double>(a.walk_cols - b.walk_cols);
  const double shared = static_cast<double>(a.shared_cols - b.shared_cols);
  json.Num("plan.share_ratio", walk > 0 ? shared / walk : 0.0);
  json.Num("proc.cpu_ms_per_req", m.cpu_ms / std::max<double>(ok, 1));

  // tensor.mflop_per_query: model FLOPs the timed phase's sampled walks
  // cost, from layer shapes x rows walked (a count, not a measurement).
  {
    double per_row_per_col = 0;
    for (size_t c = 0; c < model->num_columns(); ++c) {
      per_row_per_col += FlopsPerRowForColumn(*model, c);
    }
    per_row_per_col /= static_cast<double>(model->num_columns());
    const double planned = static_cast<double>(a.planned - b.planned);
    // plan_walk_cols / plan_shared_cols count column steps of ONE shard;
    // the shards of a walk together cover num_samples rows.
    const double row_steps = (walk - shared) *
                             static_cast<double>(ref_est.config().num_samples);
    json.Num("tensor.mflop_per_query",
             planned > 0 ? row_steps * per_row_per_col / planned / 1e6 : 0.0);
  }

  if (trace) {
    json.Num("trace.overhead",
             phases[1].qps() / std::max(phases[0].qps(), 1e-9));
    json.Num("core.estimate_ms", Quantile(estimate_ms, 0.5));
    std::vector<Query> replay_queries;
    for (size_t q : timed_queries) replay_queries.push_back(pool[q]);
    const Replay r = ReplayLayers(model.get(), replay_queries, m.loop.records,
                                  inflight, spec.hot);
    json.Num("net.codec_us", r.codec_us);
    json.Num("net.req_bytes", r.req_bytes);
    json.Num("net.resp_bytes", r.resp_bytes);
    json.Num("serve.estimate_batch_ms", r.estimate_batch_ms);
    json.Num("serve.deadline_flush_frac", r.deadline_flush_frac);
    json.Num("plan.compile_us", r.compile_us);
    json.Num("plan.execute_ms", r.execute_ms);
    json.Num("tensor.gemm_gflops", r.gemm_gflops);
    WriteSpans(dir + "/spans.json", m.loop.spans, r.spans, m.loop.start);
  }
  json.Write(out_path);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace naru

int main(int argc, char** argv) {
  using namespace naru::perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen prepare|accuracy|probe|drive "
                 "--key value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (cmd == "prepare") return Prepare(args);
  if (cmd == "probe") return Probe(args);
  if (cmd == "accuracy") return Accuracy(args);
  if (cmd == "drive") return Drive(args);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
