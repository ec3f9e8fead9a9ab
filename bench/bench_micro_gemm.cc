// Micro-benchmark for the kernel layer (tensor/gemm.cc, gemm_simd.cc):
// GFLOP/s of scalar vs SIMD GEMM at the shapes the MADE serving
// path actually runs, plus the NT head-reuse shapes (a small one and the
// perfbench column-6 head). Single-threaded on purpose
// (ScopedSerialRegion) so the numbers measure the kernels, not the pool.
// The banner and the JSON config (`scalar_tile_cols`) name the scalar
// kernel's tile width on this host.
//
// Emits BENCH_micro_gemm.json (shared schema, see bench_common.h) with one
// row per (shape, kernel): GFLOP/s, speedup over scalar at the same shape,
// and matrix-level max relative error vs the scalar result. A second table
// times one whole sampling walk per kernel ("made_walk" rows): an in-order
// 11-column walk on the perfbench model shape through a MADE session
// (incremental trunk) vs the same walk through stateless
// ConditionalDistWith (full trunk per column), plus the session walk's
// slowest column step and its best-of time. Beside the perfbench-shape
// head GEMM, "softmax_rows" and "column_epilogue" rows time what a column
// step does after that GEMM on its 1000x1175 logits block: SoftmaxRows
// alone, and SoftmaxRows plus SamplerColumnStep's region mask and draw.
// Each is timed on the native softmax path and on the portable fallback
// (SetSimdLevelOverrideForTest(kNone), the libm exp loop), next to the
// scalar head GEMM's time.
//
// Exit status: nonzero when a kernel's result diverges from scalar beyond
// its epsilon, or a session walk step differs bitwise from its stateless
// twin (always); or — under --smoke with perf asserts enabled — when a
// session walk is slower than the stateless walk, or, with the AVX2 probe
// active, when the fp32 SIMD kernel fails a lenient 1.2x speedup floor at
// the 64x128x128 MADE hidden-layer shape (the CI tripwire; the acceptance
// target on dedicated hardware is 2x, reported in the headline line).
//
// Knobs: --smoke (shorter timing windows), NARU_KERNEL is ignored here —
// this bench always measures all kernels side by side.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/made.h"
#include "core/sampler.h"
#include "data/datasets.h"
#include "query/query.h"
#include "tensor/gemm.h"
#include "tensor/kernel.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace naru {
namespace bench {
namespace {

void FillRandom(Matrix* m, Rng* rng) {
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    for (size_t j = 0; j < m->cols(); ++j) {
      row[j] = static_cast<float>(rng->Gaussian());
    }
  }
}

// One nonzero per 16-wide column group: the one-hot encoded input shape.
void FillOneHotish(Matrix* m, Rng* rng) {
  m->Zero();
  for (size_t i = 0; i < m->rows(); ++i) {
    for (size_t g = 0; g < m->cols(); g += 16) {
      const size_t span = std::min<size_t>(16, m->cols() - g);
      m->At(i, g + rng->UniformInt(span)) = 1.0f;
    }
  }
}

double MaxRelErr(const Matrix& ref, const Matrix& got) {
  double max_abs = 0, max_diff = 0;
  for (size_t i = 0; i < ref.rows(); ++i) {
    for (size_t j = 0; j < ref.cols(); ++j) {
      max_abs = std::max<double>(max_abs, std::fabs(ref.At(i, j)));
      max_diff =
          std::max<double>(max_diff, std::fabs(ref.At(i, j) - got.At(i, j)));
    }
  }
  return max_diff / (max_abs + 1e-12);
}

struct Case {
  const char* name;
  const char* op;  // "nn" | "nn_onehot" | "nt"
  size_t m, k, n;
};

// Timed loop: iterate until the window closes, report GFLOP/s.
template <typename Fn>
double TimeGflops(const Case& cs, double min_seconds, Fn&& fn) {
  fn();  // warm-up (also first-touch of the output)
  Stopwatch sw;
  size_t iters = 0;
  do {
    fn();
    ++iters;
  } while (sw.ElapsedSeconds() < min_seconds);
  const double secs = sw.ElapsedSeconds();
  const double flops = 2.0 * static_cast<double>(cs.m) *
                       static_cast<double>(cs.k) * static_cast<double>(cs.n) *
                       static_cast<double>(iters);
  return flops / secs / 1e9;
}

// Fastest of repeated calls (at least 3, until the window closes), in ms.
template <typename Fn>
double BestMs(double min_seconds, Fn&& fn) {
  fn();  // warm-up
  double best = 0;
  Stopwatch window;
  for (size_t iter = 0; iter < 3 || window.ElapsedSeconds() < min_seconds;
       ++iter) {
    Stopwatch sw;
    fn();
    const double ms = sw.ElapsedSeconds() * 1e3;
    if (iter == 0 || ms < best) best = ms;
  }
  return best;
}

// One sampling walk per kernel on the perfbench model shape: the 11
// DMV-like columns with default MadeModel::Config (4x128 hidden, embedding
// reuse), untrained weights, `rows` sample paths. The session walk must be
// bitwise equal to the stateless one at every column; `session_slower`
// reports whether it ever took longer.
bool RunWalkRows(double min_seconds, size_t rows, BenchJsonWriter* json,
                 bool* session_slower) {
  const Table table = MakeDmvLike(20000, /*seed=*/1);
  std::vector<size_t> domains;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    domains.push_back(table.column(c).DomainSize());
  }
  MadeModel model(domains, MadeModel::Config{});
  const size_t n = model.num_columns();
  IntMatrix samples(rows, n);
  Rng rng(11);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < n; ++c) {
      samples.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }

  std::printf("\n%-20s %-10s %12s %12s %9s %14s\n", "walk", "kernel",
              "session_ms", "stateless_ms", "speedup", "slowest_col");
  bool ok = true;
  *session_slower = false;
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model.SetInferenceKernel(kernel);
    std::vector<Matrix> session_probs(n), stateless_probs(n);
    // Best-of time of each column step across the timed session walks.
    std::vector<double> col_ms(n, std::numeric_limits<double>::infinity());
    const double session_ms = BestMs(min_seconds, [&] {
      auto session = model.StartSession(rows);
      for (size_t col = 0; col < n; ++col) {
        Stopwatch sw;
        session->Dist(samples, col, &session_probs[col]);
        col_ms[col] = std::min(col_ms[col], sw.ElapsedSeconds() * 1e3);
      }
    });
    const size_t slowest_col = static_cast<size_t>(
        std::max_element(col_ms.begin(), col_ms.end()) - col_ms.begin());
    MadeModel::EvalContext ctx;
    const double stateless_ms = BestMs(min_seconds, [&] {
      for (size_t col = 0; col < n; ++col) {
        model.ConditionalDistWith(&ctx, samples, col, &stateless_probs[col]);
      }
    });
    for (size_t col = 0; col < n; ++col) {
      const Matrix& a = session_probs[col];
      const Matrix& b = stateless_probs[col];
      if (a.rows() != b.rows() || a.cols() != b.cols() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        std::printf("FAIL: made_walk/%s column %zu: session differs from "
                    "stateless ConditionalDistWith\n",
                    KernelKindName(kernel), col);
        ok = false;
      }
    }
    if (session_ms > stateless_ms) *session_slower = true;
    const double speedup = session_ms > 0 ? stateless_ms / session_ms : 0;
    std::printf("%-20s %-10s %12.2f %12.2f %8.2fx %6.2f (c%zu)\n",
                "made_walk", KernelKindName(kernel), session_ms,
                stateless_ms, speedup, col_ms[slowest_col], slowest_col);
    json->AddRow({{"shape", "made_walk"},
                  {"op", "walk"},
                  {"m", rows},
                  {"k", n},
                  {"n", 0},
                  {"kernel", KernelKindName(kernel)},
                  {"session_ms", session_ms},
                  {"stateless_ms", stateless_ms},
                  {"speedup_vs_stateless", speedup},
                  {"slowest_col", slowest_col},
                  {"slowest_col_ms", col_ms[slowest_col]}});
  }
  return ok;
}

// The column step's work after the head GEMM, on that GEMM's logits
// (m paths x the column's n values): SoftmaxRows alone ("softmax_rows")
// and SoftmaxRows plus SamplerColumnStep's mask and draw under a range
// predicate keeping about half the column ("column_epilogue"), each on
// the native path and the portable fallback. `head_gemm_ms` is the
// scalar head GEMM's time for the same block.
void RunEpilogueRows(double min_seconds, const Matrix& logits,
                     double head_gemm_ms, BenchJsonWriter* json) {
  const size_t m = logits.rows();
  const size_t n = logits.cols();
  // A model whose position 6 has the block's domain: the mask reads only
  // the query's region there, and FallbackCode its first code.
  std::vector<size_t> domains(7, 2);
  domains[6] = n;
  MadeModel model(domains, MadeModel::Config{});
  std::vector<ValueSet> regions;
  for (size_t d : domains) regions.push_back(ValueSet::All(d));
  regions[6] = ValueSet::Interval(n, static_cast<int64_t>(n / 4),
                                  static_cast<int64_t>(n * 3 / 4));
  const Query query(std::move(regions));
  IntMatrix samples(m, domains.size());
  samples.Fill(0);
  Matrix probs;
  std::vector<double> weights(m);
  std::vector<uint8_t> alive(m);
  Rng rng(13);

  std::printf("\n%-20s %-14s %-10s %10s %14s\n", "epilogue", "m x n", "path",
              "ms", "vs_head_gemm");
  for (const bool fallback : {false, true}) {
    if (fallback) SetSimdLevelOverrideForTest(SimdLevel::kNone);
    const char* path = fallback ? "fallback" : "native";
    const double softmax_ms =
        BestMs(min_seconds, [&] { SoftmaxRows(logits, &probs); });
    const double epilogue_ms = BestMs(min_seconds, [&] {
      SoftmaxRows(logits, &probs);
      std::fill(weights.begin(), weights.end(), 1.0);
      std::fill(alive.begin(), alive.end(), 1);
      const SamplerRowBlock block{&samples, &probs, weights.data(),
                                  alive.data(), 0, m};
      SamplerColumnStep(&model, query, 6, /*wildcard=*/false, block, &rng);
    });
    if (fallback) ClearSimdLevelOverrideForTest();
    const std::string dims = StrFormat("%zux%zu", m, n);
    for (const auto& [shape, ms] :
         {std::pair<const char*, double>{"softmax_rows", softmax_ms},
          {"column_epilogue", epilogue_ms}}) {
      const double vs_gemm = head_gemm_ms > 0 ? ms / head_gemm_ms : 0;
      std::printf("%-20s %-14s %-10s %10.3f %13.2fx\n", shape, dims.c_str(),
                  path, ms, vs_gemm);
      json->AddRow({{"shape", shape},
                    {"op", "epilogue"},
                    {"m", m},
                    {"k", 0},
                    {"n", n},
                    {"path", path},
                    {"time_ms", ms},
                    {"head_gemm_ms", head_gemm_ms},
                    {"vs_head_gemm", vs_gemm}});
    }
  }
}

int Run() {
  const bool smoke = GetEnvBool("NARU_SMOKE", false);
  const double min_seconds = smoke ? 0.02 : 0.25;
  // The scalar kernel's register tile: 4x16 (256-bit) on AVX2 hosts, else
  // 4x8 (128-bit). Same bits either way, different speed.
  const size_t scalar_tile_cols = ScalarTileCols();
  PrintBanner("Micro GEMM: scalar vs simd",
              StrFormat("%s; scalar tile 4x%zu (%zu-bit); window=%.0fms%s",
                        SimdDispatchString().c_str(), scalar_tile_cols,
                        scalar_tile_cols * 16, min_seconds * 1e3,
                        smoke ? " (smoke)" : ""));

  const Case cases[] = {
      // The MADE hidden-layer shape (batch=samples-shard, 128->128): the
      // acceptance shape for the 2x target.
      {"made_hidden", "nn", 64, 128, 128},
      // A full progressive-sampling shard stack.
      {"made_stacked", "nn", 512, 128, 128},
      // The encoded input layer: one-hot rows into the first hidden layer.
      {"made_input_onehot", "nn_onehot", 64, 480, 128},
      // Embedding-reuse output head: logits = trunk x table^T.
      {"head_reuse_nt", "nt", 64, 32, 100},
      // The same head at the perfbench shape: a 1000-row walk at the
      // 1175-value column 6 (64-wide embeddings).
      {"head_reuse_nt", "nt", 1000, 64, 1175},
  };

  BenchJsonWriter json("micro_gemm");
  json.SetConfig("smoke", smoke);
  json.SetConfig("min_seconds", min_seconds);
  json.SetConfig("scalar_tile_cols", scalar_tile_cols);

  std::printf("\n%-20s %-14s %-10s %10s %9s %12s\n", "shape", "m x k x n",
              "kernel", "gflops", "speedup", "max_rel_err");

  ScopedSerialRegion serial;  // measure kernels, not the pool
  Rng rng(5);
  bool ok = true;
  double made_hidden_simd_speedup = 0;
  // The perfbench-shape head (the last case): its scalar logits and time
  // feed the epilogue rows.
  Matrix column6_logits;
  double column6_gemm_ms = 0;

  for (const Case& cs : cases) {
    Matrix a(cs.m, cs.k);
    const bool onehot = std::string(cs.op) == "nn_onehot";
    if (onehot) {
      FillOneHotish(&a, &rng);
    } else {
      FillRandom(&a, &rng);
    }
    const InputHint hint = onehot ? InputHint::kOneHot : InputHint::kDense;
    const bool nt = std::string(cs.op) == "nt";
    Matrix b(nt ? cs.n : cs.k, nt ? cs.k : cs.n);
    FillRandom(&b, &rng);

    Matrix ref, out;
    double scalar_gflops = 0;
    for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
      const std::string kname = KernelKindName(kernel);
      double gflops = 0;
      if (nt) {
        gflops = TimeGflops(cs, min_seconds,
                            [&] { GemmNT(a, b, &out, false, kernel); });
      } else {
        gflops = TimeGflops(cs, min_seconds,
                            [&] { GemmNN(a, b, &out, false, kernel, hint); });
      }
      double rel_err = 0;
      if (kernel == KernelKind::kScalar) {
        scalar_gflops = gflops;
        ref = out;
        if (nt && cs.m == 1000) {
          column6_logits = out;
          column6_gemm_ms = 2.0 * static_cast<double>(cs.m * cs.k * cs.n) /
                            (gflops * 1e6);
        }
      } else {
        rel_err = MaxRelErr(ref, out);
        // The SIMD kernels reassociate (FMA) but compute the same sums.
        const double bound = 1e-3;
        if (rel_err > bound) {
          std::printf("FAIL: %s/%s rel err %.3g exceeds %.3g\n", cs.name,
                      kname.c_str(), rel_err, bound);
          ok = false;
        }
      }
      const double speedup = scalar_gflops > 0 ? gflops / scalar_gflops : 0;
      if (std::string(cs.name) == "made_hidden" && kname == "simd") {
        made_hidden_simd_speedup = speedup;
      }
      const std::string dims = StrFormat("%zux%zux%zu", cs.m, cs.k, cs.n);
      std::printf("%-20s %-14s %-10s %10.2f %8.2fx %12.3g\n", cs.name,
                  dims.c_str(), kname.c_str(), gflops, speedup, rel_err);
      json.AddRow({{"shape", cs.name},
                   {"op", cs.op},
                   {"m", cs.m},
                   {"k", cs.k},
                   {"n", cs.n},
                   {"kernel", kname},
                   {"gflops", gflops},
                   {"speedup_vs_scalar", speedup},
                   {"max_rel_err", rel_err}});
    }
  }

  RunEpilogueRows(min_seconds, column6_logits, column6_gemm_ms, &json);

  bool session_slower = false;
  if (!RunWalkRows(min_seconds, smoke ? 128 : 1000, &json, &session_slower)) {
    ok = false;
  }

  std::printf("\nheadline: simd speedup at 64x128x128 = %.2fx "
              "(acceptance target 2x on AVX2 hardware)\n",
              made_hidden_simd_speedup);
  json.SetConfig("made_hidden_simd_speedup", made_hidden_simd_speedup);
  json.Write();

  if (smoke && PerfAssertsEnabled() &&
      DetectedSimdLevel() == SimdLevel::kAvx2 &&
      made_hidden_simd_speedup < 1.2) {
    // Lenient CI floor: shared runners are noisy, so the tripwire is well
    // under the 2x acceptance target. Waived entirely under
    // NARU_SMOKE_NO_PERF_ASSERT (sanitizer legs): instrumentation skews
    // the scalar/simd ratio, not just absolute time.
    std::printf("FAIL: smoke speedup floor 1.2x not met (%.2fx)\n",
                made_hidden_simd_speedup);
    ok = false;
  }
  if (smoke && PerfAssertsEnabled() && session_slower) {
    // The incremental trunk does a strict subset of the stateless walk's
    // hidden-layer work, so a slower session walk is a regression.
    std::printf("FAIL: a session walk was slower than the stateless walk\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
