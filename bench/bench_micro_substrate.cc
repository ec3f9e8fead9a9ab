// Micro-benchmarks (google-benchmark) for the substrate layers: GEMM,
// model forward passes, conditional queries, progressive sample paths,
// oracle sessions and ground-truth scans. These calibrate the cost model
// behind Table 6 and document raw throughput on the host machine.
#include <benchmark/benchmark.h>

#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "query/workload.h"
#include "tensor/gemm.h"
#include "util/random.h"

namespace naru {
namespace {

void FillRandom(Matrix* m, Rng* rng) {
  // Row-wise over cols(): Matrix rows are stride-padded and the padding
  // must stay zero (see tensor/matrix.h).
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->Row(i);
    for (size_t j = 0; j < m->cols(); ++j) {
      row[j] = static_cast<float>(rng->Gaussian());
    }
  }
}

void BM_GemmNN(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a(512, dim);
  Matrix b(dim, dim);
  Matrix c;
  FillRandom(&a, &rng);
  FillRandom(&b, &rng);
  for (auto _ : state) {
    GemmNN(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512 *
                          static_cast<int64_t>(dim) *
                          static_cast<int64_t>(dim) * 2);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

struct ModelFixture {
  ModelFixture()
      : table(MakeDmvLike(20000, 3)),
        model(
            [&] {
              std::vector<size_t> domains;
              for (size_t c = 0; c < table.num_columns(); ++c) {
                domains.push_back(table.column(c).DomainSize());
              }
              MadeModel::Config cfg;
              cfg.hidden_sizes = {128, 128, 128, 128};
              cfg.encoder.embed_dim = 32;
              cfg.seed = 7;
              return MadeModel(domains, cfg);
            }()) {}
  Table table;
  MadeModel model;
};

ModelFixture* GetFixture() {
  static ModelFixture* fixture = new ModelFixture();
  return fixture;
}

void BM_MadeForwardBackward(benchmark::State& state) {
  auto* f = GetFixture();
  const size_t batch = static_cast<size_t>(state.range(0));
  IntMatrix codes(batch, f->table.num_columns());
  for (size_t r = 0; r < batch; ++r) {
    f->table.GetRowCodes(r % f->table.num_rows(), codes.Row(r));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->model.ForwardBackward(codes));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_MadeForwardBackward)->Arg(128)->Arg(512);

void BM_MadeLogProb(benchmark::State& state) {
  auto* f = GetFixture();
  const size_t batch = 1024;
  IntMatrix codes(batch, f->table.num_columns());
  for (size_t r = 0; r < batch; ++r) {
    f->table.GetRowCodes(r % f->table.num_rows(), codes.Row(r));
  }
  std::vector<double> lp;
  for (auto _ : state) {
    f->model.LogProbRows(codes, &lp);
    benchmark::DoNotOptimize(lp.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_MadeLogProb);

void BM_ProgressiveSampling(benchmark::State& state) {
  auto* f = GetFixture();
  const size_t paths = static_cast<size_t>(state.range(0));
  WorkloadConfig wcfg;
  wcfg.num_queries = 8;
  wcfg.seed = 3;
  const auto queries = GenerateWorkload(f->table, wcfg);
  NaruEstimatorConfig ncfg;
  ncfg.num_samples = paths;
  ncfg.enumeration_threshold = 0;
  NaruEstimator estimator(&f->model, ncfg, 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.EstimateSelectivity(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(paths));
}
BENCHMARK(BM_ProgressiveSampling)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_OracleSession(benchmark::State& state) {
  static Table* table = new Table(MakeConvivaBLike(10000, 5, 30));
  OracleModel oracle(table);
  WorkloadConfig wcfg;
  wcfg.num_queries = 4;
  wcfg.min_filters = 5;
  wcfg.max_filters = 12;
  wcfg.seed = 9;
  const auto queries = GenerateWorkload(*table, wcfg);
  NaruEstimatorConfig ncfg;
  ncfg.num_samples = 1000;
  ncfg.enumeration_threshold = 0;
  NaruEstimator estimator(&oracle, ncfg, 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.EstimateSelectivity(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_OracleSession)->Unit(benchmark::kMillisecond);

void BM_ExecutorScan(benchmark::State& state) {
  auto* f = GetFixture();
  WorkloadConfig wcfg;
  wcfg.num_queries = 16;
  wcfg.seed = 11;
  const auto queries = GenerateWorkload(f->table, wcfg);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecuteCount(f->table, queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f->table.num_rows()));
}
BENCHMARK(BM_ExecutorScan);

}  // namespace
}  // namespace naru

BENCHMARK_MAIN();
