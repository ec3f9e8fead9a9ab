// §5.1 / §6.7.2 ablation: four ways to integrate the SAME trained model
// over a query region.
//
//   progressive   Algorithm 1 (steers samples through the conditionals)
//   uniform       the §5.1 strawman: uniform draws from the region,
//                 importance-weighted by |R| · P̂(x)
//   rejection     ancestral draws x ~ P̂, estimate = mean 1[x ∈ R]
//                 (converges like p(1-p)/S — collapses at low selectivity)
//   enumeration   exact Σ_R P̂(x), where the region is small enough
//
// Because all four integrate the same P̂, differences in this table are
// PURE integrator error: the model's own approximation error cancels out.
// The paper's claim is that only progressive sampling survives skewed,
// low-selectivity, high-dimensional regions; rejection sits between the
// uniform strawman and progressive sampling, and MH-style chains (see
// core/generator.h) fix sample *generation*, not mass estimation.
#include <cstdio>

#include "bench_common.h"
#include "core/enumerator.h"
#include "core/generator.h"
#include "core/naru_estimator.h"
#include "util/string_util.h"

namespace naru {
namespace bench {
namespace {

int Run() {
  const BenchEnv env = GetBenchEnv();
  const size_t kSamples = 2000;
  PrintBanner(
      "Ablation (§5.1/§6.7.2): progressive vs uniform vs rejection "
      "integrators",
      StrFormat("DMV rows=%zu queries=%zu samples/query=%zu",
                env.dmv_rows / 2, env.queries / 2, kSamples));

  Table table = MakeDmvLike(env.dmv_rows / 2, env.seed);
  Workload workload = MakeWorkload(table, env.queries / 2, env.seed + 47);
  auto model = TrainModel(table, DmvModelConfig(env.seed + 3),
                          std::max<size_t>(env.epochs / 2, 3), "DMV");

  // Ground truth for the *model mass* is not available in closed form on
  // big regions, so errors here are against the TABLE ground truth — the
  // shared model error affects all integrators identically.
  ErrorReport progressive("progressive");
  ErrorReport uniform("uniform-region");
  ErrorReport rejection("rejection");

  NaruEstimatorConfig pcfg;
  pcfg.num_samples = kSamples;
  pcfg.sampler_seed = env.seed + 11;
  pcfg.enumeration_threshold = 0;
  NaruEstimator naru_est(model.get(), pcfg, 0);

  const double rows = static_cast<double>(table.num_rows());
  size_t uniform_zeros = 0, rejection_zeros = 0;
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const Query& q = workload.queries[qi];
    const double actual = static_cast<double>(workload.cards[qi]);

    const double p_est = naru_est.EstimateSelectivity(q);
    progressive.Add(p_est * rows, actual, workload.sels[qi]);

    const double u_est = UniformRegionSelectivity(model.get(), q, kSamples,
                                                  pcfg.sampler_seed);
    uniform_zeros += (u_est == 0.0 && actual > 0);
    uniform.Add(u_est * rows, actual, workload.sels[qi]);

    const double r_est =
        RejectionSelectivity(model.get(), q, kSamples, env.seed + 13 + qi);
    rejection_zeros += (r_est == 0.0 && actual > 0);
    rejection.Add(r_est * rows, actual, workload.sels[qi]);
  }

  PrintErrorTable("Integrator comparison (same model, same sample budget)",
                  {&progressive, &uniform, &rejection});
  std::printf("# zero estimates on non-empty queries: uniform %zu/%zu, "
              "rejection %zu/%zu, progressive 0\n",
              uniform_zeros, workload.queries.size(), rejection_zeros,
              workload.queries.size());

  // Exactness cross-check on small regions: enumeration vs progressive.
  size_t checked = 0;
  double worst_ratio = 1.0;
  for (size_t qi = 0; qi < workload.queries.size() && checked < 10; ++qi) {
    const Query& q = workload.queries[qi];
    if (q.Log10RegionSize() > 4.0) continue;
    const double exact = EnumerateSelectivity(model.get(), q);
    if (exact <= 0) continue;
    const double est = naru_est.EstimateSelectivity(q);
    const double ratio = est > exact ? est / exact : exact / est;
    worst_ratio = std::max(worst_ratio, ratio);
    ++checked;
  }
  if (checked > 0) {
    std::printf("# progressive vs exact enumeration on %zu small regions: "
                "worst ratio %.3f\n",
                checked, worst_ratio);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace naru

int main(int argc, char** argv) {
  naru::bench::InitBench(argc, argv);
  return naru::bench::Run();
}
