// Every serving route against the reference walker (reference_walk.h):
// NaruEstimator::Estimate (a one-query plan through the private engine)
// and multi-query InferenceEngine::EstimateBatch must reproduce Algorithm
// 1, written out plainly, bit for bit — estimate and standard error — for
// every model family, at 1, 2 and 4 engine threads, at plan widths 1,
// auto and 64, whole and in chunks, and under every inference kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/factorized.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/ordered_model.h"
#include "core/percolumn.h"
#include "core/trainer.h"
#include "core/transformer.h"
#include "data/datasets.h"
#include "estimator/bayesnet.h"
#include "plan/sampling_plan.h"
#include "query/workload.h"
#include "reference_walk.h"
#include "serve/inference_engine.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

// Two columns above the one-hot threshold (embedding-encoded, reuse heads)
// and above the factorization threshold (split into sub-columns).
const std::vector<size_t> kDomains = {6, 5, 40, 4, 70, 5};
constexpr size_t kSamples = 200;
constexpr size_t kShard = 64;
constexpr uint64_t kSeed = 13;

Table WalkTable() {
  return MakeRandomTable(500, kDomains, /*seed=*/91, /*skew=*/1.0);
}

MadeModel::Config SmallMade(bool residual) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.encoder.embed_dim = 8;
  cfg.residual = residual;
  cfg.seed = 3;
  return cfg;
}

/// One trained model of the named family (the BayesNet and the Oracle
/// are built from the table directly).
std::unique_ptr<ConditionalModel> Build(const std::string& family,
                                        const Table& table) {
  std::unique_ptr<ConditionalModel> model;
  TrainableModel* trainable = nullptr;
  if (family == "made" || family == "resmade") {
    auto m = std::make_unique<MadeModel>(kDomains,
                                         SmallMade(family == "resmade"));
    trainable = m.get();
    model = std::move(m);
  } else if (family == "ordered") {
    const std::vector<size_t> order = {3, 0, 4, 1, 5, 2};
    auto m = std::make_unique<OrderedModel>(
        std::make_unique<MadeModel>(
            OrderedModel::PermuteDomains(kDomains, order), SmallMade(false)),
        order);
    trainable = m.get();
    model = std::move(m);
  } else if (family == "factorized") {
    FactorizedLayout layout = FactorizedLayout::Build(kDomains, 32);
    auto m = std::make_unique<FactorizedModel>(
        std::make_unique<MadeModel>(layout.position_domains(),
                                    SmallMade(false)),
        std::move(layout));
    trainable = m.get();
    model = std::move(m);
  } else if (family == "transformer") {
    TransformerModel::Config cfg;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.num_layers = 1;
    cfg.ffn_hidden = 32;
    cfg.seed = 3;
    auto m = std::make_unique<TransformerModel>(kDomains, cfg);
    trainable = m.get();
    model = std::move(m);
  } else if (family == "percolumn") {
    PerColumnModel::Config cfg;
    cfg.hidden_sizes = {16, 16};
    cfg.encoder.onehot_threshold = 6;
    cfg.encoder.embed_dim = 4;
    cfg.seed = 3;
    auto m = std::make_unique<PerColumnModel>(kDomains, cfg);
    trainable = m.get();
    model = std::move(m);
  } else if (family == "oracle") {
    return std::make_unique<OracleModel>(&table, /*smoothing_lambda=*/0.1);
  } else {
    return std::make_unique<BayesNet>(table);
  }
  TrainerConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 128;
  Trainer(trainable, tcfg).Train(table);
  return model;
}

/// A query constraining `cols` to the interval [1, hi] (table order).
Query QueryOn(const std::vector<size_t>& cols, int32_t hi = 2) {
  std::vector<ValueSet> regions;
  for (size_t d : kDomains) regions.push_back(ValueSet::All(d));
  for (size_t c : cols) regions[c] = ValueSet::Interval(kDomains[c], 1, hi);
  return Query(regions);
}

/// Every answer shape: empty region, all-wildcard, leading-only, leading
/// wildcards the plans share, wide ranges over the embedded columns, a
/// full-width query, and a random workload with IN-lists. Two families
/// share a constrained prefix and fork after it: {0,1,3}, {0,1,4} and
/// {0,1,5} share [1,2] on columns 0 and 1; {2,3} and {2,5} share [1,2] on
/// column 2 behind two leading wildcards.
std::vector<Query> WalkQueries(const Table& table) {
  std::vector<ValueSet> empty;
  for (size_t d : kDomains) empty.push_back(ValueSet::All(d));
  empty[3] = ValueSet::Empty(kDomains[3]);
  std::vector<Query> queries = {
      Query(empty), QueryOn({}), QueryOn({0}), QueryOn({2, 4}, 20),
      QueryOn({3, 5}), QueryOn({0, 1, 3}), QueryOn({0, 1, 4}),
      QueryOn({0, 1, 5}), QueryOn({2, 3}), QueryOn({2, 5}),
      QueryOn({0, 1, 4}, 30), QueryOn({1, 2}, 9), QueryOn({4}, 50),
      QueryOn({0, 1, 2, 3, 4, 5}, 3)};
  WorkloadConfig wcfg;
  wcfg.num_queries = 8;
  wcfg.min_filters = 1;
  wcfg.max_filters = 4;
  wcfg.in_probability = 0.3;
  wcfg.leading_wildcards = 2;
  wcfg.leading_wildcard_fraction = 0.5;
  wcfg.seed = 17;
  for (Query& q : GenerateWorkload(table, wcfg)) queries.push_back(q);
  return queries;
}

std::vector<KernelKind> KernelsOf(const std::string& family) {
  // The Oracle, the per-column nets and the BayesNet have no tuned
  // kernels: SetInferenceKernel is a no-op there.
  if (family == "oracle" || family == "percolumn" || family == "bayesnet") {
    return {KernelKind::kScalar};
  }
  return {KernelKind::kScalar, KernelKind::kSimd};
}

class ReferenceWalkTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReferenceWalkTest, EveryRouteMatchesTheWalkerBitForBit) {
  const std::string family = GetParam();
  const Table table = WalkTable();
  std::unique_ptr<ConditionalModel> model = Build(family, table);
  const std::vector<Query> queries = WalkQueries(table);

  // Each constrained-prefix family compiles to one tree that forks after
  // the shared constrained segment (the Ordered model walks its columns
  // in another order, where these queries share no prefix).
  if (family != "ordered") {
    for (const std::vector<Query>& fam :
         {std::vector<Query>{QueryOn({0, 1, 3}), QueryOn({0, 1, 4}),
                             QueryOn({0, 1, 5})},
          std::vector<Query>{QueryOn({2, 3}), QueryOn({2, 5})}}) {
      std::vector<const Query*> ptrs;
      for (const Query& q : fam) ptrs.push_back(&q);
      const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
      EXPECT_EQ(plan.trees.size(), 1u);
      EXPECT_GE(plan.MaxForkDepth(), 1u);
    }
  }

  for (const KernelKind kernel : KernelsOf(family)) {
    SCOPED_TRACE(std::string("kernel ") + KernelKindName(kernel));
    NaruEstimatorConfig ecfg;
    ecfg.num_samples = kSamples;
    ecfg.shard_size = kShard;
    ecfg.enumeration_threshold = 0;  // every non-exact query walks
    ecfg.sampler_seed = kSeed;
    ecfg.kernel = kernel;  // applied to the model, walker included
    NaruEstimator est(model.get(), ecfg, /*model_size_bytes=*/0);

    std::vector<reference::WalkResult> want;
    for (const Query& q : queries) {
      want.push_back(
          reference::Walk(model.get(), q, kSamples, kShard, kSeed));
    }

    for (size_t i = 0; i < queries.size(); ++i) {
      const EstimateResult r = est.Estimate(queries[i]);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(r.estimate, want[i].estimate) << "Estimate, query " << i;
      EXPECT_EQ(r.std_error, want[i].std_error) << "Estimate, query " << i;
    }

    // Every query that is not an exact shortcut walks through the plan
    // executor, whatever the model. The batch is served whole and in
    // chunks of 5: different plans, so different forks and relayouts.
    size_t num_sampled = 0;
    for (const Query& q : queries) {
      num_sampled += est.sampler()->Classify(q) ==
                     ProgressiveSampler::Path::kSampled;
    }
    ASSERT_GT(num_sampled, 0u);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      for (const size_t width : {size_t{1}, size_t{0}, size_t{64}}) {
        for (const size_t chunk : {queries.size(), size_t{5}}) {
          InferenceEngineConfig cfg;
          cfg.num_threads = threads;
          cfg.group_width = width;  // 0 = AutoGroupWidth
          cfg.cache_budget_bytes = 0;
          InferenceEngine engine(cfg);
          for (size_t lo = 0; lo < queries.size(); lo += chunk) {
            const size_t hi = std::min(queries.size(), lo + chunk);
            std::vector<EstimateRequest> requests;
            for (size_t i = lo; i < hi; ++i) requests.emplace_back(queries[i]);
            std::vector<EstimateResult> got;
            engine.EstimateBatch(&est, requests, &got);
            ASSERT_EQ(got.size(), hi - lo);
            for (size_t i = lo; i < hi; ++i) {
              const EstimateResult& r = got[i - lo];
              ASSERT_TRUE(r.ok()) << r.status.ToString();
              EXPECT_EQ(r.estimate, want[i].estimate)
                  << "threads " << threads << " width " << width << " chunk "
                  << chunk << " query " << i;
              EXPECT_EQ(r.std_error, want[i].std_error)
                  << "threads " << threads << " width " << width << " chunk "
                  << chunk << " query " << i;
            }
          }
          EXPECT_EQ(engine.stats().planned_queries, num_sampled);
        }
      }
    }
  }
  model->SetInferenceKernel(KernelKind::kScalar);
}

INSTANTIATE_TEST_SUITE_P(Families, ReferenceWalkTest,
                         ::testing::Values("made", "resmade", "ordered",
                                           "factorized", "transformer",
                                           "oracle", "percolumn",
                                           "bayesnet"),
                         [](const auto& info) { return info.param; });

// A per-request budget is a different walk: the one-query plan and a
// mixed-budget batch both match the walker at that budget.
TEST(ReferenceWalk, PerRequestBudgetsMatchTheWalkerAtThatBudget) {
  const Table table = WalkTable();
  std::unique_ptr<ConditionalModel> model = Build("made", table);
  const std::vector<Query> queries = WalkQueries(table);
  NaruEstimatorConfig ecfg;
  ecfg.num_samples = kSamples;
  ecfg.shard_size = kShard;
  ecfg.enumeration_threshold = 0;
  ecfg.sampler_seed = kSeed;
  NaruEstimator est(model.get(), ecfg, 0);

  std::vector<EstimateRequest> requests;
  std::vector<reference::WalkResult> want;
  for (size_t i = 0; i < queries.size(); ++i) {
    EstimateOptions opts;
    opts.num_samples = i % 2 == 0 ? 96 : 1;
    requests.emplace_back(queries[i], opts);
    want.push_back(reference::Walk(model.get(), queries[i], opts.num_samples,
                                   kShard, kSeed));
  }
  InferenceEngineConfig cfg;
  cfg.num_threads = 2;
  InferenceEngine engine(cfg);
  std::vector<EstimateResult> got;
  engine.EstimateBatch(&est, requests, &got);
  for (size_t i = 0; i < queries.size(); ++i) {
    const EstimateResult one = est.Estimate(requests[i]);
    ASSERT_TRUE(one.ok() && got[i].ok());
    EXPECT_EQ(one.estimate, want[i].estimate) << "query " << i;
    EXPECT_EQ(one.std_error, want[i].std_error) << "query " << i;
    EXPECT_EQ(got[i].estimate, want[i].estimate) << "query " << i;
    EXPECT_EQ(got[i].std_error, want[i].std_error) << "query " << i;
  }
}

}  // namespace
}  // namespace naru
