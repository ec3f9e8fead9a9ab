// Tests for progressive sampling (Algorithm 1) and exact enumeration:
// unbiasedness on oracle joints, consistency with enumeration on learned
// models, wildcard handling, the uniform-region strawman. Estimates come
// from NaruEstimator with enumeration off, so every non-exact query walks.
#include <gtest/gtest.h>

#include <cmath>

#include "core/enumerator.h"
#include "core/generator.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/sampler.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "query/workload.h"
#include "reference_walk.h"

namespace naru {
namespace {

/// A sampling-only estimator: enumeration off, so every query that is not
/// an exact shortcut takes the progressive-sampling walk.
NaruEstimatorConfig Sampling(size_t num_samples, uint64_t seed = 7) {
  NaruEstimatorConfig cfg;
  cfg.num_samples = num_samples;
  cfg.sampler_seed = seed;
  cfg.enumeration_threshold = 0;
  return cfg;
}

// Property test: on an exact oracle model, progressive sampling with many
// paths must converge to the true selectivity for random queries
// (Theorem 1 unbiasedness + concentration).
class SamplerUnbiasednessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerUnbiasednessTest, OracleEstimatesMatchTruth) {
  const uint64_t seed = GetParam();
  Table t = MakeRandomTable(800, {5, 7, 9, 4, 6}, seed, /*skew=*/1.1);
  OracleModel oracle(&t);

  WorkloadConfig wcfg;
  wcfg.num_queries = 15;
  wcfg.min_filters = 1;
  wcfg.max_filters = 5;
  wcfg.range_domain_threshold = 5;
  wcfg.seed = seed * 31 + 1;
  const auto queries = GenerateWorkload(t, wcfg);

  NaruEstimator estimator(&oracle, Sampling(4000, seed + 5), 0);

  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    const double est = estimator.EstimateSelectivity(q);
    // Monte Carlo tolerance: absolute for tiny, relative for larger.
    EXPECT_NEAR(est, truth, std::max(0.35 * truth, 0.015))
        << q.ToString(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerUnbiasednessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Sampler, ExactOnEqualityPointQueries) {
  // With every column filtered to a point, progressive sampling needs no
  // randomness: the estimate equals the oracle's exact point probability.
  Table t = MakeRandomTable(400, {3, 4, 5}, 10);
  OracleModel oracle(&t);
  // Build an equality query on an existing tuple.
  std::vector<Predicate> preds;
  for (size_t c = 0; c < 3; ++c) {
    preds.push_back(Predicate{c, CompareOp::kEq, t.column(c).code(0), 0, {}});
  }
  Query q(t, preds);
  // Deterministic regardless of path count.
  NaruEstimator estimator(&oracle, Sampling(16), 0);
  const double truth = ExecuteSelectivity(t, q);
  // float32 conditionals leave ~1e-7 relative noise.
  EXPECT_NEAR(estimator.EstimateSelectivity(q), truth, 1e-6);
}

TEST(Sampler, WildcardOnlyQueryIsOne) {
  Table t = MakeRandomTable(100, {4, 4}, 11);
  OracleModel oracle(&t);
  Query q(t, {});
  NaruEstimator estimator(&oracle, Sampling(1000), 0);
  EXPECT_DOUBLE_EQ(estimator.EstimateSelectivity(q), 1.0);
}

TEST(Sampler, EmptyRegionIsZero) {
  Table t = MakeRandomTable(100, {4, 4}, 12);
  OracleModel oracle(&t);
  Predicate lt0{/*column=*/0, CompareOp::kLt, /*literal=*/0, 0, {}};
  Query q(t, {lt0});
  ASSERT_TRUE(q.HasEmptyRegion());
  NaruEstimator estimator(&oracle, Sampling(1000), 0);
  EXPECT_DOUBLE_EQ(estimator.EstimateSelectivity(q), 0.0);
}

TEST(Sampler, TrailingWildcardsNeedNoModelCalls) {
  // A query filtering only column 0 must end after one column; verify via
  // a model that counts conditional calls.
  class CountingModel : public ConditionalModel {
   public:
    size_t num_columns() const override { return 4; }
    size_t DomainSize(size_t) const override { return 3; }
    void ConditionalDist(const IntMatrix& samples, size_t col,
                         Matrix* probs) override {
      ++calls;
      probs->Resize(samples.rows(), 3);
      probs->Fill(1.0f / 3.0f);
      (void)col;
    }
    int calls = 0;
  };
  CountingModel model;
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 1, 2})
                .AddIntColumn("b", {0, 1, 2})
                .AddIntColumn("c", {0, 1, 2})
                .AddIntColumn("d", {0, 1, 2})
                .Build();
  Predicate p{/*column=*/0, CompareOp::kEq, /*literal=*/1, 0, {}};
  Query q(t, {p});
  NaruEstimatorConfig ncfg = Sampling(64);
  ncfg.shard_size = 64;
  NaruEstimator estimator(&model, ncfg, 0);
  const double est = estimator.EstimateSelectivity(q);
  EXPECT_NEAR(est, 1.0 / 3.0, 1e-6);
  EXPECT_EQ(model.calls, 1);  // only column 0 was visited
}

TEST(Sampler, UniformRegionModeIsUnbiasedButNoisy) {
  Table t = MakeRandomTable(500, {6, 6}, 13, /*skew=*/0.5);
  OracleModel oracle(&t);
  Predicate p0{/*column=*/0, CompareOp::kLe, /*literal=*/3, 0, {}};
  Predicate p1{/*column=*/1, CompareOp::kGe, /*literal=*/2, 0, {}};
  Query q(t, {p0, p1});
  const double truth = ExecuteSelectivity(t, q);

  EXPECT_NEAR(UniformRegionSelectivity(&oracle, q, 20000, /*seed=*/3), truth,
              std::max(0.3 * truth, 0.02));
}

TEST(Sampler, StdErrorConfidenceIntervalCoversExactMass) {
  // Repeated estimates with independent seeds: the ±2·stderr interval must
  // cover the exactly-enumerated model mass in the vast majority of runs
  // (nominal ~95%; we assert a lenient 80% over 40 runs).
  const std::vector<size_t> domains = {5, 6, 4};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = 7;
  MadeModel model(domains, cfg);
  Query q({ValueSet::Interval(5, 1, 3), ValueSet::All(6),
           ValueSet::Interval(4, 0, 1)});
  const double exact = EnumerateSelectivity(&model, q);
  ASSERT_GT(exact, 0.0);

  size_t covered = 0;
  const size_t runs = 40;
  for (size_t i = 0; i < runs; ++i) {
    NaruEstimator estimator(&model, Sampling(300, 1000 + i), 0);
    const EstimateResult r = estimator.Estimate(q);
    ASSERT_GE(r.std_error, 0.0);
    covered += (std::abs(r.estimate - exact) <= 2.0 * r.std_error + 1e-12);
  }
  EXPECT_GE(covered, runs * 8 / 10) << covered << "/" << runs;
}

TEST(Sampler, StdErrorIsZeroForExactCases) {
  const std::vector<size_t> domains = {5, 6};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {16};
  cfg.seed = 3;
  MadeModel model(domains, cfg);
  NaruEstimator estimator(&model, Sampling(64), 0);

  // All-wildcard: exactly 1, no sampling.
  Query all({ValueSet::All(5), ValueSet::All(6)});
  EstimateResult r = estimator.Estimate(all);
  EXPECT_EQ(r.estimate, 1.0);
  EXPECT_EQ(r.std_error, 0.0);
  // Empty region: exactly 0.
  Query none({ValueSet::Empty(5), ValueSet::All(6)});
  r = estimator.Estimate(none);
  EXPECT_EQ(r.estimate, 0.0);
  EXPECT_EQ(r.std_error, 0.0);
  // Single leading filter: every path weight identical -> stderr 0.
  Query lead({ValueSet::Interval(5, 0, 2), ValueSet::All(6)});
  EXPECT_NEAR(estimator.Estimate(lead).std_error, 0.0, 1e-9);
}

TEST(Sampler, StdErrorShrinksWithSampleCount) {
  const std::vector<size_t> domains = {6, 5, 4};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.seed = 11;
  MadeModel model(domains, cfg);
  Query q({ValueSet::Interval(6, 2, 5), ValueSet::Interval(5, 0, 2),
           ValueSet::All(4)});
  auto stderr_at = [&](size_t s, uint64_t seed) {
    NaruEstimator estimator(&model, Sampling(s, seed), 0);
    return estimator.Estimate(q).std_error;
  };
  // ~1/sqrt(S): 16x more samples ~ 4x smaller stderr (generous factor 2).
  const double se_small = stderr_at(200, 5);
  const double se_big = stderr_at(3200, 5);
  ASSERT_GT(se_small, 0.0);
  EXPECT_LT(se_big, se_small / 2.0);
}

TEST(Sampler, ColumnStepPrimitiveReproducesFullWalk) {
  // SamplerColumnStep is the plan executor's per-column row kernel.
  // Re-assembling a whole estimate from it — shard seeds, session column
  // steps, shard-order reduction — must reproduce the reference walker
  // (reference_walk.h) bit for bit; this pins the primitive's contract
  // apart from the executor's stacking and forking.
  Table t = MakeRandomTable(500, {5, 6, 4, 5}, 19, /*skew=*/1.0);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {24, 24};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 4;
  MadeModel model({5, 6, 4, 5}, mcfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(&model, tcfg).Train(t);

  Predicate p1{/*column=*/1, CompareOp::kLe, /*literal=*/3, 0, {}};
  Predicate p2{/*column=*/2, CompareOp::kGe, /*literal=*/1, 0, {}};
  Query q(t, {p1, p2});

  constexpr size_t kSamples = 200;
  constexpr size_t kShard = 64;
  constexpr uint64_t kSeed = 23;
  const double want =
      reference::Walk(&model, q, kSamples, kShard, kSeed).estimate;

  const int last_col = q.LastFilteredColumn();
  const size_t n = model.num_columns();
  double weight_sum = 0;
  for (size_t k = 0; k < SamplerNumShards(kSamples, kShard); ++k) {
    const size_t rows = std::min(kShard, kSamples - k * kShard);
    Rng rng(SamplerShardSeed(kSeed, k));
    IntMatrix samples(rows, n);
    Matrix probs;
    std::vector<double> weights(rows, 1.0);
    std::vector<uint8_t> alive(rows, 1);
    auto session = model.StartSession(rows);
    for (size_t col = 0; col <= static_cast<size_t>(last_col); ++col) {
      session->Dist(samples, col, &probs);
      SamplerColumnStep(&model, q, col, model.PositionIsWildcard(q, col),
                        SamplerRowBlock{&samples, &probs, weights.data(),
                                        alive.data(), 0, rows},
                        &rng);
    }
    double shard_sum = 0;
    for (double w : weights) shard_sum += w;
    weight_sum += shard_sum;
  }
  EXPECT_EQ(weight_sum / static_cast<double>(kSamples), want);
}

TEST(Enumerator, MatchesTruthOnOracle) {
  Table t = MakeRandomTable(300, {4, 5, 3}, 15);
  OracleModel oracle(&t);
  WorkloadConfig wcfg;
  wcfg.num_queries = 10;
  wcfg.min_filters = 1;
  wcfg.max_filters = 3;
  wcfg.range_domain_threshold = 4;
  wcfg.seed = 8;
  for (const auto& q : GenerateWorkload(t, wcfg)) {
    const double truth = ExecuteSelectivity(t, q);
    EXPECT_NEAR(EnumerateSelectivity(&oracle, q), truth, 1e-6)
        << q.ToString(t);
  }
}

TEST(Enumerator, MatchesProgressiveSamplingOnTrainedModel) {
  // Both querying schemes target the same model joint; with many samples
  // they must agree (§5: enumeration is exact, sampling unbiased).
  Table t = MakeRandomTable(1000, {5, 6, 4}, 16, /*skew=*/1.0);
  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {32, 32};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 2;
  MadeModel model({5, 6, 4}, mcfg);
  TrainerConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 128;
  Trainer trainer(&model, tcfg);
  trainer.Train(t);

  Predicate p0{/*column=*/0, CompareOp::kLe, /*literal=*/2, 0, {}};
  Predicate p2{/*column=*/2, CompareOp::kGe, /*literal=*/1, 0, {}};
  Query q(t, {p0, p2});

  const double enumerated = EnumerateSelectivity(&model, q);
  NaruEstimator estimator(&model, Sampling(20000, 21), 0);
  const double sampled = estimator.EstimateSelectivity(q);
  EXPECT_NEAR(sampled, enumerated, std::max(0.1 * enumerated, 0.01));
}

TEST(Enumerator, EstimatedEnumerationCost) {
  Table t = MakeRandomTable(100, {1000, 1000, 1000}, 17);
  Query q(t, {});  // full wildcard: region = whole joint
  // At 1e6 points/sec, a ~1e9-point region costs ~1e3 seconds.
  const double secs = EstimateEnumerationSeconds(q, 1e6);
  const double points = std::pow(10.0, q.Log10RegionSize());
  EXPECT_NEAR(secs, points / 1e6, points * 1e-9);
}

}  // namespace
}  // namespace naru
