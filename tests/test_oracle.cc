// Tests for the oracle conditional model: exactness, session/stateless
// agreement, smoothing-induced entropy gaps (Figure 7 machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "data/datasets.h"
#include "data/table_stats.h"
#include "query/executor.h"
#include "query/workload.h"

namespace naru {
namespace {

TEST(Oracle, ConditionalMatchesCounts) {
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 0, 0, 1})
                .AddIntColumn("b", {0, 1, 1, 1})
                .Build();
  OracleModel oracle(&t);

  IntMatrix sample(1, 2);
  Matrix probs;
  // P(a): {3/4, 1/4}.
  oracle.ConditionalDist(sample, 0, &probs);
  EXPECT_NEAR(probs.At(0, 0), 0.75f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 0.25f, 1e-6);
  // P(b | a=0): {1/3, 2/3}.
  sample.At(0, 0) = 0;
  oracle.ConditionalDist(sample, 1, &probs);
  EXPECT_NEAR(probs.At(0, 0), 1.0f / 3.0f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 2.0f / 3.0f, 1e-6);
  // P(b | a=1): {0, 1}.
  sample.At(0, 0) = 1;
  oracle.ConditionalDist(sample, 1, &probs);
  EXPECT_NEAR(probs.At(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(probs.At(0, 1), 1.0f, 1e-6);
}

TEST(Oracle, SessionAgreesWithStateless) {
  Table t = MakeRandomTable(500, {4, 6, 5}, 19);
  OracleModel oracle(&t);

  // Fix a batch of prefixes drawn from real rows so every prefix has
  // support; compare incremental session output to the stateless scan.
  const size_t batch = 16;
  IntMatrix samples(batch, 3);
  for (size_t r = 0; r < batch; ++r) {
    t.GetRowCodes(r * 7 % t.num_rows(), samples.Row(r));
  }

  auto session = oracle.StartSession(batch);
  for (size_t col = 0; col < 3; ++col) {
    Matrix from_session;
    session->Dist(samples, col, &from_session);
    Matrix stateless;
    oracle.ConditionalDist(samples, col, &stateless);
    ASSERT_EQ(from_session.rows(), stateless.rows());
    for (size_t r = 0; r < batch; ++r) {
      for (size_t v = 0; v < t.column(col).DomainSize(); ++v) {
        ASSERT_NEAR(from_session.At(r, v), stateless.At(r, v), 1e-5)
            << "col " << col << " row " << r << " value " << v;
      }
    }
  }
}

TEST(Oracle, SmoothedRowsStillNormalized) {
  Table t = MakeRandomTable(200, {5, 8}, 23);
  OracleModel oracle(&t, /*smoothing_lambda=*/0.37);
  IntMatrix samples(4, 2);
  for (size_t r = 0; r < 4; ++r) t.GetRowCodes(r, samples.Row(r));
  for (size_t col = 0; col < 2; ++col) {
    Matrix probs;
    oracle.ConditionalDist(samples, col, &probs);
    for (size_t r = 0; r < 4; ++r) {
      double sum = 0;
      for (size_t v = 0; v < t.column(col).DomainSize(); ++v) {
        sum += probs.At(r, v);
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(Oracle, CrossEntropyAtZeroLambdaIsDataEntropy) {
  Table t = MakeRandomTable(400, {4, 7, 3}, 29);
  OracleModel oracle(&t, 0.0);
  EXPECT_NEAR(oracle.CrossEntropyBits(), TableStats::JointEntropyBits(t),
              1e-6);
}

TEST(Oracle, GapGrowsMonotonicallyWithLambda) {
  Table t = MakeRandomTable(400, {6, 10, 4}, 31);
  OracleModel oracle(&t, 0.0);
  const double h0 = oracle.CrossEntropyBits();
  double prev = h0;
  for (double lambda : {0.1, 0.3, 0.6, 0.9, 1.0}) {
    oracle.set_smoothing_lambda(lambda);
    const double ce = oracle.CrossEntropyBits();
    EXPECT_GE(ce + 1e-9, prev) << "lambda " << lambda;
    prev = ce;
  }
}

TEST(Oracle, FindLambdaHitsTargetGap) {
  Table t = MakeConvivaBLike(1000, 41, 12);
  OracleModel oracle(&t, 0.0);
  const double h_data = oracle.CrossEntropyBits();
  for (double target : {0.5, 2.0, 5.0}) {
    const double lambda = oracle.FindLambdaForGapBits(target, 0.05);
    OracleModel probe(&t, lambda);
    EXPECT_NEAR(probe.CrossEntropyBits() - h_data, target, 0.1)
        << "target " << target;
  }
  EXPECT_DOUBLE_EQ(oracle.FindLambdaForGapBits(0.0), 0.0);
}

TEST(Oracle, SamplingWithSmoothedModelStillReasonable) {
  // Figure 7's premise: estimates degrade smoothly with gap, and a modest
  // gap keeps range queries usable.
  Table t = MakeConvivaBLike(1000, 43, 10);
  WorkloadConfig wcfg;
  wcfg.num_queries = 10;
  wcfg.min_filters = 2;
  wcfg.max_filters = 4;
  wcfg.seed = 3;
  const auto queries = GenerateWorkload(t, wcfg);

  const double lambda = OracleModel(&t).FindLambdaForGapBits(1.0);
  OracleModel smoothed(&t, lambda);
  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 2000;
  NaruEstimator estimator(&smoothed, ncfg, 0);
  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    const double est = estimator.EstimateSelectivity(q);
    const double err =
        std::max(est, 1e-3) / std::max(truth, 1e-3);
    EXPECT_LT(std::max(err, 1.0 / err), 30.0) << q.ToString(t);
  }
}

}  // namespace
}  // namespace naru
