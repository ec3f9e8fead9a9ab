// Edge-case and failure-injection tests: degenerate tables and domains,
// contradictory queries, dead sample paths, placeholder slots, extreme
// smoothing, serialization failure paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/enumerator.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "data/table_stats.h"
#include "estimator/indep.h"
#include "estimator/postgres1d.h"
#include "query/compound.h"
#include "query/executor.h"
#include "query/workload.h"

namespace naru {
namespace {

TEST(EdgeCase, DomainOneColumn) {
  // A constant column: every estimator must treat eq-on-it as sel 1.
  Table t = TableBuilder("t")
                .AddIntColumn("const", {7, 7, 7, 7})
                .AddIntColumn("x", {0, 1, 2, 3})
                .Build();
  EXPECT_EQ(t.column(0).DomainSize(), 1u);
  Predicate p{0, CompareOp::kEq, 0, 0, {}};
  Query q(t, {p});
  EXPECT_DOUBLE_EQ(ExecuteSelectivity(t, q), 1.0);
  IndepEstimator indep(t);
  EXPECT_DOUBLE_EQ(indep.EstimateSelectivity(q), 1.0);
  OracleModel oracle(&t);
  NaruEstimator estimator(
      &oracle, NaruEstimatorConfig{.enumeration_threshold = 0}, 0);
  EXPECT_NEAR(estimator.EstimateSelectivity(q), 1.0, 1e-9);
}

TEST(EdgeCase, SingleRowTable) {
  Table t = TableBuilder("t").AddIntColumn("a", {5}).Build();
  OracleModel oracle(&t);
  Predicate hit{0, CompareOp::kEq, 0, 0, {}};
  NaruEstimator estimator(
      &oracle, NaruEstimatorConfig{.enumeration_threshold = 0}, 0);
  EXPECT_NEAR(estimator.EstimateSelectivity(Query(t, {hit})), 1.0, 1e-9);
  EXPECT_NEAR(TableStats::JointEntropyBits(t), 0.0, 1e-12);
}

TEST(EdgeCase, ContradictoryPredicatesGiveEmptyRegion) {
  Table t = MakeRandomTable(100, {10, 10}, 3);
  Predicate ge{0, CompareOp::kGe, 8, 0, {}};
  Predicate le{0, CompareOp::kLe, 2, 0, {}};
  Query q(t, {ge, le});
  EXPECT_TRUE(q.HasEmptyRegion());
  EXPECT_EQ(ExecuteCount(t, q), 0);
  OracleModel oracle(&t);
  EXPECT_DOUBLE_EQ(EnumerateSelectivity(&oracle, q), 0.0);
  NaruEstimator estimator(
      &oracle, NaruEstimatorConfig{.enumeration_threshold = 0}, 0);
  EXPECT_DOUBLE_EQ(estimator.EstimateSelectivity(q), 0.0);
}

TEST(EdgeCase, DeadPathsFromZeroConditionalMass) {
  // Column 1's value is fully determined by column 0; a query asking for
  // an impossible combination must estimate ~0 without NaN/Inf.
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(i % 4);
    b.push_back(i % 4);  // b == a always
  }
  Table t =
      TableBuilder("t").AddIntColumn("a", a).AddIntColumn("b", b).Build();
  OracleModel oracle(&t);
  Predicate pa{0, CompareOp::kEq, 1, 0, {}};
  Predicate pb{1, CompareOp::kEq, 2, 0, {}};  // impossible given a=1
  Query q(t, {pa, pb});
  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 200;
  NaruEstimator estimator(&oracle, ncfg, 0);
  const double est = estimator.EstimateSelectivity(q);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_DOUBLE_EQ(est, 0.0);
}

TEST(EdgeCase, PlaceholderSlotEncodesUnseenValues) {
  std::vector<Value> vals = {Value(int64_t{1}), Value(int64_t{2}),
                             Value(int64_t{3})};
  Dictionary dict = Dictionary::Build(vals, /*with_placeholder=*/true);
  // Placeholder participates in the domain: models size output layers on
  // DomainSize() and can absorb appended unseen data (§4.2).
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.CodeFor(Value(int64_t{99})).ValueOrDie(), 3);

  Table t1 = TableBuilder("t1").AddIntColumn("a", {1, 2, 3}, true).Build();
  Table t2 = TableBuilder("t2").AddIntColumn("a", {4, 4}).Build();
  ASSERT_TRUE(t1.AppendRows(t2).ok());
  EXPECT_EQ(t1.num_rows(), 5u);
  EXPECT_EQ(t1.column(0).code(3), t1.column(0).dict().placeholder_code());
}

TEST(EdgeCase, OracleFullSmoothingIsUniformProduct) {
  // Explicit table so both columns realize their full domains (4 and 6).
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
                .AddIntColumn("b", {0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5})
                .Build();
  ASSERT_EQ(t.column(1).DomainSize(), 6u);
  OracleModel oracle(&t, /*smoothing_lambda=*/1.0);
  IntMatrix sample(1, 2);
  sample.At(0, 0) = 2;
  Matrix probs;
  oracle.ConditionalDist(sample, 1, &probs);
  for (size_t v = 0; v < 6; ++v) {
    EXPECT_NEAR(probs.At(0, v), 1.0f / 6.0f, 1e-6);
  }
  // Cross entropy equals sum of log2 domain sizes.
  EXPECT_NEAR(oracle.CrossEntropyBits(),
              std::log2(4.0) + std::log2(6.0), 1e-9);
}

TEST(EdgeCase, EnumeratorBatchBoundaries) {
  // Region sizes straddling the batch size must not drop/duplicate points.
  Table t = MakeRandomTable(200, {7, 9}, 7);
  OracleModel oracle(&t);
  Predicate p{0, CompareOp::kLe, 5, 0, {}};
  Query q(t, {p});
  const double truth = ExecuteSelectivity(t, q);
  for (size_t batch : {1, 2, 7, 54, 55, 512}) {
    EXPECT_NEAR(EnumerateSelectivity(&oracle, q, batch), truth, 1e-6)
        << "batch " << batch;
  }
}

TEST(EdgeCase, BinaryEncoderExactPowerOfTwoDomain) {
  // Domain 8 needs exactly 3 bits; domain 9 needs 4.
  EncoderConfig cfg;
  cfg.onehot_threshold = 2;
  cfg.binary_for_large = true;
  Rng rng(1);
  InputEncoder enc({8, 9}, cfg, &rng);
  EXPECT_EQ(enc.width(0), 3u);
  EXPECT_EQ(enc.width(1), 4u);
  // Code 7 encodes as 111.
  IntMatrix codes(1, 2);
  codes.At(0, 0) = 7;
  codes.At(0, 1) = 8;
  Matrix x;
  enc.EncodeBatch(codes, &x);
  EXPECT_FLOAT_EQ(x.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(x.At(0, 2), 1.0f);
  // 8 = 1000b.
  EXPECT_FLOAT_EQ(x.At(0, 3), 0.0f);
  EXPECT_FLOAT_EQ(x.At(0, 6), 1.0f);
}

TEST(EdgeCase, TrainerOnTinyBatchSizes) {
  Table t = MakeRandomTable(37, {4, 5}, 9);  // rows not divisible by batch
  MadeModel::Config cfg;
  cfg.hidden_sizes = {8};
  cfg.seed = 2;
  MadeModel model({4, 5}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 3;
  tcfg.batch_size = 16;  // last batch has 5 rows
  Trainer trainer(&model, tcfg);
  const auto curve = trainer.Train(t);
  ASSERT_EQ(curve.size(), 3u);
  for (double bits : curve) EXPECT_TRUE(std::isfinite(bits));
  EXPECT_LE(curve.back(), curve.front());
}

TEST(EdgeCase, WorkloadOnTableWithFewColumns) {
  // Generator clamps filter counts to the column count.
  Table t = MakeRandomTable(500, {6, 8}, 11);
  WorkloadConfig cfg;
  cfg.num_queries = 30;
  cfg.min_filters = 5;   // > column count
  cfg.max_filters = 11;  // > column count
  cfg.seed = 1;
  const auto queries = GenerateWorkload(t, cfg);
  for (const auto& q : queries) {
    EXPECT_LE(q.predicates().size(), 2u);
    EXPECT_GE(q.predicates().size(), 1u);
  }
}

TEST(EdgeCase, CompoundSingleDisjunctIsPlainEstimate) {
  Table t = MakeRandomTable(400, {9, 9}, 13);
  IndepEstimator est(t);
  Query q(t, {Predicate{0, CompareOp::kLe, 4, 0, {}}});
  EXPECT_DOUBLE_EQ(EstimateDisjunction(&est, {q}),
                   est.EstimateSelectivity(q));
}

TEST(EdgeCase, ModelLoadFromMissingFileFails) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {8};
  MadeModel model({3, 3}, cfg);
  EXPECT_FALSE(model.Load("/nonexistent/path/model.bin").ok());
}

TEST(EdgeCase, LogProbsAreFiniteAndNegative) {
  Table t = MakeDmvLike(2000, 99);
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32};
  cfg.encoder.embed_dim = 8;
  cfg.seed = 1;
  std::vector<size_t> domains;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    domains.push_back(t.column(c).DomainSize());
  }
  MadeModel model(domains, cfg);
  IntMatrix batch(64, t.num_columns());
  for (size_t r = 0; r < 64; ++r) t.GetRowCodes(r, batch.Row(r));
  std::vector<double> lp;
  model.LogProbRows(batch, &lp);
  for (double v : lp) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(v, 0.0);  // discrete probabilities < 1
  }
}

}  // namespace
}  // namespace naru
