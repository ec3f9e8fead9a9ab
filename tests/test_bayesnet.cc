// Tests for the Chow-Liu Bayes-net baseline: structure recovery, CPT
// normalization, exact tree inference vs brute force, ConditionalModel
// conformance (sampler and enumerator agreement), and likelihood sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "core/enumerator.h"
#include "core/naru_estimator.h"
#include "data/datasets.h"
#include "data/table.h"
#include "estimator/bayesnet.h"
#include "query/executor.h"

namespace naru {
namespace {

// A 3-column table where col1 is a noisy copy of col0 and col2 is pure
// noise: the Chow-Liu tree must put the (0,1) edge in and leave 2 hanging
// off whichever node, with I(0;1) dominating.
Table MakeChainTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> c0(rows), c1(rows), c2(rows);
  for (size_t r = 0; r < rows; ++r) {
    c0[r] = static_cast<int64_t>(rng.UniformInt(4));
    c1[r] = rng.UniformDouble() < 0.9 ? c0[r]
                                      : static_cast<int64_t>(rng.UniformInt(4));
    c2[r] = static_cast<int64_t>(rng.UniformInt(3));
  }
  TableBuilder b("chain");
  b.AddIntColumn("a", c0);
  b.AddIntColumn("b", c1);
  b.AddIntColumn("c", c2);
  return b.Build();
}

TEST(BayesNet, RecoversStrongDependency) {
  Table t = MakeChainTable(4000, 3);
  BayesNet net(t);
  // Column 1's parent must be column 0 (or vice versa through the root):
  // the (0,1) edge has far more mutual information than any edge to 2.
  const auto& par = net.parents();
  const bool edge01 = (par[1] == 0) || (par[0] == 1);
  EXPECT_TRUE(edge01) << "parents: " << par[0] << "," << par[1] << ","
                      << par[2];
}

TEST(BayesNet, TopoOrderIsParentsFirst) {
  Table t = MakeRandomTable(800, {5, 4, 6, 3}, 7, /*skew=*/0.9);
  BayesNet net(t);
  const auto& topo = net.topo_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<size_t> pos(4);
  for (size_t i = 0; i < 4; ++i) pos[topo[i]] = i;
  for (size_t v = 0; v < 4; ++v) {
    if (net.parents()[v] >= 0) {
      EXPECT_LT(pos[static_cast<size_t>(net.parents()[v])], pos[v]);
    }
  }
}

TEST(BayesNet, JointSumsToOne) {
  Table t = MakeRandomTable(500, {3, 4, 2}, 11, /*skew=*/0.8);
  BayesNet net(t);
  // Enumerate the ACTUAL dictionary domains (the generator only promises
  // upper bounds; absent values do not enter the dictionary).
  const int d0 = static_cast<int>(t.column(0).DomainSize());
  const int d1 = static_cast<int>(t.column(1).DomainSize());
  const int d2 = static_cast<int>(t.column(2).DomainSize());
  double total = 0;
  IntMatrix tuple(1, 3);
  std::vector<double> lp;
  for (int a = 0; a < d0; ++a) {
    for (int b = 0; b < d1; ++b) {
      for (int c = 0; c < d2; ++c) {
        tuple.At(0, 0) = a;
        tuple.At(0, 1) = b;
        tuple.At(0, 2) = c;
        net.LogProbRows(tuple, &lp);
        total += std::exp(lp[0]);
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(BayesNet, ExactInferenceMatchesEnumeratedModelMass) {
  // ExactSelectivity (message passing) must equal the sum of the model's
  // own point probabilities over the region (enumeration through the
  // ConditionalModel adapter): two independent code paths, same measure.
  Table t = MakeRandomTable(700, {4, 5, 3, 4}, 13, /*skew=*/1.0);
  BayesNet net(t);
  const std::vector<Query> queries = {
      Query(t, {{0, CompareOp::kLe, 2}}),
      Query(t, {{1, CompareOp::kGe, 2}, {2, CompareOp::kEq, 1}}),
      Query(t, {{0, CompareOp::kNeq, 0},
                {1, CompareOp::kLe, 3},
                {3, CompareOp::kGe, 1}}),
      Query(t, {{2, CompareOp::kIn, 0, 0, {0, 2}}}),
  };
  for (const auto& q : queries) {
    const double exact = net.ExactSelectivity(q);
    const double enumerated = EnumerateSelectivity(&net, q);
    EXPECT_NEAR(exact, enumerated, 1e-5) << q.ToString(t);
  }
}

TEST(BayesNet, ProgressiveSamplerConvergesToExact) {
  // The paper's Algorithm 1 runs over any ConditionalModel; on the tree
  // model its estimates must converge to the message-passing answer.
  Table t = MakeRandomTable(900, {5, 6, 4}, 17, /*skew=*/1.1);
  BayesNet net(t);
  Query q(t, {{0, CompareOp::kLe, 2}, {2, CompareOp::kGe, 1}});
  const double exact = net.ExactSelectivity(q);
  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 20000;
  NaruEstimator estimator(&net, ncfg, 0);
  const double sampled = estimator.EstimateSelectivity(q);
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(sampled / exact, 1.0, 0.08);
}

TEST(BayesNet, AccuracyBeatsIndependenceOnCorrelatedData) {
  // With a strong pairwise dependency, the tree captures what a pure
  // independence model cannot: P(a = x AND b = x) for the noisy-copy pair.
  Table t = MakeChainTable(6000, 19);
  BayesNetEstimator bn(t);

  Query q(t, {{0, CompareOp::kEq, 2}, {1, CompareOp::kEq, 2}});
  const double truth = ExecuteSelectivity(t, q);
  const double bn_est = bn.EstimateSelectivity(q);

  // Independence predicts p(a=2)*p(b=2) ~ 1/16; the truth is ~0.9/4.
  double pa = 0, pb = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    pa += t.column(0).code(r) == 2;
    pb += t.column(1).code(r) == 2;
  }
  pa /= static_cast<double>(t.num_rows());
  pb /= static_cast<double>(t.num_rows());
  const double indep_est = pa * pb;

  const auto qerr = [&](double est) {
    return std::max(est, truth) / std::max(1e-12, std::min(est, truth));
  };
  EXPECT_LT(qerr(bn_est), 1.3);
  EXPECT_GT(qerr(indep_est), 2.0);
}

TEST(BayesNet, SmoothingKeepsUnseenTuplesFinite) {
  Table t = MakeRandomTable(50, {6, 6}, 23, /*skew=*/2.0);
  BayesNet net(t);
  // Probe every cell, including pairs that never co-occurred.
  IntMatrix tuple(1, 2);
  std::vector<double> lp;
  for (int a = 0; a < static_cast<int>(t.column(0).DomainSize()); ++a) {
    for (int b = 0; b < static_cast<int>(t.column(1).DomainSize()); ++b) {
      tuple.At(0, 0) = a;
      tuple.At(0, 1) = b;
      net.LogProbRows(tuple, &lp);
      EXPECT_TRUE(std::isfinite(lp[0]));
    }
  }
}

TEST(BayesNet, WildcardQueryIsOne) {
  Table t = MakeRandomTable(300, {4, 3, 5}, 29, /*skew=*/0.7);
  BayesNetEstimator bn(t);
  Query q(t, std::vector<Predicate>{});
  EXPECT_NEAR(bn.EstimateSelectivity(q), 1.0, 1e-5);
}

TEST(BayesNet, EmptyRegionIsZero) {
  Table t = MakeRandomTable(300, {4, 3}, 31, /*skew=*/0.7);
  BayesNetEstimator bn(t);
  // a <= 1 AND a >= 3 is unsatisfiable.
  Query q(t, {{0, CompareOp::kLe, 1}, {0, CompareOp::kGe, 3}});
  EXPECT_EQ(bn.EstimateSelectivity(q), 0.0);
}

TEST(BayesNet, SingleColumnDegenerate) {
  Table t = MakeRandomTable(400, {7}, 37, /*skew=*/1.0);
  BayesNetEstimator bn(t);
  Query q(t, {{0, CompareOp::kLe, 3}});
  const double truth = ExecuteSelectivity(t, q);
  // Exact marginal + smoothing: close to truth.
  EXPECT_NEAR(bn.EstimateSelectivity(q), truth, 0.05);
}

TEST(BayesNet, NaruEstimatorWrapsBayesNetModel) {
  // Full integration: NaruEstimator(progressive sampling + enumeration
  // fallback) over the BN's ConditionalModel face.
  Table t = MakeRandomTable(800, {5, 4, 6}, 41, /*skew=*/1.0);
  BayesNet net(t);
  NaruEstimatorConfig ecfg;
  ecfg.num_samples = 4000;
  ecfg.enumeration_threshold = 0;
  NaruEstimator est(&net, ecfg, net.SizeBytes(), "BN-psample");
  Query q(t, {{1, CompareOp::kGe, 1}, {2, CompareOp::kLe, 4}});
  const double exact = net.ExactSelectivity(q);
  const double sampled = est.EstimateSelectivity(q);
  ASSERT_GT(exact, 0.0);
  EXPECT_NEAR(sampled / exact, 1.0, 0.15);
}

}  // namespace
}  // namespace naru
