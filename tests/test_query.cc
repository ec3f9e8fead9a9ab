// Unit + property tests for the query substrate: ValueSet algebra,
// predicate semantics vs brute force, workload generator rules, executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "query/metrics.h"
#include "query/query.h"
#include "query/value_set.h"
#include "query/workload.h"
#include "util/random.h"

namespace naru {
namespace {

TEST(ValueSet, BasicKinds) {
  ValueSet all = ValueSet::All(10);
  EXPECT_TRUE(all.IsAll());
  EXPECT_EQ(all.Count(), 10u);
  EXPECT_TRUE(all.Contains(9));
  EXPECT_FALSE(all.Contains(10));

  ValueSet iv = ValueSet::Interval(10, 3, 6);
  EXPECT_EQ(iv.Count(), 4u);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(6));
  EXPECT_FALSE(iv.Contains(7));
  EXPECT_EQ(iv.NthCode(1), 4);

  ValueSet set = ValueSet::Set(10, {7, 2, 2, 5});
  EXPECT_EQ(set.Count(), 3u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.NthCode(0), 2);
  EXPECT_EQ(set.NthCode(2), 7);

  EXPECT_TRUE(ValueSet::Empty(10).IsEmpty());
}

TEST(ValueSet, FullIntervalCollapsesToAll) {
  EXPECT_TRUE(ValueSet::Interval(5, 0, 4).IsAll());
  EXPECT_TRUE(ValueSet::Interval(5, -3, 99).IsAll());
  // A Set naming all codes collapses too.
  EXPECT_TRUE(ValueSet::Set(3, {0, 1, 2}).IsAll());
}

TEST(ValueSet, IntersectMatchesBruteForce) {
  Rng rng(31);
  const size_t domain = 20;
  for (int trial = 0; trial < 200; ++trial) {
    auto random_set = [&]() -> ValueSet {
      switch (rng.UniformInt(3)) {
        case 0:
          return ValueSet::All(domain);
        case 1: {
          const int64_t a = rng.UniformRange(0, 19);
          const int64_t b = rng.UniformRange(0, 19);
          return ValueSet::Interval(domain, std::min(a, b), std::max(a, b));
        }
        default: {
          std::vector<int32_t> codes;
          for (size_t v = 0; v < domain; ++v) {
            if (rng.UniformDouble() < 0.3) {
              codes.push_back(static_cast<int32_t>(v));
            }
          }
          return ValueSet::Set(domain, std::move(codes));
        }
      }
    };
    const ValueSet a = random_set();
    const ValueSet b = random_set();
    const ValueSet c = a.Intersect(b);
    size_t count = 0;
    for (size_t v = 0; v < domain; ++v) {
      const bool expected = a.Contains(static_cast<int32_t>(v)) &&
                            b.Contains(static_cast<int32_t>(v));
      EXPECT_EQ(c.Contains(static_cast<int32_t>(v)), expected);
      if (expected) ++count;
    }
    EXPECT_EQ(c.Count(), count);
  }
}

TEST(ValueSet, MaskProbsZeroesOutside) {
  ValueSet iv = ValueSet::Interval(5, 1, 3);
  float probs[5] = {0.1f, 0.2f, 0.3f, 0.2f, 0.2f};
  const double mass = iv.MaskProbs(probs);
  EXPECT_NEAR(mass, 0.7, 1e-6);
  EXPECT_FLOAT_EQ(probs[0], 0.0f);
  EXPECT_FLOAT_EQ(probs[4], 0.0f);
  EXPECT_FLOAT_EQ(probs[2], 0.3f);
}

TEST(Predicate, OperatorSemantics) {
  const size_t domain = 7;
  struct Case {
    CompareOp op;
    int64_t lit;
    std::vector<int32_t> expect;
  };
  const std::vector<Case> cases = {
      {CompareOp::kEq, 3, {3}},
      {CompareOp::kNeq, 3, {0, 1, 2, 4, 5, 6}},
      {CompareOp::kLt, 3, {0, 1, 2}},
      {CompareOp::kLe, 3, {0, 1, 2, 3}},
      {CompareOp::kGt, 3, {4, 5, 6}},
      {CompareOp::kGe, 3, {3, 4, 5, 6}},
  };
  for (const auto& c : cases) {
    Predicate p;
    p.op = c.op;
    p.literal = c.lit;
    const ValueSet s = p.ToValueSet(domain);
    for (size_t v = 0; v < domain; ++v) {
      const bool want = std::find(c.expect.begin(), c.expect.end(),
                                  static_cast<int32_t>(v)) != c.expect.end();
      EXPECT_EQ(s.Contains(static_cast<int32_t>(v)), want)
          << CompareOpToString(c.op) << " value " << v;
    }
  }
  Predicate in;
  in.op = CompareOp::kIn;
  in.in_list = {1, 5};
  EXPECT_EQ(in.ToValueSet(domain).Count(), 2u);

  Predicate between;
  between.op = CompareOp::kBetween;
  between.literal = 2;
  between.literal2 = 4;
  EXPECT_EQ(between.ToValueSet(domain).Count(), 3u);
}

TEST(Query, RegionsIntersectMultiplePredicates) {
  Table t = TableBuilder("t")
                .AddIntColumn("a", {0, 1, 2, 3, 4, 5, 6, 7})
                .AddIntColumn("b", {0, 0, 0, 0, 1, 1, 1, 1})
                .Build();
  Predicate p1{/*column=*/0, CompareOp::kGe, /*literal=*/2, 0, {}};
  Predicate p2{/*column=*/0, CompareOp::kLe, /*literal=*/5, 0, {}};
  Query q(t, {p1, p2});
  EXPECT_EQ(q.region(0).Count(), 4u);
  EXPECT_TRUE(q.region(1).IsAll());
  EXPECT_EQ(q.NumFilteredColumns(), 1u);
  EXPECT_EQ(q.LastFilteredColumn(), 0);
  EXPECT_NEAR(q.Log10RegionSize(), std::log10(4.0 * 2.0), 1e-12);
}

TEST(Executor, MatchesBruteForce) {
  Table t = MakeRandomTable(3000, {4, 9, 17, 30}, 5);
  WorkloadConfig cfg;
  cfg.num_queries = 50;
  cfg.min_filters = 1;
  cfg.max_filters = 4;
  cfg.seed = 77;
  const auto queries = GenerateWorkload(t, cfg);
  for (const auto& q : queries) {
    int64_t brute = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      bool match = true;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (!q.region(c).Contains(t.column(c).code(r))) {
          match = false;
          break;
        }
      }
      if (match) ++brute;
    }
    EXPECT_EQ(ExecuteCount(t, q), brute);
  }
}

TEST(Executor, InclusionExclusion) {
  // sel(rest) = sel(rest AND a<=k) + sel(rest AND a>k): execution counts
  // must be exactly additive over complementary predicates.
  Table t = MakeRandomTable(2000, {8, 12, 20}, 9);
  Predicate base{/*column=*/1, CompareOp::kGe, /*literal=*/3, 0, {}};
  Predicate left{/*column=*/0, CompareOp::kLe, /*literal=*/4, 0, {}};
  Predicate right{/*column=*/0, CompareOp::kGt, /*literal=*/4, 0, {}};
  const int64_t whole = ExecuteCount(t, Query(t, {base}));
  const int64_t a = ExecuteCount(t, Query(t, {base, left}));
  const int64_t b = ExecuteCount(t, Query(t, {base, right}));
  EXPECT_EQ(whole, a + b);
}

TEST(Executor, BitmapMatchesPrefixRows) {
  Table t = MakeRandomTable(500, {5, 7}, 3);
  Predicate p{/*column=*/0, CompareOp::kEq, /*literal=*/1, 0, {}};
  Query q(t, {p});
  const auto bitmap = ExecuteBitmap(t, q, 100);
  ASSERT_EQ(bitmap.size(), 100u);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(bitmap[r] != 0, t.column(0).code(r) == 1);
  }
}

TEST(Workload, RespectsFilterCountAndOperatorRules) {
  Table t = MakeDmvLike(2000, 21);
  WorkloadConfig cfg;
  cfg.num_queries = 200;
  cfg.min_filters = 5;
  cfg.max_filters = 11;
  cfg.seed = 5;
  const auto queries = GenerateWorkload(t, cfg);
  ASSERT_EQ(queries.size(), 200u);
  for (const auto& q : queries) {
    const size_t f = q.predicates().size();
    EXPECT_GE(f, 5u);
    EXPECT_LE(f, 11u);
    std::set<size_t> cols;
    for (const auto& p : q.predicates()) {
      cols.insert(p.column);
      const size_t domain = t.column(p.column).DomainSize();
      if (domain < cfg.range_domain_threshold) {
        EXPECT_EQ(p.op, CompareOp::kEq);
      } else {
        EXPECT_TRUE(p.op == CompareOp::kEq || p.op == CompareOp::kLe ||
                    p.op == CompareOp::kGe);
      }
      // In-distribution literals come from the data, hence are valid codes.
      EXPECT_GE(p.literal, 0);
      EXPECT_LT(p.literal, static_cast<int64_t>(domain));
    }
    EXPECT_EQ(cols.size(), f) << "filters must be on distinct columns";
  }
}

TEST(Workload, InDistributionQueriesHaveHits) {
  Table t = MakeDmvLike(2000, 23);
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.min_filters = 2;
  cfg.max_filters = 3;
  cfg.seed = 9;
  const auto queries = GenerateWorkload(t, cfg);
  size_t nonzero = 0;
  for (const auto& q : queries) {
    if (ExecuteCount(t, q) > 0) ++nonzero;
  }
  // Literals are drawn from a data tuple, so most small-filter queries hit.
  EXPECT_GT(nonzero, 90u);
}

TEST(Workload, OutOfDistributionMostlyEmpty) {
  Table t = MakeDmvLike(2000, 25);
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.min_filters = 8;
  cfg.max_filters = 11;
  cfg.out_of_distribution = true;
  cfg.seed = 13;
  const auto queries = GenerateWorkload(t, cfg);
  size_t zero = 0;
  for (const auto& q : queries) {
    if (ExecuteCount(t, q) == 0) ++zero;
  }
  // The paper reports ~98% true-zero for OOD workloads.
  EXPECT_GT(zero, 80u);
}

TEST(Workload, InOperatorModeProducesSetRegions) {
  Table t = MakeDmvLike(2000, 31);
  WorkloadConfig cfg;
  cfg.num_queries = 120;
  cfg.in_probability = 1.0;  // every range-eligible column gets IN
  cfg.max_in_list = 4;
  cfg.seed = 7;
  const auto queries = GenerateWorkload(t, cfg);
  size_t in_preds = 0;
  for (const auto& q : queries) {
    for (const auto& p : q.predicates()) {
      const size_t domain = t.column(p.column).DomainSize();
      if (domain >= cfg.range_domain_threshold) {
        EXPECT_EQ(p.op, CompareOp::kIn);
        EXPECT_GE(p.in_list.size(), 1u);
        EXPECT_LE(p.in_list.size(), 1 + cfg.max_in_list);
        ++in_preds;
        // The anchor literal is always a member, so the query region
        // contains the generating tuple's value.
        EXPECT_TRUE(q.region(p.column).Contains(
            static_cast<int32_t>(p.literal)));
      }
    }
  }
  EXPECT_GT(in_preds, 100u);
}

TEST(Workload, SharedPrefixShapingRepeatsLeadingLiterals) {
  Table t = MakeDmvLike(2000, 37);
  WorkloadConfig cfg;
  cfg.num_queries = 300;
  cfg.min_filters = 1;
  cfg.max_filters = 4;
  cfg.shared_prefix_columns = 2;
  cfg.shared_prefix_fraction = 0.5;
  cfg.shared_prefix_templates = 2;
  cfg.seed = 17;
  const auto queries = GenerateWorkload(t, cfg);
  ASSERT_EQ(queries.size(), 300u);

  // Tally the literal pairs of queries that equality-constrain both leading
  // columns; shaped queries all draw theirs from the pre-picked template
  // tuples, so the same pairs recur across the trace.
  std::map<std::pair<int64_t, int64_t>, size_t> pair_counts;
  for (const auto& q : queries) {
    int64_t lit0 = -1;
    int64_t lit1 = -1;
    std::set<size_t> cols;
    for (const auto& p : q.predicates()) {
      cols.insert(p.column);
      if (p.column == 0 && p.op == CompareOp::kEq) lit0 = p.literal;
      if (p.column == 1 && p.op == CompareOp::kEq) lit1 = p.literal;
    }
    EXPECT_EQ(cols.size(), q.predicates().size())
        << "filters must stay on distinct columns";
    EXPECT_LE(q.predicates().size(),
              cfg.shared_prefix_columns + cfg.max_filters);
    if (lit0 >= 0 && lit1 >= 0) ++pair_counts[{lit0, lit1}];
  }
  size_t prefixed = 0;
  size_t heavy_pairs = 0;
  for (const auto& entry : pair_counts) {
    prefixed += entry.second;
    if (entry.second >= 10) ++heavy_pairs;
  }
  // ~half the trace is shaped (fraction 0.5), and the shaped half reuses at
  // most `shared_prefix_templates` distinct literal prefixes — exactly the
  // repetition the plan trie forks on.
  EXPECT_GE(prefixed, 100u);
  EXPECT_GE(heavy_pairs, 1u);
  EXPECT_LE(heavy_pairs, cfg.shared_prefix_templates);
}

TEST(Workload, SharedPrefixKnobsAreInertWhenFractionIsZero) {
  // The shaping draws are gated on the knob, so switching it off must
  // reproduce the unshaped workload bit for bit (same RNG stream).
  Table t = MakeDmvLike(1500, 41);
  WorkloadConfig base;
  base.num_queries = 60;
  base.min_filters = 2;
  base.max_filters = 5;
  base.seed = 23;
  WorkloadConfig gated = base;
  gated.shared_prefix_columns = 3;
  gated.shared_prefix_templates = 4;
  gated.shared_prefix_fraction = 0.0;
  const auto a = GenerateWorkload(t, base);
  const auto b = GenerateWorkload(t, gated);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(t), b[i].ToString(t));
  }
}

TEST(Workload, InQueriesAgreeAcrossExecutorAndSampler) {
  // End-to-end Set-region coverage: oracle + progressive sampling must
  // track exact execution on IN-heavy workloads.
  Table t = MakeRandomTable(1500, {12, 15, 20}, 33);
  WorkloadConfig cfg;
  cfg.num_queries = 12;
  cfg.min_filters = 1;
  cfg.max_filters = 3;
  cfg.range_domain_threshold = 10;
  cfg.in_probability = 0.7;
  cfg.seed = 11;
  const auto queries = GenerateWorkload(t, cfg);
  OracleModel oracle(&t);
  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 4000;
  NaruEstimator estimator(&oracle, ncfg, 0);
  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    EXPECT_NEAR(estimator.EstimateSelectivity(q), truth,
                std::max(0.35 * truth, 0.02))
        << q.ToString(t);
  }
}

TEST(Metrics, QErrorProperties) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(10, 1000), 100.0);
  EXPECT_DOUBLE_EQ(QError(1000, 10), 100.0);
  // Floor at 1 guards zero cardinalities.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 50), 50.0);
  // Symmetry.
  for (double a : {1.0, 7.0, 300.0}) {
    for (double b : {2.0, 90.0}) {
      EXPECT_DOUBLE_EQ(QError(a, b), QError(b, a));
    }
  }
}

TEST(Metrics, Buckets) {
  EXPECT_EQ(BucketForSelectivity(0.5), SelectivityBucket::kHigh);
  EXPECT_EQ(BucketForSelectivity(0.01), SelectivityBucket::kMedium);
  EXPECT_EQ(BucketForSelectivity(0.001), SelectivityBucket::kLow);
}

TEST(Metrics, ErrorReportQuantiles) {
  ErrorReport report("X");
  // 10 low-selectivity queries with errors 1..10.
  for (int i = 1; i <= 10; ++i) {
    report.Add(/*est=*/i, /*actual=*/1, /*sel=*/0.001);
  }
  const auto q = report.Bucket(SelectivityBucket::kLow);
  EXPECT_EQ(q.count, 10u);
  EXPECT_DOUBLE_EQ(q.max, 10.0);
  EXPECT_NEAR(q.median, 5.5, 1e-9);
  EXPECT_EQ(report.Bucket(SelectivityBucket::kHigh).count, 0u);
}

}  // namespace
}  // namespace naru
