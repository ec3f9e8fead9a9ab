// Parameterized property-based test sweeps over the library's invariants:
// GEMM algebra on random shapes, ValueSet algebra, MADE autoregressiveness
// and normalization across architectures/encodings, sampler consistency
// with enumeration, estimator bounds, and q-error metric laws.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/enumerator.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/percolumn.h"
#include "data/datasets.h"
#include "estimator/dbms1.h"
#include "estimator/hist_nd.h"
#include "estimator/indep.h"
#include "estimator/kde.h"
#include "estimator/postgres1d.h"
#include "estimator/sample.h"
#include "nn/adam.h"
#include "query/executor.h"
#include "query/metrics.h"
#include "query/workload.h"
#include "tensor/gemm.h"

namespace naru {
namespace {

// ---------------------------------------------------------------------------
// GEMM identities over random shapes: (A B)^T == B^T A^T, computed through
// the three kernel variants.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, TransposeIdentity) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 73 + k * 17 + n));
  Matrix a(m, k);
  Matrix b(k, n);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.Gaussian());
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Matrix ab;
  GemmNN(a, b, &ab);  // (m x n)

  // C2 = A * (B^T)^T via GemmNT with bt = transpose(b).
  Matrix bt(n, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) bt.At(j, i) = b.At(i, j);
  }
  Matrix c2;
  GemmNT(a, bt, &c2);
  // C3 = (A^T)^T * B via GemmTN with at = transpose(a).
  Matrix at(k, m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) at.At(j, i) = a.At(i, j);
  }
  Matrix c3;
  GemmTN(at, b, &c3);

  for (size_t i = 0; i < ab.size(); ++i) {
    EXPECT_NEAR(ab.data()[i], c2.data()[i], 1e-3);
    EXPECT_NEAR(ab.data()[i], c3.data()[i], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(17, 1, 9), std::make_tuple(8, 8, 8),
                      std::make_tuple(33, 65, 17),
                      std::make_tuple(100, 3, 51)));

// ---------------------------------------------------------------------------
// ValueSet algebra laws under random construction.
class ValueSetLawTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr size_t kDomain = 24;

  ValueSet RandomSet(Rng* rng) {
    switch (rng->UniformInt(4)) {
      case 0:
        return ValueSet::All(kDomain);
      case 1:
        return ValueSet::Empty(kDomain);
      case 2: {
        const int64_t a = rng->UniformRange(0, kDomain - 1);
        const int64_t b = rng->UniformRange(0, kDomain - 1);
        return ValueSet::Interval(kDomain, std::min(a, b), std::max(a, b));
      }
      default: {
        std::vector<int32_t> codes;
        for (size_t v = 0; v < kDomain; ++v) {
          if (rng->UniformDouble() < 0.4) {
            codes.push_back(static_cast<int32_t>(v));
          }
        }
        return ValueSet::Set(kDomain, std::move(codes));
      }
    }
  }
};

TEST_P(ValueSetLawTest, IntersectionLaws) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const ValueSet a = RandomSet(&rng);
    const ValueSet b = RandomSet(&rng);
    const ValueSet ab = a.Intersect(b);
    const ValueSet ba = b.Intersect(a);
    // Commutativity and idempotence.
    EXPECT_EQ(ab.Count(), ba.Count());
    EXPECT_EQ(a.Intersect(a).Count(), a.Count());
    // Identity and annihilator.
    EXPECT_EQ(a.Intersect(ValueSet::All(kDomain)).Count(), a.Count());
    EXPECT_EQ(a.Intersect(ValueSet::Empty(kDomain)).Count(), 0u);
    // Monotonicity.
    EXPECT_LE(ab.Count(), std::min(a.Count(), b.Count()));
    // NthCode enumerates exactly the members.
    for (size_t k = 0; k < ab.Count(); ++k) {
      EXPECT_TRUE(ab.Contains(ab.NthCode(k)));
      EXPECT_TRUE(a.Contains(ab.NthCode(k)));
      EXPECT_TRUE(b.Contains(ab.NthCode(k)));
    }
  }
}

TEST_P(ValueSetLawTest, MaskProbsConservesContainedMass) {
  Rng rng(GetParam() ^ 0xABC);
  for (int trial = 0; trial < 50; ++trial) {
    const ValueSet s = RandomSet(&rng);
    std::vector<float> probs(kDomain);
    double contained = 0;
    for (size_t v = 0; v < kDomain; ++v) {
      probs[v] = static_cast<float>(rng.UniformDouble());
      if (s.Contains(static_cast<int32_t>(v))) contained += probs[v];
    }
    const double mass = s.MaskProbs(probs.data());
    EXPECT_NEAR(mass, contained, 1e-5);
    for (size_t v = 0; v < kDomain; ++v) {
      if (!s.Contains(static_cast<int32_t>(v))) {
        EXPECT_EQ(probs[v], 0.0f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueSetLawTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// q-error laws.
class QErrorLawTest : public ::testing::TestWithParam<double> {};

TEST_P(QErrorLawTest, Laws) {
  const double x = GetParam();
  // Reflexivity, symmetry, scale behaviour, floor.
  EXPECT_DOUBLE_EQ(QError(x, x), 1.0);
  EXPECT_DOUBLE_EQ(QError(x, 2 * x), QError(2 * x, x));
  EXPECT_GE(QError(x, 3 * x), QError(x, 2 * x));
  EXPECT_DOUBLE_EQ(QError(0, x), std::max(x, 1.0));
}

INSTANTIATE_TEST_SUITE_P(Values, QErrorLawTest,
                         ::testing::Values(1.0, 2.5, 100.0, 1e6));

// ---------------------------------------------------------------------------
// MADE invariants across architectures and encodings.
struct MadeVariant {
  std::vector<size_t> hidden;
  size_t onehot_threshold;
  bool reuse;
  bool binary;
};

class MadeInvariantTest : public ::testing::TestWithParam<int> {
 protected:
  static MadeVariant Variant(int idx) {
    switch (idx) {
      case 0:
        return {{32, 32}, 64, true, false};       // all one-hot (small doms)
      case 1:
        return {{16}, 4, true, false};            // embeddings + reuse
      case 2:
        return {{16, 16, 16}, 4, false, false};   // embeddings, FC heads
      case 3:
        return {{24, 24}, 4, false, true};        // binary inputs
      default:
        return {{}, 64, false, false};            // linear MADE (no hidden)
    }
  }
};

TEST_P(MadeInvariantTest, AutoregressiveAndNormalized) {
  const MadeVariant v = Variant(GetParam());
  const std::vector<size_t> domains = {6, 17, 3, 9};
  MadeModel::Config cfg;
  cfg.hidden_sizes = v.hidden;
  cfg.encoder.onehot_threshold = v.onehot_threshold;
  cfg.encoder.embed_dim = 8;
  cfg.encoder.binary_for_large = v.binary;
  cfg.embedding_reuse = v.reuse;
  cfg.seed = static_cast<uint64_t>(GetParam() + 1);
  MadeModel model(domains, cfg);

  IntMatrix base(1, domains.size());
  Rng rng(3);
  for (size_t c = 0; c < domains.size(); ++c) {
    base.At(0, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
  }

  // Normalization of every conditional.
  for (size_t c = 0; c < domains.size(); ++c) {
    Matrix probs;
    model.ConditionalDist(base, c, &probs);
    double sum = 0;
    for (size_t vv = 0; vv < domains[c]; ++vv) sum += probs.At(0, vv);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }

  // Autoregressiveness: perturb column j, outputs i <= j unchanged.
  for (size_t j = 0; j < domains.size(); ++j) {
    IntMatrix mutated = base;
    mutated.At(0, j) =
        (base.At(0, j) + 1) % static_cast<int32_t>(domains[j]);
    for (size_t i = 0; i <= j; ++i) {
      Matrix pa;
      Matrix pb;
      model.ConditionalDist(base, i, &pa);
      model.ConditionalDist(mutated, i, &pb);
      for (size_t vv = 0; vv < domains[i]; ++vv) {
        ASSERT_NEAR(pa.At(0, vv), pb.At(0, vv), 1e-6)
            << "variant " << GetParam() << " col " << j << " output " << i;
      }
    }
  }

  // Joint normalization by full enumeration (small joint: 6*17*3*9).
  double total = 0;
  IntMatrix tuple(1, domains.size());
  std::vector<double> lp;
  for (size_t a = 0; a < domains[0]; ++a) {
    for (size_t b = 0; b < domains[1]; ++b) {
      for (size_t c = 0; c < domains[2]; ++c) {
        for (size_t d = 0; d < domains[3]; ++d) {
          tuple.At(0, 0) = static_cast<int32_t>(a);
          tuple.At(0, 1) = static_cast<int32_t>(b);
          tuple.At(0, 2) = static_cast<int32_t>(c);
          tuple.At(0, 3) = static_cast<int32_t>(d);
          model.LogProbRows(tuple, &lp);
          total += std::exp(lp[0]);
        }
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Variants, MadeInvariantTest,
                         ::testing::Values(0, 1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Architecture A obeys the same invariants.
TEST(PerColumnModel, AutoregressiveAndNormalized) {
  const std::vector<size_t> domains = {5, 12, 4};
  PerColumnModel::Config cfg;
  cfg.hidden_sizes = {16, 16};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 6;
  cfg.seed = 7;
  PerColumnModel model(domains, cfg);

  IntMatrix base(1, 3);
  base.At(0, 0) = 2;
  base.At(0, 1) = 11;
  base.At(0, 2) = 1;
  for (size_t c = 0; c < 3; ++c) {
    Matrix probs;
    model.ConditionalDist(base, c, &probs);
    double sum = 0;
    for (size_t v = 0; v < domains[c]; ++v) sum += probs.At(0, v);
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
  // Perturbing column 2 cannot change P(X0) or P(X1 | x0).
  IntMatrix mutated = base;
  mutated.At(0, 2) = 3;
  for (size_t i = 0; i < 2; ++i) {
    Matrix pa;
    Matrix pb;
    model.ConditionalDist(base, i, &pa);
    model.ConditionalDist(mutated, i, &pb);
    for (size_t v = 0; v < domains[i]; ++v) {
      EXPECT_FLOAT_EQ(pa.At(0, v), pb.At(0, v));
    }
  }
}

TEST(PerColumnModel, TrainingReducesNll) {
  Table t = MakeRandomTable(1200, {5, 7, 6}, 21, 1.2);
  PerColumnModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = 3;
  PerColumnModel model({5, 7, 6}, cfg);
  AdamOptions opts;
  opts.lr = 5e-3;
  Adam adam(model.Parameters(), opts);
  IntMatrix codes(t.num_rows(), 3);
  for (size_t r = 0; r < t.num_rows(); ++r) t.GetRowCodes(r, codes.Row(r));
  const double first = model.ForwardBackward(codes);
  adam.Step();
  double last = first;
  for (int step = 0; step < 60; ++step) {
    last = model.ForwardBackward(codes);
    adam.Step();
  }
  EXPECT_LT(last, first * 0.8);
}

// ---------------------------------------------------------------------------
// Sampler/enumerator agreement across table shapes (both integrate the
// same model joint, so they must coincide up to Monte Carlo noise).
class SamplerEnumAgreementTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(SamplerEnumAgreementTest, Agree) {
  const auto [seed, cols] = GetParam();
  std::vector<size_t> domains;
  Rng setup(seed);
  for (int c = 0; c < cols; ++c) {
    domains.push_back(3 + setup.UniformInt(6));
  }
  Table t = MakeRandomTable(600, domains, seed + 1);
  OracleModel oracle(&t);

  WorkloadConfig wcfg;
  wcfg.num_queries = 5;
  wcfg.min_filters = 1;
  wcfg.max_filters = static_cast<size_t>(cols);
  wcfg.range_domain_threshold = 4;
  wcfg.seed = seed + 2;
  for (const auto& q : GenerateWorkload(t, wcfg)) {
    const double exact = EnumerateSelectivity(&oracle, q);
    NaruEstimatorConfig ncfg;
    ncfg.enumeration_threshold = 0;
    ncfg.num_samples = 6000;
    ncfg.sampler_seed = seed + 3;
    NaruEstimator estimator(&oracle, ncfg, 0);
    const double sampled = estimator.EstimateSelectivity(q);
    EXPECT_NEAR(sampled, exact, std::max(0.3 * exact, 0.01));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SamplerEnumAgreementTest,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(2, 4, 6)));

// ---------------------------------------------------------------------------
// Every estimator returns selectivities in [0, 1] and exact 0/1 where
// mandated, over a shared random workload.
class EstimatorBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorBoundsTest, SelectivitiesInRange) {
  Table t = MakeDmvLike(4000, 91);
  const int which = GetParam();
  std::unique_ptr<Estimator> est;
  std::unique_ptr<OracleModel> oracle;
  switch (which) {
    case 0:
      est = std::make_unique<IndepEstimator>(t);
      break;
    case 1:
      est = std::make_unique<Postgres1dEstimator>(t);
      break;
    case 2:
      est = std::make_unique<Dbms1Estimator>(t);
      break;
    case 3:
      est = std::make_unique<SampleEstimator>(t, 400, 7);
      break;
    case 4:
      est = std::make_unique<KdeEstimator>(t, 400, 7);
      break;
    case 5:
      est = std::make_unique<HistNdEstimator>(t, 1 << 18);
      break;
    default: {
      oracle = std::make_unique<OracleModel>(&t);
      NaruEstimatorConfig ncfg;
      ncfg.num_samples = 200;
      est = std::make_unique<NaruEstimator>(oracle.get(), ncfg, 0);
      break;
    }
  }
  WorkloadConfig wcfg;
  wcfg.num_queries = 25;
  wcfg.seed = 17;
  for (const auto& q : GenerateWorkload(t, wcfg)) {
    const double sel = est->EstimateSelectivity(q);
    EXPECT_GE(sel, 0.0) << est->name();
    EXPECT_LE(sel, 1.0 + 1e-9) << est->name();
  }
  // Wildcard-only query: every estimator answers ~1 (float32 accumulators
  // like Hist's cell array leave ~1e-6 of rounding slack).
  Query all(t, {});
  EXPECT_NEAR(est->EstimateSelectivity(all), 1.0, 1e-4) << est->name();
  // Unsatisfiable query: every estimator answers ~0.
  Predicate impossible{0, CompareOp::kLt, 0, 0, {}};
  Query none(t, {impossible});
  EXPECT_NEAR(est->EstimateSelectivity(none), 0.0, 1e-9) << est->name();
}

INSTANTIATE_TEST_SUITE_P(All, EstimatorBoundsTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Inclusion-exclusion consistency on the scan executor itself:
// sel(B) == sel(B ∧ A) + sel(B ∧ ¬A) for random A, B.
class ExecutorInclusionExclusionTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorInclusionExclusionTest, ComplementAdds) {
  const uint64_t seed = GetParam();
  Table t = MakeRandomTable(1500, {9, 13, 7, 5}, seed);
  Rng rng(seed + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t col = rng.UniformInt(4);
    const size_t domain = t.column(col).DomainSize();
    const int64_t pivot =
        rng.UniformRange(0, static_cast<int64_t>(domain) - 1);
    const size_t other = (col + 1 + rng.UniformInt(3)) % 4;
    Predicate base{other, CompareOp::kGe,
                   rng.UniformRange(0, static_cast<int64_t>(
                                           t.column(other).DomainSize()) -
                                           1),
                   0,
                   {}};
    Predicate le{col, CompareOp::kLe, pivot, 0, {}};
    Predicate gt{col, CompareOp::kGt, pivot, 0, {}};
    const int64_t whole = ExecuteCount(t, Query(t, {base}));
    const int64_t lo = ExecuteCount(t, Query(t, {base, le}));
    const int64_t hi = ExecuteCount(t, Query(t, {base, gt}));
    EXPECT_EQ(whole, lo + hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorInclusionExclusionTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace naru
