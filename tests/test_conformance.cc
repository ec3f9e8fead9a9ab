// Cross-architecture conformance suite: every ConditionalModel
// implementation must satisfy the same contract, checked by one
// parameterized battery —
//   1. conditionals are normalized distributions at every position,
//   2. LogProbRows equals the chain product of ConditionalDist calls
//      (in the model's own order),
//   3. the joint sums to 1 over full enumeration,
//   4. progressive sampling converges to exact enumeration on a range
//      query (the sampler is integrator, not model, so this must hold for
//      every model),
//   5. the model-driven compressor round-trips the table exactly.
//
// Implementations covered: MADE, ResMADE, per-column nets (arch A), the
// causal Transformer, a permuted OrderedModel, a FactorizedModel with
// sub-column splits, the Chow-Liu Bayes net and the scanning Oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/compress.h"
#include "core/enumerator.h"
#include "core/factorized.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/oracle_model.h"
#include "core/ordered_model.h"
#include "core/percolumn.h"
#include "core/transformer.h"
#include "data/datasets.h"
#include "estimator/bayesnet.h"

namespace naru {
namespace {

// A single shared fixture table; domains are small enough to enumerate.
const std::vector<size_t> kDomains = {4, 5, 3, 4};

struct ModelUnderTest {
  std::string name;
  std::unique_ptr<ConditionalModel> model;
  // Oracle needs its table alive; OrderedModel owns its inner model.
  std::shared_ptr<Table> table;
};

ModelUnderTest MakeModelUnderTest(const std::string& kind) {
  ModelUnderTest out;
  out.name = kind;
  auto table = std::make_shared<Table>(
      MakeRandomTable(900, kDomains, /*seed=*/77, /*skew=*/1.0));
  out.table = table;

  MadeModel::Config mcfg;
  mcfg.hidden_sizes = {24, 24};
  mcfg.encoder.onehot_threshold = 16;
  mcfg.seed = 5;

  if (kind == "made") {
    out.model = std::make_unique<MadeModel>(kDomains, mcfg);
  } else if (kind == "resmade") {
    mcfg.residual = true;
    out.model = std::make_unique<MadeModel>(kDomains, mcfg);
  } else if (kind == "percolumn") {
    PerColumnModel::Config pcfg;
    pcfg.hidden_sizes = {16, 16};
    pcfg.encoder = mcfg.encoder;
    pcfg.seed = 5;
    out.model = std::make_unique<PerColumnModel>(kDomains, pcfg);
  } else if (kind == "transformer") {
    TransformerModel::Config tcfg;
    tcfg.d_model = 16;
    tcfg.num_heads = 2;
    tcfg.num_layers = 2;
    tcfg.ffn_hidden = 32;
    tcfg.seed = 5;
    out.model = std::make_unique<TransformerModel>(kDomains, tcfg);
  } else if (kind == "ordered") {
    const std::vector<size_t> order = {2, 0, 3, 1};
    auto inner = std::make_unique<MadeModel>(
        OrderedModel::PermuteDomains(kDomains, order), mcfg);
    out.model = std::make_unique<OrderedModel>(std::move(inner), order);
  } else if (kind == "bayesnet") {
    out.model = std::make_unique<BayesNet>(*table);
  } else if (kind == "factorized") {
    // Threshold 3 splits three of the four columns, including domain 5
    // whose last high block is partial (the interesting mask case).
    FactorizedLayout layout = FactorizedLayout::Build(kDomains, 3);
    auto inner =
        std::make_unique<MadeModel>(layout.position_domains(), mcfg);
    out.model =
        std::make_unique<FactorizedModel>(std::move(inner), std::move(layout));
  } else if (kind == "oracle") {
    // Slight smoothing so every tuple has nonzero mass (needed for the
    // compressor round-trip on tuples absent from the table).
    out.model = std::make_unique<OracleModel>(table.get(), 0.05);
  } else {
    ADD_FAILURE() << "unknown kind " << kind;
  }
  return out;
}

class ConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConformanceTest, ConditionalsAreNormalized) {
  ModelUnderTest m = MakeModelUnderTest(GetParam());
  const size_t positions = m.model->num_columns();
  IntMatrix samples(4, positions);
  Rng rng(9);
  for (size_t pos = 0; pos < positions; ++pos) {
    Matrix probs;
    m.model->ConditionalDist(samples, pos, &probs);
    const size_t d = m.model->DomainSize(pos);
    ASSERT_EQ(probs.cols(), d);
    for (size_t r = 0; r < samples.rows(); ++r) {
      double sum = 0;
      for (size_t v = 0; v < d; ++v) {
        ASSERT_GE(probs.At(r, v), 0.0f) << m.name;
        sum += probs.At(r, v);
      }
      ASSERT_NEAR(sum, 1.0, 1e-3) << m.name << " position " << pos;
      // Keep the prefix valid for the next position.
      samples.At(r, pos) =
          static_cast<int32_t>(rng.UniformInt(d));
    }
  }
}

TEST_P(ConformanceTest, LogProbMatchesConditionalChain) {
  ModelUnderTest m = MakeModelUnderTest(GetParam());
  const size_t n = kDomains.size();
  IntMatrix tuple(1, n);  // table order
  tuple.At(0, 0) = 1;
  tuple.At(0, 1) = 4;
  tuple.At(0, 2) = 2;
  tuple.At(0, 3) = 0;
  std::vector<double> lp;
  m.model->LogProbRows(tuple, &lp);

  // Chain in the MODEL's position layout: translate the table row through
  // the model's codec, then walk ConditionalDist position by position.
  const size_t positions = m.model->num_columns();
  IntMatrix model_codes(1, positions);
  m.model->EncodeTableRow(tuple.Row(0), model_codes.Row(0));
  IntMatrix samples(1, positions);
  double chain = 0;
  for (size_t pos = 0; pos < positions; ++pos) {
    Matrix probs;
    m.model->ConditionalDist(samples, pos, &probs);
    const int32_t code = model_codes.At(0, pos);
    chain += std::log(
        std::max(1e-300, static_cast<double>(
                             probs.At(0, static_cast<size_t>(code)))));
    samples.At(0, pos) = code;
  }
  EXPECT_NEAR(lp[0], chain, 1e-3) << m.name;
}

TEST_P(ConformanceTest, JointSumsToOne) {
  if (GetParam() == "factorized") {
    GTEST_SKIP() << "an untrained factorized model places mass on invalid "
                    "(high, low) combinations; its VALID mass sums below 1 "
                    "until training (see FactorizedModel tests)";
  }
  ModelUnderTest m = MakeModelUnderTest(GetParam());
  // All-wildcard region: enumeration covers the whole joint.
  std::vector<ValueSet> regions;
  for (size_t d : kDomains) regions.push_back(ValueSet::All(d));
  Query all(std::move(regions));
  EXPECT_NEAR(EnumerateSelectivity(m.model.get(), all), 1.0, 2e-3) << m.name;
}

TEST_P(ConformanceTest, SamplerConvergesToEnumeration) {
  ModelUnderTest m = MakeModelUnderTest(GetParam());
  Query q({ValueSet::Interval(4, 1, 3), ValueSet::All(5),
           ValueSet::Interval(3, 0, 1), ValueSet::Interval(4, 0, 2)});
  const double exact = EnumerateSelectivity(m.model.get(), q);
  ASSERT_GT(exact, 0.0) << m.name;

  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 20000;
  ncfg.sampler_seed = 13;
  NaruEstimator estimator(m.model.get(), ncfg, 0);
  const double est = estimator.EstimateSelectivity(q);
  EXPECT_NEAR(est / exact, 1.0, 0.1) << m.name;
}

TEST_P(ConformanceTest, CompressorRoundTripsTable) {
  ModelUnderTest m = MakeModelUnderTest(GetParam());
  CompressionStats stats;
  auto blob = CompressTable(m.model.get(), *m.table, &stats);
  ASSERT_TRUE(blob.ok()) << m.name << ": " << blob.status().ToString();
  IntMatrix decoded;
  ASSERT_TRUE(DecompressTuples(m.model.get(), blob.ValueOrDie(), &decoded).ok())
      << m.name;
  std::vector<int32_t> row(m.table->num_columns());
  for (size_t r = 0; r < m.table->num_rows(); ++r) {
    m.table->GetRowCodes(r, row.data());
    for (size_t c = 0; c < m.table->num_columns(); ++c) {
      ASSERT_EQ(decoded.At(r, c), row[c])
          << m.name << " row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ConformanceTest,
                         ::testing::Values("made", "resmade", "percolumn",
                                           "transformer", "ordered",
                                           "bayesnet", "oracle",
                                           "factorized"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace naru
