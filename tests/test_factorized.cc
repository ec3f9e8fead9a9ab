// Tests for column factorization: layout construction, row codecs, the
// per-path (non-rectangular) region masks, sampler/enumerator agreement,
// end-to-end trained accuracy on a large-domain column, model-size
// shrinkage, and compressor round-trips through the factorized layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/compress.h"
#include "core/enumerator.h"
#include "core/factorized.h"
#include "core/generator.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "util/random.h"

namespace naru {
namespace {

MadeModel::Config SmallConfig(uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 64;
  cfg.encoder.embed_dim = 8;
  cfg.seed = seed;
  return cfg;
}

FactorizedModel MakeFactorized(const std::vector<size_t>& domains,
                               size_t threshold, uint64_t seed) {
  FactorizedLayout layout = FactorizedLayout::Build(domains, threshold);
  auto inner =
      std::make_unique<MadeModel>(layout.position_domains(), SmallConfig(seed));
  return FactorizedModel(std::move(inner), std::move(layout));
}

TEST(FactorizedLayout, SplitsLargeColumnsOnly) {
  const std::vector<size_t> domains = {4, 1000, 7, 300};
  FactorizedLayout layout = FactorizedLayout::Build(domains, 256);
  EXPECT_EQ(layout.num_table_columns(), 4u);
  EXPECT_EQ(layout.num_positions(), 6u);  // 1 + 2 + 1 + 2
  EXPECT_FALSE(layout.column_is_split(0));
  EXPECT_TRUE(layout.column_is_split(1));
  EXPECT_FALSE(layout.column_is_split(2));
  EXPECT_TRUE(layout.column_is_split(3));
  // Sub-domains near sqrt: 1000 -> bits 10, shift 5: hi ceil(1000/32)=32,
  // lo 32.
  EXPECT_EQ(layout.position(1).domain, 32u);
  EXPECT_EQ(layout.position(2).domain, 32u);
  // Product of sub-domains covers the original domain.
  EXPECT_GE(layout.position(1).domain * layout.position(2).domain, 1000u);
}

TEST(FactorizedLayout, RowCodecRoundTripsEveryCode) {
  const std::vector<size_t> domains = {5, 300};
  FactorizedLayout layout = FactorizedLayout::Build(domains, 64);
  std::vector<int32_t> table(2), model(layout.num_positions()), back(2);
  for (int32_t a = 0; a < 5; ++a) {
    for (int32_t b = 0; b < 300; b += 7) {
      table[0] = a;
      table[1] = b;
      layout.EncodeRow(table.data(), model.data());
      layout.DecodeRow(model.data(), back.data());
      ASSERT_EQ(back[0], a);
      ASSERT_EQ(back[1], b);
      // Sub-codes stay inside their sub-domains.
      for (size_t pos = 0; pos < layout.num_positions(); ++pos) {
        ASSERT_GE(model[pos], 0);
        ASSERT_LT(static_cast<size_t>(model[pos]),
                  layout.position(pos).domain);
      }
    }
  }
}

TEST(FactorizedModel, LogProbConsistentWithEncodedInner) {
  const std::vector<size_t> domains = {6, 500};
  FactorizedLayout layout = FactorizedLayout::Build(domains, 64);
  auto inner = std::make_unique<MadeModel>(layout.position_domains(),
                                           SmallConfig(3));
  MadeModel reference(layout.position_domains(), SmallConfig(3));
  FactorizedModel model(std::move(inner), layout);

  IntMatrix table_row(1, 2);
  table_row.At(0, 0) = 3;
  table_row.At(0, 1) = 417;
  std::vector<double> lp;
  model.LogProbRows(table_row, &lp);

  IntMatrix enc(1, 3);
  layout.EncodeRow(table_row.Row(0), enc.Row(0));
  std::vector<double> lp_ref;
  reference.LogProbRows(enc, &lp_ref);
  EXPECT_NEAR(lp[0], lp_ref[0], 1e-6);
}

TEST(FactorizedModel, SamplerMatchesEnumeratorOnRangeQueries) {
  // Both integrate the same (untrained) model over the VALID region; the
  // non-rectangular low-mask must make them agree.
  const std::vector<size_t> domains = {5, 300, 4};
  FactorizedModel model = MakeFactorized(domains, 64, 7);

  const std::vector<Query> queries = {
      Query({ValueSet::Interval(5, 1, 3), ValueSet::Interval(300, 37, 211),
             ValueSet::All(4)}),
      Query({ValueSet::All(5), ValueSet::Interval(300, 0, 64),
             ValueSet::Interval(4, 2, 3)}),
      Query({ValueSet::All(5), ValueSet::Set(300, {3, 64, 65, 255, 299}),
             ValueSet::All(4)}),
      // Wildcard on the split column: masks must still exclude invalid
      // (high, low) combinations (300 does not fill its last block).
      Query({ValueSet::Interval(5, 0, 2), ValueSet::All(300),
             ValueSet::All(4)}),
  };
  for (const auto& q : queries) {
    const double exact = EnumerateSelectivity(&model, q);
    ASSERT_GT(exact, 0.0);
    NaruEstimatorConfig ncfg;
    ncfg.enumeration_threshold = 0;
    ncfg.num_samples = 30000;
    ncfg.sampler_seed = 13;
    NaruEstimator estimator(&model, ncfg, 0);
    const double est = estimator.EstimateSelectivity(q);
    EXPECT_NEAR(est / exact, 1.0, 0.1) << q.ToString(Table("t"));
  }
}

TEST(FactorizedModel, TrainingShrinksInvalidMass) {
  // Valid-region mass starts below 1 (the inner model wastes mass on
  // codes >= D) and approaches 1 with training.
  Table t = MakeRandomTable(3000, {6, 500}, 17, /*skew=*/1.0);
  // Build over the table's REALIZED domains (skewed generators rarely
  // materialize every requested value).
  const std::vector<size_t> domains = {t.column(0).DomainSize(),
                                       t.column(1).DomainSize()};
  ASSERT_GT(domains[1], 300u);  // still a split-worthy domain
  FactorizedModel model = MakeFactorized(domains, 64, 19);

  Query all({ValueSet::All(domains[0]), ValueSet::All(domains[1])});
  const double before = EnumerateSelectivity(&model, all);
  EXPECT_LT(before, 0.999);  // untrained: some invalid mass

  TrainerConfig tcfg;
  tcfg.epochs = 15;
  tcfg.batch_size = 256;
  tcfg.lr = 5e-3;
  Trainer(&model, tcfg).Train(t);
  const double after = EnumerateSelectivity(&model, all);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.95);
}

TEST(FactorizedModel, EndToEndAccuracyOnLargeDomainColumn) {
  Table t = MakeRandomTable(5000, {8, 600}, 23, /*skew=*/1.0);
  const std::vector<size_t> domains = {t.column(0).DomainSize(),
                                       t.column(1).DomainSize()};
  ASSERT_GT(domains[1], 300u);
  FactorizedModel model = MakeFactorized(domains, 64, 29);

  TrainerConfig tcfg;
  tcfg.epochs = 20;
  tcfg.batch_size = 256;
  tcfg.lr = 5e-3;
  Trainer(&model, tcfg).Train(t);

  NaruEstimatorConfig ecfg;
  ecfg.num_samples = 2000;
  ecfg.enumeration_threshold = 0;
  NaruEstimator est(&model, ecfg, model.SizeBytes(), "Naru-fact");

  const int64_t mid = static_cast<int64_t>(domains[1] / 2);
  const std::vector<Query> queries = {
      Query(t, {{1, CompareOp::kLe, mid}}),
      Query(t, {{0, CompareOp::kGe, 3},
                {1, CompareOp::kBetween, mid / 3, 2 * mid}}),
      Query(t, {{0, CompareOp::kLe, 5},
                {1, CompareOp::kGe, static_cast<int64_t>(domains[1] - mid / 2)}}),
  };
  for (const auto& q : queries) {
    const double truth = ExecuteSelectivity(t, q);
    ASSERT_GT(truth, 0.0);
    const double got = est.EstimateSelectivity(q);
    const double qerr =
        std::max(got, truth) / std::max(1e-9, std::min(got, truth));
    EXPECT_LT(qerr, 2.0) << q.ToString(t) << " est " << got << " truth "
                         << truth;
  }
}

TEST(FactorizedModel, ShrinksModelAgainstUnfactorized) {
  const std::vector<size_t> domains = {4, 5000};
  MadeModel::Config cfg = SmallConfig(31);
  cfg.encoder.onehot_threshold = 8;  // force embeddings either way
  cfg.embedding_reuse = false;        // make the head cost visible
  MadeModel plain(domains, cfg);

  FactorizedLayout layout = FactorizedLayout::Build(domains, 256);
  auto inner = std::make_unique<MadeModel>(layout.position_domains(), cfg);
  FactorizedModel fact(std::move(inner), layout);
  EXPECT_LT(fact.SizeBytes(), plain.SizeBytes() / 2);
}

TEST(FactorizedModel, GeneratorsEmitValidTableRows) {
  const std::vector<size_t> domains = {5, 300};
  FactorizedModel model = MakeFactorized(domains, 64, 37);
  TupleGenerator gen(&model, 41);
  IntMatrix tuples;
  gen.DrawUnconditional(3000, &tuples);
  ASSERT_EQ(tuples.cols(), 2u);
  size_t invalid = 0;
  for (size_t r = 0; r < tuples.rows(); ++r) {
    EXPECT_GE(tuples.At(r, 0), 0);
    EXPECT_LT(tuples.At(r, 0), 5);
    EXPECT_GE(tuples.At(r, 1), 0);
    // Unconditional draws CAN produce invalid re-joined codes on an
    // untrained model (documented caveat); count them.
    invalid += tuples.At(r, 1) >= 300;
  }
  EXPECT_LT(invalid, tuples.rows() / 2);

  // Conditional draws respect the region (the masks exclude invalid codes).
  Query q({ValueSet::Interval(5, 1, 3), ValueSet::Interval(300, 50, 250)});
  std::vector<double> weights;
  gen.DrawWeighted(q, 2000, &tuples, &weights);
  for (size_t r = 0; r < tuples.rows(); ++r) {
    if (weights[r] <= 0) continue;
    EXPECT_TRUE(RowSatisfies(q, tuples.Row(r))) << "row " << r;
  }
}

TEST(FactorizedModel, CompressorRoundTripsThroughSubColumns) {
  Table t = MakeRandomTable(800, {6, 500}, 43, /*skew=*/1.1);
  const std::vector<size_t> domains = {t.column(0).DomainSize(),
                                       t.column(1).DomainSize()};
  ASSERT_GT(domains[1], 100u);
  FactorizedModel model = MakeFactorized(domains, 64, 47);

  CompressionStats stats;
  auto blob = CompressTable(&model, t, &stats);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  IntMatrix decoded;
  ASSERT_TRUE(DecompressTuples(&model, blob.ValueOrDie(), &decoded).ok());
  ASSERT_EQ(decoded.rows(), t.num_rows());
  ASSERT_EQ(decoded.cols(), 2u);
  std::vector<int32_t> row(2);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    t.GetRowCodes(r, row.data());
    ASSERT_EQ(decoded.At(r, 0), row[0]) << r;
    ASSERT_EQ(decoded.At(r, 1), row[1]) << r;
  }
}

TEST(FactorizedModel, ExactPowerOfTwoDomainHasNoInvalidMass) {
  // 512 = 2^9 fills its blocks exactly: wildcard low positions are true
  // wildcards and the joint over valid codes is exactly normalized.
  const std::vector<size_t> domains = {4, 512};
  FactorizedModel model = MakeFactorized(domains, 64, 53);
  Query all({ValueSet::All(4), ValueSet::All(512)});
  EXPECT_NEAR(EnumerateSelectivity(&model, all), 1.0, 2e-3);
  // And the sampler's all-wildcard early exit applies.
  NaruEstimatorConfig ncfg;
  ncfg.enumeration_threshold = 0;
  ncfg.num_samples = 8;
  NaruEstimator estimator(&model, ncfg, 0);
  EXPECT_EQ(estimator.EstimateSelectivity(all), 1.0);
}

TEST(FactorizedModel, InListMasksMatchAllowedSetMasks) {
  // IN-list masks on the high and low positions of a split column,
  // against a reference that marks the allowed sub-codes in a vector:
  // same zeroed entries, and the mass as the same ascending double sum
  // (the draw takes that mass as its total, so its bits matter).
  const std::vector<size_t> domains = {5, 300, 4};
  FactorizedModel model = MakeFactorized(domains, 64, 7);
  const size_t high_pos = 1;
  const size_t low_pos = 2;
  const auto& high = model.layout().position(high_pos);
  const auto& low = model.layout().position(low_pos);
  ASSERT_TRUE(high.is_high && low.is_low);
  const size_t block = size_t{1} << low.shift;
  Rng rng(29);
  const std::vector<std::vector<int32_t>> lists = {
      {0},          {299},          {3, 64, 65, 255, 299},
      {0, 1, 2, 3}, {63, 64, 127, 128, 256, 298}};
  for (const auto& codes : lists) {
    const Query q({ValueSet::All(5), ValueSet::Set(300, codes),
                   ValueSet::All(4)});
    std::vector<float> row(high.domain);
    for (float& v : row) v = static_cast<float>(rng.UniformDouble());
    std::vector<float> want = row;
    double want_mass = 0;
    std::vector<uint8_t> allowed(high.domain, 0);
    for (int32_t c : codes) allowed[static_cast<size_t>(c) >> high.shift] = 1;
    for (size_t v = 0; v < high.domain; ++v) {
      if (allowed[v]) {
        want_mass += want[v];
      } else {
        want[v] = 0.0f;
      }
    }
    int32_t prefix[4] = {0, 0, 0, 0};
    const double mass =
        model.MaskProbsToRegion(q, prefix, high_pos, row.data());
    EXPECT_EQ(std::memcmp(&mass, &want_mass, sizeof(mass)), 0);
    EXPECT_EQ(std::memcmp(row.data(), want.data(), row.size() * 4), 0);

    for (size_t h = 0; h < high.domain; ++h) {
      std::vector<float> lrow(block);
      for (float& v : lrow) v = static_cast<float>(rng.UniformDouble());
      std::vector<float> lwant = lrow;
      const int64_t base = static_cast<int64_t>(h << low.shift);
      const int64_t vmax = std::min<int64_t>(static_cast<int64_t>(block),
                                             300 - base);
      std::vector<uint8_t> lallowed(block, 0);
      for (int32_t c : codes) {
        const int64_t rel = c - base;
        if (rel >= 0 && rel < vmax) lallowed[static_cast<size_t>(rel)] = 1;
      }
      double lwant_mass = 0;
      for (size_t v = 0; v < block; ++v) {
        if (lallowed[v]) {
          lwant_mass += lwant[v];
        } else {
          lwant[v] = 0.0f;
        }
      }
      prefix[high_pos] = static_cast<int32_t>(h);
      const double lmass =
          model.MaskProbsToRegion(q, prefix, low_pos, lrow.data());
      EXPECT_EQ(std::memcmp(&lmass, &lwant_mass, sizeof(lmass)), 0)
          << "high part " << h;
      EXPECT_EQ(std::memcmp(lrow.data(), lwant.data(), lrow.size() * 4), 0)
          << "high part " << h;
    }
  }
}

}  // namespace
}  // namespace naru
