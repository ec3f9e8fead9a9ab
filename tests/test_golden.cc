// Golden estimates: the exact IEEE-754 bit patterns the sampled-estimate
// routes produce today, checked into tests/golden/estimates.tsv.
//
// Bit-identity tests elsewhere compare the serving routes of the SAME build
// with a test-only reference walker (tests/reference_walk.h). This test
// pins the numbers themselves, so a refactor of the walk, or of the
// walker, is checked against pre-change outputs rather than against a
// reference that is being rewritten in the same change.
//
// Rows are keyed by (model, route, query, seed, kernel, dispatch):
//   - model: plain MADE, residual MADE, OrderedModel, FactorizedModel and
//     the transformer, each trained briefly on a fixed random table;
//   - route: `estimator` (NaruEstimator::Estimate with enumeration off: a
//     one-query plan through the estimator's private engine, or the exact
//     leading-only answer) or `plan` (one CompileSamplingPlan +
//     ExecuteSamplingPlan over every sampled-path query of the model);
//   - kernel: scalar rows carry dispatch "-" and must always be present;
//     they are computed twice, at the host's scalar tile width and pinned
//     to the 128-bit tile, and both passes must match them;
//     simd rows carry SimdDispatchString() and are checked only on a host
//     that dispatches the same way (skipped with the reason printed
//     otherwise).
//
// Refreshing: a missing or mismatched row is printed as a ready-to-paste
// `GOLDEN` line. Run `./test_golden | grep '^GOLDEN' | cut -f2-` and
// replace the affected rows — only in a change that is MEANT to alter
// estimates, and say so in its description.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/factorized.h"
#include "core/made.h"
#include "core/naru_estimator.h"
#include "core/ordered_model.h"
#include "core/trainer.h"
#include "core/transformer.h"
#include "data/datasets.h"
#include "plan/plan_executor.h"
#include "plan/sampling_plan.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

const std::vector<size_t>& GoldenDomains() {
  // Two columns above the one-hot threshold (embedding-encoded, reuse
  // heads) and above the factorization threshold (split into sub-columns).
  static const std::vector<size_t> kDomains = {6, 5, 40, 4, 70, 5};
  return kDomains;
}

Table GoldenTable() {
  return MakeRandomTable(600, GoldenDomains(), /*seed=*/2024, /*skew=*/1.0);
}

MadeModel::Config GoldenMadeConfig(bool residual) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32, 32};
  cfg.encoder.onehot_threshold = 16;
  cfg.encoder.embed_dim = 8;
  cfg.residual = residual;
  cfg.seed = 5;
  return cfg;
}

std::unique_ptr<ConditionalModel> BuildTrained(const std::string& name,
                                               const Table& table) {
  const std::vector<size_t>& domains = GoldenDomains();
  std::unique_ptr<ConditionalModel> model;
  TrainableModel* trainable = nullptr;
  if (name == "made" || name == "resmade") {
    auto m = std::make_unique<MadeModel>(domains,
                                         GoldenMadeConfig(name == "resmade"));
    trainable = m.get();
    model = std::move(m);
  } else if (name == "ordered") {
    const std::vector<size_t> order = {3, 0, 4, 1, 5, 2};
    auto m = std::make_unique<OrderedModel>(
        std::make_unique<MadeModel>(OrderedModel::PermuteDomains(domains,
                                                                 order),
                                    GoldenMadeConfig(false)),
        order);
    trainable = m.get();
    model = std::move(m);
  } else if (name == "factorized") {
    FactorizedLayout layout = FactorizedLayout::Build(domains, 32);
    auto m = std::make_unique<FactorizedModel>(
        std::make_unique<MadeModel>(layout.position_domains(),
                                    GoldenMadeConfig(false)),
        std::move(layout));
    trainable = m.get();
    model = std::move(m);
  } else {
    TransformerModel::Config tcfg;
    tcfg.d_model = 16;
    tcfg.num_heads = 2;
    tcfg.num_layers = 1;
    tcfg.ffn_hidden = 32;
    tcfg.seed = 5;
    auto m = std::make_unique<TransformerModel>(domains, tcfg);
    trainable = m.get();
    model = std::move(m);
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
  for (size_t d : GoldenDomains()) regions.push_back(ValueSet::All(d));
  for (size_t c : cols) {
    regions[c] = ValueSet::Interval(GoldenDomains()[c], 1, hi);
  }
  return Query(regions);
}

/// Fixed query shapes: leading-only (one session step at column 0),
/// leading wildcards that plans share, shared constrained prefixes that
/// fork, wide ranges over the embedded columns, and a full-width query.
std::vector<Query> GoldenQueries() {
  return {QueryOn({0}),          QueryOn({2, 4}, 20),   QueryOn({3, 5}),
          QueryOn({0, 1, 3}),    QueryOn({0, 1, 4}, 30), QueryOn({1, 2}, 9),
          QueryOn({0, 1, 2, 3, 4, 5}, 3)};
}

struct GoldenKey {
  std::string model, route, query, seed, kernel, dispatch;
  bool operator<(const GoldenKey& o) const {
    return std::tie(model, route, query, seed, kernel, dispatch) <
           std::tie(o.model, o.route, o.query, o.seed, o.kernel, o.dispatch);
  }
  std::string Join() const {
    return model + "\t" + route + "\t" + query + "\t" + seed + "\t" + kernel +
           "\t" + dispatch;
  }
};

struct GoldenValue {
  std::string estimate_bits, stderr_bits;
};

std::string Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, u);
  return buf;
}

std::string GoldenPath() {
  return std::string(NARU_SOURCE_DIR) + "/tests/golden/estimates.tsv";
}

std::map<GoldenKey, GoldenValue> LoadGolden() {
  std::map<GoldenKey, GoldenValue> rows;
  std::ifstream in(GoldenPath());
  EXPECT_TRUE(in.good()) << "cannot open " << GoldenPath();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, '\t')) f.push_back(field);
    EXPECT_EQ(f.size(), 8u) << "malformed golden row: " << line;
    if (f.size() != 8) continue;
    rows[GoldenKey{f[0], f[1], f[2], f[3], f[4], f[5]}] =
        GoldenValue{f[6], f[7]};
  }
  return rows;
}

constexpr uint64_t kSeeds[] = {7, 31};
constexpr size_t kSamples = 200;
constexpr size_t kShard = 64;

/// Every (route, query, seed) row of one model at the model's current
/// inference kernel.
std::vector<std::pair<GoldenKey, GoldenValue>> ComputeRows(
    const std::string& name, ConditionalModel* model, KernelKind kernel) {
  const std::string dispatch =
      kernel == KernelKind::kScalar ? "-" : SimdDispatchString();
  const std::vector<Query> queries = GoldenQueries();
  std::vector<std::pair<GoldenKey, GoldenValue>> out;
  for (const uint64_t seed : kSeeds) {
    NaruEstimatorConfig ecfg;
    ecfg.num_samples = kSamples;
    ecfg.shard_size = kShard;
    ecfg.enumeration_threshold = 0;  // pin the sampled walk itself
    ecfg.sampler_seed = seed;
    ecfg.kernel = kernel;
    NaruEstimator est(model, ecfg, /*model_size_bytes=*/0);
    for (size_t i = 0; i < queries.size(); ++i) {
      const EstimateResult r = est.Estimate(queries[i]);
      EXPECT_TRUE(r.status.ok());
      out.push_back({GoldenKey{name, "estimator", "q" + std::to_string(i),
                               std::to_string(seed), KernelKindName(kernel),
                               dispatch},
                     GoldenValue{Bits(r.estimate), Bits(r.std_error)}});
    }

    // The plan layer only ever sees sampled-path queries.
    std::vector<const Query*> ptrs;
    std::vector<size_t> ids;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].LastFilteredColumn() >= 1) {
        ptrs.push_back(&queries[i]);
        ids.push_back(i);
      }
    }
    const SamplingPlan plan = CompileSamplingPlan(model, ptrs);
    PlanExecutionOptions popts;
    popts.num_samples = kSamples;
    popts.shard_size = kShard;
    popts.seed = seed;
    std::vector<double> got, got_se;
    ExecuteSamplingPlan(model, plan, popts, &got, &got_se);
    for (size_t j = 0; j < ids.size(); ++j) {
      out.push_back({GoldenKey{name, "plan", "q" + std::to_string(ids[j]),
                               std::to_string(seed), KernelKindName(kernel),
                               dispatch},
                     GoldenValue{Bits(got[j]), Bits(got_se[j])}});
    }
  }
  return out;
}

TEST(GoldenEstimates, BitIdenticalToCheckedInTable) {
  const std::map<GoldenKey, GoldenValue> golden = LoadGolden();
  const Table table = GoldenTable();
  const std::string dispatch = SimdDispatchString();
  bool simd_rows_present = false;
  for (const auto& [key, value] : golden) {
    if (key.kernel != "scalar" && key.dispatch == dispatch) {
      simd_rows_present = true;
    }
  }
  if (!simd_rows_present) {
    std::printf(
        "[ SKIPPED  ] simd golden rows: none recorded for '%s' "
        "(scalar rows are still checked)\n",
        dispatch.c_str());
  }

  size_t checked = 0;
  for (const std::string name :
       {"made", "resmade", "ordered", "factorized", "transformer"}) {
    std::unique_ptr<ConditionalModel> model = BuildTrained(name, table);
    for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
      // Unrecorded dispatch levels still print their rows (as GOLDEN
      // lines) so a table for a new host can be recorded from this run.
      const bool enforced = kernel == KernelKind::kScalar || simd_rows_present;
      model->SetInferenceKernel(kernel);
      std::vector<std::pair<GoldenKey, GoldenValue>> rows =
          ComputeRows(name, model.get(), kernel);
      if (kernel == KernelKind::kScalar) {
        // Once more pinned to the 128-bit scalar tile, the only one on
        // aarch64 and on x86 without AVX2; on AVX2 hosts the first pass
        // ran the 256-bit tile. Both must give the same rows.
        SetSimdLevelOverrideForTest(SimdLevel::kNone);
        const auto narrow = ComputeRows(name, model.get(), kernel);
        ClearSimdLevelOverrideForTest();
        rows.insert(rows.end(), narrow.begin(), narrow.end());
      }
      for (const auto& [key, value] : rows) {
        const auto it = golden.find(key);
        const bool match = it != golden.end() &&
                           it->second.estimate_bits == value.estimate_bits &&
                           it->second.stderr_bits == value.stderr_bits;
        if (!match) {
          std::printf("GOLDEN\t%s\t%s\t%s\n", key.Join().c_str(),
                      value.estimate_bits.c_str(), value.stderr_bits.c_str());
        }
        if (!enforced) continue;
        EXPECT_TRUE(match) << (it == golden.end() ? "missing" : "mismatched")
                           << " golden row " << key.Join();
        ++checked;
      }
    }
  }
  std::printf("checked %zu golden rows\n", checked);
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace naru
