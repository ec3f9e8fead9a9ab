// Tests for the MADE autoregressive model: masking invariants, likelihood
// normalization, gradient correctness, training convergence, save/load,
// and the incremental sampling session (bit-identity with the stateless
// ConditionalDistWith at every walk step).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/entropy.h"
#include "core/factorized.h"
#include "core/made.h"
#include "core/ordered_model.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "data/table_stats.h"
#include "nn/adam.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

MadeModel::Config SmallConfig(uint64_t seed = 1) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(Made, AutoregressivePropertyHolds) {
  // Changing column j must not change output blocks i <= j.
  const std::vector<size_t> domains = {5, 3, 12, 4};  // col 2 embedded
  MadeModel model(domains, SmallConfig());

  IntMatrix base(1, 4);
  base.At(0, 0) = 2;
  base.At(0, 1) = 1;
  base.At(0, 2) = 7;
  base.At(0, 3) = 3;

  for (size_t j = 0; j < domains.size(); ++j) {
    // Record conditionals for all columns with the base tuple.
    std::vector<Matrix> before(domains.size());
    for (size_t i = 0; i < domains.size(); ++i) {
      model.ConditionalDist(base, i, &before[i]);
    }
    IntMatrix mutated = base;
    mutated.At(0, j) = (base.At(0, j) + 1) % static_cast<int32_t>(domains[j]);
    for (size_t i = 0; i < domains.size(); ++i) {
      Matrix after;
      model.ConditionalDist(mutated, i, &after);
      const bool must_match = i <= j;
      if (must_match) {
        for (size_t v = 0; v < domains[i]; ++v) {
          ASSERT_NEAR(before[i].At(0, v), after.At(0, v), 1e-6)
              << "output " << i << " changed when column " << j
              << " was perturbed";
        }
      }
    }
  }
}

TEST(Made, ConditionalsAreNormalized) {
  const std::vector<size_t> domains = {4, 20, 3};
  MadeModel model(domains, SmallConfig(3));
  IntMatrix batch(5, 3);
  Rng rng(5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }
  for (size_t c = 0; c < 3; ++c) {
    Matrix probs;
    model.ConditionalDist(batch, c, &probs);
    ASSERT_EQ(probs.rows(), 5u);
    ASSERT_EQ(probs.cols(), domains[c]);
    for (size_t r = 0; r < 5; ++r) {
      double sum = 0;
      for (size_t v = 0; v < domains[c]; ++v) {
        EXPECT_GE(probs.At(r, v), 0.0f);
        sum += probs.At(r, v);
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

TEST(Made, JointSumsToOneByEnumeration) {
  // Small enough joint to enumerate: total probability must be 1 even for
  // an untrained model (softmax chain rule is normalized by construction).
  const std::vector<size_t> domains = {3, 4, 2};
  MadeModel model(domains, SmallConfig(7));
  double total = 0;
  IntMatrix tuple(1, 3);
  std::vector<double> lp;
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      for (size_t c = 0; c < 2; ++c) {
        tuple.At(0, 0) = static_cast<int32_t>(a);
        tuple.At(0, 1) = static_cast<int32_t>(b);
        tuple.At(0, 2) = static_cast<int32_t>(c);
        model.LogProbRows(tuple, &lp);
        total += std::exp(lp[0]);
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(Made, LogProbMatchesConditionalChain) {
  const std::vector<size_t> domains = {4, 9, 5};
  MadeModel model(domains, SmallConfig(9));
  IntMatrix tuple(1, 3);
  tuple.At(0, 0) = 1;
  tuple.At(0, 1) = 7;
  tuple.At(0, 2) = 0;
  std::vector<double> lp;
  model.LogProbRows(tuple, &lp);
  double chain = 0;
  for (size_t c = 0; c < 3; ++c) {
    Matrix probs;
    model.ConditionalDist(tuple, c, &probs);
    chain += std::log(
        static_cast<double>(probs.At(0, static_cast<size_t>(tuple.At(0, c)))));
  }
  EXPECT_NEAR(lp[0], chain, 1e-4);
}

TEST(Made, GradientMatchesFiniteDifference) {
  const std::vector<size_t> domains = {3, 14, 4};  // includes embedding col
  MadeModel::Config cfg = SmallConfig(11);
  cfg.hidden_sizes = {8};
  MadeModel model(domains, cfg);

  IntMatrix batch(3, 3);
  Rng rng(13);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }

  auto params = model.Parameters();
  for (auto* p : params) p->ZeroGrad();
  model.ForwardBackward(batch);

  // Loss in ForwardBackward is mean-scaled for gradients but summed for
  // the return; finite differences check the mean objective.
  auto mean_nll = [&]() {
    std::vector<double> lp;
    model.LogProbRows(batch, &lp);
    double total = 0;
    for (double v : lp) total -= v;
    return total / static_cast<double>(batch.rows());
  };

  const double eps = 1e-2;
  size_t checked = 0;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->count(); i += std::max<size_t>(p->count() / 5, 1)) {
      const float orig = p->value.data()[i];
      // Masked MADE entries hold exactly 0 and receive no gradient by
      // construction; perturbing them breaks the autoregressive invariant,
      // so they are excluded from the finite-difference check.
      if (orig == 0.0f && p->grad.data()[i] == 0.0f) continue;
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = mean_nll();
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = mean_nll();
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      // Skip masked entries that see no gradient flow.
      EXPECT_NEAR(p->grad.data()[i], numeric, 5e-2)
          << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(Made, TrainingReducesNllTowardEntropy) {
  // A strongly-correlated tiny table; a trained model must approach the
  // data entropy (gap << independent-model gap).
  Table t = MakeRandomTable(1500, {6, 6, 6}, 17, /*skew=*/1.2);
  const double h_data = TableStats::JointEntropyBits(t);

  MadeModel::Config cfg = SmallConfig(19);
  cfg.hidden_sizes = {64, 64};
  MadeModel model(
      {t.column(0).DomainSize(), t.column(1).DomainSize(),
       t.column(2).DomainSize()},
      cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 25;
  tcfg.batch_size = 128;
  tcfg.lr = 5e-3;
  Trainer trainer(&model, tcfg);
  const auto curve = trainer.Train(t);
  EXPECT_LT(curve.back(), curve.front());

  const double gap = EntropyGapBits(&model, t);
  EXPECT_GE(gap, -0.15);  // cross entropy >= entropy (up to sampling noise)
  EXPECT_LT(gap, 1.0);    // and the fit is tight on this easy table
  (void)h_data;
}

TEST(Made, EmbeddingReuseShrinksModel) {
  const std::vector<size_t> domains = {2000, 4};
  MadeModel::Config with = SmallConfig(23);
  with.encoder.onehot_threshold = 64;
  with.encoder.embed_dim = 16;
  with.embedding_reuse = true;
  MadeModel reuse(domains, with);

  MadeModel::Config without = with;
  without.embedding_reuse = false;
  MadeModel full(domains, without);
  // The full FC head carries an extra (hidden x 2000) weight block.
  EXPECT_LT(reuse.SizeBytes(), full.SizeBytes());
}

TEST(Made, BinaryEncodingWorks) {
  MadeModel::Config cfg = SmallConfig(29);
  cfg.encoder.onehot_threshold = 4;
  cfg.encoder.binary_for_large = true;
  cfg.embedding_reuse = false;  // reuse requires embeddings
  const std::vector<size_t> domains = {10, 3, 100};
  MadeModel model(domains, cfg);
  IntMatrix batch(2, 3);
  batch.At(0, 0) = 9;
  batch.At(0, 2) = 99;
  batch.At(1, 1) = 2;
  Matrix probs;
  model.ConditionalDist(batch, 2, &probs);
  double sum = 0;
  for (size_t v = 0; v < 100; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_EQ(model.encoder().encoding(0), ColEncoding::kBinary);
  EXPECT_EQ(model.encoder().encoding(1), ColEncoding::kOneHot);
  // Binary input for domain 100 uses only ceil(log2(100)) = 7 dims.
  EXPECT_EQ(model.encoder().width(2), 7u);
}

TEST(Made, SaveLoadRoundTrip) {
  const std::vector<size_t> domains = {5, 30, 7};
  MadeModel a(domains, SmallConfig(31));
  MadeModel b(domains, SmallConfig(99));  // different init

  IntMatrix tuple(1, 3);
  tuple.At(0, 0) = 4;
  tuple.At(0, 1) = 21;
  tuple.At(0, 2) = 2;
  std::vector<double> lp_a;
  a.LogProbRows(tuple, &lp_a);

  const std::string path = testing::TempDir() + "/naru_made_test.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  std::vector<double> lp_b;
  b.LogProbRows(tuple, &lp_b);
  EXPECT_NEAR(lp_a[0], lp_b[0], 1e-6);
  std::remove(path.c_str());
}

TEST(ResMade, AutoregressivePropertyHolds) {
  // The residual identity path connects equal-degree units only, so the
  // masking invariant must survive verbatim.
  const std::vector<size_t> domains = {5, 3, 12, 4};
  MadeModel::Config cfg = SmallConfig(41);
  cfg.hidden_sizes = {24, 24, 24};
  cfg.residual = true;
  MadeModel model(domains, cfg);

  IntMatrix base(1, 4);
  base.At(0, 0) = 2;
  base.At(0, 1) = 1;
  base.At(0, 2) = 7;
  base.At(0, 3) = 3;
  for (size_t j = 0; j < domains.size(); ++j) {
    std::vector<Matrix> before(domains.size());
    for (size_t i = 0; i < domains.size(); ++i) {
      model.ConditionalDist(base, i, &before[i]);
    }
    IntMatrix mutated = base;
    mutated.At(0, j) = (base.At(0, j) + 1) % static_cast<int32_t>(domains[j]);
    for (size_t i = 0; i < domains.size(); ++i) {
      Matrix after;
      model.ConditionalDist(mutated, i, &after);
      if (i <= j) {
        for (size_t v = 0; v < domains[i]; ++v) {
          ASSERT_NEAR(before[i].At(0, v), after.At(0, v), 1e-6)
              << "resmade output " << i << " changed with column " << j;
        }
      }
    }
  }
}

TEST(ResMade, GradientMatchesFiniteDifference) {
  const std::vector<size_t> domains = {3, 14, 4};
  MadeModel::Config cfg = SmallConfig(43);
  cfg.hidden_sizes = {12, 12};
  cfg.residual = true;
  MadeModel model(domains, cfg);

  IntMatrix batch(3, 3);
  Rng rng(47);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      batch.At(r, c) = static_cast<int32_t>(rng.UniformInt(domains[c]));
    }
  }
  auto params = model.Parameters();
  for (auto* p : params) p->ZeroGrad();
  model.ForwardBackward(batch);

  auto mean_nll = [&]() {
    std::vector<double> lp;
    model.LogProbRows(batch, &lp);
    double total = 0;
    for (double v : lp) total -= v;
    return total / static_cast<double>(batch.rows());
  };
  const double eps = 1e-2;
  size_t checked = 0;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->count();
         i += std::max<size_t>(p->count() / 5, 1)) {
      const float orig = p->value.data()[i];
      if (orig == 0.0f && p->grad.data()[i] == 0.0f) continue;
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = mean_nll();
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = mean_nll();
      p->value.data()[i] = orig;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2 * eps), 5e-2)
          << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(ResMade, TrainsAtLeastAsWellAsPlain) {
  // On a correlated table, ResMADE with the same layer sizes should reach
  // a comparable (typically better) NLL after the same few epochs.
  Table t = MakeRandomTable(1200, {8, 8, 8}, 53, /*skew=*/1.1);
  const std::vector<size_t> domains = {t.column(0).DomainSize(),
                                       t.column(1).DomainSize(),
                                       t.column(2).DomainSize()};
  MadeModel::Config plain_cfg = SmallConfig(59);
  plain_cfg.hidden_sizes = {48, 48, 48};
  MadeModel::Config res_cfg = plain_cfg;
  res_cfg.residual = true;

  TrainerConfig tcfg;
  tcfg.epochs = 12;
  tcfg.batch_size = 128;
  tcfg.lr = 5e-3;

  MadeModel plain(domains, plain_cfg);
  MadeModel res(domains, res_cfg);
  const double nll_plain = Trainer(&plain, tcfg).Train(t).back();
  const double nll_res = Trainer(&res, tcfg).Train(t).back();
  EXPECT_LT(nll_res, nll_plain + 0.5);  // never dramatically worse
}

TEST(ResMade, SkipRequiresEqualWidths) {
  // Mixed widths: skips must silently apply only between equal-width
  // layers, and the model must still produce normalized conditionals.
  MadeModel::Config cfg = SmallConfig(61);
  cfg.hidden_sizes = {16, 32, 32, 16};
  cfg.residual = true;
  MadeModel model({4, 9, 5}, cfg);
  IntMatrix batch(2, 3);
  batch.Fill(1);
  Matrix probs;
  model.ConditionalDist(batch, 2, &probs);
  double sum = 0;
  for (size_t v = 0; v < 5; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Made, SingleColumnDegenerate) {
  // n = 1: the model reduces to a learned marginal.
  MadeModel model({6}, SmallConfig(37));
  IntMatrix batch(2, 1);
  Matrix probs;
  model.ConditionalDist(batch, 0, &probs);
  double sum = 0;
  for (size_t v = 0; v < 6; ++v) sum += probs.At(0, v);
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // And the conditional ignores the (non-existent) prefix: both rows equal.
  for (size_t v = 0; v < 6; ++v) {
    EXPECT_FLOAT_EQ(probs.At(0, v), probs.At(1, v));
  }
}

// --- Incremental sampling session ---------------------------------------

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    SetSimdLevelOverrideForTest(level);
  }
  ~ScopedSimdLevel() { ClearSimdLevelOverrideForTest(); }
};

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r), b.Row(r), a.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

const std::vector<size_t> kSessionDomains = {5, 3, 40, 4, 70, 6};

/// Dead sample paths carry this query's FallbackCode (each region's first
/// code), as in the sampler.
Query SessionQuery() {
  return Query(std::vector<ValueSet>{
      ValueSet::Interval(5, 1, 3), ValueSet::All(3),
      ValueSet::Interval(40, 7, 30), ValueSet::Interval(4, 2, 3),
      ValueSet::Interval(70, 20, 50), ValueSet::All(6)});
}

/// The relayout a plan executor might make before column `col` of a
/// `rows`-row walk: new row i continues old row src[i]. Cycles through
/// permuted rows at the same count, duplicated rows (the count doubles),
/// dropped rows (the count halves), and duplicated plus dropped rows at
/// the same count.
std::vector<size_t> RelayoutMap(size_t rows, size_t col) {
  std::vector<size_t> src;
  switch (col % 4) {
    case 1:  // permuted
      for (size_t i = rows; i-- > 0;) src.push_back(i);
      break;
    case 2:  // every row forked in two
      for (size_t i = 0; i < 2 * rows; ++i) src.push_back(i / 2);
      break;
    case 3:  // every other row retired
      for (size_t i = 0; i < rows; i += 2) src.push_back(i);
      break;
    default:  // row 0 forked, the last row retired
      src.push_back(0);
      for (size_t i = 0; i + 1 < rows; ++i) src.push_back(i);
      if (rows == 1) src.pop_back();
      break;
  }
  return src;
}

/// Walks every column in order through one session and, at each step,
/// checks the session's probabilities bitwise against the stateless
/// `stateless(samples, col, &probs)` on the same samples. Between steps it
/// writes column col the way a sampler does: a draw from the conditional
/// for live rows, `fallback(col)` for dead rows (every third row once
/// col >= 1). Columns not yet walked hold junk the model must ignore.
/// With `relayout`, the rows are also rearranged before every column
/// after the first (RelayoutMap) and the session is told through
/// SamplingSession::Relayout.
template <typename Stateless, typename Fallback>
void ExpectSessionMatchesStateless(ConditionalModel* model, size_t rows,
                                   uint64_t seed, Stateless&& stateless,
                                   Fallback&& fallback, bool relayout,
                                   const std::string& label) {
  const size_t n = model->num_columns();
  Rng rng(seed);
  IntMatrix samples(rows, n);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < n; ++c) {
      samples.At(r, c) =
          static_cast<int32_t>(rng.UniformInt(model->DomainSize(c)));
    }
  }
  auto session = model->StartSession(rows);
  Matrix got, want;
  for (size_t col = 0; col < n; ++col) {
    if (relayout && col >= 1) {
      const std::vector<size_t> src = RelayoutMap(samples.rows(), col);
      IntMatrix moved(src.size(), n);
      for (size_t i = 0; i < src.size(); ++i) {
        std::memcpy(moved.Row(i), samples.Row(src[i]), n * sizeof(int32_t));
      }
      samples = std::move(moved);
      session->Relayout(src);
    }
    session->Dist(samples, col, &got);
    stateless(samples, col, &want);
    ASSERT_TRUE(BitEqual(got, want))
        << label << (relayout ? " relayout" : "") << " col " << col;
    for (size_t r = 0; r < samples.rows(); ++r) {
      const bool dead = col >= 1 && r % 3 == 0;
      samples.At(r, col) =
          dead ? fallback(col)
               : static_cast<int32_t>(
                     rng.Categorical(got.Row(r), model->DomainSize(col)));
    }
  }
}

void ExpectMadeSessionMatches(MadeModel* model, const std::string& label) {
  const Query query = SessionQuery();
  MadeModel::EvalContext ctx;
  for (const size_t rows : {size_t{1}, size_t{5}, size_t{128}}) {
    for (const bool relayout : {false, true}) {
      ExpectSessionMatchesStateless(
          model, rows, 100 + rows,
          [&](const IntMatrix& s, size_t col, Matrix* p) {
            model->ConditionalDistWith(&ctx, s, col, p);
          },
          [&](size_t col) { return model->FallbackCode(query, col); },
          relayout, label + " rows " + std::to_string(rows));
    }
  }
}

TEST(MadeSession, BitIdenticalToStatelessAcrossKernelsAndShapes) {
  struct Shape {
    const char* name;
    size_t onehot_threshold;  // 100: all one-hot; 8: embedding-dominated
    bool residual;
  };
  const Shape shapes[] = {{"onehot", 100, false},
                          {"onehot-res", 100, true},
                          {"embed", 8, false},
                          {"embed-res", 8, true}};
  for (const Shape& shape : shapes) {
    MadeModel::Config cfg;
    cfg.hidden_sizes = {32, 32, 32};
    cfg.encoder.onehot_threshold = shape.onehot_threshold;
    cfg.encoder.embed_dim = 16;
    cfg.residual = shape.residual;
    cfg.seed = 3;
    MadeModel model(kSessionDomains, cfg);
    EXPECT_EQ(model.encoder().OneHotWidthFraction() > 0.5,
              shape.onehot_threshold == 100);
    for (const bool portable : {false, true}) {
      std::unique_ptr<ScopedSimdLevel> force;
      if (portable) force = std::make_unique<ScopedSimdLevel>(SimdLevel::kNone);
      for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
        if (portable && kernel == KernelKind::kScalar) continue;
        model.SetInferenceKernel(kernel);
        ExpectMadeSessionMatches(
            &model, std::string(shape.name) + " " + KernelKindName(kernel) +
                        (portable ? " portable" : ""));
      }
    }
  }
}

TEST(MadeSession, LinearMadeBitIdenticalToStateless) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 16;
  MadeModel model(kSessionDomains, cfg);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model.SetInferenceKernel(kernel);
    ExpectMadeSessionMatches(&model,
                             std::string("linear ") + KernelKindName(kernel));
  }
}

TEST(MadeSession, TrainedWeightsBitIdenticalToStateless) {
  // Trained weights must not leave the session reading stale panels.
  const Table table = MakeRandomTable(400, kSessionDomains, 9, /*skew=*/1.0);
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 16;
  cfg.residual = true;
  MadeModel model(kSessionDomains, cfg);
  model.SetInferenceKernel(KernelKind::kSimd);
  TrainerConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 64;
  Trainer(&model, tcfg).Train(table);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model.SetInferenceKernel(kernel);
    ExpectMadeSessionMatches(&model,
                             std::string("trained ") + KernelKindName(kernel));
  }
}

TEST(MadeSession, ResumesAfterJumpAndRelayout) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 8;
  MadeModel model(kSessionDomains, cfg);
  const size_t n = model.num_columns();
  Rng rng(4);
  IntMatrix a(7, n), b(7, n);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < n; ++c) {
      a.At(r, c) = static_cast<int32_t>(rng.UniformInt(kSessionDomains[c]));
      b.At(r, c) = static_cast<int32_t>(rng.UniformInt(kSessionDomains[c]));
    }
  }
  MadeModel::EvalContext ctx;
  Matrix got, want;
  auto session = model.StartSession(7);
  // A first call mid-walk, then in-order steps.
  for (size_t col = 2; col + 1 < n; ++col) {
    session->Dist(a, col, &got);
    model.ConditionalDistWith(&ctx, a, col, &want);
    EXPECT_TRUE(BitEqual(got, want)) << "walk a col " << col;
  }
  // Same row count, rows rearranged: the caller announces the relayout,
  // and the walk continues in order on the rearranged rows.
  const std::vector<size_t> src = {6, 0, 0, 3, 5, 1, 2};
  IntMatrix moved(7, n);
  for (size_t i = 0; i < src.size(); ++i) {
    std::memcpy(moved.Row(i), a.Row(src[i]), n * sizeof(int32_t));
  }
  session->Relayout(src);
  session->Dist(moved, n - 1, &got);
  model.ConditionalDistWith(&ctx, moved, n - 1, &want);
  EXPECT_TRUE(BitEqual(got, want)) << "after relayout";
  // Unrelated rows at a column the walk has not reached: the full trunk.
  for (size_t col = 3; col < n; ++col) {
    session->Dist(b, col, &got);
    model.ConditionalDistWith(&ctx, b, col, &want);
    EXPECT_TRUE(BitEqual(got, want)) << "walk b col " << col;
  }
  // A jump backwards restarts from the prefix without a reset.
  session->Dist(a, 1, &got);
  model.ConditionalDistWith(&ctx, a, 1, &want);
  EXPECT_TRUE(BitEqual(got, want));
  session->Dist(a, 2, &got);
  model.ConditionalDistWith(&ctx, a, 2, &want);
  EXPECT_TRUE(BitEqual(got, want));
}

TEST(MadeSession, WrappersBitIdenticalToStateless) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 32};
  cfg.encoder.onehot_threshold = 8;
  cfg.encoder.embed_dim = 16;
  cfg.residual = true;

  const std::vector<size_t> order = {4, 0, 2, 5, 1, 3};
  OrderedModel ordered(
      std::make_unique<MadeModel>(
          OrderedModel::PermuteDomains(kSessionDomains, order), cfg),
      order);
  FactorizedLayout layout = FactorizedLayout::Build(kSessionDomains, 16);
  ASSERT_GT(layout.num_positions(), kSessionDomains.size());
  auto inner = std::make_unique<MadeModel>(layout.position_domains(), cfg);
  FactorizedModel factorized(std::move(inner), std::move(layout));

  const Query query = SessionQuery();
  for (ConditionalModel* model :
       std::vector<ConditionalModel*>{&ordered, &factorized}) {
    const std::string label = model == &ordered ? "ordered" : "factorized";
    for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
      model->SetInferenceKernel(kernel);
      for (const size_t rows : {size_t{1}, size_t{5}, size_t{128}}) {
        for (const bool relayout : {false, true}) {
          ExpectSessionMatchesStateless(
              model, rows, 7 + rows,
              [&](const IntMatrix& s, size_t col, Matrix* p) {
                model->ConditionalDist(s, col, p);
              },
              [&](size_t col) { return model->FallbackCode(query, col); },
              relayout,
              label + " " + KernelKindName(kernel) + " rows " +
                  std::to_string(rows));
        }
      }
    }
  }
}

}  // namespace
}  // namespace naru
