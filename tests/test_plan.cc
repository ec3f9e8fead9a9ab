// Tests for the sampling-plan layer (src/plan): plan compilation (prefix
// tries with multi-depth forking, constrained-prefix sharing, width
// capping) and plan execution (shared segment walks, forked suffix walks,
// stacked GEMMs, relayouts of stateful sessions). The oracle throughout
// is bit-identity with the reference walker (reference_walk.h: Algorithm 1
// run for each query alone) for a fixed seed — across shard sizes, tree
// shapes, kernels and thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "core/made.h"
#include "core/trainer.h"
#include "core/transformer.h"
#include "data/datasets.h"
#include "plan/plan_executor.h"
#include "plan/sampling_plan.h"
#include "query/workload.h"
#include "reference_walk.h"
#include "tensor/kernel.h"

namespace naru {
namespace {

Table PlanTable(uint64_t seed) {
  return MakeRandomTable(700, {6, 5, 8, 4, 7, 5}, seed, /*skew=*/1.0);
}

std::unique_ptr<MadeModel> TrainedMade(const Table& table, uint64_t seed) {
  MadeModel::Config cfg;
  cfg.hidden_sizes = {24, 24};
  cfg.encoder.onehot_threshold = 16;
  cfg.seed = seed;
  auto model = std::make_unique<MadeModel>(
      std::vector<size_t>{6, 5, 8, 4, 7, 5}, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 128;
  Trainer(model.get(), tcfg).Train(table);
  return model;
}

/// A query constraining exactly the given columns (interval [1, 2]).
Query QueryOn(const Table& table, const std::vector<size_t>& cols) {
  std::vector<ValueSet> regions;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    regions.push_back(ValueSet::All(table.column(c).DomainSize()));
  }
  for (size_t c : cols) {
    regions[c] = ValueSet::Interval(table.column(c).DomainSize(), 1, 2);
  }
  return Query(regions);
}

/// Mixed-leading-wildcard batch: a randomized workload where roughly half
/// the queries keep a leading run of `wildcards` unconstrained columns.
std::vector<Query> MixedRunBatch(const Table& table, size_t num,
                                 size_t wildcards, uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.num_queries = num;
  wcfg.min_filters = 1;
  wcfg.max_filters = 4;
  wcfg.leading_wildcards = wildcards;
  wcfg.leading_wildcard_fraction = 0.5;
  wcfg.seed = seed;
  std::vector<Query> out;
  // Keep only sampled-path queries (>= 2 constrained columns or a
  // constrained non-leading column): the plan layer only ever sees those.
  for (Query& q : GenerateWorkload(table, wcfg)) {
    if (q.LastFilteredColumn() >= 1 && !q.HasEmptyRegion()) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

TEST(Query, WildcardMaskAndLeadingRun) {
  Table t = PlanTable(3);
  const Query q = QueryOn(t, {2, 4});
  const auto& mask = q.wildcard_mask();
  ASSERT_EQ(mask.size(), t.num_columns());
  for (size_t c = 0; c < mask.size(); ++c) {
    EXPECT_EQ(mask[c] != 0, c != 2 && c != 4) << "col " << c;
  }
  EXPECT_EQ(q.LeadingWildcardRun(), 2u);
  EXPECT_EQ(q.LastFilteredColumn(), 4);
  EXPECT_EQ(q.NumFilteredColumns(), 2u);
  EXPECT_EQ(QueryOn(t, {0}).LeadingWildcardRun(), 0u);
  EXPECT_EQ(Query(std::vector<ValueSet>{ValueSet::All(4), ValueSet::All(3)})
                .LeadingWildcardRun(),
            2u);
}

// Hand-checked trie construction: multi-depth forking plus constrained-
// prefix sharing. Queries (constrained columns, Interval [1,2] each):
//   q0 {3,4}  q1 {3,5}  q2 {0,2}  q3 {2,3}  q4 {2,5}
// Descriptor walk: q2 constrains column 0, everyone else is wildcard
// there, so the root is a pure fork ([0,0)). q0/q1/q3/q4 share [0,2)
// (all wildcard); at column 2 the pair q3/q4 carries an IDENTICAL
// constrained region (shared constrained prefix) while q0/q1 are
// wildcard. q0/q1 then share [2,4) — column 3 constrained the same way —
// and fork at column 4. Savings, per shard:
//   [0,2)·(4-1) = 6,  [2,4)·(2-1) = 2,  q3/q4 [2,3)·(2-1) = 1   → 9
TEST(SamplingPlan, TrieSharesMultiDepthAndConstrainedPrefixes) {
  Table t = PlanTable(5);
  auto model = TrainedMade(t, 5);
  const std::vector<Query> queries = {
      QueryOn(t, {3, 4}), QueryOn(t, {3, 5}), QueryOn(t, {0, 2}),
      QueryOn(t, {2, 3}), QueryOn(t, {2, 5})};
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
  ASSERT_EQ(plan.trees.size(), 1u);  // everything under the default cap
  const PlanTree& tree = plan.trees[0];
  EXPECT_EQ(tree.members.size(), 5u);
  EXPECT_EQ(plan.WalkColumns(), 24u);    // 5 + 6 + 3 + 4 + 6
  EXPECT_EQ(plan.SharedColumns(), 9u);   // hand-checked above
  EXPECT_EQ(plan.MaxForkDepth(), 3u);  // root -> [0,2) -> [2,4) -> leaves
  EXPECT_EQ(plan.MaxFanout(), 2u);

  // Structural invariants: children partition their parent's survivors,
  // terminals finish exactly at their node's end.
  std::set<size_t> seen;
  for (const PlanTreeNode& node : tree.nodes) {
    EXPECT_LE(node.begin, node.end);
    for (size_t m : node.terminals) {
      EXPECT_EQ(static_cast<size_t>(plan.queries[m].last_col) + 1, node.end);
      EXPECT_TRUE(seen.insert(m).second);  // each query finishes once
    }
    for (size_t c : node.children) {
      EXPECT_EQ(tree.nodes[c].begin, node.end);
    }
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SamplingPlan, TreeModeWidthCapSplitsAtForkPoints) {
  Table t = PlanTable(7);
  auto model = TrainedMade(t, 7);
  // 10 queries, all sharing the constrained column 2; sub-shapes {2,3},
  // {2,4}, {2,5} repeat, so the trie below the shared segment has three
  // natural fork groups of sizes 4 / 3 / 3.
  std::vector<Query> queries;
  for (size_t i = 0; i < 10; ++i) queries.push_back(QueryOn(t, {2, 3 + i % 3}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  SamplingPlanOptions opts;
  opts.max_group_width = 4;
  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, opts);
  size_t grouped = 0;
  for (const auto& tree : plan.trees) {
    EXPECT_LE(tree.members.size(), 4u);
    grouped += tree.members.size();
    // Identical queries collapse into shared terminals, so even the split
    // trees keep whole-walk sharing: every multi-member tree here fuses
    // identical queries over their full walk.
    if (tree.members.size() > 1) {
      EXPECT_GT(plan.SharedColumns(), 0u);
    }
  }
  EXPECT_EQ(grouped, 10u);
  EXPECT_EQ(plan.trees.size(), 3u);  // the natural 4/3/3 fork groups
}

TEST(SamplingPlan, AutoGroupWidthScalesWithKernelAndModelWidth) {
  // Fixed points of the heuristic, locked so serving behavior is explicit:
  // unknown width falls back to the PR 3 cap; SIMD kernels stack more rows
  // than scalar; wider models stack fewer; everything lands in [4, 64].
  EXPECT_EQ(AutoGroupWidth(0, KernelKind::kSimd, 128), 32u);
  EXPECT_GT(AutoGroupWidth(128, KernelKind::kSimd, 128),
            AutoGroupWidth(128, KernelKind::kScalar, 128));
  EXPECT_LE(AutoGroupWidth(1024, KernelKind::kSimd, 128),
            AutoGroupWidth(128, KernelKind::kSimd, 128));
  for (const KernelKind k : {KernelKind::kScalar, KernelKind::kSimd}) {
    for (const size_t hint : {size_t{0}, size_t{24}, size_t{256},
                              size_t{4096}}) {
      const size_t w = AutoGroupWidth(hint, k, 128);
      EXPECT_GE(w, 4u) << "hint " << hint;
      EXPECT_LE(w, 64u) << "hint " << hint;
    }
  }
}

TEST(SamplingPlan, MixedBudgetsNeverFuse) {
  Table t = PlanTable(19);
  auto model = TrainedMade(t, 19);
  // Six queries that would all share a wildcard prefix — but three carry a
  // different per-request sample budget, so the compiler must partition
  // them into budget classes before any tree is built.
  std::vector<Query> queries;
  for (size_t i = 0; i < 6; ++i) queries.push_back(QueryOn(t, {2, 3 + i % 2}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  SamplingPlanOptions opts;
  opts.budgets = {100, 400, 100, 400, 100, 400};
  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, opts);
  size_t members = 0;
  for (const PlanTree& tree : plan.trees) {
    ASSERT_FALSE(tree.members.empty());
    // Every member of a tree shares the tree's budget.
    for (size_t m : tree.members) {
      EXPECT_EQ(plan.queries[m].num_samples, tree.num_samples);
    }
    EXPECT_TRUE(tree.num_samples == 100 || tree.num_samples == 400);
    members += tree.members.size();
  }
  EXPECT_EQ(members, 6u);
  // Both budget classes share within themselves (3 queries each, common
  // prefix) but the plan never fuses across classes.
  EXPECT_GT(plan.SharedColumns(), 0u);
}

TEST(MadeModel, StackedRowsEvaluateBitIdentically) {
  Table t = PlanTable(9);
  auto model = TrainedMade(t, 9);
  const size_t n = model->num_columns();

  // Two unrelated walk states...
  IntMatrix a(3, n), b(5, n);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < n; ++c) {
      a.At(r, c) = static_cast<int32_t>((r + c) % model->DomainSize(c));
    }
  }
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < n; ++c) {
      b.At(r, c) = static_cast<int32_t>((2 * r + c) % model->DomainSize(c));
    }
  }
  // ...stacked into one matrix.
  IntMatrix stacked(8, n);
  for (size_t r = 0; r < 3; ++r) {
    std::memcpy(stacked.Row(r), a.Row(r), n * sizeof(int32_t));
  }
  for (size_t r = 0; r < 5; ++r) {
    std::memcpy(stacked.Row(3 + r), b.Row(r), n * sizeof(int32_t));
  }

  for (size_t col : {size_t{1}, size_t{3}, n - 1}) {
    MadeModel::EvalContext ctx_a, ctx_b, ctx_s;
    Matrix pa, pb, ps;
    model->ConditionalDistWith(&ctx_a, a, col, &pa);
    model->ConditionalDistWith(&ctx_b, b, col, &pb);
    model->ConditionalDistWith(&ctx_s, stacked, col, &ps);
    ASSERT_EQ(ps.rows(), 8u);
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(std::memcmp(ps.Row(r), pa.Row(r),
                            ps.cols() * sizeof(float)),
                0)
          << "col " << col << " row " << r;
    }
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(std::memcmp(ps.Row(3 + r), pb.Row(r),
                            ps.cols() * sizeof(float)),
                0)
          << "col " << col << " row " << r;
    }
  }
}

// The heart of the plan layer: for randomized batches with mixed
// leading-wildcard runs AND shared constrained prefixes, planned execution
// is bit-identical to the per-query reference walk — across shard sizes,
// tree shapes (the width cap changes fork depths and fanouts), and thread
// counts (estimates AND standard errors).
TEST(PlanExecutor, BitIdenticalToReferenceWalk) {
  Table t = PlanTable(11);
  auto model = TrainedMade(t, 11);
  std::vector<Query> queries = MixedRunBatch(t, 24, 3, 131);
  // Shared-constrained-prefix pairs: identical leading equality literals,
  // diverging suffixes.
  queries.push_back(QueryOn(t, {0, 1, 3}));
  queries.push_back(QueryOn(t, {0, 1, 4}));
  queries.push_back(QueryOn(t, {0, 1, 5}));
  ASSERT_GE(queries.size(), 8u);
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const size_t shard_size : {size_t{32}, size_t{128}}) {
    std::vector<double> want, want_se;
    for (const auto& q : queries) {
      const auto ref = reference::Walk(model.get(), q, 300, shard_size, 17);
      want.push_back(ref.estimate);
      want_se.push_back(ref.std_error);
    }

    for (const size_t group_width : {size_t{1}, size_t{3}, size_t{32}}) {
      SamplingPlanOptions popts;
      popts.max_group_width = group_width;
      const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs, popts);
      for (const bool serial : {true, false}) {
        std::optional<ScopedSerialRegion> region;
        if (serial) region.emplace();
        PlanExecutionOptions opts;
        opts.num_samples = 300;
        opts.shard_size = shard_size;
        opts.seed = 17;
        std::vector<double> got, got_se;
        ExecuteSamplingPlan(model.get(), plan, opts, &got, &got_se);
        ASSERT_EQ(got.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "shard " << shard_size << " width " << group_width
              << " serial " << serial << " query " << i;
          EXPECT_EQ(got_se[i], want_se[i]) << "stderr, query " << i;
        }
      }
    }
  }
}

// Same oracle across the inference kernels: each kernel changes the
// numbers, but within a kernel the tree walk must match the reference
// walk bit for bit.
TEST(PlanExecutor, BitIdenticalToReferenceWalkAcrossKernels) {
  Table t = PlanTable(23);
  auto model = TrainedMade(t, 23);
  std::vector<Query> queries = MixedRunBatch(t, 12, 2, 137);
  queries.push_back(QueryOn(t, {0, 1, 3}));
  queries.push_back(QueryOn(t, {0, 1, 5}));
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model->SetInferenceKernel(kernel);

    std::vector<double> want;
    for (const auto& q : queries) {
      want.push_back(reference::Walk(model.get(), q, 200, 64, 29).estimate);
    }

    const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
    for (const bool serial : {true, false}) {
      std::optional<ScopedSerialRegion> region;
      if (serial) region.emplace();
      PlanExecutionOptions opts;
      opts.num_samples = 200;
      opts.shard_size = 64;
      opts.seed = 29;
      std::vector<double> got;
      ExecuteSamplingPlan(model.get(), plan, opts, &got);
      EXPECT_EQ(got, want) << "kernel " << KernelKindName(kernel)
                           << " serial " << serial;
    }
  }
  model->SetInferenceKernel(KernelKind::kScalar);
}

// Tree execution over the transformer's (stateless) sessions is bit-
// identical to the reference walk.
TEST(PlanExecutor, TransformerPlannedBitIdenticalToReferenceWalk) {
  Table t = MakeRandomTable(400, {6, 5, 8, 4}, 31, /*skew=*/1.0);
  TransformerModel::Config tcfg;
  tcfg.d_model = 16;
  tcfg.num_heads = 2;
  tcfg.num_layers = 1;
  tcfg.ffn_hidden = 32;
  tcfg.seed = 31;
  auto model = std::make_unique<TransformerModel>(
      std::vector<size_t>{6, 5, 8, 4}, tcfg);
  TrainerConfig trcfg;
  trcfg.epochs = 1;
  trcfg.batch_size = 128;
  Trainer(model.get(), trcfg).Train(t);
  ASSERT_GT(model->StackedWidthHint(), 0u);

  std::vector<Query> queries = {QueryOn(t, {2, 3}), QueryOn(t, {2}),
                                QueryOn(t, {0, 1, 2}), QueryOn(t, {0, 1, 3}),
                                QueryOn(t, {1, 3})};
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  std::vector<double> want, want_se;
  for (const auto& q : queries) {
    const auto ref = reference::Walk(model.get(), q, 128, 64, 41);
    want.push_back(ref.estimate);
    want_se.push_back(ref.std_error);
  }

  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
  EXPECT_GT(plan.SharedColumns(), 0u);
  for (const bool serial : {true, false}) {
    std::optional<ScopedSerialRegion> region;
    if (serial) region.emplace();
    PlanExecutionOptions opts;
    opts.num_samples = 128;
    opts.shard_size = 64;
    opts.seed = 41;
    std::vector<double> got, got_se;
    ExecuteSamplingPlan(model.get(), plan, opts, &got, &got_se);
    ASSERT_EQ(got.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "serial " << serial << " query " << i;
      EXPECT_EQ(got_se[i], want_se[i]) << "stderr, query " << i;
    }
  }
}

// A boundary where one branch retires while another forks keeps the
// frontier's row count but changes which walk each row block continues.
// The incremental MADE session must follow the executor's Relayout map
// instead of extending the retired branch's trunk.
// Queries (Interval [1,2] on the listed columns):
//   qa {0, 1}        — constrained column 0: its own branch, retires at 2
//   qb {1, 2}, qc {1, 3} — wildcard column 0, shared [0, 2), fork at 2
TEST(PlanExecutor, RetireAndForkAtSameRowCountMatchesReferenceWalk) {
  Table t = PlanTable(43);
  auto model = TrainedMade(t, 43);
  const std::vector<Query> queries = {QueryOn(t, {0, 1}), QueryOn(t, {1, 2}),
                                      QueryOn(t, {1, 3})};
  std::vector<const Query*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  const SamplingPlan plan = CompileSamplingPlan(model.get(), ptrs);
  ASSERT_EQ(plan.trees.size(), 1u);
  const PlanTree& tree = plan.trees[0];
  // The shape under test: at column 2 a terminal-only node and a
  // two-child node end together, so two row blocks become two.
  size_t retiring = 0, forking = 0;
  for (const PlanTreeNode& node : tree.nodes) {
    if (node.end != 2) continue;
    if (node.children.empty() && !node.terminals.empty()) ++retiring;
    if (node.children.size() == 2) ++forking;
  }
  ASSERT_EQ(retiring, 1u);
  ASSERT_EQ(forking, 1u);

  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    model->SetInferenceKernel(kernel);
    std::vector<double> want, want_se;
    for (const auto& q : queries) {
      const auto ref = reference::Walk(model.get(), q, 200, 64, 47);
      want.push_back(ref.estimate);
      want_se.push_back(ref.std_error);
    }
    PlanExecutionOptions opts;
    opts.num_samples = 200;
    opts.shard_size = 64;
    opts.seed = 47;
    std::vector<double> got, got_se;
    {
      ScopedSerialRegion serial;
      ExecuteSamplingPlan(model.get(), plan, opts, &got, &got_se);
    }
    EXPECT_EQ(got, want) << "kernel " << KernelKindName(kernel);
    EXPECT_EQ(got_se, want_se) << "kernel " << KernelKindName(kernel);
  }
  model->SetInferenceKernel(KernelKind::kScalar);
}

TEST(PlanExecutor, PrefixShareSavesModelColumnCalls) {
  // Two queries sharing a 2-column wildcard prefix, via a call-counting
  // model: the planned walk must evaluate the prefix columns once per
  // shard, not once per (query, shard).
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
  Query qa({ValueSet::All(3), ValueSet::All(3), ValueSet::Interval(3, 0, 1),
            ValueSet::All(3)});
  Query qb({ValueSet::All(3), ValueSet::All(3), ValueSet::All(3),
            ValueSet::Interval(3, 1, 2)});
  const SamplingPlan plan =
      CompileSamplingPlan(&model, {&qa, &qb});
  ASSERT_EQ(plan.trees.size(), 1u);
  // Shared root walks the 2-column wildcard prefix once for both members.
  EXPECT_EQ(plan.trees[0].nodes[0].begin, 0u);
  EXPECT_EQ(plan.trees[0].nodes[0].end, 2u);
  EXPECT_EQ(plan.SharedColumns(), 2u);

  PlanExecutionOptions opts;
  opts.num_samples = 64;
  opts.shard_size = 64;  // one shard
  std::vector<double> got;
  ExecuteSamplingPlan(&model, plan, opts, &got);
  // Sequential would walk qa over cols 0..2 and qb over 0..3 = 7 calls;
  // the plan shares cols 0-1 and stacks the rest: 2 (prefix) + 1 (col 2,
  // stacked) + 1 (col 3, qb alone) = 4.
  EXPECT_EQ(model.calls, 4);
  // float32 conditionals: 1/3f + 1/3f carries ~1e-8 rounding.
  EXPECT_NEAR(got[0], 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(got[1], 2.0 / 3.0, 1e-6);
}

}  // namespace
}  // namespace naru
