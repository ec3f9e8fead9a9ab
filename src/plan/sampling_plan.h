// Sampling plans: compiled batch execution layouts for progressive
// sampling.
//
// Progressive sampling (§5.1, Algorithm 1) run query by query would walk
// every query of a batch independently, re-deriving per-column wildcard
// flags and early-exit points on every shard and re-running the model
// forward pass once per (query, column, shard). A SamplingPlan moves all
// of that to compile time, before any walk starts:
//
//   - per-query region-mask metadata is materialized once (wildcard flag
//     per model position, last constrained position, leading-wildcard run
//     length);
//   - queries are compiled into PLAN TREES: prefix tries in which every
//     node is a maximal run of columns over which all queries below the
//     node take the SAME walk step, and children fork at the first column
//     where they diverge. A shared segment is walked once per shard and
//     forked — copying samples, weights, liveness, and the RNG stream —
//     into each child, so a batch sharing columns 0-3 and then splitting
//     into two sub-groups sharing 4-6 walks columns 0-3 exactly once;
//   - sharing is not limited to wildcards: two queries whose leading
//     columns carry IDENTICAL constrained regions (the same point / range
//     / IN-list predicate, compared by canonical AppendRegionKey bytes) take
//     bit-identical column steps there — same masked mass folded into the
//     weights, same truncated draw — so the walk AND its likelihood terms
//     are shared;
//   - within a tree, the per-column model evaluations of every live
//     branch are fused into single stacked forward passes (one GEMM
//     sequence for the whole frontier instead of one per query); see
//     plan_executor.h.
//
// The tree layout only decides WHERE rows sit in stacked matrices and
// which columns are walked once instead of per query — never what is
// computed — so estimates are bit-identical to a one-query plan for any
// tree shape (tests check both against tests/reference_walk.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "core/conditional_model.h"
#include "query/query.h"
#include "tensor/kernel.h"
#include "util/deadline.h"

namespace naru {

/// Compile-time walk metadata for one query of a plan (model-position
/// indexed; the compiler applies ConditionalModel::PositionIsWildcard so
/// permuted and factorized layouts resolve here, once, instead of per
/// shard).
struct QueryPlan {
  const Query* query = nullptr;
  /// Last constrained model position (the trailing-wildcard early exit).
  /// Plans are compiled for sampled queries only, so this is >= 0.
  int last_col = -1;
  /// Wildcard flag per model position 0..num_columns-1.
  std::vector<uint8_t> wildcard;
  /// Per-request sample-path budget (serve/request.h); 0 = the executor's
  /// default. Part of the VALUE contract: the compiler never fuses
  /// queries with different budgets, because a tree's members share walk
  /// segments and one shard layout — both functions of the budget.
  size_t num_samples = 0;
  /// Per-request soft deadline (steady_clock; kNoDeadline = none).
  /// Scheduling metadata only — it NEVER affects tree shape, and a tree's
  /// walk is stopped mid-column only once EVERY member has expired (the
  /// executor joins the members' deadlines, WalkControl::Join), so a
  /// deadline can only replace an answer with a typed DEADLINE_EXCEEDED
  /// status, never change one.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
};

/// One node of a plan tree: a chain-compressed trie node, i.e. a maximal
/// column run [begin, end) over which every query below the node takes an
/// identical walk step (all wildcard, or all carrying the same constrained
/// region by canonical key). At column `end` the node's terminals finish
/// (their last constrained position is end-1) and each child forks off
/// with a private copy of the walk state.
struct PlanTreeNode {
  size_t begin = 0;  ///< first column of the shared segment
  size_t end = 0;    ///< one past the last column (begin == end: pure fork)
  /// Representative member (index into SamplingPlan::queries): the
  /// executor reads the segment's regions and wildcard flags through this
  /// query — valid for every member below the node by construction.
  size_t rep = 0;
  /// Queries (indices into SamplingPlan::queries) whose walk finishes in
  /// this segment: last_col == end - 1. Reduced when the node retires.
  std::vector<size_t> terminals;
  /// Child node ids (into PlanTree::nodes) forking at column `end`, in
  /// deterministic first-member order. Children always appear after their
  /// parent in PlanTree::nodes.
  std::vector<size_t> children;
};

/// One prefix trie of queries sharing walk structure; the executor's unit
/// of GEMM fusion (a (tree, shard) pair is one task).
struct PlanTree {
  /// nodes[0] is the root (begin == 0).
  std::vector<PlanTreeNode> nodes;
  /// Every member query of the tree (union of node terminals).
  std::vector<size_t> members;
  /// The members' common sample budget (0 = executor default). Uniform
  /// across the tree by construction.
  size_t num_samples = 0;
  /// Fork depth: maximum number of fork points (nodes with >= 2 children
  /// or any terminal alongside survivors) on a root-to-leaf path. 0 for a
  /// single-query tree.
  size_t fork_depth = 0;
  /// Widest single fork (max children count over nodes; 1 if none).
  size_t max_fanout = 1;
};

struct SamplingPlan {
  std::vector<QueryPlan> queries;
  std::vector<PlanTree> trees;

  /// Per-shard column-walks without sharing: Σ (last_col+1).
  size_t WalkColumns() const;
  /// Per-shard column-walks saved by segment sharing:
  /// Σ_nodes (end - begin) · (queries under node - 1).
  size_t SharedColumns() const;
  /// SharedColumns / WalkColumns in [0, 1).
  double PrefixShareRatio() const;
  /// Max PlanTree::fork_depth over trees (0 when empty).
  size_t MaxForkDepth() const;
  /// Max PlanTree::max_fanout over trees (1 when empty).
  size_t MaxFanout() const;
};

struct SamplingPlanOptions {
  /// Fork fan-out cap: upper bound on queries fused into one tree. Bounds
  /// stacked-walk memory (width · shard_size rows of model activations)
  /// and yields more (tree, shard) tasks for the executor to spread
  /// across threads. Never affects estimates. 32 matches the PR 3 cap;
  /// serving derives it from AutoGroupWidth below instead.
  size_t max_group_width = 32;
  /// Per-query sample-path budgets, parallel to the `queries` argument of
  /// CompileSamplingPlan (0 entries = executor default). Empty = every
  /// query uses the default. Queries are partitioned by budget BEFORE any
  /// tree is built, so a tree only ever fuses queries with identical
  /// budgets — with a single budget class the shape is exactly the
  /// budget-free one.
  std::vector<size_t> budgets;
  /// Per-query soft deadlines, parallel to `queries` (empty = none; see
  /// QueryPlan::deadline). Unlike budgets these never partition or
  /// reorder the trees — they only decide when a tree's walk may stop.
  std::vector<std::chrono::steady_clock::time_point> deadlines;
};

/// Width auto-tuning: picks a fork fan-out cap so stacked GEMM shapes land
/// in the sweet spot bench_micro_gemm measured — SIMD kernels amortize
/// over far more stacked rows than the scalar loops before going
/// memory-bound, and wider hidden layers saturate cache with fewer rows.
/// `width_hint` is the model's dominant GEMM inner width
/// (ConditionalModel::StackedWidthHint); 0 falls back to the PR 3 cap of
/// 32. Deterministic: a pure function of its arguments.
size_t AutoGroupWidth(size_t width_hint, KernelKind kernel,
                      size_t shard_size);

/// Compiles the batch `queries` (distinct, sampled-path queries against
/// `model`) into plan trees. Deterministic: depends only on the query
/// batch and options, never on threads or timing.
SamplingPlan CompileSamplingPlan(const ConditionalModel* model,
                                 const std::vector<const Query*>& queries,
                                 const SamplingPlanOptions& options = {});

}  // namespace naru
