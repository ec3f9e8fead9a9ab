// Executes compiled SamplingPlans: hierarchical shared walk segments,
// forked branch walks, cross-query GEMM fusion.
//
// Execution model. The unit of work is a (tree, shard) task, walked
// column-synchronously with a FRONTIER of live branches:
//
//   1. The frontier starts as the tree's root — one block of shard_size
//      paths drawing from the shard's RNG stream
//      Rng(SamplerShardSeed(seed, shard)). Every query below a node takes
//      an identical column step across the node's segment (all wildcard,
//      or all constrained by the same region), so one block serves them
//      all: the (samples, weights, liveness, RNG state) after the segment
//      is what EVERY member's own walk would hold there.
//   2. At a column where some frontier node's segment ends, the stacked
//      row layout is rebuilt: the node's terminal queries reduce their
//      weight sums from the node's block (their walk is complete), and
//      each child forks off with a private copy of the block and of the
//      post-segment RNG state. Deeper shared segments then continue —
//      multi-depth sharing. The session is told the new row layout
//      (SamplingSession::Relayout: new row i continues old row src[i]), so
//      stateful sessions keep walking in order.
//   3. At every column, ONE stacked model evaluation covers every live
//      branch (the cross-query GEMM fusion; sessions are row-independent,
//      see conditional_model.h), then each branch's block runs the shared
//      SamplerColumnStep kernel with its own RNG.
//
// Determinism: per member query, the draws consumed and the arithmetic
// applied are those of Algorithm 1 run for that query alone, shard by
// shard — forks copy RNG state exactly where the members' walks coincide,
// and every kernel on the stacked evaluation path is row-independent — so
// estimates (and standard errors) are bit-identical to a one-query plan
// for a fixed seed, regardless of tree shape, batch composition, or thread
// count. tests/reference_walk.h writes that per-query walk out plainly;
// the tests compare this executor with it bit for bit.
#pragma once

#include <vector>

#include "core/sampler.h"
#include "plan/sampling_plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace naru {

/// Execution knobs. Sampling fields carry NaruEstimatorConfig's
/// num_samples, shard_size and sampler_seed (and are part of the
/// RNG-stream contract); execution fields only move work between threads
/// and never affect a result.
struct PlanExecutionOptions {
  /// Default sample-path budget; a PlanTree carrying a nonzero
  /// num_samples (a per-request budget from serve/request.h) overrides it
  /// for that tree's members.
  size_t num_samples = 1000;
  size_t shard_size = 128;
  uint64_t seed = 7;
  /// Pool for (tree, shard) tasks when the model supports concurrent
  /// sampling; nullptr = the process-global pool. A caller's
  /// ScopedSerialRegion keeps every task on the calling thread.
  ThreadPool* thread_pool = nullptr;
  /// nullptr = a private pool for this call (the serving engine injects
  /// its shared pool so concurrent batches reuse one set of buffers).
  SamplerWorkspacePool* workspaces = nullptr;
};

/// Runs `plan` against `model`; (*estimates)[i] is the unbiased
/// selectivity estimate for plan.queries[i] — bit-identical to
/// plan.queries[i] run alone under the same (num_samples, shard_size,
/// seed). `std_errors` (optional) receives the matching Monte Carlo
/// standard errors. Serves every ConditionalModel.
///
/// Mid-walk stop: each tree's walk has one WalkControl (util/deadline.h)
/// whose deadline is the join of its members' deadlines — the latest, or
/// none if any member has none. Once it passes, the tree is given up
/// BETWEEN column steps — never inside a kernel — and every member of a
/// stopped tree reports a DEADLINE_EXCEEDED entry in `statuses`
/// (optional; parallel to `estimates`, OK elsewhere) with a NaN estimate.
/// Trees that are not stopped are bit-identical to a deadline-free run:
/// the checkpoint reads the clock, it never touches RNG streams or
/// weights.
void ExecuteSamplingPlan(ConditionalModel* model, const SamplingPlan& plan,
                         const PlanExecutionOptions& options,
                         std::vector<double>* estimates,
                         std::vector<double>* std_errors = nullptr,
                         std::vector<Status>* statuses = nullptr);

}  // namespace naru
