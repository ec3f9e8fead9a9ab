// Progressive sampling primitives: unbiased Monte Carlo range-density
// estimation (§5.1, Algorithm 1).
//
// For each of S sample paths, a walk visits columns in model order. At
// column i it asks the model for P̂(X_i | sampled prefix), masks the
// distribution to the query region R_i, multiplies the path weight by the
// contained mass P̂(X_i ∈ R_i | prefix), and draws the next prefix value
// from the renormalized truncated distribution. The mean of the S path
// weights is an unbiased estimate of P(X_1 ∈ R_1, ..., X_n ∈ R_n)
// (Theorem 1). Wildcard columns contribute mass exactly 1; once every
// remaining column is a wildcard the walk stops early (the product of the
// remaining masses is identically 1, so the early exit is exact).
//
// Execution model: the S paths are cut into fixed-size SHARDS. Each shard
// draws from its own RNG stream derived from (seed, shard index)
// (SamplerShardSeed) and walks its paths in a SamplerWorkspace leased from
// a pool, so shards can run concurrently. The shard layout and the final
// shard-order reduction are independent of the thread count, so estimates
// are bit-identical for a fixed seed whether the walk runs on one thread or
// many. The one walk that uses these pieces is the plan executor
// (plan/plan_executor.h); NaruEstimator::Estimate serves a single query as
// a one-query plan. ProgressiveSampler keeps only the routing decision
// (Classify) and the exact leading-only answer the engine resolves before
// any walk.
#pragma once

#include <memory>
#include <vector>

#include "core/conditional_model.h"
#include "query/query.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace naru {

/// Reusable per-shard sampling scratch. One workspace carries everything a
/// shard's walk mutates, so leasing a workspace per shard is what makes
/// concurrent shard execution safe: no two shards ever share a buffer.
/// Buffers keep their capacity between leases (steady-state serving does
/// not allocate).
struct SamplerWorkspace {
  IntMatrix samples;            ///< sampled prefix codes, paths x columns
  Matrix probs;                 ///< model conditionals for the current column
  std::vector<double> weights;  ///< per-path running products of masses
  std::vector<uint8_t> alive;   ///< per-path liveness (0 once weight hits 0)

  // Plan-execution scratch (src/plan): the frontier executor walks a plan
  // tree with one row block per live branch inside samples/weights/alive
  // above, and rebuilds that stacked layout at every retire/fork boundary
  // by ping-ponging into these spares (then swapping). One workspace
  // therefore carries a whole (tree, shard) task, keeping live workspaces
  // proportional to the number of concurrently running tasks.
  IntMatrix spare_samples;           ///< layout-rebuild target for samples
  std::vector<double> spare_weights; ///< layout-rebuild target for weights
  std::vector<uint8_t> spare_alive;  ///< layout-rebuild target for alive
};

/// Thread-safe free-list of SamplerWorkspaces. One pool can back many
/// samplers: the serving engine shares a single pool across every query of
/// a batch (and the async dispatcher across every micro-batch), so the
/// number of live workspaces tracks the number of concurrently running
/// shards, not the number of queries served.
class SamplerWorkspacePool {
 public:
  /// Leases a workspace (creating one if the free list is empty). Return it
  /// with Release — or use the RAII WorkspaceLease below.
  std::unique_ptr<SamplerWorkspace> Acquire();
  /// Returns a leased workspace to the free list; its buffers keep their
  /// capacity for the next lease.
  void Release(std::unique_ptr<SamplerWorkspace> ws);

  /// Total workspaces ever created (tests assert reuse keeps this small).
  size_t total_created() const;
  /// Workspaces currently on the free list.
  size_t available() const;

 private:
  mutable Mutex mu_;
  std::vector<std::unique_ptr<SamplerWorkspace>> free_ NARU_GUARDED_BY(mu_);
  size_t created_ NARU_GUARDED_BY(mu_) = 0;
};

/// RAII lease of a SamplerWorkspace from a pool.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(SamplerWorkspacePool* pool)
      : pool_(pool), ws_(pool->Acquire()) {}
  ~WorkspaceLease() { pool_->Release(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  SamplerWorkspace* get() { return ws_.get(); }
  SamplerWorkspace* operator->() { return ws_.get(); }

 private:
  SamplerWorkspacePool* pool_;
  std::unique_ptr<SamplerWorkspace> ws_;
};

/// One query's block of sample paths inside a stacked walk: the plan
/// executor (src/plan) points blocks at row ranges of one stacked matrix
/// shared by every branch of a plan tree.
struct SamplerRowBlock {
  IntMatrix* samples = nullptr;  ///< sampled prefix codes (stacked rows)
  Matrix* probs = nullptr;       ///< this column's conditionals, row-aligned
  double* weights = nullptr;     ///< this block's path weights (length rows)
  uint8_t* alive = nullptr;      ///< this block's liveness flags
  size_t row_offset = 0;         ///< first row of the block in samples/probs
  size_t rows = 0;               ///< paths in the block
};

/// One column step of Algorithm 1 (lines 12-14) over one query's block:
/// per path, mask the conditional to the query region, fold the contained
/// mass into the path weight, and draw the next prefix code from the
/// truncated distribution (wildcard columns contribute mass exactly 1 and
/// draw from the full conditional). This is THE per-row walk kernel of
/// the plan executor.
void SamplerColumnStep(const ConditionalModel* model, const Query& query,
                       size_t col, bool wildcard,
                       const SamplerRowBlock& block, Rng* rng);

/// Independent RNG stream for shard `shard` of a fixed seed (splitmix64
/// finalizer; adjacent shards land in uncorrelated xoshiro seed regions).
/// The (seed, shard) -> stream map is part of the determinism contract:
/// every execution strategy derives its draws from it.
uint64_t SamplerShardSeed(uint64_t seed, size_t shard);

/// Shard count for `num_samples` paths in shards of `shard_size`.
size_t SamplerNumShards(size_t num_samples, size_t shard_size);

/// How a query is routed before any walk. Does not own the model.
class ProgressiveSampler {
 public:
  explicit ProgressiveSampler(ConditionalModel* model) : model_(model) {}

  /// How a query will be answered when it is not enumerated. The serving
  /// engine routes on this.
  enum class Path {
    kEmpty,        ///< some region empty: exactly 0
    kAllWildcard,  ///< no constrained position: exactly 1
    kLeadingOnly,  ///< only position 0 constrained: exact marginal mass
    kSampled,      ///< full progressive-sampling walk
  };
  Path Classify(const Query& query) const;

  /// Exact contained mass of the query's region at model position 0,
  /// P̂(X_0 ∈ R_0) — the answer when position 0 is the only constrained
  /// position (the "single leading filter" fast path, no sampling needed).
  /// Exposed so the serving engine can cache it keyed on the masked region.
  double LeadingOnlyMass(const Query& query);

 private:
  /// Last constrained model position of `query`, or -1 if none.
  int LastConstrainedPosition(const Query& query) const;

  ConditionalModel* model_;
};

}  // namespace naru
