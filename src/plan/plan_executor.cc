#include "plan/plan_executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>

namespace naru {

namespace {

// One live branch of the frontier: the plan-tree node whose segment it is
// walking, plus its private RNG stream. Branch i owns rows
// [i*rows, (i+1)*rows) of the stacked walk state.
struct FrontierEntry {
  size_t node = 0;
  Rng rng;
};

// One (tree, shard) task: the column-synchronous frontier walk described
// in the header. Writes each finished query's shard weight sum / squared
// sum into the flat per-(query, shard) result arrays. Between column
// steps (never inside a kernel) the task checks the tree's `control`;
// once it stops, the task returns early and the caller marks every
// member DEADLINE_EXCEEDED — partial sums are discarded.
void RunTreeShard(ConditionalModel* model, const SamplingPlan& plan,
                  const PlanTree& tree, size_t shard, size_t rows,
                  uint64_t seed, size_t slot_stride, SamplerWorkspace* ws,
                  std::vector<double>* shard_w, std::vector<double>* shard_w2,
                  WalkControl* control) {
  const size_t n = model->num_columns();

  IntMatrix* samples = &ws->samples;
  IntMatrix* spare_samples = &ws->spare_samples;
  std::vector<double>* weights = &ws->weights;
  std::vector<double>* spare_weights = &ws->spare_weights;
  std::vector<uint8_t>* alive = &ws->alive;
  std::vector<uint8_t>* spare_alive = &ws->spare_alive;

  // The root's block: a fresh shard walk, exactly a lone query's start.
  std::vector<FrontierEntry> entries;
  entries.push_back(FrontierEntry{0, Rng(SamplerShardSeed(seed, shard))});
  samples->Resize(rows, n);
  samples->Fill(0);
  weights->assign(rows, 1.0);
  alive->assign(rows, 1);

  auto session = model->StartSession(rows);
  std::vector<size_t> src_rows;  // relayout map: new row -> old row

  size_t col = 0;
  while (!entries.empty()) {
    // --- Retire / fork boundary: rebuild the stacked layout whenever a
    // frontier node's segment ends at this column. Terminal queries
    // reduce, children fork with copies of the block and the RNG stream.
    // Row position never enters per-row arithmetic, so relayout is
    // invisible to the estimates; the session rearranges its per-row walk
    // state by the same row map and keeps walking in order. ---
    bool boundary = false;
    size_t out_count = 0;
    for (const FrontierEntry& e : entries) {
      const PlanTreeNode& node = tree.nodes[e.node];
      if (node.end == col) {
        boundary = true;
        out_count += node.children.size();
      } else {
        out_count += 1;
      }
    }
    if (boundary) {
      spare_samples->Resize(out_count * rows, n);
      spare_weights->resize(out_count * rows);
      spare_alive->resize(out_count * rows);
      src_rows.resize(out_count * rows);
      std::vector<FrontierEntry> next;
      next.reserve(out_count);
      for (size_t i = 0; i < entries.size(); ++i) {
        FrontierEntry& e = entries[i];
        const PlanTreeNode& node = tree.nodes[e.node];
        const size_t src = i * rows;
        const auto copy_block_to = [&](size_t dst) {
          if (rows > 0) {
            std::memcpy(spare_samples->Row(dst * rows), samples->Row(src),
                        rows * n * sizeof(int32_t));
          }
          std::copy(weights->begin() + static_cast<ptrdiff_t>(src),
                    weights->begin() + static_cast<ptrdiff_t>(src + rows),
                    spare_weights->begin() + static_cast<ptrdiff_t>(dst * rows));
          std::copy(alive->begin() + static_cast<ptrdiff_t>(src),
                    alive->begin() + static_cast<ptrdiff_t>(src + rows),
                    spare_alive->begin() + static_cast<ptrdiff_t>(dst * rows));
          for (size_t r = 0; r < rows; ++r) src_rows[dst * rows + r] = src + r;
        };
        if (node.end != col) {
          copy_block_to(next.size());
          next.push_back(std::move(e));
          continue;
        }
        // Queries finishing in this segment: the block's weights are
        // their complete walk (their last constrained column is col-1) —
        // the same sums the query's own shard walk would reduce.
        for (size_t q : node.terminals) {
          double sum = 0;
          double sq = 0;
          for (size_t r = 0; r < rows; ++r) {
            const double w = (*weights)[src + r];
            sum += w;
            sq += w * w;
          }
          (*shard_w)[q * slot_stride + shard] = sum;
          (*shard_w2)[q * slot_stride + shard] = sq;
        }
        // Fork: every child continues from an identical copy of the walk
        // state — block AND RNG stream — which is exactly where each
        // child's own walk would stand after these columns.
        for (size_t child : node.children) {
          copy_block_to(next.size());
          next.push_back(FrontierEntry{child, e.rng});
        }
      }
      std::swap(samples, spare_samples);
      std::swap(weights, spare_weights);
      std::swap(alive, spare_alive);
      entries = std::move(next);
      if (entries.empty()) return;  // every branch retired
      session->Relayout(src_rows);
    }

    if (control->ShouldStop()) return;

    // --- One stacked evaluation for the whole frontier, then the shared
    // per-row column step per branch (each with its own RNG). The node's
    // representative query stands in for every member below it: across
    // the segment they share the wildcard flag, the masked region, and
    // the dead-path fallback code by construction. ---
    session->Dist(*samples, col, &ws->probs);
    NARU_CHECK(ws->probs.rows() == entries.size() * rows &&
               ws->probs.cols() == model->DomainSize(col));
    for (size_t i = 0; i < entries.size(); ++i) {
      const PlanTreeNode& node = tree.nodes[entries[i].node];
      const QueryPlan& qp = plan.queries[node.rep];
      SamplerColumnStep(model, *qp.query, col, qp.wildcard[col] != 0,
                        SamplerRowBlock{samples, &ws->probs,
                                        weights->data() + i * rows,
                                        alive->data() + i * rows,
                                        /*row_offset=*/i * rows, rows},
                        &entries[i].rng);
    }
    ++col;
  }
}

}  // namespace

void ExecuteSamplingPlan(ConditionalModel* model, const SamplingPlan& plan,
                         const PlanExecutionOptions& options,
                         std::vector<double>* estimates,
                         std::vector<double>* std_errors,
                         std::vector<Status>* statuses) {
  NARU_CHECK(options.num_samples >= 1);
  NARU_CHECK(options.shard_size >= 1);
  const size_t m = plan.queries.size();
  estimates->assign(m, 0.0);
  if (std_errors != nullptr) std_errors->assign(m, 0.0);
  if (statuses != nullptr) statuses->assign(m, Status::OK());
  if (m == 0) return;

  // Per-request budgets (serve/request.h) make the shard count a TREE
  // property: each tree walks SamplerNumShards(its budget, shard_size)
  // shards. The flat (query, shard) result arrays are strided by the
  // widest shard count; a query only ever fills its own tree's shards.
  const auto effective_samples = [&](size_t tree_budget) {
    return tree_budget != 0 ? tree_budget : options.num_samples;
  };
  size_t max_shards = 1;
  std::vector<size_t> tree_of(m, 0);  // query -> owning tree
  std::vector<std::pair<size_t, size_t>> tasks;  // (tree, shard)
  // One stop signal per tree, shared by its (tree, shard) tasks: one walk
  // serves every member, so it stops only once all of them have expired.
  // The first task to see it stop latches it, and every sibling bails at
  // its next column boundary (or skips entirely, below).
  std::deque<WalkControl> controls;
  for (size_t t = 0; t < plan.trees.size(); ++t) {
    auto deadline = plan.queries[plan.trees[t].members.front()].deadline;
    for (size_t member : plan.trees[t].members) {
      tree_of[member] = t;
      deadline = WalkControl::Join(deadline, plan.queries[member].deadline);
    }
    controls.emplace_back(deadline);
    const size_t ns = effective_samples(plan.trees[t].num_samples);
    NARU_CHECK(ns >= 1);
    const size_t shards = SamplerNumShards(ns, options.shard_size);
    max_shards = std::max(max_shards, shards);
    for (size_t k = 0; k < shards; ++k) tasks.emplace_back(t, k);
  }
  std::vector<double> shard_w(m * max_shards, 0.0);
  std::vector<double> shard_w2(m * max_shards, 0.0);

  SamplerWorkspacePool local_pool;
  SamplerWorkspacePool* workspaces =
      options.workspaces != nullptr ? options.workspaces : &local_pool;

  const size_t num_tasks = tasks.size();
  auto run_task = [&](size_t t) {
    const auto [tree, k] = tasks[t];
    if (controls[tree].ShouldStop()) return;
    const size_t ns = effective_samples(plan.trees[tree].num_samples);
    const size_t lo = k * options.shard_size;
    const size_t rows = std::min(options.shard_size, ns - lo);
    WorkspaceLease ws(workspaces);
    RunTreeShard(model, plan, plan.trees[tree], k, rows, options.seed,
                 max_shards, ws.get(), &shard_w, &shard_w2, &controls[tree]);
  };

  // Shard/tree parallelism only on concurrent-capable models, a caller's
  // serial region wins, and whenever coarse parallelism is available the
  // kernels inside run inline so thread accounting stays honest. Without
  // shard parallelism (one task, or a model without concurrent sessions)
  // the kernels keep their internal pool parallelism.
  const bool concurrent_ok = model->SupportsConcurrentSampling();
  const bool parallel =
      concurrent_ok && num_tasks > 1 && !ScopedSerialRegion::Active();
  if (parallel) {
    ThreadPool* pool = options.thread_pool != nullptr ? options.thread_pool
                                                      : GlobalThreadPool();
    pool->ParallelFor(
        0, num_tasks,
        [&](size_t lo, size_t hi) {
          ScopedSerialRegion serial;
          for (size_t t = lo; t < hi; ++t) run_task(t);
        },
        /*min_chunk=*/1);
  } else if (concurrent_ok && num_tasks > 1) {
    ScopedSerialRegion serial;
    for (size_t t = 0; t < num_tasks; ++t) run_task(t);
  } else {
    for (size_t t = 0; t < num_tasks; ++t) run_task(t);
  }

  // Reduce in shard order per query — independent of execution order.
  // Each query reduces over ITS budget's shard count. Members of a stopped
  // tree have incomplete shard sums: they report a typed
  // DEADLINE_EXCEEDED instead of a value.
  for (size_t q = 0; q < m; ++q) {
    if (controls[tree_of[q]].stopped()) {
      (*estimates)[q] = std::numeric_limits<double>::quiet_NaN();
      if (statuses != nullptr) {
        (*statuses)[q] =
            Status::DeadlineExceeded("deadline expired mid-walk");
      }
      continue;
    }
    const size_t ns = effective_samples(plan.queries[q].num_samples);
    const size_t shards = SamplerNumShards(ns, options.shard_size);
    double weight_sum = 0;
    double weight_sq_sum = 0;
    for (size_t k = 0; k < shards; ++k) {
      weight_sum += shard_w[q * max_shards + k];
      weight_sq_sum += shard_w2[q * max_shards + k];
    }
    const double s = static_cast<double>(ns);
    const double mean = weight_sum / s;
    (*estimates)[q] = mean;
    if (std_errors != nullptr && ns > 1) {
      const double var =
          std::max(0.0, (weight_sq_sum - s * mean * mean) / (s - 1.0));
      (*std_errors)[q] = std::sqrt(var / s);
    }
  }
}

}  // namespace naru
