#include "plan/sampling_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "serve/query_key.h"

namespace naru {

namespace {

// Queries-under-node counts (terminals plus all descendants), computable
// in one reverse pass because children always follow their parent.
std::vector<size_t> CountsUnder(const PlanTree& tree) {
  std::vector<size_t> counts(tree.nodes.size(), 0);
  for (size_t id = tree.nodes.size(); id > 0; --id) {
    const PlanTreeNode& node = tree.nodes[id - 1];
    size_t c = node.terminals.size();
    for (size_t child : node.children) c += counts[child];
    counts[id - 1] = c;
  }
  return counts;
}

}  // namespace

size_t SamplingPlan::WalkColumns() const {
  size_t cols = 0;
  for (const auto& q : queries) {
    cols += static_cast<size_t>(q.last_col) + 1;
  }
  return cols;
}

size_t SamplingPlan::SharedColumns() const {
  size_t saved = 0;
  for (const auto& tree : trees) {
    const std::vector<size_t> counts = CountsUnder(tree);
    for (size_t id = 0; id < tree.nodes.size(); ++id) {
      const PlanTreeNode& node = tree.nodes[id];
      if (counts[id] > 1) {
        saved += (node.end - node.begin) * (counts[id] - 1);
      }
    }
  }
  return saved;
}

double SamplingPlan::PrefixShareRatio() const {
  const size_t walk = WalkColumns();
  if (walk == 0) return 0.0;
  return static_cast<double>(SharedColumns()) / static_cast<double>(walk);
}

size_t SamplingPlan::MaxForkDepth() const {
  size_t depth = 0;
  for (const auto& tree : trees) depth = std::max(depth, tree.fork_depth);
  return depth;
}

size_t SamplingPlan::MaxFanout() const {
  size_t fanout = 1;
  for (const auto& tree : trees) fanout = std::max(fanout, tree.max_fanout);
  return fanout;
}

size_t AutoGroupWidth(size_t width_hint, KernelKind kernel,
                      size_t shard_size) {
  if (width_hint == 0) return 32;  // no hint: the PR 3 cap
  // Target stacked rows per GEMM: the scalar ikj loops peak early and
  // then just burn cache, while the blocked SIMD kernels keep scaling to
  // a few thousand stacked rows (bench_micro_gemm).
  size_t target_rows = 1024;
  if (kernel == KernelKind::kSimd) target_rows = 4096;
  // Wider hidden layers fill the cache with fewer rows; narrow ones need
  // more rows to amortize the per-GEMM fixed cost.
  if (width_hint >= 512) target_rows /= 2;
  if (width_hint <= 64) target_rows *= 2;
  const size_t width = target_rows / std::max<size_t>(shard_size, 1);
  return std::min<size_t>(64, std::max<size_t>(4, width));
}

namespace {

// Per-query, per-model-position walk-step descriptors. Two queries take
// bit-identical column steps at position `pos` iff their descriptors
// match: both wildcard (mass 1, draw from the full conditional), or both
// constrained by a region with identical canonical bytes (AppendRegionKey) —
// MaskProbsToRegion and FallbackCode are functions of that region and of
// walk state the queries share inside a common segment. Wildcard encodes
// as "" (a real region key is never empty), so string equality is the
// whole test.
std::vector<std::string> PositionDescriptors(const ConditionalModel* model,
                                             const QueryPlan& qp) {
  const size_t n = qp.wildcard.size();
  std::vector<std::string> desc(n);
  for (size_t pos = 0; pos < n; ++pos) {
    if (qp.wildcard[pos]) continue;
    AppendRegionKey(qp.query->region(model->TableColumnOf(pos)), &desc[pos]);
  }
  return desc;
}

// Shared trie-segment scan: starting at `col`, the longest run of columns
// every query in `members` steps through identically — no member finishes
// (last_col < cur) and all descriptors agree. Returns the break column.
size_t SegmentEnd(const std::vector<QueryPlan>& queries,
                  const std::vector<std::vector<std::string>>& desc,
                  const std::vector<size_t>& members, size_t col, size_t n) {
  size_t cur = col;
  while (cur < n) {
    bool brk = false;
    const std::string& lead = desc[members.front()][cur];
    for (size_t m : members) {
      if (queries[m].last_col < static_cast<int>(cur) ||
          desc[m][cur] != lead) {
        brk = true;
        break;
      }
    }
    if (brk) break;
    ++cur;
  }
  return cur;
}

// Splits `members` at the break column into (terminals, child partitions
// keyed by descriptor in first-occurrence order).
void SplitAtBreak(const std::vector<QueryPlan>& queries,
                  const std::vector<std::vector<std::string>>& desc,
                  const std::vector<size_t>& members, size_t brk, size_t n,
                  std::vector<size_t>* terminals,
                  std::vector<std::vector<size_t>>* parts) {
  terminals->clear();
  parts->clear();
  for (size_t m : members) {
    if (queries[m].last_col < static_cast<int>(brk)) {
      terminals->push_back(m);
      continue;
    }
    NARU_CHECK(brk < n);  // a survivor implies the break is a real column
    std::vector<std::vector<size_t>>& ps = *parts;
    bool placed = false;
    for (auto& part : ps) {
      if (desc[part.front()][brk] == desc[m][brk]) {
        part.push_back(m);
        placed = true;
        break;
      }
    }
    if (!placed) ps.push_back({m});
  }
}

class TreeCompiler {
 public:
  TreeCompiler(const ConditionalModel* model, SamplingPlan* plan,
               const SamplingPlanOptions& options)
      : plan_(plan),
        n_(model->num_columns()),
        cap_(std::max<size_t>(options.max_group_width, 1)) {
    desc_.reserve(plan->queries.size());
    for (const QueryPlan& qp : plan->queries) {
      desc_.push_back(PositionDescriptors(model, qp));
    }
  }

  /// Recursively cuts the budget class into clusters of at most `cap_`
  /// queries (splitting at trie fork points, greedily re-packing small
  /// sibling clusters so stacked GEMMs stay wide), then builds one trie
  /// per cluster.
  void EmitTreeClass(const std::vector<size_t>& indices) {
    for (const std::vector<size_t>& cluster : SplitCluster(indices, 0)) {
      EmitTrie(cluster);
    }
  }

 private:
  std::vector<std::vector<size_t>> SplitCluster(
      const std::vector<size_t>& members, size_t col) const {
    if (members.size() <= cap_) return {members};
    const size_t brk = SegmentEnd(plan_->queries, desc_, members, col, n_);
    std::vector<size_t> terminals;
    std::vector<std::vector<size_t>> parts;
    SplitAtBreak(plan_->queries, desc_, members, brk, n_, &terminals, &parts);
    // Units: cap-sized chunks of the terminals, then each sub-part cut
    // recursively. All units share the walk over [col, brk), so greedy
    // first-fit packing of consecutive units keeps GEMMs wide without
    // ever fusing what the trie would not.
    std::vector<std::vector<size_t>> units;
    for (size_t at = 0; at < terminals.size(); at += cap_) {
      const size_t take = std::min(cap_, terminals.size() - at);
      units.emplace_back(terminals.begin() + static_cast<ptrdiff_t>(at),
                         terminals.begin() + static_cast<ptrdiff_t>(at + take));
    }
    for (const std::vector<size_t>& part : parts) {
      std::vector<std::vector<size_t>> sub = SplitCluster(part, brk);
      for (auto& s : sub) units.push_back(std::move(s));
    }
    std::vector<std::vector<size_t>> bins;
    for (std::vector<size_t>& unit : units) {
      if (!bins.empty() && bins.back().size() + unit.size() <= cap_) {
        bins.back().insert(bins.back().end(), unit.begin(), unit.end());
      } else {
        bins.push_back(std::move(unit));
      }
    }
    return bins;
  }

  /// Builds the trie over `cluster` and appends the finished tree.
  void EmitTrie(const std::vector<size_t>& cluster) {
    PlanTree tree;
    tree.members = cluster;
    BuildNode(&tree, cluster, 0);
    FinishTree(std::move(tree));
  }

  size_t BuildNode(PlanTree* tree, const std::vector<size_t>& members,
                   size_t col) const {
    const size_t id = tree->nodes.size();
    tree->nodes.emplace_back();
    const size_t end = SegmentEnd(plan_->queries, desc_, members, col, n_);
    std::vector<size_t> terminals;
    std::vector<std::vector<size_t>> parts;
    SplitAtBreak(plan_->queries, desc_, members, end, n_, &terminals, &parts);
    // Fill through the index: recursion below reallocates `nodes`.
    tree->nodes[id].begin = col;
    tree->nodes[id].end = end;
    tree->nodes[id].rep = members.front();
    tree->nodes[id].terminals = std::move(terminals);
    for (const std::vector<size_t>& part : parts) {
      const size_t child = BuildNode(tree, part, end);
      tree->nodes[id].children.push_back(child);
    }
    return id;
  }

  /// Budget and shape stats; appends to the plan.
  void FinishTree(PlanTree tree) {
    tree.num_samples = plan_->queries[tree.members.front()].num_samples;
    // Fork depth / fanout by one reverse pass (children follow parents).
    std::vector<size_t> depth(tree.nodes.size(), 0);
    for (size_t id = tree.nodes.size(); id > 0; --id) {
      const PlanTreeNode& node = tree.nodes[id - 1];
      size_t below = 0;
      for (size_t child : node.children) {
        below = std::max(below, depth[child]);
      }
      const size_t branches =
          node.children.size() + (node.terminals.empty() ? 0 : 1);
      depth[id - 1] = below + (branches >= 2 ? 1 : 0);
      tree.max_fanout =
          std::max(tree.max_fanout, std::max<size_t>(node.children.size(), 1));
    }
    if (!tree.nodes.empty()) tree.fork_depth = depth[0];
    plan_->trees.push_back(std::move(tree));
  }

  SamplingPlan* plan_;
  const size_t n_;
  const size_t cap_;
  std::vector<std::vector<std::string>> desc_;
};

}  // namespace

SamplingPlan CompileSamplingPlan(const ConditionalModel* model,
                                 const std::vector<const Query*>& queries,
                                 const SamplingPlanOptions& options) {
  SamplingPlan plan;
  plan.queries.reserve(queries.size());
  NARU_CHECK(options.budgets.empty() ||
             options.budgets.size() == queries.size());
  NARU_CHECK(options.deadlines.empty() ||
             options.deadlines.size() == queries.size());
  const size_t n = model->num_columns();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query* q = queries[qi];
    QueryPlan qp;
    qp.query = q;
    qp.num_samples = options.budgets.empty() ? 0 : options.budgets[qi];
    if (!options.deadlines.empty()) qp.deadline = options.deadlines[qi];
    qp.wildcard.resize(n);
    for (size_t pos = 0; pos < n; ++pos) {
      qp.wildcard[pos] = model->PositionIsWildcard(*q, pos) ? 1 : 0;
      if (!qp.wildcard[pos]) qp.last_col = static_cast<int>(pos);
    }
    NARU_CHECK(qp.last_col >= 0);  // plans carry sampled queries only
    plan.queries.push_back(std::move(qp));
  }
  const size_t m = plan.queries.size();
  if (m == 0) return plan;

  TreeCompiler compiler(model, &plan, options);

  // Partition by sample budget first — a tree's shared walk segments and
  // shard layout are functions of the budget, so cross-budget fusion is
  // impossible by construction. Classes run in ascending-budget order
  // (deterministic); with one class this is exactly the budget-free path.
  std::vector<size_t> budgets_seen;
  for (const auto& qp : plan.queries) budgets_seen.push_back(qp.num_samples);
  std::sort(budgets_seen.begin(), budgets_seen.end());
  budgets_seen.erase(std::unique(budgets_seen.begin(), budgets_seen.end()),
                     budgets_seen.end());
  std::vector<size_t> class_indices;
  for (const size_t budget : budgets_seen) {
    class_indices.clear();
    for (size_t qi = 0; qi < m; ++qi) {
      if (plan.queries[qi].num_samples == budget) class_indices.push_back(qi);
    }
    compiler.EmitTreeClass(class_indices);
  }
  return plan;
}

}  // namespace naru
