#include "core/oracle_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace naru {

namespace {

// Fills one probs row with the smoothed conditional from a count histogram.
void WriteSmoothedRow(const std::vector<int64_t>& counts, int64_t total,
                      double lambda, float* row, size_t domain) {
  const double uniform = lambda / static_cast<double>(domain);
  if (total <= 0) {
    // No supporting rows for this prefix: the data conditional is taken as
    // uniform, so the smoothed conditional is uniform too.
    const float u = 1.0f / static_cast<float>(domain);
    for (size_t v = 0; v < domain; ++v) row[v] = u;
    return;
  }
  const double scale = (1.0 - lambda) / static_cast<double>(total);
  for (size_t v = 0; v < domain; ++v) {
    row[v] =
        static_cast<float>(static_cast<double>(counts[v]) * scale + uniform);
  }
}

// Groups of sample paths sharing an identical sampled prefix; each group
// holds the table rows matching that prefix. Groups' row sets are disjoint.
struct PathGroup {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> paths;
};

class OracleSession : public SamplingSession {
 public:
  OracleSession(const Table* table, double lambda)
      : table_(table), lambda_(lambda) {}

  void Dist(const IntMatrix& samples, size_t col, Matrix* probs) override {
    const size_t batch = samples.rows();
    if (col == 0) {
      // One root group: all paths, all rows.
      groups_.clear();
      PathGroup root;
      root.rows.resize(table_->num_rows());
      for (size_t r = 0; r < table_->num_rows(); ++r) {
        root.rows[r] = static_cast<uint32_t>(r);
      }
      root.paths.resize(batch);
      for (size_t p = 0; p < batch; ++p) {
        root.paths[p] = static_cast<uint32_t>(p);
      }
      groups_.push_back(std::move(root));
    } else {
      RefineGroups(samples, col - 1);
    }

    const size_t domain = table_->column(col).DomainSize();
    probs->Resize(batch, domain);
    std::vector<int64_t> counts(domain);
    const Column& column = table_->column(col);
    for (const auto& g : groups_) {
      std::fill(counts.begin(), counts.end(), 0);
      for (uint32_t r : g.rows) ++counts[static_cast<size_t>(column.code(r))];
      // Compute the shared smoothed row once, copy to each member path.
      std::vector<float> shared(domain);
      WriteSmoothedRow(counts, static_cast<int64_t>(g.rows.size()), lambda_,
                       shared.data(), domain);
      for (uint32_t p : g.paths) {
        std::copy(shared.begin(), shared.end(), probs->Row(p));
      }
    }
  }

  // A path keeps its prefix, hence its group: new path i joins old path
  // src[i]'s group. Groups left without paths are dropped.
  void Relayout(const std::vector<size_t>& src) override {
    if (groups_.empty()) return;  // before the first Dist
    std::vector<uint32_t> group_of;
    for (size_t g = 0; g < groups_.size(); ++g) {
      for (uint32_t p : groups_[g].paths) {
        if (p >= group_of.size()) group_of.resize(p + 1);
        group_of[p] = static_cast<uint32_t>(g);
      }
      groups_[g].paths.clear();
    }
    for (size_t i = 0; i < src.size(); ++i) {
      groups_[group_of[src[i]]].paths.push_back(static_cast<uint32_t>(i));
    }
    groups_.erase(std::remove_if(groups_.begin(), groups_.end(),
                                 [](const PathGroup& g) {
                                   return g.paths.empty();
                                 }),
                  groups_.end());
  }

 private:
  // Splits every group by the value its paths sampled for `split_col` and
  // filters the row lists accordingly.
  void RefineGroups(const IntMatrix& samples, size_t split_col) {
    const Column& column = table_->column(split_col);
    std::vector<PathGroup> next;
    for (auto& g : groups_) {
      // Partition member paths by sampled value.
      std::unordered_map<int32_t, std::vector<uint32_t>> by_value;
      for (uint32_t p : g.paths) {
        by_value[samples.At(p, split_col)].push_back(p);
      }
      if (by_value.size() == 1) {
        // Fast path: in-place row filtering, no list copy for paths.
        const int32_t v = by_value.begin()->first;
        auto& rows = g.rows;
        rows.erase(std::remove_if(rows.begin(), rows.end(),
                                  [&](uint32_t r) {
                                    return column.code(r) != v;
                                  }),
                   rows.end());
        next.push_back(std::move(g));
        continue;
      }
      // Bucket the rows by value once, then hand each bucket to its group.
      std::unordered_map<int32_t, std::vector<uint32_t>> rows_by_value;
      for (uint32_t r : g.rows) {
        const int32_t v = column.code(r);
        if (by_value.count(v) > 0) rows_by_value[v].push_back(r);
      }
      for (auto& [v, paths] : by_value) {
        PathGroup sub;
        sub.paths = std::move(paths);
        auto it = rows_by_value.find(v);
        if (it != rows_by_value.end()) sub.rows = std::move(it->second);
        next.push_back(std::move(sub));
      }
    }
    groups_ = std::move(next);
  }

  const Table* table_;
  double lambda_;
  std::vector<PathGroup> groups_;
};

}  // namespace

OracleModel::OracleModel(const Table* table, double smoothing_lambda)
    : table_(table), lambda_(smoothing_lambda) {
  NARU_CHECK(table_ != nullptr);
  NARU_CHECK(lambda_ >= 0.0 && lambda_ <= 1.0);
}

void OracleModel::ConditionalDist(const IntMatrix& samples, size_t col,
                                  Matrix* probs) {
  const size_t batch = samples.rows();
  const size_t domain = DomainSize(col);
  probs->Resize(batch, domain);
  std::vector<int64_t> counts(domain);
  const Column& column = table_->column(col);
  for (size_t s = 0; s < batch; ++s) {
    std::fill(counts.begin(), counts.end(), 0);
    int64_t total = 0;
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      bool match = true;
      for (size_t c = 0; c < col; ++c) {
        if (table_->column(c).code(r) != samples.At(s, c)) {
          match = false;
          break;
        }
      }
      if (match) {
        ++counts[static_cast<size_t>(column.code(r))];
        ++total;
      }
    }
    WriteSmoothedRow(counts, total, lambda_, probs->Row(s), domain);
  }
}

std::unique_ptr<SamplingSession> OracleModel::StartSession(size_t batch) {
  (void)batch;  // the root group takes its paths from the first Dist
  return std::make_unique<OracleSession>(table_, lambda_);
}

double OracleModel::CrossEntropyBits() const {
  // Walk columns left to right keeping groups of rows that share a prefix;
  // each row's -log2 P'(v | prefix) accumulates from its group's histogram.
  const size_t n = table_->num_rows();
  if (n == 0) return 0;
  std::vector<std::vector<uint32_t>> groups(1);
  groups[0].resize(n);
  for (size_t r = 0; r < n; ++r) groups[0][r] = static_cast<uint32_t>(r);

  double ce = 0;
  for (size_t col = 0; col < table_->num_columns(); ++col) {
    const Column& column = table_->column(col);
    const size_t domain = column.DomainSize();
    const double uniform = lambda_ / static_cast<double>(domain);
    std::vector<std::vector<uint32_t>> next;
    std::vector<int64_t> counts(domain);
    for (const auto& g : groups) {
      std::fill(counts.begin(), counts.end(), 0);
      for (uint32_t r : g) ++counts[static_cast<size_t>(column.code(r))];
      const double scale = (1.0 - lambda_) / static_cast<double>(g.size());
      // Accumulate each row's log-prob and split the group by value.
      std::unordered_map<int32_t, std::vector<uint32_t>> split;
      for (uint32_t r : g) {
        const int32_t v = column.code(r);
        const double p =
            static_cast<double>(counts[static_cast<size_t>(v)]) * scale +
            uniform;
        ce -= std::log2(std::max(p, 1e-300));
        split[v].push_back(r);
      }
      for (auto& [v, rows] : split) next.push_back(std::move(rows));
    }
    groups = std::move(next);
  }
  return ce / static_cast<double>(n);
}

double OracleModel::FindLambdaForGapBits(double target_gap_bits,
                                         double tol) const {
  NARU_CHECK(target_gap_bits >= 0);
  OracleModel probe(table_, 0.0);
  const double h_data = probe.CrossEntropyBits();  // λ=0 -> exact H(P)
  if (target_gap_bits <= tol) return 0.0;
  probe.set_smoothing_lambda(1.0);
  const double max_gap = probe.CrossEntropyBits() - h_data;
  if (target_gap_bits >= max_gap) return 1.0;
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    probe.set_smoothing_lambda(mid);
    const double gap = probe.CrossEntropyBits() - h_data;
    if (std::fabs(gap - target_gap_bits) <= tol) return mid;
    if (gap < target_gap_bits) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace naru
