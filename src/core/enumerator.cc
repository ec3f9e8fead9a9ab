#include "core/enumerator.h"

#include <cmath>
#include <limits>
#include <vector>

namespace naru {

double EnumerateSelectivity(ConditionalModel* model, const Query& query,
                            size_t batch, WalkControl* control) {
  NARU_CHECK(query.num_columns() == model->num_table_columns());
  if (query.HasEmptyRegion()) return 0.0;
  const size_t n = model->num_table_columns();

  // Odometer over the per-column regions, in code order.
  std::vector<size_t> counts(n);
  std::vector<size_t> idx(n, 0);
  for (size_t c = 0; c < n; ++c) counts[c] = query.region(c).Count();

  IntMatrix tuples(batch, n);
  std::vector<double> log_probs;
  double total = 0;
  size_t filled = 0;
  bool done = false;
  bool stopped = false;

  // Checked before each LogProbRows batch — between kernels, mirroring
  // the sampler's between-column-steps checks.
  auto flush = [&]() {
    if (filled == 0) return;
    if (control != nullptr && control->ShouldStop()) {
      stopped = true;
      filled = 0;
      return;
    }
    IntMatrix chunk(filled, n);
    for (size_t r = 0; r < filled; ++r) {
      for (size_t c = 0; c < n; ++c) chunk.At(r, c) = tuples.At(r, c);
    }
    model->LogProbRows(chunk, &log_probs);
    for (double lp : log_probs) total += std::exp(lp);
    filled = 0;
  };

  while (!done && !stopped) {
    for (size_t c = 0; c < n; ++c) {
      tuples.At(filled, c) = query.region(c).NthCode(idx[c]);
    }
    ++filled;
    if (filled == batch) flush();
    // Advance the odometer (last column fastest).
    size_t c = n;
    while (c-- > 0) {
      if (++idx[c] < counts[c]) break;
      idx[c] = 0;
      if (c == 0) done = true;
    }
  }
  flush();
  if (stopped) return std::numeric_limits<double>::quiet_NaN();
  return total;
}

double EstimateEnumerationSeconds(const Query& query,
                                  double points_per_second) {
  NARU_CHECK(points_per_second > 0);
  const double log10_points = query.Log10RegionSize();
  return std::pow(10.0, log10_points) / points_per_second;
}

}  // namespace naru
