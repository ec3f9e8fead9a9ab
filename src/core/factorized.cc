#include "core/factorized.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace naru {

FactorizedLayout FactorizedLayout::Build(
    const std::vector<size_t>& table_domains, size_t threshold) {
  NARU_CHECK(threshold >= 2);
  FactorizedLayout layout;
  layout.table_domains_ = table_domains;
  layout.split_.assign(table_domains.size(), 0);
  for (size_t c = 0; c < table_domains.size(); ++c) {
    const size_t d = table_domains[c];
    NARU_CHECK(d >= 1);
    if (d <= threshold) {
      Position p;
      p.table_col = c;
      p.domain = d;
      layout.positions_.push_back(p);
      continue;
    }
    // shift = half the bit width: both sub-domains land near sqrt(d).
    size_t bits = 0;
    while ((size_t{1} << bits) < d) ++bits;
    const size_t shift = (bits + 1) / 2;
    const size_t block = size_t{1} << shift;
    Position hi;
    hi.table_col = c;
    hi.domain = (d + block - 1) / block;
    hi.shift = shift;
    hi.is_high = true;
    Position lo;
    lo.table_col = c;
    lo.domain = block;
    lo.shift = shift;
    lo.is_low = true;
    layout.positions_.push_back(hi);
    layout.positions_.push_back(lo);
    layout.split_[c] = 1;
  }
  return layout;
}

std::vector<size_t> FactorizedLayout::position_domains() const {
  std::vector<size_t> out(positions_.size());
  for (size_t i = 0; i < positions_.size(); ++i) out[i] = positions_[i].domain;
  return out;
}

void FactorizedLayout::EncodeRow(const int32_t* table_codes,
                                 int32_t* model_codes) const {
  for (size_t i = 0; i < positions_.size(); ++i) {
    const Position& p = positions_[i];
    const int32_t v = table_codes[p.table_col];
    if (p.is_high) {
      model_codes[i] = v >> p.shift;
    } else if (p.is_low) {
      model_codes[i] = v & static_cast<int32_t>((1u << p.shift) - 1);
    } else {
      model_codes[i] = v;
    }
  }
}

void FactorizedLayout::DecodeRow(const int32_t* model_codes,
                                 int32_t* table_codes) const {
  for (size_t i = 0; i < positions_.size(); ++i) {
    const Position& p = positions_[i];
    if (p.is_high) {
      // The matching low position follows immediately (Build invariant).
      table_codes[p.table_col] =
          (model_codes[i] << p.shift) | model_codes[i + 1];
    } else if (!p.is_low) {
      table_codes[p.table_col] = model_codes[i];
    }
  }
}

void FactorizedModel::LogProbRows(const IntMatrix& tuples,
                                  std::vector<double>* out_nats) {
  NARU_CHECK(tuples.cols() == num_table_columns());
  buf_.Resize(tuples.rows(), num_columns());
  for (size_t r = 0; r < tuples.rows(); ++r) {
    layout_.EncodeRow(tuples.Row(r), buf_.Row(r));
  }
  cond_->LogProbRows(buf_, out_nats);
}

double FactorizedModel::ForwardBackward(const IntMatrix& codes) {
  NARU_CHECK(codes.cols() == num_table_columns());
  buf_.Resize(codes.rows(), num_columns());
  for (size_t r = 0; r < codes.rows(); ++r) {
    layout_.EncodeRow(codes.Row(r), buf_.Row(r));
  }
  return train_->ForwardBackward(buf_);
}

bool FactorizedModel::PositionIsWildcard(const Query& query,
                                         size_t pos) const {
  const Position& p = layout_.position(pos);
  const ValueSet& region = query.region(p.table_col);
  if (!region.IsAll()) return false;
  if (!p.is_low) return true;  // unsplit or high: every sub-code is valid
  // A wildcard low position is only mask-free when the domain fills the
  // last high block exactly; otherwise codes >= D must be excluded.
  const size_t d = layout_.table_domain(p.table_col);
  return (d & ((size_t{1} << p.shift) - 1)) == 0;
}

double FactorizedModel::MaskHigh(const ValueSet& region, const Position& p,
                                 float* probs_row) const {
  const size_t dh = p.domain;
  switch (region.kind()) {
    case ValueSet::Kind::kAll: {
      double mass = 0;
      for (size_t v = 0; v < dh; ++v) mass += probs_row[v];
      return mass;
    }
    case ValueSet::Kind::kInterval: {
      const int64_t lo = region.lo() >> p.shift;
      const int64_t hi = region.hi() >> p.shift;
      double mass = 0;
      for (int64_t v = 0; v < static_cast<int64_t>(dh); ++v) {
        if (v < lo || v > hi) {
          probs_row[v] = 0.0f;
        } else {
          mass += probs_row[v];
        }
      }
      return mass;
    }
    case ValueSet::Kind::kSet: {
      // The codes are sorted, so their high parts are non-decreasing: one
      // cursor walks them beside v.
      const std::vector<int32_t>& codes = region.codes();
      size_t k = 0;
      double mass = 0;
      for (size_t v = 0; v < dh; ++v) {
        while (k < codes.size() &&
               (static_cast<size_t>(codes[k]) >> p.shift) < v) {
          ++k;
        }
        if (k < codes.size() &&
            (static_cast<size_t>(codes[k]) >> p.shift) == v) {
          mass += probs_row[v];
        } else {
          probs_row[v] = 0.0f;
        }
      }
      return mass;
    }
  }
  return 0;
}

double FactorizedModel::MaskLow(const ValueSet& region, const Position& p,
                                int32_t high, float* probs_row) const {
  const int64_t block = int64_t{1} << p.shift;
  const int64_t base = static_cast<int64_t>(high) << p.shift;
  const int64_t d = static_cast<int64_t>(layout_.table_domain(p.table_col));
  // Validity bound: re-joined codes must stay below the table domain.
  const int64_t vmax = std::min(block, d - base);  // exclusive
  int64_t lo = 0, hi = vmax - 1;                   // inclusive window
  switch (region.kind()) {
    case ValueSet::Kind::kAll:
      break;
    case ValueSet::Kind::kInterval:
      lo = std::max<int64_t>(lo, region.lo() - base);
      hi = std::min<int64_t>(hi, region.hi() - base);
      break;
    case ValueSet::Kind::kSet: {
      // Walk the sorted codes of this block, [base, base + vmax), beside v.
      const std::vector<int32_t>& codes = region.codes();
      auto it = std::lower_bound(codes.begin(), codes.end(), base);
      double mass = 0;
      for (int64_t v = 0; v < block; ++v) {
        if (it != codes.end() && v < vmax && *it - base == v) {
          mass += probs_row[v];
          ++it;
        } else {
          probs_row[v] = 0.0f;
        }
      }
      return mass;
    }
  }
  double mass = 0;
  for (int64_t v = 0; v < block; ++v) {
    if (v < lo || v > hi) {
      probs_row[v] = 0.0f;
    } else {
      mass += probs_row[v];
    }
  }
  return mass;
}

double FactorizedModel::MaskProbsToRegion(const Query& query,
                                          const int32_t* prefix, size_t pos,
                                          float* probs_row) const {
  const Position& p = layout_.position(pos);
  const ValueSet& region = query.region(p.table_col);
  if (p.is_high) return MaskHigh(region, p, probs_row);
  if (p.is_low) {
    // The high position immediately precedes this one (Build invariant),
    // so the sampled high part is the previous prefix entry.
    return MaskLow(region, p, prefix[pos - 1], probs_row);
  }
  return region.MaskProbs(probs_row);
}

int32_t FactorizedModel::FallbackCode(const Query& query, size_t pos) const {
  const Position& p = layout_.position(pos);
  const ValueSet& region = query.region(p.table_col);
  if (p.is_low) return 0;  // valid for every sampled high part
  if (p.is_high) {
    if (region.IsAll() || region.IsEmpty()) return 0;
    return region.NthCode(0) >> p.shift;
  }
  return region.IsEmpty() ? 0 : region.NthCode(0);
}

}  // namespace naru
