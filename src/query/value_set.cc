#include "query/value_set.h"

#include <algorithm>

#include "util/string_util.h"

namespace naru {

ValueSet ValueSet::All(size_t domain) {
  ValueSet s;
  s.kind_ = Kind::kAll;
  s.domain_ = domain;
  return s;
}

ValueSet ValueSet::Interval(size_t domain, int64_t lo, int64_t hi) {
  ValueSet s;
  s.domain_ = domain;
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, static_cast<int64_t>(domain) - 1);
  if (lo == 0 && hi == static_cast<int64_t>(domain) - 1) {
    s.kind_ = Kind::kAll;
    return s;
  }
  s.kind_ = Kind::kInterval;
  s.lo_ = lo;
  s.hi_ = hi;
  return s;
}

ValueSet ValueSet::Set(size_t domain, std::vector<int32_t> codes) {
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  // Clip out-of-domain codes.
  while (!codes.empty() && codes.back() >= static_cast<int64_t>(domain)) {
    codes.pop_back();
  }
  codes.erase(codes.begin(), std::lower_bound(codes.begin(), codes.end(), 0));
  if (codes.size() == domain) return All(domain);
  ValueSet s;
  s.kind_ = Kind::kSet;
  s.domain_ = domain;
  s.codes_ = std::move(codes);
  return s;
}

ValueSet ValueSet::Empty(size_t domain) {
  return Interval(domain, 0, -1);
}

size_t ValueSet::Count() const {
  switch (kind_) {
    case Kind::kAll:
      return domain_;
    case Kind::kInterval:
      return hi_ >= lo_ ? static_cast<size_t>(hi_ - lo_ + 1) : 0;
    case Kind::kSet:
      return codes_.size();
  }
  return 0;
}

bool ValueSet::Contains(int32_t code) const {
  switch (kind_) {
    case Kind::kAll:
      return code >= 0 && static_cast<size_t>(code) < domain_;
    case Kind::kInterval:
      return code >= lo_ && code <= hi_;
    case Kind::kSet:
      return std::binary_search(codes_.begin(), codes_.end(), code);
  }
  return false;
}

int32_t ValueSet::NthCode(size_t k) const {
  NARU_DCHECK(k < Count());
  switch (kind_) {
    case Kind::kAll:
      return static_cast<int32_t>(k);
    case Kind::kInterval:
      return static_cast<int32_t>(lo_ + static_cast<int64_t>(k));
    case Kind::kSet:
      return codes_[k];
  }
  return 0;
}

ValueSet ValueSet::Intersect(const ValueSet& other) const {
  NARU_CHECK(domain_ == other.domain_);
  if (IsAll()) return other;
  if (other.IsAll()) return *this;
  if (kind_ == Kind::kInterval && other.kind_ == Kind::kInterval) {
    return Interval(domain_, std::max(lo_, other.lo_),
                    std::min(hi_, other.hi_));
  }
  // At least one side is a set: filter its codes through the other side.
  const ValueSet& set_side = kind_ == Kind::kSet ? *this : other;
  const ValueSet& filter = kind_ == Kind::kSet ? other : *this;
  std::vector<int32_t> out;
  for (int32_t c : set_side.codes_) {
    if (filter.Contains(c)) out.push_back(c);
  }
  return Set(domain_, std::move(out));
}

double ValueSet::MaskProbs(float* probs) const {
  double mass = 0;
  switch (kind_) {
    case Kind::kAll: {
      for (size_t i = 0; i < domain_; ++i) mass += probs[i];
      return mass;
    }
    case Kind::kInterval: {
      const size_t lo = hi_ >= lo_ ? static_cast<size_t>(lo_) : domain_;
      const size_t hi =
          hi_ >= lo_ ? static_cast<size_t>(hi_) : 0;  // inclusive
      for (size_t i = 0; i < domain_; ++i) {
        if (i < lo || i > hi) {
          probs[i] = 0.0f;
        } else {
          mass += probs[i];
        }
      }
      return mass;
    }
    case Kind::kSet: {
      size_t k = 0;
      for (size_t i = 0; i < domain_; ++i) {
        if (k < codes_.size() && static_cast<int32_t>(i) == codes_[k]) {
          mass += probs[i];
          ++k;
        } else {
          probs[i] = 0.0f;
        }
      }
      return mass;
    }
  }
  return mass;
}

std::string ValueSet::ToString() const {
  switch (kind_) {
    case Kind::kAll:
      return "*";
    case Kind::kInterval:
      if (Count() == 0) return "{}";
      return StrFormat("[%lld, %lld]", static_cast<long long>(lo_),
                       static_cast<long long>(hi_));
    case Kind::kSet:
      return StrFormat("{%zu codes}", codes_.size());
  }
  return "?";
}

}  // namespace naru
