#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace naru {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to expand the seed into the xoshiro state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t n) {
  NARU_DCHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  NARU_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Gaussian() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

size_t Rng::Categorical(const double* weights, size_t n) {
  NARU_DCHECK(n > 0);
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  NARU_CHECK_MSG(total > 0, "Categorical requires positive total weight");
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  // Fall through on floating-point slack: return last positive-weight index.
  for (size_t i = n; i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return n - 1;
}

size_t Rng::Categorical(const float* weights, size_t n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  return Categorical(weights, n, total);
}

size_t Rng::Categorical(const float* weights, size_t n, double total) {
  NARU_DCHECK(n > 0);
  NARU_CHECK_MSG(total > 0, "Categorical requires positive total weight");
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  for (size_t i = n; i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return n - 1;
}

size_t Rng::Zipf(size_t n, double s) {
  NARU_DCHECK(n > 0);
  // Direct inverse-CDF scan; fine for the occasional draw.
  double total = 0;
  for (size_t k = 0; k < n; ++k) total += 1.0 / std::pow(k + 1.0, s);
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1.0, s);
    if (r < acc) return k;
  }
  return n - 1;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

ZipfTable::ZipfTable(size_t n, double s) {
  NARU_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1.0, s);
    cdf_[k] = acc;
  }
}

size_t ZipfTable::Sample(Rng* rng) const {
  double r = rng->UniformDouble() * cdf_.back();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace naru
