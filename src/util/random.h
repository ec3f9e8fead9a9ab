// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (dataset generators, workload
// generators, weight init, samplers) draw from naru::Rng so that runs are
// reproducible given a seed. The engine is xoshiro256++, a small, fast,
// high-quality non-cryptographic PRNG.
#pragma once

#include <cstdint>
#include <vector>

#include "util/macros.h"

namespace naru {

/// xoshiro256++ PRNG with convenience distributions.
///
/// Not thread-safe; use one Rng per thread (see Rng::Fork for deriving
/// independent per-thread streams).
class Rng {
 public:
  /// Seeds the engine. Any seed (including 0) is valid.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  uint64_t Next();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Samples an index proportional to the (non-negative) weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const double* weights, size_t n);
  size_t Categorical(const std::vector<double>& weights) {
    return Categorical(weights.data(), weights.size());
  }
  /// Float-weight overload (used for sampling from model softmax rows).
  size_t Categorical(const float* weights, size_t n);
  /// The same draw with the weights' total supplied by the caller. It
  /// gives the overload above's result only when `total` has the bits of
  /// that overload's sum: the ascending chain of double adds of
  /// weights[0..n) from +0.
  size_t Categorical(const float* weights, size_t n, double total);

  /// Zipf-distributed integer in [0, n) with exponent `s` (s=0 is uniform).
  /// Uses an O(n) precomputed table-free rejection-less inverse-CDF on first
  /// call per (n, s) -- callers that need many draws should use ZipfTable.
  size_t Zipf(size_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child stream (for per-thread use).
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Precomputed Zipf sampler: cumulative weights w_k = 1/(k+1)^s over [0, n).
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);
  /// Draws one Zipf-distributed index in [0, n).
  size_t Sample(Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace naru
