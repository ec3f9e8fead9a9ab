// The in-repo exp against libm, and SoftmaxRows against its reference loop.
//
// ExpfFma reproduces the bits of glibc's FMA-build expf, which is what
// std::exp(float) returns on an x86-64 glibc host with AVX2 and FMA. The
// sweep checks that claim on every non-positive float (the only inputs
// softmax gives it: x - max <= 0), through both the scalar and the
// 4-lane entry point. Where the fast path is off, the sweep is skipped
// with the reason; SoftmaxRows then runs the reference loop itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "tensor/kernel.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/random.h"

namespace naru {
namespace {

float FromBits(uint32_t bits) {
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

uint32_t ToBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Bits of every non-positive float: -0 (0x80000000) up to -inf
// (0xff800000), 2,139,095,041 values.
constexpr uint64_t kSweepFirst = 0x80000000u;
constexpr uint64_t kSweepLast = 0xff800000u;

TEST(Expf, MatchesLibmOnEveryNonPositiveFloat) {
  if (!FastExpfEnabled()) {
    GTEST_SKIP() << "fast exp off here (" << SimdDispatchString()
                 << ", or libm failed the probe): SoftmaxRows uses "
                    "std::exp, so there is nothing to compare";
  }
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  const uint64_t count = kSweepLast - kSweepFirst + 1;
  // Contiguous slices, each a multiple of 4 long but the last, so the
  // 4-lane path sees consecutive inputs.
  const uint64_t per = ((count + threads - 1) / threads + 3) / 4 * 4;
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint32_t> first_bad{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const uint64_t lo = kSweepFirst + per * t;
      const uint64_t hi = std::min(kSweepLast + 1, lo + per);
      uint64_t bad = 0;
      uint32_t bad_bits = 0;
      if (lo < hi) checked.fetch_add(hi - lo, std::memory_order_relaxed);
      for (uint64_t b = lo; b < hi; b += 4) {
        float x[4];
        float want[4];
        const int lanes = static_cast<int>(std::min<uint64_t>(4, hi - b));
        for (int i = 0; i < 4; ++i) {
          x[i] = FromBits(static_cast<uint32_t>(i < lanes ? b + i : b));
          want[i] = std::exp(x[i]);
        }
        float got4[4];
        ExpfFma4(x, got4);
        for (int i = 0; i < lanes; ++i) {
          const uint32_t w = ToBits(want[i]);
          if (ToBits(ExpfFma(x[i])) != w || ToBits(got4[i]) != w) {
            if (bad++ == 0) bad_bits = ToBits(x[i]);
          }
        }
      }
      if (bad > 0) {
        mismatches.fetch_add(bad, std::memory_order_relaxed);
        first_bad.store(bad_bits, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : pool) th.join();
  std::printf("expf sweep: %llu non-positive floats on %u threads, "
              "%llu mismatches\n",
              static_cast<unsigned long long>(count), threads,
              static_cast<unsigned long long>(mismatches.load()));
  EXPECT_EQ(checked.load(), count);
  EXPECT_EQ(mismatches.load(), 0u)
      << "e.g. at bits 0x" << std::hex << first_bad.load();
}

TEST(Expf, GivesTheFmaBuildBitsAtTheProbeInput) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2+FMA here (" << SimdDispatchString() << ")";
  }
  // glibc's FMA build gives 0x11fa2993 here and its non-FMA build
  // 0x11fa2992. The in-repo exp must give the FMA build's bits whatever
  // this host's libm does; the libm's answer only decides whether the
  // fast path may run. A volatile read keeps the compiler from folding
  // std::exp of the constant.
  volatile uint32_t bits = 0xc27c65d9u;
  const float x = FromBits(bits);
  const float xs[4] = {x, x, x, x};
  float got4[4];
  ExpfFma4(xs, got4);
  EXPECT_EQ(ToBits(ExpfFma(x)), 0x11fa2993u);
  EXPECT_EQ(ToBits(got4[0]), 0x11fa2993u);
  const uint32_t libm = ToBits(std::exp(x));
  std::printf("libm exp(-0x1.f8cbb2p+5) = 0x%08x, fast exp %s\n", libm,
              FastExpfEnabled() ? "on" : "off");
  if (libm != 0x11fa2993u) {
    EXPECT_FALSE(FastExpfEnabled());
  } else {
    // A libm that looks like the FMA build and a probe that still turns
    // the fast path off means the in-repo exp is wrong somewhere on the
    // probe set (or the libm is a new scheme worth a look).
    EXPECT_TRUE(FastExpfEnabled());
  }
}

// The softmax loop as it stood before the fast path: ascending std::max
// chain, std::exp, ascending double sum, float reciprocal.
void ReferenceSoftmax(const Matrix& logits, Matrix* probs) {
  probs->Resize(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* out = probs->Row(r);
    const size_t n = logits.cols();
    float mx = in[0];
    for (size_t i = 1; i < n; ++i) mx = std::max(mx, in[i]);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      const float e = std::exp(in[i] - mx);
      out[i] = e;
      sum += e;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t i = 0; i < n; ++i) out[i] *= inv;
  }
}

enum class RowKind {
  kRandom,
  kNanFirst,
  kNanLater,
  kPosInf,
  kNegInf,
  kAllNegInf,
  kFarBelow,
  kAllEqual,
  kSignedZeros,
  kCount,
};

void FillRow(RowKind kind, size_t n, Rng* rng, float* row) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  for (size_t i = 0; i < n; ++i) {
    row[i] = static_cast<float>(4.0 * rng->Gaussian());
  }
  const size_t at = rng->UniformInt(n);
  switch (kind) {
    case RowKind::kRandom:
    case RowKind::kCount:
      break;
    case RowKind::kNanFirst:
      row[0] = kNan;
      break;
    case RowKind::kNanLater:
      row[n > 1 ? 1 + rng->UniformInt(n - 1) : 0] = kNan;
      break;
    case RowKind::kPosInf:
      row[at] = kInf;
      break;
    case RowKind::kNegInf:
      row[at] = -kInf;
      break;
    case RowKind::kAllNegInf:
      std::fill(row, row + n, -kInf);
      break;
    case RowKind::kFarBelow:
      // exp(x - max) for x - max below -87, -88 and -104: the std::exp
      // lanes, including results that are subnormal or 0.
      for (size_t i = 0; i < n; ++i) {
        row[i] = i % 3 == 0 ? 0.0f : -87.0f - static_cast<float>(i % 23);
      }
      row[at] = 1.0f;
      break;
    case RowKind::kAllEqual:
      std::fill(row, row + n, -2.5f);
      break;
    case RowKind::kSignedZeros:
      for (size_t i = 0; i < n; ++i) {
        row[i] = (i % 2 == 0) ? -0.0f : 0.0f;
        if (i % 5 == 4) row[i] = -1.0f;
      }
      break;
  }
}

// Equal bits, or NaN on both sides (NaN payloads are not part of the
// contract).
bool SameFloat(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return ToBits(a) == ToBits(b);
}

void ExpectSoftmaxMatchesReference() {
  Rng rng(20);
  std::vector<size_t> widths;
  for (size_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.push_back(1175);
  size_t checked = 0;
  for (size_t n : widths) {
    for (size_t rows = 1; rows <= 9; ++rows) {
      Matrix logits(rows, n);
      for (size_t r = 0; r < rows; ++r) {
        const auto kind = static_cast<RowKind>(
            (r + n) % static_cast<size_t>(RowKind::kCount));
        FillRow(kind, n, &rng, logits.Row(r));
      }
      Matrix want;
      ReferenceSoftmax(logits, &want);
      Matrix got;
      SoftmaxRows(logits, &got);
      Matrix in_place = logits;
      SoftmaxRows(in_place, &in_place);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < got.stride(); ++c) {
          const float w = c < n ? want.Row(r)[c] : 0.0f;
          ASSERT_TRUE(SameFloat(got.Row(r)[c], w))
              << "n=" << n << " rows=" << rows << " r=" << r << " c=" << c
              << ": " << got.Row(r)[c] << " vs " << w;
          ASSERT_TRUE(SameFloat(in_place.Row(r)[c], w))
              << "in place, n=" << n << " rows=" << rows << " r=" << r
              << " c=" << c;
        }
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, widths.size() * 9);
}

TEST(SoftmaxRows, MatchesReferenceLoopNatively) {
  std::printf("%s, fast exp %s\n", SimdDispatchString().c_str(),
              FastExpfEnabled() ? "on" : "off");
  ExpectSoftmaxMatchesReference();
}

TEST(SoftmaxRows, MatchesReferenceLoopOnPortableFallback) {
  SetSimdLevelOverrideForTest(SimdLevel::kNone);
  EXPECT_FALSE(FastExpfEnabled());
  ExpectSoftmaxMatchesReference();
  ClearSimdLevelOverrideForTest();
}

}  // namespace
}  // namespace naru
