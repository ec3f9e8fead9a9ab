#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernel.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define NARU_HAVE_X86_64 1
#else
#define NARU_HAVE_X86_64 0
#endif

namespace naru {

void ReluForward(const Matrix& in, Matrix* out) {
  if (out != &in) out->Resize(in.rows(), in.cols());
  const float* src = in.data();
  float* dst = out->data();
  const size_t n = in.size();
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void ReluBackward(const Matrix& x, const Matrix& dy, Matrix* dx) {
  NARU_CHECK(x.rows() == dy.rows() && x.cols() == dy.cols());
  if (dx != &dy) dx->Resize(dy.rows(), dy.cols());
  const float* xs = x.data();
  const float* dys = dy.data();
  float* dxs = dx->data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) dxs[i] = xs[i] > 0.0f ? dys[i] : 0.0f;
}

namespace {

// The softmax loop the fast path must reproduce bit for bit, and the one
// it falls back to: an ascending std::max chain, std::exp per entry, one
// ascending chain of double adds, one float reciprocal.
void SoftmaxRowLibm(const float* in, float* out, size_t n) {
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

#if NARU_HAVE_X86_64

// glibc's expf (the table-driven scheme of glibc >= 2.27, from Arm's
// optimized-routines) as its x86-64 FMA build computes it: with
// N = 32, x = (k + r) ln2 / N for an integer k and |r| <= 1/2, and
// exp(x) = 2^(k/N) * 2^(r/N). 2^(k/N) comes from the table entry k mod N
// with k / N added to its exponent field; 2^(r/N) is a degree-3
// polynomial. Everything runs in double and rounds to float once.
constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;
constexpr double kExpShift = 0x1.8p+52;  // rounds k to an integer in kd
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
// kExpTable[i] = bits(2^(i/32)) - (i << 47), so that adding ki << 47 for
// ki = k (mod 2^64) yields the bits of 2^(k/32).
alignas(64) constexpr uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// The fast path covers (-87, 0]; everything else (positive x, x <= -87
// where the result nears float's subnormal range, -inf, NaN) is left to
// std::exp itself.
constexpr float kExpFastLo = -87.0f;

bool ExpFastDomain(float x) { return x > kExpFastLo && x <= 0.0f; }

__attribute__((target("avx2,fma"))) float ExpfFmaKernel(float x) {
  const __m128d xd = _mm_set_sd(static_cast<double>(x));
  const __m128d inv = _mm_set_sd(kExpInvLn2N);
  const __m128d shift = _mm_set_sd(kExpShift);
  __m128d kd = _mm_fmadd_sd(inv, xd, shift);
  const uint64_t ki = static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_castpd_si128(kd)));
  kd = _mm_sub_sd(kd, shift);
  const __m128d r = _mm_fmsub_sd(inv, xd, kd);
  const __m128d s = _mm_castsi128_pd(
      _mm_cvtsi64_si128(static_cast<int64_t>(kExpTable[ki % 32] + (ki << 47))));
  const __m128d z = _mm_fmadd_sd(_mm_set_sd(kExpC0), r, _mm_set_sd(kExpC1));
  const __m128d r2 = _mm_mul_sd(r, r);
  __m128d y = _mm_fmadd_sd(_mm_set_sd(kExpC2), r, _mm_set_sd(1.0));
  y = _mm_fmadd_sd(z, r2, y);
  y = _mm_mul_sd(y, s);
  return _mm_cvtss_f32(_mm_cvtsd_ss(_mm_setzero_ps(), y));
}

// Four lanes of ExpfFmaKernel, same operations lane by lane.
__attribute__((target("avx2,fma"))) inline __m128 ExpfFmaKernel4(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv = _mm256_set1_pd(kExpInvLn2N);
  const __m256d shift = _mm256_set1_pd(kExpShift);
  __m256d kd = _mm256_fmadd_pd(inv, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv, xd, kd);
  const __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExpTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d z =
      _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  y = _mm256_mul_pd(y, s);
  return _mm256_cvtpd_ps(y);
}

// ExpfFmaKernel4 with lanes outside the fast domain redone by std::exp.
__attribute__((target("avx2,fma"))) inline __m128 ExpfFma4Lanes(__m128 x) {
  const __m128 in_domain =
      _mm_and_ps(_mm_cmpgt_ps(x, _mm_set1_ps(kExpFastLo)),
                 _mm_cmple_ps(x, _mm_setzero_ps()));
  __m128 y = ExpfFmaKernel4(x);
  const int fast = _mm_movemask_ps(in_domain);
  if (fast != 0xF) {
    alignas(16) float xs[4];
    alignas(16) float ys[4];
    _mm_store_ps(xs, x);
    _mm_store_ps(ys, y);
    for (int i = 0; i < 4; ++i) {
      if (((fast >> i) & 1) == 0) ys[i] = std::exp(xs[i]);
    }
    y = _mm_load_ps(ys);
  }
  return y;
}

// Lane mask selecting the first `m` (0..4) lanes.
__attribute__((target("avx2,fma"))) inline __m128i FirstLanes(size_t m) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(m)),
                         _mm_setr_epi32(0, 1, 2, 3));
}

// Row max as a vector max. It equals the std::max chain's up to the sign
// of a zero max, and x - (+0) == x - (-0) except for the sign of a zero
// result, whose exp is 1 either way. A row holding a NaN needs no chain
// either: its NaN reaches the row's sum, so every output of the row is
// NaN whatever the max is.
__attribute__((target("avx2,fma"))) float RowMaxAvx2(const float* in,
                                                     size_t n) {
  __m256 mx = _mm256_set1_ps(-INFINITY);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) mx = _mm256_max_ps(_mm256_loadu_ps(in + i), mx);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, mx);
  float m = lanes[0];
  for (int k = 1; k < 8; ++k) m = std::max(m, lanes[k]);
  for (; i < n; ++i) m = std::max(m, in[i]);
  return m;
}

// out[i] = exp(in[i] - max) for i < n. The row's sum is taken afterwards,
// beside three other rows' (SumRows4Avx2).
__attribute__((target("avx2,fma"))) void RowExpAvx2(const float* in,
                                                    float* out, size_t n) {
  const __m128 vmx = _mm_set1_ps(RowMaxAvx2(in, n));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  ExpfFma4Lanes(_mm_sub_ps(_mm_loadu_ps(in + i), vmx)));
  }
  if (i < n) {
    // Lanes past the row are set to 0 (a fast-domain input) and not
    // stored, so the padding keeps its zeros.
    const __m128i keep = FirstLanes(n - i);
    const __m128 x = _mm_sub_ps(_mm_maskload_ps(in + i, keep), vmx);
    const __m128 e = ExpfFma4Lanes(_mm_and_ps(x, _mm_castsi128_ps(keep)));
    _mm_maskstore_ps(out + i, keep, e);
  }
}

__attribute__((target("avx2,fma"))) void RowScaleAvx2(float* out, size_t n,
                                                      double sum) {
  const float inv = static_cast<float>(1.0 / sum);
  const __m256 vinv = _mm256_set1_ps(inv);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(out + i), vinv));
  }
  for (; i < n; ++i) out[i] *= inv;
}

// Sums four rows, each as its own ascending chain of double adds starting
// from +0 (the fallback's chain), one chain per lane of a 4-double
// vector: a 4x4 transpose turns four row chunks into four column steps.
// Lanes past the row load as +0, and adding +0 to the non-negative sum
// leaves it unchanged.
__attribute__((target("avx2,fma"))) void SumRows4Avx2(const float* const* rows,
                                                      size_t n,
                                                      double* sums) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t i = 0; i < n; i += 4) {
    __m128 c0, c1, c2, c3;
    if (i + 4 <= n) {
      c0 = _mm_loadu_ps(rows[0] + i);
      c1 = _mm_loadu_ps(rows[1] + i);
      c2 = _mm_loadu_ps(rows[2] + i);
      c3 = _mm_loadu_ps(rows[3] + i);
    } else {
      const __m128i keep = FirstLanes(n - i);
      c0 = _mm_maskload_ps(rows[0] + i, keep);
      c1 = _mm_maskload_ps(rows[1] + i, keep);
      c2 = _mm_maskload_ps(rows[2] + i, keep);
      c3 = _mm_maskload_ps(rows[3] + i, keep);
    }
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c0));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c1));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c2));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(c3));
  }
  _mm256_storeu_pd(sums, acc);
}

void SoftmaxRowsAvx2(const Matrix& logits, Matrix* probs) {
  const size_t n = logits.cols();
  const size_t rows = logits.rows();
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    float* out[4];
    for (size_t k = 0; k < 4; ++k) {
      out[k] = probs->Row(r + k);
      RowExpAvx2(logits.Row(r + k), out[k], n);
    }
    double sums[4];
    SumRows4Avx2(out, n, sums);
    for (size_t k = 0; k < 4; ++k) RowScaleAvx2(out[k], n, sums[k]);
  }
  for (; r < rows; ++r) {
    float* out = probs->Row(r);
    RowExpAvx2(logits.Row(r), out, n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) sum += out[i];
    RowScaleAvx2(out, n, sum);
  }
}

// Inputs the probe checks against std::exp: both zeros, the ends of the
// fast domain, table and rounding boundaries, and -0x1.f8cbb2p+5, the one
// input in [-88, 0] where glibc's non-FMA build gives different bits
// (0x11fa2992 rather than the FMA build's 0x11fa2993).
constexpr uint32_t kExpProbeBits[] = {
    0x00000000, 0x80000000, 0xc27c65d9, 0xbf800000, 0xbf000000,
    0xbf317218, 0xbe800000, 0xb3800000, 0x80000001, 0xc2ad0000,
    0xc2adffff, 0xc2ae0000, 0xc1200000, 0xc0a00000, 0xc2a00000,
    0xc2b00000, 0xc2c80000, 0xff800000, 0xbd000000, 0xc2480000,
    0xffc00000,
};

bool ProbeExpfMatchesLibm() {
  for (uint32_t bits : kExpProbeBits) {
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    // A volatile read keeps the compiler from folding std::exp of a
    // constant (it would fold to the correctly rounded value, which is
    // not what libm returns for every input).
    volatile float vx = x;
    const float want = std::exp(static_cast<float>(vx));
    const float xs[4] = {x, x, x, x};
    float got4[4];
    ExpfFma4(xs, got4);
    for (float got : {ExpfFma(x), got4[0], got4[3]}) {
      if (std::memcmp(&got, &want, sizeof(got)) != 0) return false;
    }
  }
  return true;
}

#endif  // NARU_HAVE_X86_64

}  // namespace

#if NARU_HAVE_X86_64

float ExpfFma(float x) {
  return ExpFastDomain(x) ? ExpfFmaKernel(x) : std::exp(x);
}

__attribute__((target("avx2,fma"))) void ExpfFma4(const float* x,
                                                  float* out) {
  _mm_storeu_ps(out, ExpfFma4Lanes(_mm_loadu_ps(x)));
}

bool FastExpfEnabled() {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) return false;
  static const bool matches = ProbeExpfMatchesLibm();
  return matches;
}

#else

float ExpfFma(float x) { return std::exp(x); }

void ExpfFma4(const float* x, float* out) {
  for (int i = 0; i < 4; ++i) out[i] = std::exp(x[i]);
}

bool FastExpfEnabled() { return false; }

#endif  // NARU_HAVE_X86_64

void SoftmaxRows(const Matrix& logits, Matrix* probs) {
  if (probs != &logits) probs->Resize(logits.rows(), logits.cols());
#if NARU_HAVE_X86_64
  if (FastExpfEnabled()) {
    SoftmaxRowsAvx2(logits, probs);
    return;
  }
#endif
  for (size_t r = 0; r < logits.rows(); ++r) {
    SoftmaxRowLibm(logits.Row(r), probs->Row(r), logits.cols());
  }
}

double LogSumExpSlice(const float* row, size_t begin, size_t end) {
  NARU_CHECK(begin < end);
  float mx = row[begin];
  for (size_t i = begin + 1; i < end; ++i) mx = std::max(mx, row[i]);
  double sum = 0;
  for (size_t i = begin; i < end; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - mx);
  }
  return static_cast<double>(mx) + std::log(sum);
}

void Axpy(const Matrix& a, float scale, Matrix* c) {
  NARU_CHECK(a.rows() == c->rows() && a.cols() == c->cols());
  const float* src = a.data();
  float* dst = c->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void GatherColumns(const Matrix& in, const std::vector<size_t>& cols,
                   Matrix* out) {
  out->Resize(in.rows(), cols.size());
  for (size_t r = 0; r < in.rows(); ++r) {
    const float* src = in.Row(r);
    float* dst = out->Row(r);
    for (size_t j = 0; j < cols.size(); ++j) dst[j] = src[cols[j]];
  }
}

void GatherRows(const Matrix& in, const std::vector<size_t>& rows,
                Matrix* out) {
  // Whole padded rows: the source's zero padding lands in out's padding,
  // so every element of out is written and none needs zeroing first.
  out->ResizeForOverwrite(rows.size(), in.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(in.Row(rows[i]), in.Row(rows[i]) + in.stride(), out->Row(i));
  }
}

double L2Norm(const Matrix& m) { return std::sqrt(m.SumSquares()); }

}  // namespace naru
