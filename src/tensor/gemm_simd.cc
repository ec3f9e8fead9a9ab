// SIMD inner kernels for the tensor layer, behind runtime dispatch.
//
// Layout of this file: a portable blocked implementation of each kernel
// (always compiled, the dispatch target on machines without AVX2/NEON),
// an AVX2+FMA implementation using per-function target attributes (so the
// rest of the binary keeps the baseline ISA and the probe in kernel.h
// decides at runtime), a NEON implementation compiled only on ARM, and the
// dispatch shims declared in gemm_kernels.h.
//
// Packing note: B panels are consumed in row-major order with a padded
// 64-byte leading dimension (matrix.h), which is already the layout the
// broadcast-A/FMA inner loops want — rows of B stream contiguously and
// vector loads never straddle cache lines — so fp32 kernels need no
// separate packing pass at MADE/transformer sizes (K, N ≲ a few hundred;
// the active B panel fits in L2).
//
// Determinism: every kernel fixes the per-C-element reduction order to
// ascending k with a single accumulator chain (SIMD lanes are independent
// element chains), so for a fixed dispatch level results are bit-identical
// across thread counts and row splits — including between the MR=4 and
// MR=1 paths, which perform the same lane-wise operation sequence.

#include "tensor/gemm_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define NARU_HAVE_X86 1
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define NARU_HAVE_NEON 1
#endif

#include "tensor/kernel.h"

namespace naru {
namespace gemm_detail {

namespace {

// ---------------------------------------------------------------------------
// Portable blocked fallback.
// ---------------------------------------------------------------------------

// K-blocking keeps the active B panel hot in cache when K is large; the
// inner j loop is branch-free over the padded width and autovectorizes.
constexpr size_t kPortableKc = 256;

void NNRowsPortable(const float* a, size_t lda, const float* b, size_t ldb,
                    float* c, size_t ldc, size_t lo, size_t hi, size_t k,
                    bool onehot_a) {
  for (size_t k0 = 0; k0 < k; k0 += kPortableKc) {
    const size_t k1 = k0 + kPortableKc < k ? k0 + kPortableKc : k;
    for (size_t i = lo; i < hi; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * ldc;
      for (size_t kk = k0; kk < k1; ++kk) {
        const float av = arow[kk];
        if (onehot_a && av == 0.0f) continue;
        const float* brow = b + kk * ldb;
        for (size_t j = 0; j < ldc; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void NTRowsPortable(const float* a, size_t lda, const float* b, size_t ldb,
                    float* c, size_t ldc, size_t lo, size_t hi, size_t kpad,
                    size_t n) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float acc = 0.0f;
      for (size_t kk = 0; kk < kpad; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA.
// ---------------------------------------------------------------------------
#if defined(NARU_HAVE_X86)

__attribute__((target("avx2,fma"))) void NNRowsAvx2(
    const float* a, size_t lda, const float* b, size_t ldb, float* c,
    size_t ldc, size_t lo, size_t hi, size_t k, bool onehot_a) {
  size_t i = lo;
  if (!onehot_a) {
    // Dense: 4 C rows x 16 columns per register tile; B rows are loaded
    // once per 4 A rows.
    for (; i + 4 <= hi; i += 4) {
      const float* a0 = a + (i + 0) * lda;
      const float* a1 = a + (i + 1) * lda;
      const float* a2 = a + (i + 2) * lda;
      const float* a3 = a + (i + 3) * lda;
      float* c0 = c + (i + 0) * ldc;
      float* c1 = c + (i + 1) * ldc;
      float* c2 = c + (i + 2) * ldc;
      float* c3 = c + (i + 3) * ldc;
      for (size_t j = 0; j < ldc; j += 16) {
        __m256 s00 = _mm256_loadu_ps(c0 + j);
        __m256 s01 = _mm256_loadu_ps(c0 + j + 8);
        __m256 s10 = _mm256_loadu_ps(c1 + j);
        __m256 s11 = _mm256_loadu_ps(c1 + j + 8);
        __m256 s20 = _mm256_loadu_ps(c2 + j);
        __m256 s21 = _mm256_loadu_ps(c2 + j + 8);
        __m256 s30 = _mm256_loadu_ps(c3 + j);
        __m256 s31 = _mm256_loadu_ps(c3 + j + 8);
        for (size_t kk = 0; kk < k; ++kk) {
          const float* brow = b + kk * ldb + j;
          const __m256 b0 = _mm256_loadu_ps(brow);
          const __m256 b1 = _mm256_loadu_ps(brow + 8);
          const __m256 v0 = _mm256_set1_ps(a0[kk]);
          s00 = _mm256_fmadd_ps(v0, b0, s00);
          s01 = _mm256_fmadd_ps(v0, b1, s01);
          const __m256 v1 = _mm256_set1_ps(a1[kk]);
          s10 = _mm256_fmadd_ps(v1, b0, s10);
          s11 = _mm256_fmadd_ps(v1, b1, s11);
          const __m256 v2 = _mm256_set1_ps(a2[kk]);
          s20 = _mm256_fmadd_ps(v2, b0, s20);
          s21 = _mm256_fmadd_ps(v2, b1, s21);
          const __m256 v3 = _mm256_set1_ps(a3[kk]);
          s30 = _mm256_fmadd_ps(v3, b0, s30);
          s31 = _mm256_fmadd_ps(v3, b1, s31);
        }
        _mm256_storeu_ps(c0 + j, s00);
        _mm256_storeu_ps(c0 + j + 8, s01);
        _mm256_storeu_ps(c1 + j, s10);
        _mm256_storeu_ps(c1 + j + 8, s11);
        _mm256_storeu_ps(c2 + j, s20);
        _mm256_storeu_ps(c2 + j + 8, s21);
        _mm256_storeu_ps(c3 + j, s30);
        _mm256_storeu_ps(c3 + j + 8, s31);
      }
    }
  }
  // Remainder rows, and the one-hot path (axpy order tests A once per k).
  for (; i < hi; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (onehot_a && av == 0.0f) continue;
      const __m256 v = _mm256_set1_ps(av);
      const float* brow = b + kk * ldb;
      for (size_t j = 0; j < ldc; j += 8) {
        _mm256_storeu_ps(
            crow + j,
            _mm256_fmadd_ps(v, _mm256_loadu_ps(brow + j),
                            _mm256_loadu_ps(crow + j)));
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void NTRowsAvx2(
    const float* a, size_t lda, const float* b, size_t ldb, float* c,
    size_t ldc, size_t lo, size_t hi, size_t kpad, size_t n) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    size_t j = 0;
    // 4 dot products at a time share the A row loads; the horizontal
    // reduction lands all 4 sums in one xmm.
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * ldb;
      const float* b1 = b + (j + 1) * ldb;
      const float* b2 = b + (j + 2) * ldb;
      const float* b3 = b + (j + 3) * ldb;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (size_t kk = 0; kk < kpad; kk += 8) {
        const __m256 av = _mm256_loadu_ps(arow + kk);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + kk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + kk), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + kk), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + kk), acc3);
      }
      const __m256 h01 = _mm256_hadd_ps(acc0, acc1);
      const __m256 h23 = _mm256_hadd_ps(acc2, acc3);
      const __m256 h = _mm256_hadd_ps(h01, h23);
      const __m128 sums = _mm_add_ps(_mm256_castps256_ps128(h),
                                     _mm256_extractf128_ps(h, 1));
      _mm_storeu_ps(crow + j, _mm_add_ps(_mm_loadu_ps(crow + j), sums));
    }
    for (; j < n; ++j) {
      const float* brow = b + j * ldb;
      __m256 acc = _mm256_setzero_ps();
      for (size_t kk = 0; kk < kpad; kk += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                              _mm256_loadu_ps(brow + kk), acc);
      }
      const __m128 lo128 = _mm256_castps256_ps128(acc);
      const __m128 hi128 = _mm256_extractf128_ps(acc, 1);
      __m128 s = _mm_add_ps(lo128, hi128);
      s = _mm_add_ps(s, _mm_movehl_ps(s, s));
      s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
      crow[j] += _mm_cvtss_f32(s);
    }
  }
}

#endif  // NARU_HAVE_X86

// ---------------------------------------------------------------------------
// NEON (compile-time on ARM; every AArch64 core has it).
// ---------------------------------------------------------------------------
#if defined(NARU_HAVE_NEON)

void NNRowsNeon(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t k,
                bool onehot_a) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (onehot_a && av == 0.0f) continue;
      const float32x4_t v = vdupq_n_f32(av);
      const float* brow = b + kk * ldb;
      for (size_t j = 0; j < ldc; j += 8) {
        vst1q_f32(crow + j,
                  vfmaq_f32(vld1q_f32(crow + j), v, vld1q_f32(brow + j)));
        vst1q_f32(crow + j + 4, vfmaq_f32(vld1q_f32(crow + j + 4), v,
                                          vld1q_f32(brow + j + 4)));
      }
    }
  }
}

void NTRowsNeon(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t kpad,
                size_t n) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      for (size_t kk = 0; kk < kpad; kk += 8) {
        acc0 = vfmaq_f32(acc0, vld1q_f32(arow + kk), vld1q_f32(brow + kk));
        acc1 = vfmaq_f32(acc1, vld1q_f32(arow + kk + 4),
                         vld1q_f32(brow + kk + 4));
      }
      crow[j] += vaddvq_f32(vaddq_f32(acc0, acc1));
    }
  }
}

#endif  // NARU_HAVE_NEON

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void NNRowsSimd(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t k,
                bool onehot_a) {
  switch (DetectedSimdLevel()) {
#if defined(NARU_HAVE_X86)
    case SimdLevel::kAvx2:
      NNRowsAvx2(a, lda, b, ldb, c, ldc, lo, hi, k, onehot_a);
      return;
#endif
#if defined(NARU_HAVE_NEON)
    case SimdLevel::kNeon:
      NNRowsNeon(a, lda, b, ldb, c, ldc, lo, hi, k, onehot_a);
      return;
#endif
    default:
      NNRowsPortable(a, lda, b, ldb, c, ldc, lo, hi, k, onehot_a);
      return;
  }
}

void NTRowsSimd(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t kpad,
                size_t n) {
  switch (DetectedSimdLevel()) {
#if defined(NARU_HAVE_X86)
    case SimdLevel::kAvx2:
      NTRowsAvx2(a, lda, b, ldb, c, ldc, lo, hi, kpad, n);
      return;
#endif
#if defined(NARU_HAVE_NEON)
    case SimdLevel::kNeon:
      NTRowsNeon(a, lda, b, ldb, c, ldc, lo, hi, kpad, n);
      return;
#endif
    default:
      NTRowsPortable(a, lda, b, ldb, c, ldc, lo, hi, kpad, n);
      return;
  }
}

}  // namespace gemm_detail
}  // namespace naru
