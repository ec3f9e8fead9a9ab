#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "util/thread_pool.h"

namespace naru {

namespace {
// Minimum rows per task to avoid parallelization overhead on tiny batches.
constexpr size_t kMinRowsPerTask = 16;

// The scalar kernel: one register-tiled micro-kernel behind dense GemmNN
// and GemmNT. It holds a kTileRows-row block of C in registers for the
// whole k loop.
//
// Bit contract, per C element: one chain of separately rounded multiplies
// and adds (no FMA; CMakeLists.txt pins -ffp-contract=off) over ascending
// k. GemmNN's chain starts from C's current value; GemmNT's starts from +0
// and is then added to C. That is the operation sequence of the plain ikj
// (NN) and dot-product (NT) loops, so the tiling changes speed, never
// bits, and no element depends on which tile or row partition it sits in.
//
// One template builds the tile at two widths; a tile row is two GCC/Clang
// generic vectors. Vec128 (16 bytes) is the width every baseline ISA holds
// in one register (SSE2 on x86-64, NEON on aarch64): a 4x8 tile, the only
// one on aarch64 and on x86 without AVX2. Vec256 (32 bytes), compiled
// under target("avx2") and picked when DetectedSimdLevel() finds AVX2,
// makes a 4x16 tile of ymm registers. Lanes never mix: each one is an
// independent element chain, so both widths give the same bits (the avx2
// target has no fma, and the build forbids contraction anyway).
constexpr size_t kTileRows = 4;
typedef float Vec128 __attribute__((vector_size(16)));
typedef float Vec256 __attribute__((vector_size(32)));
template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(float);
// The widest tile's columns; GemmNT pads its packed panel to a multiple.
constexpr size_t kMaxTileCols = 2 * kLanes<Vec256>;

// One tile: R rows of C at `c`, columns [0, width) with width <= 2 * lanes.
// `b` points at row 0 of a (k x >=2*lanes) panel with leading dim ldb; all
// 2 * lanes floats of each panel row (and of C, when chaining from C) must
// be readable, which padded Matrix strides and the NT packing guarantee.
// Lanes at or past `width` are computed and discarded, so C's padding is
// never written.
template <typename V, size_t R>
[[gnu::always_inline]] inline void ScalarTile(const float* a, size_t lda,
                                              const float* b, size_t ldb,
                                              float* c, size_t ldc, size_t k,
                                              size_t width, bool from_c) {
  constexpr size_t kL = kLanes<V>;
  V lo[R] = {}, hi[R] = {};
  for (size_t r = 0; r < R && from_c; ++r) {
    std::memcpy(&lo[r], c + r * ldc, sizeof(V));
    std::memcpy(&hi[r], c + r * ldc + kL, sizeof(V));
  }
  for (size_t kk = 0; kk < k; ++kk) {
    V b0, b1;
    std::memcpy(&b0, b + kk * ldb, sizeof(V));
    std::memcpy(&b1, b + kk * ldb + kL, sizeof(V));
    for (size_t r = 0; r < R; ++r) {
      // A scalar operand is broadcast to every lane.
      const float x = a[r * lda + kk];
      lo[r] = lo[r] + x * b0;
      hi[r] = hi[r] + x * b1;
    }
  }
  for (size_t r = 0; r < R; ++r) {
    if (!from_c) {
      V c0, c1;
      std::memcpy(&c0, c + r * ldc, sizeof(V));
      std::memcpy(&c1, c + r * ldc + kL, sizeof(V));
      lo[r] = c0 + lo[r];
      hi[r] = c1 + hi[r];
    }
    float out[2 * kL];
    std::memcpy(out, &lo[r], sizeof(V));
    std::memcpy(out + kL, &hi[r], sizeof(V));
    std::memcpy(c + r * ldc, out, width * sizeof(float));
  }
}

// C rows [lo, hi), logical columns [0, n): (+)= A * B, with B a (k x n)
// panel as ScalarTile requires. Leftover rows run the same tile with R = 1.
template <typename V>
[[gnu::always_inline]] inline void TiledRows(const float* a, size_t lda,
                                             const float* b, size_t ldb,
                                             float* c, size_t ldc, size_t lo,
                                             size_t hi, size_t k, size_t n,
                                             bool from_c) {
  constexpr size_t kCols = 2 * kLanes<V>;
  size_t i = lo;
  for (; i + kTileRows <= hi; i += kTileRows) {
    for (size_t j = 0; j < n; j += kCols) {
      ScalarTile<V, kTileRows>(a + i * lda, lda, b + j, ldb, c + i * ldc + j,
                               ldc, k, std::min(kCols, n - j), from_c);
    }
  }
  for (; i < hi; ++i) {
    for (size_t j = 0; j < n; j += kCols) {
      ScalarTile<V, 1>(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc, k,
                       std::min(kCols, n - j), from_c);
    }
  }
}

// Whether ScalarRows runs the 256-bit tile: x86 hosts whose probe finds
// AVX2 (a test override can force the 128-bit tile there).
bool WideScalarTile() {
#if defined(__x86_64__) || defined(__i386__)
  return DetectedSimdLevel() == SimdLevel::kAvx2;
#else
  return false;
#endif
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void TiledRows256(
    const float* a, size_t lda, const float* b, size_t ldb, float* c,
    size_t ldc, size_t lo, size_t hi, size_t k, size_t n, bool from_c) {
  TiledRows<Vec256>(a, lda, b, ldb, c, ldc, lo, hi, k, n, from_c);
}
#endif

void ScalarRows(const float* a, size_t lda, const float* b, size_t ldb,
                float* c, size_t ldc, size_t lo, size_t hi, size_t k,
                size_t n, bool from_c) {
#if defined(__x86_64__) || defined(__i386__)
  if (WideScalarTile()) {
    TiledRows256(a, lda, b, ldb, c, ldc, lo, hi, k, n, from_c);
    return;
  }
#endif
  TiledRows<Vec128>(a, lda, b, ldb, c, ldc, lo, hi, k, n, from_c);
}
}  // namespace

size_t ScalarTileCols() {
  return WideScalarTile() ? 2 * kLanes<Vec256> : 2 * kLanes<Vec128>;
}

void GemmNN(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate,
            KernelKind kernel, InputHint hint) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  NARU_CHECK(b.rows() == k);
  if (accumulate) {
    NARU_CHECK(c->rows() == m && c->cols() == n);
  } else {
    c->Resize(m, n);
    c->Zero();
  }
  if (kernel != KernelKind::kScalar) {
    // Same cols() means same stride (matrix.h), which the row kernels
    // require: they cover the padded width with no remainder handling.
    NARU_CHECK(c->stride() == b.stride());
    const bool onehot = hint == InputHint::kOneHot;
    ParallelFor(
        0, m,
        [&](size_t lo, size_t hi) {
          gemm_detail::NNRowsSimd(a.data(), a.stride(), b.data(), b.stride(),
                                  c->data(), c->stride(), lo, hi, k, onehot);
        },
        kMinRowsPerTask);
    return;
  }
  const bool onehot = hint == InputHint::kOneHot;
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        if (!onehot) {
          ScalarRows(a.data(), a.stride(), b.data(), b.stride(), c->data(),
                     c->stride(), lo, hi, k, n, /*from_c=*/true);
          return;
        }
        for (size_t i = lo; i < hi; ++i) {
          const float* arow = a.Row(i);
          float* crow = c->Row(i);
          // Sparse fast path: one-hot input rows are almost all zeros,
          // so testing A once per k skips whole axpy rows. Exact: the
          // skipped terms contribute +0.0f.
          for (size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) continue;
            const float* brow = b.Row(kk);
            for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      kMinRowsPerTask);
}

void GemmNT(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate,
            KernelKind kernel) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  NARU_CHECK(b.cols() == k);
  if (accumulate) {
    NARU_CHECK(c->rows() == m && c->cols() == n);
  } else {
    c->Resize(m, n);
    c->Zero();
  }
  if (kernel != KernelKind::kScalar) {
    // Shared reduction dim means shared stride; the dot products run over
    // the padded width (zero padding contributes zero).
    NARU_CHECK(a.stride() == b.stride());
    ParallelFor(
        0, m,
        [&](size_t lo, size_t hi) {
          gemm_detail::NTRowsSimd(a.data(), a.stride(), b.data(), b.stride(),
                                  c->data(), c->stride(), lo, hi, a.stride(),
                                  n);
        },
        kMinRowsPerTask);
    return;
  }
  // Pack B^T once per call into a (k x ldp) panel, then run the NN tile.
  // The buffer belongs to the calling thread and only grows, so steady
  // serving allocates nothing here; pool workers read it while this thread
  // waits in ParallelFor.
  thread_local std::vector<float> packed;
  const size_t ldp = (n + kMaxTileCols - 1) / kMaxTileCols * kMaxTileCols;
  if (packed.size() < k * ldp) packed.resize(k * ldp);
  float* const bt = packed.data();
  for (size_t j = 0; j < n; ++j) {
    const float* brow = b.Row(j);
    for (size_t kk = 0; kk < k; ++kk) bt[kk * ldp + j] = brow[kk];
  }
  for (size_t kk = 0; kk < k; ++kk) {
    std::fill(bt + kk * ldp + n, bt + (kk + 1) * ldp, 0.0f);
  }
  ParallelFor(
      0, m,
      [&](size_t lo, size_t hi) {
        ScalarRows(a.data(), a.stride(), bt, ldp, c->data(), c->stride(), lo,
                   hi, k, n, /*from_c=*/false);
      },
      kMinRowsPerTask);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* c, bool accumulate) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  NARU_CHECK(b.rows() == m);
  if (accumulate) {
    NARU_CHECK(c->rows() == k && c->cols() == n);
  } else {
    c->Resize(k, n);
    c->Zero();
  }
  // Parallelize over output rows (columns of A) to keep writes disjoint.
  // The zero-skip stays: this is the training-side X^T * dY, where X is
  // often the sparse one-hot encoding.
  ParallelFor(
      0, k,
      [&](size_t lo, size_t hi) {
        for (size_t i = 0; i < m; ++i) {
          const float* arow = a.Row(i);
          const float* brow = b.Row(i);
          for (size_t kk = lo; kk < hi; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) continue;
            float* crow = c->Row(kk);
            for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      8);
}

void AddBiasRows(const Matrix& bias, Matrix* c) {
  NARU_CHECK(bias.rows() == 1 && bias.cols() == c->cols());
  const float* b = bias.Row(0);
  const size_t n = c->cols();
  for (size_t i = 0; i < c->rows(); ++i) {
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) crow[j] += b[j];
  }
}

void AccumulateBiasGrad(const Matrix& dy, Matrix* bias_grad) {
  NARU_CHECK(bias_grad->rows() == 1 && bias_grad->cols() == dy.cols());
  float* g = bias_grad->Row(0);
  const size_t n = dy.cols();
  for (size_t i = 0; i < dy.rows(); ++i) {
    const float* row = dy.Row(i);
    for (size_t j = 0; j < n; ++j) g[j] += row[j];
  }
}

}  // namespace naru
