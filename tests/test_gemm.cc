// Conformance suite for the kernel layer (gemm.cc, gemm_simd.cc):
//   - SIMD (native dispatch AND the forced portable fallback) vs the scalar
//     reference across odd shapes, accumulate on/off, and both transpose
//     variants, within a tight epsilon (FMA contraction means cross-kernel
//     equality is not bitwise).
//   - WITHIN a fixed kernel: bitwise determinism across row partitions
//     (the thread-count contract) — evaluating a row subset reproduces the
//     full-batch rows exactly, including across the MR=4/MR=1 seam.
//   - The one-hot InputHint is exact: hinted and dense runs are bitwise
//     identical per kernel.
//   - The scalar kernel's bit contract: the register-tiled GemmNN/GemmNT
//     reproduce the plain ikj and dot-product loops bit for bit, at both
//     tile widths (128- and 256-bit vectors), across every tile seam, on
//     -0, subnormal, infinite and NaN inputs, without reading A's padding
//     or writing C's.
//   - Matrix storage: 64-byte row alignment, padded stride, the
//     zero-padding invariant, and the Resize preservation contract.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernel.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace naru {
namespace {

// Forces a dispatch level for the enclosing scope (restores probing on
// destruction), so the portable fallback is exercised on AVX2 hosts too.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    SetSimdLevelOverrideForTest(level);
  }
  ~ScopedSimdLevel() { ClearSimdLevelOverrideForTest(); }
};

Matrix RandomMatrix(size_t r, size_t c, Rng* rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    float* row = m.Row(i);
    for (size_t j = 0; j < c; ++j) {
      row[j] = static_cast<float>(rng->Gaussian());
    }
  }
  return m;
}

// One nonzero per 16-wide group of columns — the shape of a one-hot
// encoded input row.
Matrix OneHotishMatrix(size_t r, size_t c, Rng* rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < r; ++i) {
    for (size_t g = 0; g < c; g += 16) {
      const size_t span = std::min<size_t>(16, c - g);
      const size_t hot = g + static_cast<size_t>(rng->UniformInt(span));
      m.At(i, hot) = 1.0f;
    }
  }
  return m;
}

// Double-accumulator references.
void NaiveNN(const Matrix& a, const Matrix& b, Matrix* c) {
  c->Resize(a.rows(), b.cols());
  c->Zero();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

void NaiveNT(const Matrix& a, const Matrix& bt, Matrix* c) {
  c->Resize(a.rows(), bt.rows());
  c->Zero();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < bt.rows(); ++j) {
      double acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * bt.At(j, k);
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

void ExpectNear(const Matrix& want, const Matrix& got, double tol) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_NEAR(want.At(i, j), got.At(i, j), tol)
          << "at (" << i << ", " << j << ")";
    }
  }
}

void ExpectBitIdentical(const Matrix& want, const Matrix& got) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    ASSERT_EQ(0, std::memcmp(want.Row(i), got.Row(i),
                             want.cols() * sizeof(float)))
        << "row " << i;
  }
}

struct Shape {
  size_t m, k, n;
};

// Odd shapes, sub-stride shapes, exact multiples, and MADE-sized cases.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 17, 1},   {3, 5, 7},     {4, 16, 16},
    {5, 100, 1},  {8, 16, 24},  {13, 31, 33},  {2, 8, 256},
    {33, 64, 100}, {64, 128, 128},
};

void CheckNNConformance(double tol) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix ref;
    NaiveNN(a, b, &ref);
    for (const bool accumulate : {false, true}) {
      Matrix base = RandomMatrix(s.m, s.n, &rng);
      Matrix scalar_out = base;
      Matrix simd_out = base;
      if (!accumulate) {
        // Non-accumulate ignores prior contents entirely.
        scalar_out = Matrix();
        simd_out = Matrix();
      }
      GemmNN(a, b, &scalar_out, accumulate, KernelKind::kScalar);
      GemmNN(a, b, &simd_out, accumulate, KernelKind::kSimd);
      ExpectNear(scalar_out, simd_out, tol);
      if (!accumulate) ExpectNear(ref, simd_out, tol);
    }
  }
}

void CheckNTConformance(double tol) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix bt = RandomMatrix(s.n, s.k, &rng);
    Matrix ref;
    NaiveNT(a, bt, &ref);
    for (const bool accumulate : {false, true}) {
      Matrix base = RandomMatrix(s.m, s.n, &rng);
      Matrix scalar_out = base;
      Matrix simd_out = base;
      if (!accumulate) {
        scalar_out = Matrix();
        simd_out = Matrix();
      }
      GemmNT(a, bt, &scalar_out, accumulate, KernelKind::kScalar);
      GemmNT(a, bt, &simd_out, accumulate, KernelKind::kSimd);
      ExpectNear(scalar_out, simd_out, tol);
      if (!accumulate) ExpectNear(ref, simd_out, tol);
    }
  }
}

TEST(GemmConformance, SimdNNMatchesScalar) { CheckNNConformance(1e-3); }

TEST(GemmConformance, SimdNTMatchesScalar) { CheckNTConformance(1e-3); }

TEST(GemmConformance, PortableFallbackMatchesScalar) {
  ScopedSimdLevel force(SimdLevel::kNone);
  CheckNNConformance(1e-3);
  CheckNTConformance(1e-3);
}

#if defined(__x86_64__)
TEST(GemmConformance, DispatchProbeFindsAvx2OnX86WithAvx2) {
  // On the CI/dev hosts this suite targets, x86 implies AVX2; the probe
  // must not silently land on the fallback there.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_EQ(DetectedSimdLevel(), SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(DetectedSimdLevel(), SimdLevel::kNone);
  }
}
#endif

// The thread-count determinism contract: C rows depend only on A's row and
// B, never on how rows are partitioned. Evaluating a leading subset of A's
// rows must reproduce the full run bitwise — this crosses the MR=4/MR=1
// register-blocking seam in the SIMD kernels (rows 4..6 of a 7-row run sit
// in an MR=4 block; in a 5-row run row 4 is an MR=1 remainder).
void CheckRowPartitionDeterminism(KernelKind kernel) {
  Rng rng(17);
  const size_t m = 23, k = 61, n = 37;
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  Matrix full;
  GemmNN(a, b, &full, false, kernel);
  for (const size_t sub : {1ul, 4ul, 5ul, 7ul, 22ul}) {
    Matrix asub(sub, k);
    for (size_t i = 0; i < sub; ++i) {
      std::memcpy(asub.Row(i), a.Row(i), k * sizeof(float));
    }
    Matrix csub;
    GemmNN(asub, b, &csub, false, kernel);
    for (size_t i = 0; i < sub; ++i) {
      ASSERT_EQ(0,
                std::memcmp(full.Row(i), csub.Row(i), n * sizeof(float)))
          << "kernel " << KernelKindName(kernel) << " sub " << sub
          << " row " << i;
    }
  }
  // And inline (serial-region) execution equals pooled execution.
  Matrix serial;
  {
    ScopedSerialRegion sr;
    GemmNN(a, b, &serial, false, kernel);
  }
  ExpectBitIdentical(full, serial);
}

TEST(GemmDeterminism, ScalarRowPartitions) {
  CheckRowPartitionDeterminism(KernelKind::kScalar);
}

TEST(GemmDeterminism, SimdRowPartitions) {
  CheckRowPartitionDeterminism(KernelKind::kSimd);
}

TEST(GemmDeterminism, PortableRowPartitions) {
  ScopedSimdLevel force(SimdLevel::kNone);
  CheckRowPartitionDeterminism(KernelKind::kSimd);
}

TEST(GemmDeterminism, OneHotHintIsExact) {
  Rng rng(19);
  const Matrix a = OneHotishMatrix(21, 93, &rng);
  const Matrix b = RandomMatrix(93, 40, &rng);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    Matrix dense, hinted;
    GemmNN(a, b, &dense, false, kernel, InputHint::kDense);
    GemmNN(a, b, &hinted, false, kernel, InputHint::kOneHot);
    ExpectBitIdentical(dense, hinted);
  }
}

// In-test copies of the loops the tiled scalar kernel replaced. NN: ikj,
// each C element one chain from its current value. NT: one dot product per
// element from +0, then added to C. The product is its own statement so
// the compiler cannot contract it into an FMA under -ffp-contract=on.
void ReferenceNN(const Matrix& a, const Matrix& b, Matrix* c,
                 bool accumulate) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (!accumulate) {
    c->Resize(m, n);
    c->Zero();
  }
  for (size_t i = 0; i < m; ++i) {
    float* crow = c->Row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = a.Row(i)[kk];
      const float* brow = b.Row(kk);
      for (size_t j = 0; j < n; ++j) {
        const float p = av * brow[j];
        crow[j] = crow[j] + p;
      }
    }
  }
}

void ReferenceNT(const Matrix& a, const Matrix& b, Matrix* c,
                 bool accumulate) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (!accumulate) {
    c->Resize(m, n);
    c->Zero();
  }
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.Row(j);
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        const float p = arow[kk] * brow[kk];
        acc = acc + p;
      }
      crow[j] = crow[j] + acc;
    }
  }
}

// Gaussian values with -0 and subnormals sprinkled everywhere. +-inf and
// NaN go only where nonfinite(r, c) holds, so most outputs stay finite and
// their chains are checked too. Row padding holds `pad`, which a kernel
// must never let into a logical output nor overwrite in C.
template <typename NonFinite>
Matrix EdgeMatrix(size_t rows, size_t cols, float pad, Rng* rng,
                  NonFinite nonfinite) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, 3e-39f, -1e-42f, kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    float* row = m.Row(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = static_cast<float>(rng->Gaussian());
      if (rng->UniformInt(32) == 0) {
        const size_t pick = rng->UniformInt(nonfinite(r, c) ? 6 : 3);
        row[c] = specials[pick];
      }
    }
    for (size_t c = cols; c < m.stride(); ++c) row[c] = pad;
  }
  return m;
}

// Bit equality over whole padded rows. NaN payloads are not part of the
// contract: IEEE 754 leaves the payload of an operation on two NaNs to the
// hardware, and compilers may commute the operands of + and *.
void ExpectSameBits(const Matrix& want, const Matrix& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.stride(), got.stride()) << what;
  for (size_t i = 0; i < want.rows(); ++i) {
    if (std::memcmp(want.Row(i), got.Row(i),
                    want.stride() * sizeof(float)) == 0) {
      continue;
    }
    for (size_t j = 0; j < want.stride(); ++j) {
      const float w = want.Row(i)[j], g = got.Row(i)[j];
      if (std::isnan(w) && std::isnan(g)) continue;
      ASSERT_EQ(0, std::memcmp(&w, &g, sizeof(float)))
          << what << " at (" << i << ", " << j << "): want " << w << " got "
          << g << (j >= want.cols() ? " (padding)" : "");
    }
  }
}

// One case of the edge-case sweep: A, B for NN (k x n) and for NT
// (n x k), and the C that GemmNN/GemmNT start from.
struct EdgeCase {
  std::string shape;
  Matrix a, b_nn, b_nt, base;
};

// Calls fn(const EdgeCase&) for each (m, k, n) of the sweep: rows cross
// the 4-row tile and its 1-row remainder, the `ns` columns cross the 8-
// and 16-column tiles, their partial last tiles, and the 16-float row
// padding.
template <typename Fn>
void ForEachEdgeCase(std::initializer_list<size_t> ns, Fn&& fn) {
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(41);
  for (const size_t m : {1, 3, 4, 5, 7, 1000}) {
    for (const size_t n : ns) {
      for (const size_t k : {1, 13, 64, 397}) {
        // The deep reduction runs on the small row counts only; the
        // 1000-row cases already cross every seam at k <= 64.
        if (m == 1000 && k == 397) continue;
        EdgeCase e;
        e.shape = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                  " n=" + std::to_string(n);
        // A's padding is NaN: reading it would poison a logical output.
        e.a = EdgeMatrix(m, k, kNaN, &rng,
                         [](size_t r, size_t) { return r % 5 == 2; });
        // Non-finite values in a few output columns only (B's columns for
        // NN, B's rows for NT).
        e.b_nn = EdgeMatrix(k, n, kNaN, &rng,
                            [](size_t, size_t c) { return c % 7 == 3; });
        e.b_nt = EdgeMatrix(n, k, kNaN, &rng,
                            [](size_t r, size_t) { return r % 7 == 3; });
        e.base = EdgeMatrix(m, n, 12345.0f, &rng, [](size_t r, size_t c) {
          return (r + c) % 11 == 0;
        });
        fn(e);
      }
    }
  }
}

std::string CaseName(const EdgeCase& e, bool accumulate) {
  return e.shape + (accumulate ? " accumulate" : " overwrite");
}

void CheckTiledMatchesReference() {
  ForEachEdgeCase({1, 2, 8, 13, 16, 17, 75, 1175}, [](const EdgeCase& e) {
    for (const bool accumulate : {false, true}) {
      Matrix want = e.base, got = e.base;
      ReferenceNN(e.a, e.b_nn, &want, accumulate);
      GemmNN(e.a, e.b_nn, &got, accumulate, KernelKind::kScalar);
      ExpectSameBits(want, got, "NN " + CaseName(e, accumulate));
      want = e.base;
      got = e.base;
      ReferenceNT(e.a, e.b_nt, &want, accumulate);
      GemmNT(e.a, e.b_nt, &got, accumulate, KernelKind::kScalar);
      ExpectSameBits(want, got, "NT " + CaseName(e, accumulate));
    }
  });
}

// At the tile width this host dispatches to (16 columns on AVX2 hosts).
TEST(GemmScalar, TiledMatchesReference) { CheckTiledMatchesReference(); }

// At the 128-bit tile, the only one on aarch64 and on x86 without AVX2.
TEST(GemmScalar, TiledMatchesReferenceNarrow) {
  ScopedSimdLevel narrow(SimdLevel::kNone);
  ASSERT_EQ(ScalarTileCols(), 8u);
  CheckTiledMatchesReference();
}

// The two widths against each other, whole padded rows bit for bit: the
// same element chains, and C's padding left as it was.
TEST(GemmScalar, WideTileMatchesNarrowTile) {
  if (ScalarTileCols() != 16) {
    GTEST_SKIP() << "no 256-bit scalar tile on this host";
  }
  ForEachEdgeCase({13, 16, 17, 1175}, [](const EdgeCase& e) {
    for (const bool accumulate : {false, true}) {
      Matrix wide_nn = e.base, narrow_nn = e.base;
      Matrix wide_nt = e.base, narrow_nt = e.base;
      GemmNN(e.a, e.b_nn, &wide_nn, accumulate, KernelKind::kScalar);
      GemmNT(e.a, e.b_nt, &wide_nt, accumulate, KernelKind::kScalar);
      {
        ScopedSimdLevel narrow(SimdLevel::kNone);
        GemmNN(e.a, e.b_nn, &narrow_nn, accumulate, KernelKind::kScalar);
        GemmNT(e.a, e.b_nt, &narrow_nt, accumulate, KernelKind::kScalar);
      }
      ExpectSameBits(narrow_nn, wide_nn, "NN " + CaseName(e, accumulate));
      ExpectSameBits(narrow_nt, wide_nt, "NT " + CaseName(e, accumulate));
    }
  });
}

TEST(KernelKindNames, EveryKindRoundTripsAndRetiredNamesAreRejected) {
  // Every value of the enum's underlying type that has a name parses back
  // to itself, case-insensitively; exactly scalar and simd are named.
  std::vector<std::string> named;
  for (int v = 0; v <= 255; ++v) {
    const KernelKind kind = static_cast<KernelKind>(v);
    const std::string name = KernelKindName(kind);
    if (name == "unknown") continue;
    named.push_back(name);
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    for (const std::string& spelling : {name, upper}) {
      KernelKind parsed = kind == KernelKind::kScalar ? KernelKind::kSimd
                                                      : KernelKind::kScalar;
      ASSERT_TRUE(ParseKernelKind(spelling, &parsed)) << spelling;
      EXPECT_EQ(parsed, kind) << spelling;
    }
  }
  EXPECT_EQ(named, (std::vector<std::string>{"scalar", "simd"}));
  // The deleted int8 family's names, in any case (the parser lowercases
  // first), and anything else are rejected and leave *out alone.
  for (const char* rejected : {"SIMD_INT8", "Simd_Int8", "int8", "auto", ""}) {
    KernelKind out = KernelKind::kSimd;
    EXPECT_FALSE(ParseKernelKind(rejected, &out)) << rejected;
    EXPECT_EQ(out, KernelKind::kSimd) << rejected;
  }
}

TEST(MatrixStorage, AlignmentAndPaddedStride) {
  Matrix m(5, 17);
  EXPECT_EQ(m.stride(), 32u);  // 17 -> next multiple of 16
  EXPECT_EQ(m.stride() % kMatrixRowAlignFloats, 0u);
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r)) % kMatrixRowAlignBytes,
              0u);
  }
  EXPECT_EQ(m.size(), m.rows() * m.stride());
}

TEST(MatrixStorage, PaddingStaysZero) {
  Matrix m(4, 20);
  m.Fill(3.5f);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    for (size_t j = m.cols(); j < m.stride(); ++j) {
      EXPECT_EQ(row[j], 0.0f) << "padding at (" << r << ", " << j << ")";
    }
  }
  // GEMM outputs keep padding zero because B's padding is zero.
  Rng rng(37);
  const Matrix a = RandomMatrix(6, 9, &rng);
  const Matrix b = RandomMatrix(9, 20, &rng);
  for (const KernelKind kernel : {KernelKind::kScalar, KernelKind::kSimd}) {
    Matrix c;
    GemmNN(a, b, &c, false, kernel);
    for (size_t r = 0; r < c.rows(); ++r) {
      const float* row = c.Row(r);
      for (size_t j = c.cols(); j < c.stride(); ++j) {
        EXPECT_EQ(row[j], 0.0f);
      }
    }
  }
  // Shrinking cols within one stride class must clear the old tail.
  Matrix s(2, 20);
  s.Fill(1.0f);
  s.Resize(2, 17);  // same 32-float stride
  for (size_t r = 0; r < s.rows(); ++r) {
    const float* row = s.Row(r);
    for (size_t j = s.cols(); j < s.stride(); ++j) EXPECT_EQ(row[j], 0.0f);
  }
}

TEST(MatrixStorage, ResizePreservesLeadingRowsWhenColsUnchanged) {
  Matrix m(3, 10);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      m.At(r, c) = static_cast<float>(r * 100 + c);
    }
  }
  m.Resize(5, 10);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(m.At(r, c), static_cast<float>(r * 100 + c));
    }
  }
  m.Resize(2, 10);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(m.At(r, c), static_cast<float>(r * 100 + c));
    }
  }
}

}  // namespace
}  // namespace naru
