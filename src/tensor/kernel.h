// Kernel selection and runtime CPU dispatch for the tensor layer.
//
// The inference path can run on one of two kernel families:
//   kScalar   — the register-tiled kernel in gemm.cc; always available, the
//               correctness reference, and the default (the golden table
//               pins it). Bit contract: each C element is one chain of
//               separately rounded multiplies and adds (no FMA) over
//               ascending k, from C's value (NN) or from +0 then added to
//               C (NT): the bits of the plain ikj and dot-product loops.
//               The tile is 4x16 of 256-bit vectors when DetectedSimdLevel()
//               finds AVX2 on x86, else 4x8 of 128-bit vectors (SSE2,
//               NEON); both widths give the same bits.
//   kSimd     — cache-blocked fp32 kernels with explicit SIMD inner loops
//               (AVX2/FMA on x86, NEON on ARM, portable blocked fallback
//               elsewhere), selected at runtime via DetectedSimdLevel().
//
// Determinism contract: for a FIXED kernel choice, every GEMM partitions
// work by output row and keeps a fixed intra-row reduction order, so
// results are bit-identical across thread counts and batch splits. Results
// are NOT bit-identical across different kernel choices (FMA contraction
// and register blocking change rounding); the serving layer keys its memo
// caches on the kernel for exactly this reason.
#pragma once

#include <cstdint>
#include <string>

namespace naru {

/// Which kernel family the forward path uses. Training always uses kScalar.
enum class KernelKind : uint8_t {
  kScalar = 0,
  kSimd = 1,
};

/// "scalar" / "simd".
const char* KernelKindName(KernelKind k);

/// Parses "scalar" / "simd" (case-insensitive). Returns false and leaves
/// *out untouched on anything else.
bool ParseKernelKind(const std::string& s, KernelKind* out);

/// Instruction set the SIMD kernels dispatch to on this machine.
enum class SimdLevel : uint8_t {
  kNone = 0,  // portable blocked fallback
  kAvx2 = 1,  // AVX2 + FMA
  kNeon = 2,  // ARM NEON
};

/// "none" / "avx2" / "neon".
const char* SimdLevelName(SimdLevel l);

/// Probes the CPU once and caches the answer. kAvx2 requires both AVX2 and
/// FMA; kNeon is a compile-time property of ARM builds.
SimdLevel DetectedSimdLevel();

/// One-line dispatch probe for bench banners and `serve` startup, e.g.
/// "simd dispatch: avx2". Mentions an active test override when present.
std::string SimdDispatchString();

/// Test seam: forces DetectedSimdLevel() to return `level` so the portable
/// fallback (and the NEON-less path) can be exercised on any host. Call
/// ClearSimdLevelOverrideForTest() to restore probing. Not thread-safe;
/// intended for single-threaded test setup only.
void SetSimdLevelOverrideForTest(SimdLevel level);
void ClearSimdLevelOverrideForTest();

}  // namespace naru
