#include "tensor/kernel.h"

#include <algorithm>
#include <cctype>

#include "util/string_util.h"

namespace naru {

namespace {

SimdLevel ProbeSimdLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kNone;
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kNone;
#endif
}

// -1 = no override; otherwise holds a SimdLevel value.
int g_simd_override = -1;

}  // namespace

const char* KernelKindName(KernelKind k) {
  switch (k) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kSimd:
      return "simd";
  }
  return "unknown";
}

bool ParseKernelKind(const std::string& s, KernelKind* out) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "scalar") {
    *out = KernelKind::kScalar;
  } else if (lower == "simd") {
    *out = KernelKind::kSimd;
  } else {
    return false;
  }
  return true;
}

const char* SimdLevelName(SimdLevel l) {
  switch (l) {
    case SimdLevel::kNone:
      return "none";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  if (g_simd_override >= 0) return static_cast<SimdLevel>(g_simd_override);
  static const SimdLevel level = ProbeSimdLevel();
  return level;
}

std::string SimdDispatchString() {
  std::string s = StrFormat("simd dispatch: %s",
                            SimdLevelName(DetectedSimdLevel()));
  if (g_simd_override >= 0) s += " (test override)";
  return s;
}

void SetSimdLevelOverrideForTest(SimdLevel level) {
  g_simd_override = static_cast<int>(level);
}

void ClearSimdLevelOverrideForTest() { g_simd_override = -1; }

}  // namespace naru
