#include "pmlp/core/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace pmlp::core {

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

SimdIsa detect_simd_isa() {
#if defined(__aarch64__)
  return SimdIsa::kNeon;  // Advanced SIMD is architecturally baseline.
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The training kernels' AVX2 variants also use FMA, so kAvx2 promises
  // both.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? SimdIsa::kAvx2
             : SimdIsa::kScalar;
#else
  return SimdIsa::kScalar;
#endif
}

namespace {

SimdIsa clamp_to_detected(SimdIsa isa) {
  return isa == detect_simd_isa() ? isa : SimdIsa::kScalar;
}

SimdIsa initial_isa() {
  const char* env = std::getenv("PMLP_SIMD");
  if (env == nullptr || *env == '\0') return detect_simd_isa();
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return SimdIsa::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) return clamp_to_detected(SimdIsa::kAvx2);
  if (std::strcmp(env, "neon") == 0) return clamp_to_detected(SimdIsa::kNeon);
  return detect_simd_isa();  // unrecognized value: ignore the knob
}

std::atomic<SimdIsa>& active_slot() {
  static std::atomic<SimdIsa> slot{initial_isa()};
  return slot;
}

}  // namespace

SimdIsa active_simd_isa() {
  return active_slot().load(std::memory_order_relaxed);
}

SimdIsa set_simd_isa(SimdIsa isa) {
  const SimdIsa installed = clamp_to_detected(isa);
  active_slot().store(installed, std::memory_order_relaxed);
  return installed;
}

}  // namespace pmlp::core
