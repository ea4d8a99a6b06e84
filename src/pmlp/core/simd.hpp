// Runtime CPU dispatch for the sample-blocked kernels (eval_kernels.hpp,
// mlp/train_kernels.hpp).
//
// The dispatched ISA is resolved once per process from three inputs:
// compile-time capability (kAvx2 exists only in x86-64 builds, kNeon only
// on AArch64, where it is baseline), runtime CPU support
// (`__builtin_cpu_supports`: kAvx2 needs both AVX2 and FMA, which the
// training kernels' AVX2 variants use), and the PMLP_SIMD environment knob.
// The eval kernels are one portable loop nest per job: kAvx2 runs its
// `target("avx2")` clone, every other value the plain build, which the
// compiler vectorizes for the baseline ISA (SSE2 on x86-64, NEON on
// AArch64). `PMLP_SIMD=off` (alias `scalar`) forces kScalar — CI runs the
// eval/serve suites under it to keep the plain build exercised; `avx2` /
// `neon` request a specific ISA and degrade to scalar when the machine
// can't honor it. Tests and benches override in-process via set_simd_isa()
// to A/B the paths within one run. The eval kernels do identical int32
// arithmetic under every ISA — dispatch changes speed, never results.
#pragma once

namespace pmlp::core {

enum class SimdIsa { kScalar, kAvx2, kNeon };

/// Lowercase name for perf counters / bench JSON: "scalar", "avx2", "neon".
[[nodiscard]] const char* simd_isa_name(SimdIsa isa);

/// Best ISA this binary AND this CPU support; ignores env and overrides.
[[nodiscard]] SimdIsa detect_simd_isa();

/// The ISA the block kernels dispatch to right now: detect_simd_isa()
/// filtered through PMLP_SIMD at first use, until set_simd_isa() overrides.
[[nodiscard]] SimdIsa active_simd_isa();

/// Install `isa` as the active dispatch, clamped to detect_simd_isa()
/// capability (an unavailable ISA degrades to scalar); returns the value
/// actually installed. Thread-safe; meant for tests and benches.
SimdIsa set_simd_isa(SimdIsa isa);

}  // namespace pmlp::core
