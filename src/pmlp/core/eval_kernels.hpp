// Sample-blocked layer-sweep and argmax kernels behind the runtime SIMD
// dispatch.
//
// A block holds up to CompiledNet::kBlockSamples samples in neuron-major
// int32 planes: the value of input/activation `i` for sample `s` lives at
// `in[i * n + s]`, stride `n` = the block's sample count. Sweeping a layer
// is then a mask-and-accumulate over contiguous lanes — the Eq. 4 inner
// loop `acc += ±((x & mask) << k)` with samples innermost, with QReLU as
// max/shift/min on the same lanes. The block ends in a first-max argmax
// over the output planes: per sample a running maximum and its class,
// replaced where a later class compares strictly greater, which is exactly
// argmax_first's tie rule.
//
// Each kernel is one portable loop nest, compiled plain (kScalar, kNeon:
// the compiler vectorizes it for the baseline ISA) and as a
// `target("avx2")` clone (kAvx2). A full block runs with a constant
// length, so its accumulator tile stays in registers; a short last block
// runs the same loops at run-time length. Every sample adds the same int32
// terms under every ISA, so results are bit-identical; the caller
// guarantees int32 cannot overflow (the static per-neuron bound
// |bias| + Σ(mask << k) — see CompiledNet::block_safe()).
#pragma once

#include <cstdint>

#include "pmlp/core/simd.hpp"

namespace pmlp::core {

struct CompiledLayer;

/// Sweep one compiled layer over a block of `n` samples. Reads neuron-major
/// input planes `in` (stride `n`) and writes the activation planes (QReLU
/// applied, or the raw accumulator when the layer has none) to `act`,
/// which must not alias `in`. `isa` selects the build; any ISA but kAvx2
/// runs the plain one.
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* act, int n,
                 std::int32_t act_max);

/// Class of each of the block's `n` samples from `n_out` >= 1 output planes
/// (neuron-major, stride `n`): `preds[s]` is the smallest k whose
/// `planes[k * n + s]` is maximal — the argmax_first rule. `isa` selects
/// the build as in layer_sweep.
void argmax_planes(SimdIsa isa, const std::int32_t* planes, int n_out, int n,
                   std::int32_t* preds);

}  // namespace pmlp::core
