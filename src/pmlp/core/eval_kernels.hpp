// Sample-blocked layer-sweep kernels behind the runtime SIMD dispatch.
//
// A block holds up to CompiledNet::kBlockSamples samples in neuron-major
// int32 planes: the value of input/activation `i` for sample `s` lives at
// `in[i * n + s]`, stride `n` = the block's sample count. Sweeping a layer
// is then a mask-and-accumulate over contiguous lanes — the Eq. 4 inner
// loop `acc += ±((x & mask) << k)` vectorizes directly on int32 lanes
// (8-wide AVX2, 4-wide NEON), with QReLU as max/shift/min on the same
// registers. The block ends in a first-max argmax over the output planes:
// AVX2 keeps a running maximum and its class index per lane and replaces
// both where a later class compares strictly greater (`cmpgt` + `blendv`
// over ascending k), which is exactly argmax_first's tie rule; NEON and
// the scalar fallback run the per-sample loop.
//
// Every variant performs the same int32 additions in the same per-neuron
// order as the scalar per-sample path, so results are bit-identical across
// ISAs; the caller guarantees int32 cannot overflow (the static per-neuron
// bound |bias| + Σ(mask << k) — see CompiledNet::block_safe()).
#pragma once

#include <cstdint>

#include "pmlp/core/simd.hpp"

namespace pmlp::core {

struct CompiledLayer;

/// Sweep one compiled layer over a block of `n` samples. Reads neuron-major
/// input planes `in` (stride `n`), writes raw accumulator planes to `acc`
/// and activation planes (QReLU applied, or the raw accumulator when the
/// layer has none) to `act`; `act` may alias `acc` when the caller only
/// needs activations. `isa` selects the variant; an ISA this binary lacks
/// falls back to scalar.
void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* acc, std::int32_t* act,
                 int n, std::int32_t act_max);

/// Class of each of the block's `n` samples from `n_out` >= 1 output planes
/// (neuron-major, stride `n`): `preds[s]` is the smallest k whose
/// `planes[k * n + s]` is maximal — the argmax_first rule. `isa` selects
/// the variant; an ISA without one runs the scalar loop.
void argmax_planes(SimdIsa isa, const std::int32_t* planes, int n_out, int n,
                   std::int32_t* preds);

}  // namespace pmlp::core
