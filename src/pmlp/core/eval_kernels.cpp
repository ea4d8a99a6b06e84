#include "pmlp/core/eval_kernels.hpp"

#include <cstddef>
#include <limits>
#include <type_traits>

#include "pmlp/core/eval_engine.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMLP_HAVE_AVX2 1
#endif

// The loop bodies are force-inlined into each ISA clone, so the clone's
// target options (and its vectorization) cover them.
#if defined(__GNUC__) || defined(__clang__)
#define PMLP_FORCE_INLINE inline __attribute__((always_inline))
#else
#define PMLP_FORCE_INLINE inline
#endif

namespace pmlp::core {
namespace {

constexpr int kB = CompiledNet::kBlockSamples;
using FullBlock = std::integral_constant<int, kB>;

/// Activation of one lane, `min(max(acc, lo) >> shift, hi)`: QReLU's
/// `acc <= 0 ? 0 : min(acc >> shift, act_max)` with lo = 0, and the raw
/// accumulator with lo = INT32_MIN, shift 0, hi = INT32_MAX, so both kinds
/// of layer run the same branch-free lane ops.
struct Activation {
  std::int32_t lo;
  int shift;
  std::int32_t hi;

  PMLP_FORCE_INLINE std::int32_t operator()(std::int32_t acc) const {
    const std::int32_t v = (acc > lo ? acc : lo) >> shift;
    return v < hi ? v : hi;
  }
};

/// Sweep one neuron with connections [c, end), c != end, over `len`
/// samples of input planes `in` (stride `len`) into its activation plane
/// `out`. Samples run innermost over one connection at a time, so each
/// pass is a vector op over the contiguous input plane; a full block
/// passes `len` as a constant, and the loop runs at least once, so the
/// compiler keeps the whole accumulator tile in registers. Every sample
/// adds the bias and then its terms in CompiledNet::forward's connection
/// order, the int32 image of the int64 loop.
template <typename Len>
PMLP_FORCE_INLINE void sweep_neuron(const CompiledConn* c,
                                    const CompiledConn* end,
                                    std::int32_t bias, const std::int32_t* in,
                                    std::int32_t* out, Len len,
                                    Activation act) {
  std::int32_t a[kB];
  for (int s = 0; s < len; ++s) a[s] = bias;
  do {
    const std::int32_t* x = in + static_cast<std::size_t>(c->in) * len;
    const auto mask = static_cast<std::int32_t>(c->mask);
    const std::int32_t k = c->shift;
    if (c->neg) {
      for (int s = 0; s < len; ++s) a[s] -= (x[s] & mask) << k;
    } else {
      for (int s = 0; s < len; ++s) a[s] += (x[s] & mask) << k;
    }
  } while (++c != end);
  for (int s = 0; s < len; ++s) out[s] = act(a[s]);
}

PMLP_FORCE_INLINE void sweep_body(const CompiledLayer& layer,
                                  const std::int32_t* in, std::int32_t* planes,
                                  int n, std::int32_t act_max) {
  const CompiledConn* conns = layer.conns.data();
  const std::int32_t* begin = layer.conn_begin.data();
  const Activation act =
      layer.qrelu ? Activation{0, layer.qrelu_shift, act_max}
                  : Activation{std::numeric_limits<std::int32_t>::min(), 0,
                               std::numeric_limits<std::int32_t>::max()};
  for (int o = 0; o < layer.n_out; ++o) {
    const auto bias =
        static_cast<std::int32_t>(layer.biases[static_cast<std::size_t>(o)]);
    std::int32_t* out = planes + static_cast<std::size_t>(o) * n;
    const CompiledConn* c = conns + begin[o];
    const CompiledConn* end = conns + begin[o + 1];
    if (c == end) {
      const std::int32_t v = act(bias);
      for (int s = 0; s < n; ++s) out[s] = v;
    } else if (n == kB) {
      sweep_neuron(c, end, bias, in, out, FullBlock{}, act);
    } else {
      sweep_neuron(c, end, bias, in, out, n, act);
    }
  }
}

/// First-max argmax over the block: per sample a running maximum and its
/// class, replaced only where a later class is strictly greater — exactly
/// argmax_first's tie rule, as a select the compiler vectorizes (cmpgt +
/// blend under AVX2).
PMLP_FORCE_INLINE void argmax_body(const std::int32_t* planes, int n_out,
                                   int n, std::int32_t* preds) {
  std::int32_t best_v[kB];
  for (int s = 0; s < n; ++s) {
    best_v[s] = planes[s];
    preds[s] = 0;
  }
  for (int k = 1; k < n_out; ++k) {
    const std::int32_t* v = planes + static_cast<std::size_t>(k) * n;
    for (int s = 0; s < n; ++s) {
      const bool gt = v[s] > best_v[s];
      best_v[s] = gt ? v[s] : best_v[s];
      preds[s] = gt ? k : preds[s];
    }
  }
}

#if defined(PMLP_HAVE_AVX2)
__attribute__((target("avx2"))) void sweep_avx2(const CompiledLayer& layer,
                                                const std::int32_t* in,
                                                std::int32_t* act, int n,
                                                std::int32_t act_max) {
  sweep_body(layer, in, act, n, act_max);
}

__attribute__((target("avx2"))) void argmax_avx2(const std::int32_t* planes,
                                                 int n_out, int n,
                                                 std::int32_t* preds) {
  argmax_body(planes, n_out, n, preds);
}
#endif

}  // namespace

void layer_sweep(SimdIsa isa, const CompiledLayer& layer,
                 const std::int32_t* in, std::int32_t* act, int n,
                 std::int32_t act_max) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) return sweep_avx2(layer, in, act, n, act_max);
#endif
  (void)isa;
  sweep_body(layer, in, act, n, act_max);
}

void argmax_planes(SimdIsa isa, const std::int32_t* planes, int n_out, int n,
                   std::int32_t* preds) {
#if defined(PMLP_HAVE_AVX2)
  if (isa == SimdIsa::kAvx2) return argmax_avx2(planes, n_out, n, preds);
#endif
  (void)isa;
  argmax_body(planes, n_out, n, preds);
}

}  // namespace pmlp::core
