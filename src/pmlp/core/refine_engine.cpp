#include "pmlp/core/refine_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_engine.hpp"
#include "pmlp/core/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMLP_HAVE_AVX2 1
#endif

// The pass and its helpers are force-inlined into each ISA clone, so the
// clone's target options (and its vectorization) cover all of them.
#if defined(__GNUC__) || defined(__clang__)
#define PMLP_FORCE_INLINE inline __attribute__((always_inline))
#else
#define PMLP_FORCE_INLINE inline
#endif

namespace pmlp::core {

/// One candidate edit of neuron (layer, neuron), already applied to the net:
/// a mask-bit clear of connection (neuron, input), or a bias change.
struct RefineEdit {
  int layer = 0;
  int neuron = 0;
  bool shift_changed = false;   ///< the layer's QReLU shift moved
  int input = -1;               ///< cleared connection's input; -1 = bias
  std::uint32_t bit = 0;        ///< the cleared mask bit, as a mask
  int exponent = 0;             ///< the cleared connection's k
  bool neg = false;             ///< the cleared connection's sign is -1
  std::int64_t old_bias = 0;    ///< a bias edit's stored bias
  std::int64_t new_bias = 0;    ///< a bias edit's candidate
};

class RefineMemo {
 public:
  virtual ~RefineMemo() = default;
  /// Correct count of the committed net with `edit` applied, or -1 as soon
  /// as more than `allowed_wrong` samples are wrong. With `commit` the pass
  /// also stores the edited state (the caller knows it will not abort).
  virtual long pass(const ApproxMlp& net, const RefineEdit& edit,
                    long allowed_wrong, bool commit) = 0;
  /// False when a bias of this value would void the lane-width proof.
  [[nodiscard]] virtual bool covers_bias(std::int64_t bias) const = 0;

  long n_correct = 0;  ///< of the committed state
};

namespace {

constexpr int kB = CompiledNet::kBlockSamples;

/// The int32 proof: CompiledNet's static bound |bias| + sum(mask << k) per
/// neuron, with |bias| widened to `bias_limit`, fits int32, as do the QReLU
/// clamp and every shifted mask. Every partial sum the pass forms is the
/// accumulator of some in-range input, so it stays inside the bound too.
bool lanes_fit_int32(const ApproxMlp& net, std::int64_t bias_limit) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if ((std::int64_t{1} << net.bits().act_bits) - 1 > kMax) return false;
  for (const ApproxLayer& layer : net.layers()) {
    const auto in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
    for (int o = 0; o < layer.n_out; ++o) {
      const std::int64_t b = layer.biases[static_cast<std::size_t>(o)];
      std::int64_t bound = std::max(bias_limit, b < 0 ? -b : b);
      for (int i = 0; i < layer.n_in; ++i) {
        const ApproxConn& c = layer.conn(o, i);
        const std::uint32_t m = c.mask & in_mask;
        if (m == 0) continue;
        if (c.exponent < 0 || c.exponent > 30 || m > kMax) return false;
        bound += static_cast<std::int64_t>(m) << c.exponent;
        if (bound > kMax) return false;
      }
    }
  }
  return true;
}

/// QReLU of `n` lanes: `acc <= 0 ? 0 : min(acc >> shift, act_max)`, written
/// branch-free (the shift of a non-negative value is logical, which int64
/// lanes have in AVX2).
template <typename T>
PMLP_FORCE_INLINE void activate(const T* acc, T* act, int shift, T act_max,
                                std::size_t n) {
  using U = std::make_unsigned_t<T>;
  for (std::size_t s = 0; s < n; ++s) {
    const T a = acc[s] > 0 ? acc[s] : T{0};
    const auto v = static_cast<T>(static_cast<U>(a) >> shift);
    act[s] = v < act_max ? v : act_max;
  }
}

/// True when block lanes `a` and `b` differ anywhere.
template <typename T>
PMLP_FORCE_INLINE bool differs(const T* a, const T* b) {
  T d = 0;
  for (int s = 0; s < kB; ++s) d |= a[s] ^ b[s];
  return d != 0;
}

/// Neuron-major memo planes over lane type T plus the what-if pass.
/// Plane 0 holds the labels (-1 on padding lanes, which never count as
/// correct), planes 1..F the input codes, then per layer the accumulator
/// planes and the activation planes (the same planes on a layer without
/// QReLU). Planes are padded to whole blocks, so every pass loop runs
/// exactly kB lanes.
template <typename T>
class PlaneMemo final : public RefineMemo {
 public:
  PlaneMemo(const ApproxMlp& net, const datasets::QuantizedDataset& train,
            std::int64_t bias_limit)
      : n_samples_(train.size()),
        n_blocks_((train.size() + kB - 1) / kB),
        stride_(n_blocks_ * kB),
        n_features_(static_cast<std::size_t>(train.n_features)),
        act_max_(static_cast<T>((std::int64_t{1} << net.bits().act_bits) - 1)),
        bias_limit_(bias_limit) {
    std::size_t q = 1 + n_features_;
    for (const ApproxLayer& layer : net.layers()) {
      const auto w = static_cast<std::size_t>(layer.n_out);
      acc_plane_.push_back(q);
      q += w;
      act_plane_.push_back(layer.qrelu ? q : acc_plane_.back());
      if (layer.qrelu) q += w;
      changed_.emplace_back().reserve(w);
      touched_.emplace_back().reserve(w);
    }
    planes_.assign(q * stride_, 0);
    scratch_.resize(q * kB);
    out_.resize(static_cast<std::size_t>(net.layers().back().n_out));
    block_correct_.resize(n_blocks_);

    T* labels = plane(0);
    std::fill(labels, labels + stride_, T{-1});
    for (std::size_t s = 0; s < n_samples_; ++s) labels[s] = train.labels[s];
    for (std::size_t i = 0; i < n_features_; ++i) {
      T* x = plane(1 + i);
      for (std::size_t s = 0; s < n_samples_; ++s) {
        x[s] = train.codes[s * n_features_ + i];
      }
    }
    rebuild(net);
  }

  long pass(const ApproxMlp& net, const RefineEdit& edit, long allowed_wrong,
            bool commit) override {
#if defined(PMLP_HAVE_AVX2)
    if (active_simd_isa() == SimdIsa::kAvx2) {
      return pass_avx2(net, edit, allowed_wrong, commit);
    }
#endif
    return pass_body(net, edit, allowed_wrong, commit);
  }

  [[nodiscard]] bool covers_bias(std::int64_t bias) const override {
    return bias >= -bias_limit_ && bias <= bias_limit_;
  }

 private:
  T* plane(std::size_t q) { return planes_.data() + q * stride_; }
  T* lanes(std::size_t q) { return scratch_.data() + q * kB; }
  /// Plane of layer `l`'s input `i`: a code plane or the previous layer's
  /// activations.
  [[nodiscard]] std::size_t in_plane(std::size_t l, int i) const {
    return (l == 0 ? 1 : act_plane_[l - 1]) + static_cast<std::size_t>(i);
  }

  /// Full forward of `net` over every plane (sample loop innermost, bias
  /// then terms in connection order: ApproxMlp::forward_layer's adds), then
  /// every block's correct count.
  void rebuild(const ApproxMlp& net) {
    const auto& layers = net.layers();
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const ApproxLayer& layer = layers[l];
      const auto in_mask =
          static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
      for (int o = 0; o < layer.n_out; ++o) {
        T* acc = plane(acc_plane_[l] + static_cast<std::size_t>(o));
        std::fill(acc, acc + stride_,
                  static_cast<T>(layer.biases[static_cast<std::size_t>(o)]));
        for (int i = 0; i < layer.n_in; ++i) {
          const ApproxConn& c = layer.conn(o, i);
          const auto m = static_cast<T>(c.mask & in_mask);
          if (m == 0) continue;  // a provably-zero term
          const T* x = plane(in_plane(l, i));
          for (std::size_t s = 0; s < stride_; ++s) {
            const T t = (x[s] & m) << c.exponent;
            acc[s] += c.sign < 0 ? -t : t;
          }
        }
        if (layer.qrelu) {
          activate(acc, plane(act_plane_[l] + static_cast<std::size_t>(o)),
                   layer.qrelu_shift, act_max_, stride_);
        }
      }
    }
    n_correct = 0;
    for (std::size_t blk = 0; blk < n_blocks_; ++blk) {
      for (std::size_t k = 0; k < out_.size(); ++k) {
        out_[k] = plane(act_plane_.back() + k) + blk * kB;
      }
      block_correct_[blk] = static_cast<std::int32_t>(count_correct(blk));
      n_correct += block_correct_[blk];
    }
  }

  /// Correct lanes of block `blk` whose output planes are `out_`: the
  /// first-index argmax (argmax_first's tie rule) against the label plane.
  PMLP_FORCE_INLINE long count_correct(std::size_t blk) {
    T best[kB];
    T cls[kB];
    for (int s = 0; s < kB; ++s) {
      best[s] = out_[0][s];
      cls[s] = 0;
    }
    for (std::size_t k = 1; k < out_.size(); ++k) {
      const T* v = out_[k];
      const auto kk = static_cast<T>(k);
      for (int s = 0; s < kB; ++s) {
        const bool gt = v[s] > best[s];
        best[s] = gt ? v[s] : best[s];
        cls[s] = gt ? kk : cls[s];
      }
    }
    const T* labels = plane(0) + blk * kB;
    long correct = 0;
    for (int s = 0; s < kB; ++s) correct += cls[s] == labels[s] ? 1 : 0;
    return correct;
  }

  PMLP_FORCE_INLINE long pass_body(const ApproxMlp& net, const RefineEdit& e,
                                   long allowed_wrong, bool commit) {
    const auto& layers = net.layers();
    const std::size_t n_layers = layers.size();
    const std::size_t last = n_layers - 1;
    const auto l0 = static_cast<std::size_t>(e.layer);
    const ApproxLayer& edited = layers[l0];
    // The edited layer re-activates only the edited neuron, or every
    // neuron (from the stored accumulators) when the shift moved.
    const int first = e.shift_changed ? 0 : e.neuron;
    const int stop = e.shift_changed ? edited.n_out : e.neuron + 1;
    const std::size_t qa = acc_plane_[l0] + static_cast<std::size_t>(e.neuron);
    long wrong = 0;
    for (std::size_t blk = 0; blk < n_blocks_; ++blk) {
      const std::size_t base = blk * kB;
      T* na = lanes(qa);
      const T* oa = plane(qa) + base;
      if (e.input >= 0) {
        // Clearing the bit removes sign * ((x & bit) << k).
        const T* x = plane(in_plane(l0, e.input)) + base;
        const auto bit = static_cast<T>(e.bit);
        const int k = e.exponent;
        if (e.neg) {
          for (int s = 0; s < kB; ++s) na[s] = oa[s] + ((x[s] & bit) << k);
        } else {
          for (int s = 0; s < kB; ++s) na[s] = oa[s] - ((x[s] & bit) << k);
        }
      } else {
        // Swap the bias in two in-bound steps (the term sum, then the new
        // accumulator), never forming new - old.
        // Swap the bias in two in-bound steps (the term sum, then the new
        // accumulator), never forming new - old.
        const auto old_b = static_cast<T>(e.old_bias);
        const auto new_b = static_cast<T>(e.new_bias);
        for (int s = 0; s < kB; ++s) na[s] = oa[s] - old_b + new_b;
      }
      changed_[l0].clear();
      for (int n = first; n < stop; ++n) {
        const std::size_t q = act_plane_[l0] + static_cast<std::size_t>(n);
        if (edited.qrelu) {
          const T* acc =
              n == e.neuron
                  ? na
                  : plane(acc_plane_[l0] + static_cast<std::size_t>(n)) + base;
          activate(acc, lanes(q), edited.qrelu_shift, act_max_, kB);
        }
        if (differs(lanes(q), plane(q) + base)) changed_[l0].push_back(n);
      }

      // Later layers: stored accumulators plus term(new) - term(old) over
      // the inputs that changed in this block, until nothing changes.
      std::size_t l = l0 + 1;
      for (; l < n_layers && !changed_[l - 1].empty(); ++l) {
        const ApproxLayer& layer = layers[l];
        const auto in_mask =
            static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
        touched_[l].clear();
        changed_[l].clear();
        for (int p = 0; p < layer.n_out; ++p) {
          const std::size_t q = acc_plane_[l] + static_cast<std::size_t>(p);
          T* acc = lanes(q);
          const T* src = plane(q) + base;
          bool touched = false;
          for (const int j : changed_[l - 1]) {
            const ApproxConn& c = layer.conn(p, j);
            const auto m = static_cast<T>(c.mask & in_mask);
            if (m == 0) continue;
            const std::size_t qj =
                act_plane_[l - 1] + static_cast<std::size_t>(j);
            const T* x_new = lanes(qj);
            const T* x_old = plane(qj) + base;
            const int k = c.exponent;
            if (c.sign < 0) {
              for (int s = 0; s < kB; ++s) {
                acc[s] = src[s] -
                         (((x_new[s] & m) << k) - ((x_old[s] & m) << k));
              }
            } else {
              for (int s = 0; s < kB; ++s) {
                acc[s] = src[s] +
                         (((x_new[s] & m) << k) - ((x_old[s] & m) << k));
              }
            }
            src = acc;
            touched = true;
          }
          if (!touched) continue;
          touched_[l].push_back(p);
          const std::size_t qo = act_plane_[l] + static_cast<std::size_t>(p);
          if (layer.qrelu) {
            activate(acc, lanes(qo), layer.qrelu_shift, act_max_, kB);
          }
          if (differs(lanes(qo), plane(qo) + base)) changed_[l].push_back(p);
        }
      }

      long correct = block_correct_[blk];
      if (l == n_layers && !changed_[last].empty()) {
        for (std::size_t k = 0; k < out_.size(); ++k) {
          out_[k] = plane(act_plane_[last] + k) + base;
        }
        for (const int n : changed_[last]) {
          out_[static_cast<std::size_t>(n)] =
              lanes(act_plane_[last] + static_cast<std::size_t>(n));
        }
        correct = count_correct(blk);
      }
      wrong += static_cast<long>(std::min<std::size_t>(kB, n_samples_ - base));
      wrong -= correct;
      if (!commit) {
        if (wrong > allowed_wrong) return -1;
        continue;
      }

      // Commit this block: its reads of the stored planes are done.
      store(qa, base);
      if (edited.qrelu) {
        for (const int n : changed_[l0]) {
          store(act_plane_[l0] + static_cast<std::size_t>(n), base);
        }
      }
      for (std::size_t ll = l0 + 1; ll < l; ++ll) {
        for (const int p : touched_[ll]) {
          store(acc_plane_[ll] + static_cast<std::size_t>(p), base);
        }
        if (!layers[ll].qrelu) continue;
        for (const int p : changed_[ll]) {
          store(act_plane_[ll] + static_cast<std::size_t>(p), base);
        }
      }
      block_correct_[blk] = static_cast<std::int32_t>(correct);
    }
    return static_cast<long>(n_samples_) - wrong;
  }

#if defined(PMLP_HAVE_AVX2)
  __attribute__((target("avx2"))) long pass_avx2(const ApproxMlp& net,
                                                 const RefineEdit& edit,
                                                 long allowed_wrong,
                                                 bool commit) {
    return pass_body(net, edit, allowed_wrong, commit);
  }
#endif

  /// Copy plane `q`'s block scratch into the stored plane at `base`.
  PMLP_FORCE_INLINE void store(std::size_t q, std::size_t base) {
    const T* src = lanes(q);
    T* dst = plane(q) + base;
    for (int s = 0; s < kB; ++s) dst[s] = src[s];
  }

  std::size_t n_samples_;
  std::size_t n_blocks_;
  std::size_t stride_;  ///< samples padded to whole blocks
  std::size_t n_features_;
  T act_max_;                     ///< QReLU clamp, (1 << act_bits) - 1
  std::int64_t bias_limit_;       ///< |bias| the lane proof covers
  std::vector<std::size_t> acc_plane_, act_plane_;  ///< first plane per layer
  std::vector<T> planes_;         ///< plane q at [q * stride_, + stride_)
  std::vector<T> scratch_;        ///< one block of every plane, q * kB
  std::vector<std::int32_t> block_correct_;
  // Pass work lists per layer: neurons whose accumulator the pass
  // recomputed / whose activations changed in the current block.
  std::vector<std::vector<int>> touched_, changed_;
  std::vector<const T*> out_;     ///< output-layer lanes the argmax reads
};

std::unique_ptr<RefineMemo> make_memo(const ApproxMlp& net,
                                      const datasets::QuantizedDataset& train,
                                      bool wide) {
  const std::int64_t bias_limit =
      std::max(-net.bits().bias_min(), net.bits().bias_max());
  if (!wide && lanes_fit_int32(net, bias_limit)) {
    return std::make_unique<PlaneMemo<std::int32_t>>(net, train, bias_limit);
  }
  return std::make_unique<PlaneMemo<std::int64_t>>(
      net, train, std::numeric_limits<std::int64_t>::max());
}

/// Smallest correct count of `n` samples passing the naive accept test
/// `acc + 1e-12 >= min_acc`; n + 1 when even a perfect scan cannot pass.
long min_correct_for(long n, double min_acc) {
  // The naive accept test verbatim, as a predicate on the correct count.
  // Monotone in c (exact integer-to-double conversion, monotone division),
  // so the binary search finds the exact double-comparison boundary.
  const auto passes = [&](long c) {
    const double acc =
        n == 0 ? 0.0 : static_cast<double>(c) / static_cast<double>(n);
    return acc + 1e-12 >= min_acc;
  };
  if (!passes(n)) return n + 1;
  long lo = 0, hi = n;
  while (lo < hi) {
    const long mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

RefineEngine::RefineEngine(ApproxMlp& net,
                           const datasets::QuantizedDataset& train)
    : net_(net), train_(train) {
  if (train.n_features != net.topology().n_inputs()) {
    throw std::invalid_argument("RefineEngine: dataset/topology mismatch");
  }
  memo_ = make_memo(net_, train_, false);
  accuracy_before_ = accuracy();

  // Sync every shift to the current parameters — what the naive loop's
  // first update_qrelu_shifts() call would do. Arriving with stale shifts
  // is legal (accuracy_before_ already captured the stale view).
  bool stale = false;
  for (int l = 0; l < static_cast<int>(net_.layers().size()); ++l) {
    ApproxLayer& layer = net_.layers()[static_cast<std::size_t>(l)];
    const int s = net_.compute_qrelu_shift(l);
    stale = stale || s != layer.qrelu_shift;
    layer.qrelu_shift = s;
  }
  if (stale) memo_ = make_memo(net_, train_, false);
}

RefineEngine::~RefineEngine() = default;

double RefineEngine::accuracy() const {
  if (train_.size() == 0) return 0.0;
  return static_cast<double>(memo_->n_correct) /
         static_cast<double>(train_.size());
}

std::optional<double> RefineEngine::trial(const RefineEdit& edit,
                                          double min_acc) {
  ++stats_.trials;
  const auto n = static_cast<long>(train_.size());
  const long allowed_wrong = n - min_correct_for(n, min_acc);
  if (allowed_wrong < 0 ||
      memo_->pass(net_, edit, allowed_wrong, /*commit=*/false) < 0) {
    ++stats_.early_aborts;
    return std::nullopt;
  }
  memo_->n_correct = memo_->pass(net_, edit, allowed_wrong, /*commit=*/true);
  return accuracy();
}

std::optional<double> RefineEngine::try_clear_mask_bit(int l, int o, int i,
                                                       int bit,
                                                       double min_acc) {
  ApproxLayer& layer = net_.layers()[static_cast<std::size_t>(l)];
  ApproxConn& c = layer.conn(o, i);
  const std::uint32_t old_mask = c.mask;
  const int old_shift = layer.qrelu_shift;
  c.mask = static_cast<std::uint32_t>(bitops::set_bit(c.mask, bit, false));
  layer.qrelu_shift = net_.compute_qrelu_shift(l);

  RefineEdit edit;
  edit.layer = l;
  edit.neuron = o;
  edit.shift_changed = layer.qrelu_shift != old_shift;
  edit.input = i;
  edit.bit = std::uint32_t{1} << bit;
  edit.exponent = c.exponent;
  edit.neg = c.sign < 0;
  const auto result = trial(edit, min_acc);
  if (!result) {
    c.mask = old_mask;
    layer.qrelu_shift = old_shift;
  }
  return result;
}

std::optional<double> RefineEngine::try_set_bias(int l, int o,
                                                 std::int64_t candidate,
                                                 double min_acc) {
  // A candidate beyond the proven bias range moves the planes to int64
  // lanes, rebuilt from the committed state, before the edit.
  if (!memo_->covers_bias(candidate)) memo_ = make_memo(net_, train_, true);
  ApproxLayer& layer = net_.layers()[static_cast<std::size_t>(l)];
  std::int64_t& bias = layer.biases[static_cast<std::size_t>(o)];
  const std::int64_t old_bias = bias;
  const int old_shift = layer.qrelu_shift;
  bias = candidate;
  layer.qrelu_shift = net_.compute_qrelu_shift(l);

  RefineEdit edit;
  edit.layer = l;
  edit.neuron = o;
  edit.shift_changed = layer.qrelu_shift != old_shift;
  edit.old_bias = old_bias;
  edit.new_bias = candidate;
  const auto result = trial(edit, min_acc);
  if (!result) {
    bias = old_bias;
    layer.qrelu_shift = old_shift;
  }
  return result;
}

}  // namespace pmlp::core
