#include "pmlp/core/eval_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "pmlp/adder/fa_model.hpp"
#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/eval_kernels.hpp"
#include "pmlp/core/simd.hpp"

namespace pmlp::core {
namespace {

/// Static int32-safety proof for the blocked kernels: `(x & mask) <= mask`
/// no matter the input, so |any partial accumulator| of neuron `o` is
/// bounded by `|bias| + sum(mask << k)` over its connections. When every
/// neuron's bound (and the QReLU clamp, and each shifted mask) fits int32,
/// the narrow kernels compute exactly what the int64 sample loop does.
bool layers_block_safe(const std::vector<CompiledLayer>& layers,
                       std::int64_t act_max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (act_max > kMax) return false;
  for (const auto& layer : layers) {
    for (int o = 0; o < layer.n_out; ++o) {
      std::int64_t bound = layer.biases[static_cast<std::size_t>(o)];
      bound = bound < 0 ? -bound : bound;
      const std::int32_t end = layer.conn_begin[static_cast<std::size_t>(o) + 1];
      for (std::int32_t c = layer.conn_begin[static_cast<std::size_t>(o)];
           c < end; ++c) {
        const CompiledConn& cc = layer.conns[static_cast<std::size_t>(c)];
        if (cc.shift < 0 || cc.shift > 30 || cc.mask > kMax) return false;
        bound += static_cast<std::int64_t>(cc.mask) << cc.shift;
        if (bound > kMax) return false;
      }
    }
  }
  return true;
}

/// Transpose `b` row-major samples (`n_in` codes each) into neuron-major
/// int32 planes: feature `i` of sample `s` lands at `out[i * b + s]`.
void transpose_block(const std::uint8_t* rows, int n_in, int b,
                     std::int32_t* out) {
  for (int i = 0; i < n_in; ++i) {
    std::int32_t* plane = out + static_cast<std::size_t>(i) * b;
    for (int s = 0; s < b; ++s) {
      plane[s] = rows[static_cast<std::size_t>(s) * n_in + i];
    }
  }
}

/// Samples in the block starting at `base` of an `n`-sample set.
int block_size(std::size_t base, std::size_t n) {
  return static_cast<int>(
      std::min<std::size_t>(CompiledNet::kBlockSamples, n - base));
}

}  // namespace

SamplePlanes::SamplePlanes(const datasets::QuantizedDataset& source)
    : source_(source),
      planes_(source.codes.size()),
      labels_(source.labels.begin(), source.labels.end()) {
  const int n_in = source.n_features;
  for (std::size_t base = 0; base < size(); base += CompiledNet::kBlockSamples) {
    const std::size_t offset = base * static_cast<std::size_t>(n_in);
    transpose_block(source.codes.data() + offset, n_in,
                    block_size(base, size()), planes_.data() + offset);
  }
}

CompiledNet::CompiledNet(const ApproxMlp& net) {
  n_inputs_ = net.topology().n_inputs();
  max_width_ = n_inputs_;
  act_max_ = (std::int64_t{1} << net.bits().act_bits) - 1;

  // One scratch spec reused across neurons: the FA-count streams out of the
  // same walk that collects active connections, so the training path never
  // materializes the all-neurons adder_specs() vector.
  adder::NeuronAdderSpec scratch;
  layers_.reserve(net.layers().size());
  for (const auto& layer : net.layers()) {
    const auto in_mask =
        static_cast<std::uint32_t>(bitops::low_mask(layer.input_bits));
    CompiledLayer cl;
    cl.n_in = layer.n_in;
    cl.n_out = layer.n_out;
    cl.qrelu = layer.qrelu;
    cl.qrelu_shift = layer.qrelu_shift;
    cl.biases = layer.biases;
    cl.conn_begin.reserve(static_cast<std::size_t>(layer.n_out) + 1);
    cl.conn_begin.push_back(0);
    for (int o = 0; o < layer.n_out; ++o) {
      scratch.summands.clear();
      scratch.bias = layer.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.n_in; ++i) {
        const ApproxConn& c = layer.conn(o, i);
        const std::uint32_t m = c.mask & in_mask;
        if (m == 0) continue;  // fully pruned: provably-zero term
        cl.conns.push_back(CompiledConn{i, m, c.exponent, c.sign < 0 ? 1 : 0});
        scratch.summands.push_back(
            adder::SummandSpec{c.mask, layer.input_bits, c.exponent, c.sign});
      }
      cl.conn_begin.push_back(static_cast<std::int32_t>(cl.conns.size()));
      fa_area_ += adder::estimate_total_fa(scratch);
    }
    max_width_ = std::max(max_width_, cl.n_out);
    n_outputs_ = cl.n_out;
    layers_.push_back(std::move(cl));
  }
  block_safe_ = !layers_.empty() && layers_block_safe(layers_, act_max_);
  if (block_safe_) act_max32_ = static_cast<std::int32_t>(act_max_);
}

std::span<const std::int64_t> CompiledNet::forward(
    std::span<const std::uint8_t> x, EvalWorkspace& ws) const {
  if (x.size() != static_cast<std::size_t>(n_inputs_)) {
    throw std::invalid_argument("CompiledNet::forward: bad input size");
  }
  ws.bind(*this);
  std::int64_t* cur = ws.a_.data();
  std::int64_t* nxt = ws.b_.data();
  for (std::size_t i = 0; i < x.size(); ++i) cur[i] = x[i];

  for (const auto& layer : layers_) {
    const CompiledConn* conns = layer.conns.data();
    const std::int32_t* begin = layer.conn_begin.data();
    for (int o = 0; o < layer.n_out; ++o) {
      std::int64_t acc = layer.biases[static_cast<std::size_t>(o)];
      const std::int32_t end = begin[o + 1];
      for (std::int32_t c = begin[o]; c < end; ++c) {
        const CompiledConn& cc = conns[c];
        const std::int64_t term = static_cast<std::int64_t>(
            static_cast<std::uint32_t>(cur[cc.in]) & cc.mask)
            << cc.shift;
        acc += cc.neg ? -term : term;
      }
      if (layer.qrelu) {
        acc = acc <= 0 ? 0 : std::min(acc >> layer.qrelu_shift, act_max_);
      }
      nxt[o] = acc;
    }
    std::swap(cur, nxt);
  }
  return {cur, static_cast<std::size_t>(n_outputs_)};
}

int CompiledNet::predict(std::span<const std::uint8_t> x,
                         EvalWorkspace& ws) const {
  return argmax_first(forward(x, ws));
}

const std::int32_t* CompiledNet::sweep_block(SimdIsa isa,
                                             const std::int32_t* in, int n,
                                             EvalWorkspace& ws) const {
  // Layer 0 reads `in`; later layers ping-pong between the two block
  // buffers, so a raw-row block transposed into block_b_ is consumed by
  // layer 0 before layer 1 overwrites it.
  const std::int32_t* cur = in;
  std::int32_t* nxt = ws.block_a_.data();
  std::int32_t* spare = ws.block_b_.data();
  for (const auto& layer : layers_) {
    layer_sweep(isa, layer, cur, nxt, n, act_max32_);
    cur = nxt;
    std::swap(nxt, spare);
  }
  return cur;
}

double CompiledNet::accuracy(const SamplePlanes& data,
                             EvalWorkspace& ws) const {
  const datasets::QuantizedDataset& d = data.source();
  if (d.n_features != n_inputs_) {
    throw std::invalid_argument(
        "CompiledNet::accuracy: dataset feature width mismatch");
  }
  const std::size_t n = data.size();
  if (n == 0) return 0.0;
  std::size_t correct = 0;
  if (!block_safe_) {
    for (std::size_t s = 0; s < n; ++s) {
      if (predict(d.row(s), ws) == d.labels[s]) ++correct;
    }
  } else {
    const SimdIsa isa = active_simd_isa();
    ws.bind_block(*this);
    std::int32_t preds[kBlockSamples] = {};
    const std::int32_t* labels = data.labels();
    for (std::size_t base = 0; base < n; base += kBlockSamples) {
      const int b = block_size(base, n);
      argmax_planes(isa, sweep_block(isa, data.block(base), b, ws),
                    n_outputs_, b, preds);
      for (int s = 0; s < b; ++s) {
        if (preds[s] == labels[base + static_cast<std::size_t>(s)]) ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

void CompiledNet::predict_batch(const std::uint8_t* codes, std::size_t n,
                                std::int32_t* preds, EvalWorkspace& ws) const {
  if (n == 0) return;
  if (!block_safe_) {
    // Overflow-unprovable net (never produced by a BitConfig decode at the
    // paper's widths): keep the exact int64 per-sample path.
    for (std::size_t s = 0; s < n; ++s) {
      preds[s] = predict(
          {codes + s * static_cast<std::size_t>(n_inputs_),
           static_cast<std::size_t>(n_inputs_)},
          ws);
    }
    return;
  }
  const SimdIsa isa = active_simd_isa();
  ws.bind_block(*this);
  for (std::size_t base = 0; base < n; base += kBlockSamples) {
    const int b = block_size(base, n);
    transpose_block(codes + base * static_cast<std::size_t>(n_inputs_),
                    n_inputs_, b, ws.block_b_.data());
    argmax_planes(isa, sweep_block(isa, ws.block_b_.data(), b, ws),
                  n_outputs_, b, preds + base);
  }
}

std::span<const std::int32_t> CompiledNet::predict_batch(
    const datasets::QuantizedDataset& d, EvalWorkspace& ws) const {
  if (d.n_features != n_inputs_) {
    throw std::invalid_argument(
        "CompiledNet::predict_batch: dataset feature width mismatch");
  }
  if (ws.preds_.size() < d.size()) ws.preds_.resize(d.size());
  predict_batch(d.codes.data(), d.size(), ws.preds_.data(), ws);
  return {ws.preds_.data(), d.size()};
}

void EvalWorkspace::bind(const CompiledNet& net) {
  const auto width = static_cast<std::size_t>(net.max_width_);
  if (a_.size() < width) {
    a_.resize(width);
    b_.resize(width);
  }
}

void EvalWorkspace::bind_block(const CompiledNet& net) {
  const auto need = static_cast<std::size_t>(net.max_width_) *
                    static_cast<std::size_t>(CompiledNet::kBlockSamples);
  if (block_a_.size() < need) {
    block_a_.resize(need);
    block_b_.resize(need);
  }
}

bool EvalCache::lookup(std::span<const int> genes,
                       nsga2::Problem::Evaluation& out) {
  if (capacity_ == 0) return false;
  const std::uint64_t h = nsga2::genome_hash(genes);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(h);
  if (it != index_.end() &&
      std::equal(genes.begin(), genes.end(), it->second->genes.begin(),
                 it->second->genes.end())) {
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->ev;
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

void EvalCache::insert(std::span<const int> genes,
                       const nsga2::Problem::Evaluation& ev) {
  if (capacity_ == 0) return;
  const std::uint64_t h = nsga2::genome_hash(genes);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(h);
  if (it != index_.end()) {
    // Concurrent duplicate compute, or a hash collision: keep the newest
    // genome for this slot (exact gene compare in lookup keeps it correct).
    it->second->genes.assign(genes.begin(), genes.end());
    it->second->ev = ev;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{h, {genes.begin(), genes.end()}, ev});
  index_[h] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
  }
}

std::size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pmlp::core
