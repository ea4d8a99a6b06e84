#include "pmlp/core/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "pmlp/bitops/bitops.hpp"
#include "pmlp/core/worker.hpp"

namespace pmlp::core {

namespace {

// ------------------------------------------------------------ field kinds
// Every format below is one describe() over these field kinds. Writer and
// Reader implement the same member set, so a single description yields
// both directions:
//
//   header(magic)        "<magic> v1" line
//   tag(t) / end()       a line's leading tag; `end` closes the format
//   num(v[, lo[, hi]])   integer, range-checked on read
//   hexfloat(v)          exact double ("%a")
//   flag(b) / sign(s)    0|1 boolean, -1|1 sign
//   word(s)              one whitespace-free token
//   text(s) / name(s)    rest of the line (name(): "-" stands for "")
//   list(v, n, fn)       n elements, each described by fn
//   at(v, i)             element i of a flat array (grown on read)
//   reserve(v, n)        reader-only: capacity for a flat array's n elements
//   build(obj, make)     reader-only: construct obj once its shape is known
//   check(ok, why)       reader-only consistency check
//
// The writer opens a line at each tag and closes it at the next one, so the
// descriptions never spell out separators or newlines.

class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::ostream& os) : os_(os) {}

  void header(const char* magic) {
    if (what_ == nullptr) what_ = magic;
    tag(magic);
    os_ << " v1";
  }
  void tag(const char* t) {
    if (open_) os_ << '\n';
    os_ << t;
    open_ = true;
  }
  void end() { tag("end"); }
  template <class T, class... Bounds>
  void num(T& v, Bounds...) {
    os_ << ' ' << +v;
  }
  void hexfloat(double& v) {
    os_ << ' ';
    write_hexdouble(os_, v);
  }
  void flag(bool& b) { os_ << ' ' << (b ? 1 : 0); }
  void sign(int& s) { os_ << ' ' << (s < 0 ? -1 : 1); }
  void word(std::string& s) { os_ << ' ' << s; }
  void text(std::string& s) {
    os_ << ' ';
    for (char c : s) os_ << (c == '\n' || c == '\r' ? ' ' : c);
  }
  void name(std::string& s) {
    if (s.empty()) {
      os_ << " -";
    } else {
      text(s);
    }
  }
  /// Widths that run up to the next tag (the approx-mlp v1 topology line).
  void open_list(std::vector<int>& v, const char*) {
    for (int x : v) os_ << ' ' << x;
  }
  template <class Vec, class Fn>
  void list(Vec& v, std::size_t, Fn&& fn) {
    for (auto& e : v) fn(e);
  }
  template <class Vec>
  auto& at(Vec& v, std::size_t i) {
    return v[i];
  }
  template <class Vec>
  void reserve(Vec&, std::size_t) {}
  template <class T, class Make>
  void build(T&, Make&&) {}
  void check(bool, const char*) {}

  /// Close the last line; throws std::runtime_error on stream failure.
  void finish() {
    if (open_) os_ << '\n';
    open_ = false;
    if (!os_) {
      throw std::runtime_error(std::string(what_ ? what_ : "artifact") +
                               ": stream failure");
    }
  }

 private:
  std::ostream& os_;
  const char* what_ = nullptr;
  bool open_ = false;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::istream& is) : is_(is) {}

  void header(const char* magic) {
    if (what_ == nullptr) what_ = magic;
    std::string m, v;
    if (!next(m) || m != magic || !next(v) || v != "v1") fail("bad header");
  }
  void tag(const char* t) {
    std::string got;
    if (!next(got)) {
      fail(std::string("expected '") + t + "', got end of input");
    }
    if (got != t) {
      fail(std::string("expected '") + t + "', got '" + got + "'");
    }
    line_ = t;
  }
  void end() { tag("end"); }
  template <class T>
  void num(T& v) {
    num(v, std::numeric_limits<T>::min(), std::numeric_limits<T>::max());
  }
  template <class T, class Lo>
  void num(T& v, Lo lo) {
    num(v, lo, std::numeric_limits<T>::max());
  }
  template <class T, class Lo, class Hi>
  void num(T& v, Lo lo, Hi hi) {
    // Widest type of T's signedness: `is >>` into it, then range-check —
    // never into a char-sized T, which would read a character.
    using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                    unsigned long long>;
    Wide w{};
    if (!(is_ >> w)) fail(std::string("malformed value in '") + line_ + "'");
    if (std::cmp_less(w, lo) || std::cmp_greater(w, hi)) {
      fail("value " + std::to_string(w) + " out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "] in '" +
           line_ + "'");
    }
    v = static_cast<T>(w);
  }
  void hexfloat(double& v) { v = read_hexdouble(is_, what_); }
  void flag(bool& b) {
    int v = 0;
    num(v, 0, 1);
    b = v == 1;
  }
  void sign(int& s) {
    num(s, -1, 1);
    check(s != 0, "sign must be -1 or 1");
  }
  void word(std::string& s) {
    if (!(is_ >> s)) fail(std::string("missing value in '") + line_ + "'");
  }
  void text(std::string& s) {
    while (is_.peek() == ' ' || is_.peek() == '\t') is_.get();
    std::getline(is_, s);
    while (!s.empty() && (s.back() == '\r' || s.back() == ' ')) s.pop_back();
  }
  void name(std::string& s) {
    text(s);
    if (s.empty()) fail(std::string("missing value in '") + line_ + "'");
    if (s == "-") s.clear();
  }
  void open_list(std::vector<int>& v, const char* stop) {
    v.clear();
    for (const std::string* t; (t = peek()) != nullptr && *t != stop;) {
      try {
        v.push_back(std::stoi(*t));
      } catch (const std::exception&) {
        fail("bad entry '" + *t + "' in '" + line_ + "'");
      }
      pending_.reset();
    }
  }
  template <class Vec, class Fn>
  void list(Vec& v, std::size_t n, Fn&& fn) {
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) fn(v.emplace_back());
  }
  template <class Vec>
  auto& at(Vec& v, std::size_t i) {
    if (i >= v.size()) v.resize(i + 1);
    return v[i];
  }
  template <class Vec>
  void reserve(Vec& v, std::size_t n) {
    v.reserve(n);
  }
  template <class T, class Make>
  void build(T& obj, Make&& make) {
    obj = make();
  }
  void check(bool ok, const char* why) {
    if (!ok) fail(why);
  }

  /// The next tag without consuming it; nullptr at end of input.
  const std::string* peek() {
    if (!pending_) {
      std::string tok;
      if (!(is_ >> tok)) return nullptr;
      pending_ = std::move(tok);
    }
    return &*pending_;
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument(std::string(what_ ? what_ : "artifact") +
                                ": " + why);
  }

 private:
  bool next(std::string& t) {
    if (pending_) {
      t = std::move(*pending_);
      pending_.reset();
      return true;
    }
    return static_cast<bool>(is_ >> t);
  }

  std::istream& is_;
  const char* what_ = nullptr;
  const char* line_ = "";
  std::optional<std::string> pending_;  ///< one peeked tag
};

/// A value that must equal its position (layer and neuron indices).
template <class Io, class I>
void ordinal(Io& io, I i) {
  I v = i;
  io.num(v, i, i);
}

template <class T>
void write_text(const T& value, std::ostream& os) {
  Writer w(os);
  describe(w, const_cast<T&>(value));  // the writer only reads
  w.finish();
}

template <class T>
T read_text(std::istream& is) {
  Reader r(is);
  T value{};
  describe(r, value);
  return value;
}

// ------------------------------------------------------------- descriptions

constexpr std::size_t kMaxPoints = std::size_t{1} << 24;

/// pmlp-approx-mlp v1. The standalone file runs to end of input; the
/// embedded block stops at `terminator`. Its body lines address themselves
/// and v1 readers have always taken them in any order and any subset
/// (missing connections stay zero), so this reader dispatches on each tag;
/// the line layouts are shared with the writer.
template <class Io>
void describe(Io& io, ApproxMlp& net, const char* terminator = nullptr) {
  io.header("pmlp-approx-mlp");
  mlp::Topology topo = net.topology();
  BitConfig b = net.bits();
  io.tag("topology");
  io.open_list(topo.layers, "bits");
  io.check(topo.layers.size() >= 2, "malformed topology/bits");
  io.tag("bits");
  io.num(b.weight_bits, 2, 16);
  io.num(b.input_bits, 1, 8);
  io.num(b.act_bits, 1, 16);
  io.num(b.bias_bits, 2, 24);
  io.build(net, [&] { return ApproxMlp(topo, b); });

  const int n_layers = static_cast<int>(net.layers().size());
  auto layer_line = [&](int& l) {
    io.tag("layer");
    io.num(l, 0, n_layers - 1);
  };
  auto conn_line = [&](int l, int o, int i) {
    io.tag("conn");
    io.check(l >= 0, "conn before layer");
    ApproxLayer& layer = net.layers()[static_cast<std::size_t>(l)];
    io.num(o, 0, layer.n_out - 1);
    io.num(i, 0, layer.n_in - 1);
    ApproxConn& c = layer.conn(o, i);
    io.num(c.mask, 0, bitops::low_mask(layer.input_bits));
    io.sign(c.sign);
    io.num(c.exponent, 0, b.max_exponent());
  };
  auto bias_line = [&](int l, int o) {
    io.tag("bias");
    io.check(l >= 0, "bias before layer");
    ApproxLayer& layer = net.layers()[static_cast<std::size_t>(l)];
    io.num(o, 0, layer.n_out - 1);
    io.num(layer.biases[static_cast<std::size_t>(o)], b.bias_min(),
           b.bias_max());
  };

  if constexpr (Io::kReading) {
    int l = -1;
    for (const std::string* t;
         (t = io.peek()) != nullptr &&
         (terminator == nullptr || *t != terminator);) {
      if (*t == "layer") {
        layer_line(l);
      } else if (*t == "conn") {
        conn_line(l, 0, 0);
      } else if (*t == "bias") {
        bias_line(l, 0);
      } else {
        io.fail("unknown tag " + *t);
      }
    }
    net.update_qrelu_shifts();
  } else {
    for (int l = 0; l < n_layers; ++l) {
      layer_line(l);
      const ApproxLayer& layer = net.layers()[static_cast<std::size_t>(l)];
      for (int o = 0; o < layer.n_out; ++o) {
        for (int i = 0; i < layer.n_in; ++i) conn_line(l, o, i);
      }
      for (int o = 0; o < layer.n_out; ++o) bias_line(l, o);
    }
  }
}

/// An approx-mlp block embedded in a training or evaluated set.
template <class Io>
void model_block(Io& io, ApproxMlp& net) {
  io.tag("model");
  describe(io, net, "endmodel");
  io.tag("endmodel");
}

/// "topology <count> <width>..." of the float and quant MLP formats.
template <class Io>
void describe_topology(Io& io, mlp::Topology& topo) {
  std::size_t n = topo.layers.size();
  io.tag("topology");
  io.num(n, 2, 64);
  io.list(topo.layers, n, [&](int& width) { io.num(width, 1, 1 << 20); });
}

/// area / power / delay / cell count, shared by baseline and evaluated sets.
template <class Io>
void describe_cost(Io& io, hwmodel::CircuitCost& c) {
  io.hexfloat(c.area_mm2);
  io.hexfloat(c.power_uw);
  io.hexfloat(c.critical_delay_us);
  io.num(c.cell_count, 0);
}

template <class Io>
void describe(Io& io, datasets::Dataset& d) {
  io.header("pmlp-dataset");
  io.tag("name");
  io.name(d.name);
  std::size_t n = d.size();
  io.tag("shape");
  io.num(d.n_features, 1);
  io.num(d.n_classes, 1);
  io.num(n, 0, std::size_t{1} << 32);
  const auto nf = static_cast<std::size_t>(d.n_features);
  io.reserve(d.labels, n);
  io.reserve(d.features, n * nf);
  for (std::size_t r = 0; r < n; ++r) {
    io.tag("row");
    io.num(io.at(d.labels, r), 0, d.n_classes - 1);
    for (std::size_t f = 0; f < nf; ++f) {
      io.hexfloat(io.at(d.features, r * nf + f));
    }
  }
  io.end();
}

template <class Io>
void describe(Io& io, datasets::QuantizedDataset& d) {
  io.header("pmlp-quant-dataset");
  io.tag("name");
  io.name(d.name);
  std::size_t n = d.size();
  io.tag("shape");
  io.num(d.n_features, 1);
  io.num(d.n_classes, 1);
  io.num(d.input_bits, 1, 8);
  io.num(n, 0, std::size_t{1} << 32);
  const auto nf = static_cast<std::size_t>(d.n_features);
  const unsigned max_code = (1u << d.input_bits) - 1u;
  io.reserve(d.labels, n);
  io.reserve(d.codes, n * nf);
  for (std::size_t r = 0; r < n; ++r) {
    io.tag("row");
    io.num(io.at(d.labels, r), 0, d.n_classes - 1);
    for (std::size_t f = 0; f < nf; ++f) {
      io.num(io.at(d.codes, r * nf + f), 0u, max_code);
    }
  }
  io.end();
}

template <class Io>
void describe(Io& io, mlp::FloatMlp& net) {
  io.header("pmlp-float-mlp");
  mlp::Topology topo = net.topology();
  describe_topology(io, topo);
  io.build(net, [&] { return mlp::FloatMlp(topo, /*seed=*/0); });
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    mlp::DenseLayer& layer = net.layers()[l];
    io.tag("layer");
    ordinal(io, l);
    for (int o = 0; o < layer.n_out; ++o) {
      io.tag("w");
      ordinal(io, o);
      for (int i = 0; i < layer.n_in; ++i) io.hexfloat(layer.weight(o, i));
    }
    for (int o = 0; o < layer.n_out; ++o) {
      io.tag("b");
      ordinal(io, o);
      io.hexfloat(layer.biases[static_cast<std::size_t>(o)]);
    }
  }
  io.end();
}

/// Zero-filled layers shaped by `topo`, for the quant-mlp reader to fill.
std::vector<mlp::QuantLayer> zero_quant_layers(const mlp::Topology& topo) {
  std::vector<mlp::QuantLayer> layers(
      static_cast<std::size_t>(topo.n_layers()));
  for (std::size_t l = 0; l < layers.size(); ++l) {
    auto& layer = layers[l];
    layer.n_in = topo.layers[l];
    layer.n_out = topo.layers[l + 1];
    layer.weights.assign(
        static_cast<std::size_t>(layer.n_in) * layer.n_out, 0);
    layer.biases.assign(static_cast<std::size_t>(layer.n_out), 0);
  }
  return layers;
}

template <class Io>
void describe(Io& io, mlp::QuantMlp& net) {
  io.header("pmlp-quant-mlp");
  mlp::Topology topo = net.topology();
  describe_topology(io, topo);
  int weight_bits = net.weight_bits(), act_bits = net.activation_bits();
  io.tag("bits");
  io.num(weight_bits, 2, 24);
  io.num(act_bits, 1, 24);
  io.build(net, [&] {
    return mlp::QuantMlp(topo, zero_quant_layers(topo), weight_bits, act_bits);
  });
  const std::int64_t limit = std::int64_t{1} << (weight_bits - 1);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    mlp::QuantLayer& layer = net.layers()[l];
    io.tag("layer");
    ordinal(io, l);
    io.num(layer.input_bits, 1, 24);
    io.num(layer.qrelu_shift, 0, 63);
    for (int o = 0; o < layer.n_out; ++o) {
      io.tag("w");
      ordinal(io, o);
      for (int i = 0; i < layer.n_in; ++i) {
        io.num(layer.weights[static_cast<std::size_t>(o) * layer.n_in + i],
               -limit, limit - 1);
      }
    }
    for (int o = 0; o < layer.n_out; ++o) {
      io.tag("b");
      ordinal(io, o);
      io.num(layer.biases[static_cast<std::size_t>(o)]);
    }
  }
  io.end();
}

template <class Io>
void describe(Io& io, BaselinePricing& p) {
  io.header("pmlp-baseline");
  io.tag("cost");
  describe_cost(io, p.cost);
  io.tag("train_accuracy");
  io.hexfloat(p.train_accuracy);
  io.tag("test_accuracy");
  io.hexfloat(p.test_accuracy);
  describe(io, p.net);
  io.end();
}

template <class Io>
void describe(Io& io, TrainingResult& r) {
  io.header("pmlp-training");
  io.tag("counters");
  io.num(r.evaluations, 0);
  io.hexfloat(r.wall_seconds);
  io.hexfloat(r.baseline_train_accuracy);
  io.hexfloat(r.evals_per_second);
  io.num(r.cache_hits, 0);
  io.hexfloat(r.cache_hit_rate);
  std::size_t n = r.estimated_pareto.size();
  io.tag("count");
  io.num(n, 0, kMaxPoints);
  io.list(r.estimated_pareto, n, [&](EstimatedPoint& p) {
    io.tag("point");
    io.hexfloat(p.train_accuracy);
    io.num(p.fa_area, 0);
    model_block(io, p.model);
  });
  io.end();
}

/// `Points` is a span when writing (the saver takes one) and a vector when
/// reading.
template <class Io, class Points>
void describe_evaluated(Io& io, Points& points) {
  io.header("pmlp-evaluated");
  std::size_t n = points.size();
  io.tag("count");
  io.num(n, 0, kMaxPoints);
  io.list(points, n, [&](HwEvaluatedPoint& p) {
    io.tag("point");
    io.hexfloat(p.test_accuracy);
    io.num(p.fa_area, 0);
    io.flag(p.functional_match);
    describe_cost(io, p.cost);
    model_block(io, p.model);
  });
  io.end();
}

template <class Io>
void describe(Io& io, nsga2::GenerationState& s) {
  io.header("pmlp-ga-state");
  io.tag("generation");
  io.num(s.next_generation, 0);
  io.tag("evaluations");
  io.num(s.evaluations, 0);
  // The mt19937_64 serialization is space-separated tokens: one tagged
  // line, taken verbatim.
  io.tag("rng");
  io.text(s.rng);
  io.check(!s.rng.empty(), "missing rng state");
  std::size_t n = s.population.size();
  std::size_t n_genes = n ? s.population.front().genes.size() : 0;
  std::size_t n_obj = n ? s.population.front().objectives.size() : 0;
  io.tag("population");
  io.num(n, 0, std::size_t{1} << 20);
  io.num(n_genes, 0, std::size_t{1} << 20);
  io.num(n_obj, 0, 16);
  io.list(s.population, n, [&](nsga2::Individual& ind) {
    io.tag("ind");
    io.num(ind.rank, -1);
    io.hexfloat(ind.crowding);
    io.hexfloat(ind.constraint_violation);
    io.tag("genes");
    io.list(ind.genes, n_genes, [&](int& g) { io.num(g); });
    io.tag("obj");
    io.list(ind.objectives, n_obj, [&](double& o) { io.hexfloat(o); });
  });
  io.end();
}

template <class Io>
void describe(Io& io, FlowMeta& m) {
  io.header("pmlp-flow-meta");
  io.tag("dataset");
  io.name(m.dataset);
  io.tag("digest");
  io.num(m.digest);
  io.tag("config");
  io.num(m.config);
  io.end();
}

template <class Io>
void describe(Io& io, CampaignManifest& m) {
  io.header("pmlp-campaign");
  io.tag("population");
  io.num(m.population, 1);
  io.tag("generations");
  io.num(m.generations, 1);
  io.tag("ga_checkpoint");
  io.num(m.ga_checkpoint, 0);
  std::size_t n = m.flows.size();
  io.tag("flows");
  io.num(n, 0, std::size_t{1} << 20);
  io.list(m.flows, n, [&](CampaignManifestFlow& f) {
    io.tag("flow");
    io.word(f.name);
    io.word(f.dataset);
    io.num(f.seed);
    if constexpr (Io::kReading) {
      for (std::size_t i = 0; i + 1 < m.flows.size(); ++i) {
        if (m.flows[i].name == f.name) {
          io.fail("duplicate flow '" + f.name + "'");
        }
      }
    }
  });
  io.end();
}

template <class Io>
void describe(Io& io, lease::ClaimInfo& c) {
  io.header("pmlp-claim");
  io.tag("worker");
  io.word(c.worker);
  io.tag("host");
  io.word(c.host);
  io.tag("pid");
  io.num(c.pid);
  io.end();
}

template <class Io>
void describe(Io& io, BeatRecord& b) {
  io.header("pmlp-beat");
  io.tag("worker");
  io.word(b.worker);
  io.tag("count");
  io.num(b.count);
  io.end();
}

template <class Io>
void describe(Io& io, FailureRecord& f) {
  io.header("pmlp-failures");
  io.tag("count");
  io.num(f.count, 0);
  io.tag("error");
  io.text(f.error);
  io.end();
}

template <class Io>
void describe(Io& io, DoneMarker& d) {
  io.header("pmlp-done");
  io.tag("worker");
  io.word(d.worker);
  io.end();
}

template <class Io>
void describe(Io& io, FailedMarker& f) {
  io.header("pmlp-failed");
  io.tag("worker");
  io.word(f.worker);
  io.tag("error");
  io.text(f.error);
  io.end();
}

}  // namespace

// ---------------------------------------------------------- entry points

template <class T>
void save_record(const T& record, std::ostream& os) {
  write_text(record, os);
}

template <class T>
T load_record(std::istream& is) {
  return read_text<T>(is);
}

#define PMLP_RECORD(T)                                       \
  template void save_record<T>(const T&, std::ostream&);     \
  template T load_record<T>(std::istream&);
PMLP_RECORD(FlowMeta)
PMLP_RECORD(CampaignManifest)
PMLP_RECORD(lease::ClaimInfo)
PMLP_RECORD(BeatRecord)
PMLP_RECORD(FailureRecord)
PMLP_RECORD(DoneMarker)
PMLP_RECORD(FailedMarker)
#undef PMLP_RECORD

void save_model(const ApproxMlp& net, std::ostream& os) { write_text(net, os); }

std::string to_text(const ApproxMlp& net) {
  std::ostringstream os;
  save_model(net, os);
  return os.str();
}

ApproxMlp load_model(std::istream& is) { return read_text<ApproxMlp>(is); }

ApproxMlp from_text(const std::string& text) {
  std::istringstream is(text);
  return load_model(is);
}

void save_model_file(const ApproxMlp& net, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(net, os);
}

ApproxMlp load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(is);
}

void save_dataset(const datasets::Dataset& d, std::ostream& os) {
  write_text(d, os);
}
datasets::Dataset load_dataset(std::istream& is) {
  return read_text<datasets::Dataset>(is);
}

void save_quant_dataset(const datasets::QuantizedDataset& d,
                        std::ostream& os) {
  write_text(d, os);
}
datasets::QuantizedDataset load_quant_dataset(std::istream& is) {
  return read_text<datasets::QuantizedDataset>(is);
}

void save_float_mlp(const mlp::FloatMlp& net, std::ostream& os) {
  write_text(net, os);
}
mlp::FloatMlp load_float_mlp(std::istream& is) {
  return read_text<mlp::FloatMlp>(is);
}

void save_quant_mlp(const mlp::QuantMlp& net, std::ostream& os) {
  write_text(net, os);
}
mlp::QuantMlp load_quant_mlp(std::istream& is) {
  return read_text<mlp::QuantMlp>(is);
}

void save_baseline_pricing(const BaselinePricing& pricing, std::ostream& os) {
  write_text(pricing, os);
}
BaselinePricing load_baseline_pricing(std::istream& is) {
  return read_text<BaselinePricing>(is);
}

void save_training_result(const TrainingResult& r, std::ostream& os) {
  write_text(r, os);
}
TrainingResult load_training_result(std::istream& is) {
  return read_text<TrainingResult>(is);
}

void save_evaluated_points(std::span<const HwEvaluatedPoint> points,
                           std::ostream& os) {
  std::span<HwEvaluatedPoint> view(
      const_cast<HwEvaluatedPoint*>(points.data()), points.size());
  Writer w(os);
  describe_evaluated(w, view);  // the writer only reads
  w.finish();
}
std::vector<HwEvaluatedPoint> load_evaluated_points(std::istream& is) {
  Reader r(is);
  std::vector<HwEvaluatedPoint> points;
  describe_evaluated(r, points);
  return points;
}

void save_ga_state(const nsga2::GenerationState& state, std::ostream& os) {
  write_text(state, os);
}
nsga2::GenerationState load_ga_state(std::istream& is) {
  return read_text<nsga2::GenerationState>(is);
}

// ------------------------------------------------------- checksum footers

std::uint32_t crc32(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string checksum_footer(const std::string& content) {
  const std::size_t lines =
      static_cast<std::size_t>(std::count(content.begin(), content.end(),
                                          '\n'));
  char buf[64];
  std::snprintf(buf, sizeof buf, "# crc32 %08x lines %zu\n",
                crc32(content.data(), content.size()), lines);
  return buf;
}

void verify_checksum_footer(const std::string& content, const char* what) {
  if (content.empty()) return;
  // Locate the final line (newline-terminated or a trailing partial line —
  // a partial line can only be a truncated footer and must be rejected).
  const bool terminated = content.back() == '\n';
  const std::size_t scan_end = terminated ? content.size() - 1
                                          : content.size();
  const std::size_t prev_nl = content.find_last_of('\n', scan_end == 0
                                                             ? 0
                                                             : scan_end - 1);
  const std::size_t line_begin =
      (scan_end == 0 || prev_nl == std::string::npos) ? 0 : prev_nl + 1;
  if (line_begin >= content.size() || content[line_begin] != '#') {
    return;  // no footer: a legacy artifact, accepted unverified
  }
  // From here on the file claims a footer; anything short of a complete,
  // matching one is corruption.
  const std::string line = content.substr(line_begin, scan_end - line_begin);
  if (!terminated) {
    throw std::invalid_argument(std::string(what) +
                                ": truncated checksum footer");
  }
  unsigned long got_crc = 0;
  std::size_t got_lines = 0;
  int consumed = 0;
  if (std::sscanf(line.c_str(), "# crc32 %8lx lines %zu%n", &got_crc,
                  &got_lines, &consumed) != 2 ||
      consumed != static_cast<int>(line.size())) {
    throw std::invalid_argument(std::string(what) +
                                ": malformed checksum footer '" + line + "'");
  }
  const std::string_view body(content.data(), line_begin);
  const auto body_lines = static_cast<std::size_t>(
      std::count(body.begin(), body.end(), '\n'));
  if (body_lines != got_lines) {
    throw std::invalid_argument(
        std::string(what) + ": checksum footer line count mismatch (footer " +
        std::to_string(got_lines) + ", file " + std::to_string(body_lines) +
        ")");
  }
  const std::uint32_t body_crc = crc32(body.data(), body.size());
  if (body_crc != static_cast<std::uint32_t>(got_crc)) {
    throw std::invalid_argument(std::string(what) +
                                ": checksum mismatch (artifact corrupt)");
  }
}

std::string read_artifact_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) {
    throw std::runtime_error("cannot read " + path);
  }
  std::string content = buffer.str();
  verify_checksum_footer(content, path.c_str());
  return content;
}

namespace {

/// fsync one path; directory syncs are best-effort (some filesystems
/// reject O_DIRECTORY fsync), file syncs are mandatory.
void fsync_file_or_throw(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot fsync " + path + ": " +
                             std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error("fsync failed for " + path + ": " +
                             std::strerror(saved));
  }
}

void fsync_dir_best_effort(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace

void write_artifact_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = path + ".tmp";
  try {
    std::ostringstream body;
    writer(body);
    std::string content = body.str();
    content += checksum_footer(content);
    {
      std::ofstream os(tmp, std::ios::binary);
      if (!os) throw std::runtime_error("cannot write " + tmp);
      os.write(content.data(),
               static_cast<std::streamsize>(content.size()));
      os.flush();
      if (!os) throw std::runtime_error("short write to " + tmp);
    }
    // Durability before visibility: the temp file's bytes must be on disk
    // before the rename publishes them, and the rename itself before the
    // parent directory claims the new name survived. Otherwise a power
    // loss can publish an empty or partial artifact through the rename.
    fsync_file_or_throw(tmp);
    std::filesystem::rename(tmp, path);
    fsync_dir_best_effort(
        std::filesystem::path(path).parent_path().string());
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

// ---------------------------------------------------------- front artifacts

namespace {

namespace fs = std::filesystem;

/// Exact-precision double from one index.tsv field (the writer emits
/// max_digits10 decimal digits, which round-trip IEEE-754 exactly).
double parse_index_double(const std::string& field, const std::string& line) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size() ||
      errno == ERANGE) {
    throw std::invalid_argument("load_front_dir: bad numeric field '" +
                                field + "' in index row '" + line + "'");
  }
  return v;
}

/// True when `name` looks like a front model artifact (front_*.model) — the
/// namespace the index is authoritative over. Other files in the directory
/// (index.tsv itself, notes, ...) are none of our business.
bool is_front_model_name(const std::string& name) {
  return name.size() > 12 && name.rfind("front_", 0) == 0 &&
         name.compare(name.size() - 6, 6, ".model") == 0;
}

}  // namespace

std::vector<FrontEntry> front_entries(std::vector<HwEvaluatedPoint> front,
                                      const std::string& prefix) {
  std::vector<FrontEntry> entries;
  for (std::size_t i = 0; i < front.size(); ++i) {
    char name[40];
    std::snprintf(name, sizeof name, "front_%03zu.model", i);
    FrontEntry e;
    e.file = prefix + name;
    e.test_accuracy = front[i].test_accuracy;
    e.area_cm2 = front[i].cost.area_cm2();
    e.power_mw = front[i].cost.power_mw();
    e.functional_match = front[i].functional_match;
    e.model = std::move(front[i].model);
    entries.push_back(std::move(e));
  }
  return entries;
}

void save_front_dir(const std::vector<FrontEntry>& entries,
                    const std::string& dir) {
  const fs::path target(dir);
  const fs::path tmp(dir + ".tmp");
  const fs::path old(dir + ".old");
  fs::remove_all(tmp);  // leftovers of a previously killed run
  fs::remove_all(old);
  fs::create_directories(tmp);
  std::ofstream index(tmp / "index.tsv");
  if (!index) {
    throw std::runtime_error("cannot write " + (tmp / "index.tsv").string());
  }
  // max_digits10 round-trips the doubles exactly, so the index always
  // agrees with the model artifacts and selector queries never tie-break
  // on rounded values.
  index << std::setprecision(std::numeric_limits<double>::max_digits10);
  index << "file\ttest_accuracy\tarea_cm2\tpower_mw\tfunctional_match\n";
  for (const auto& e : entries) {
    save_model_file(e.model, (tmp / e.file).string());
    index << e.file << '\t' << e.test_accuracy << '\t' << e.area_cm2 << '\t'
          << e.power_mw << '\t' << (e.functional_match ? 1 : 0) << '\n';
  }
  index.flush();
  if (!index) {
    throw std::runtime_error("short write to " + (tmp / "index.tsv").string());
  }
  index.close();
  if (fs::exists(target)) fs::rename(target, old);
  fs::rename(tmp, target);
  fs::remove_all(old);
}

std::vector<FrontEntry> load_front_dir(const std::string& dir) {
  const fs::path root(dir);
  std::ifstream index(root / "index.tsv");
  if (!index) {
    throw std::runtime_error("load_front_dir: cannot read " +
                             (root / "index.tsv").string());
  }
  std::string line;
  if (!std::getline(index, line) ||
      line.rfind("file\ttest_accuracy\tarea_cm2\tpower_mw", 0) != 0) {
    throw std::invalid_argument("load_front_dir: bad index.tsv header in " +
                                dir);
  }
  std::vector<FrontEntry> entries;
  while (std::getline(index, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    std::istringstream ls(line);
    while (std::getline(ls, field, '\t')) fields.push_back(field);
    if (fields.size() != 5) {
      throw std::invalid_argument("load_front_dir: expected 5 fields in "
                                  "index row '" + line + "'");
    }
    FrontEntry e;
    e.file = fields[0];
    if (!is_front_model_name(e.file)) {
      throw std::invalid_argument("load_front_dir: index names '" + e.file +
                                  "', not a front_*.model file");
    }
    for (const auto& prior : entries) {
      if (prior.file == e.file) {
        throw std::invalid_argument("load_front_dir: duplicate index entry '" +
                                    e.file + "'");
      }
    }
    e.test_accuracy = parse_index_double(fields[1], line);
    e.area_cm2 = parse_index_double(fields[2], line);
    e.power_mw = parse_index_double(fields[3], line);
    if (fields[4] != "0" && fields[4] != "1") {
      throw std::invalid_argument("load_front_dir: bad functional_match in "
                                  "index row '" + line + "'");
    }
    e.functional_match = fields[4] == "1";
    const fs::path model_path = root / e.file;
    std::error_code ec;
    if (!fs::exists(model_path, ec)) {
      throw std::invalid_argument("load_front_dir: index names missing file " +
                                  model_path.string());
    }
    e.model = load_model_file(model_path.string());
    entries.push_back(std::move(e));
  }
  // The index is authoritative: any front_*.model on disk that it does not
  // name is a stale artifact from an earlier, larger front — reject rather
  // than glob, so a consumer can never serve a model nothing vouches for.
  for (const auto& ent : fs::directory_iterator(root)) {
    const std::string name = ent.path().filename().string();
    if (!is_front_model_name(name)) continue;
    const bool indexed =
        std::any_of(entries.begin(), entries.end(),
                    [&](const FrontEntry& e) { return e.file == name; });
    if (!indexed) {
      throw std::invalid_argument("load_front_dir: stale model file '" +
                                  name + "' in " + dir +
                                  " is not named by index.tsv");
    }
  }
  return entries;
}

std::vector<FrontEntry> load_front_tree(const std::string& dir) {
  const fs::path root(dir);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    throw std::runtime_error("load_front_tree: '" + dir +
                             "' is not a directory");
  }
  // Deterministic entry order regardless of directory_iterator order.
  std::vector<std::string> flows;
  for (const auto& ent : fs::directory_iterator(root)) {
    if (ent.is_directory() && fs::exists(ent.path() / "evaluated.txt", ec)) {
      flows.push_back(ent.path().filename().string());
    }
  }
  std::sort(flows.begin(), flows.end());
  std::vector<FrontEntry> entries;
  for (const auto& flow : flows) {
    std::istringstream is(
        read_artifact_file((root / flow / "evaluated.txt").string()));
    for (auto& e : front_entries(true_pareto(load_evaluated_points(is)),
                                 flow + "/")) {
      entries.push_back(std::move(e));
    }
  }
  if (entries.empty()) {
    throw std::runtime_error(
        "load_front_tree: no flow under '" + dir +
        "' has reached the hardware stage (no evaluated.txt)");
  }
  return entries;
}

std::vector<FrontEntry> load_front_any(const std::string& dir) {
  std::error_code ec;
  if (fs::exists(fs::path(dir) / "index.tsv", ec)) {
    return load_front_dir(dir);
  }
  return load_front_tree(dir);
}

// --------------------------------------------------------------- hexfloats

/// Doubles are stored as C hexfloats ("%a"), which round-trip IEEE-754
/// values exactly and independently of locale or precision settings.
void write_hexdouble(std::ostream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf;
}

double read_hexdouble(std::istream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) {
    throw std::invalid_argument(std::string(what) + ": missing value");
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || errno == ERANGE) {
    throw std::invalid_argument(std::string(what) + ": bad value '" + tok +
                                "'");
  }
  return v;
}

// ------------------------------------------------------------------ digest

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 1099511628211ull;
  }
}

std::uint64_t dataset_digest(const datasets::Dataset& d) {
  Fnv1a h;
  h.str(d.name);
  h.i64(d.n_features);
  h.i64(d.n_classes);
  h.u64(d.labels.size());
  for (int label : d.labels) h.i64(label);
  h.bytes(d.features.data(), d.features.size() * sizeof(double));
  return h.state;
}

}  // namespace pmlp::core
